"""The round trip's witness, the dual of the evaluation isomorphism, against
the bytes pairing by word signatures that it replaced.

`_evaluation_pairing` returns the duals of the evaluation e(f) = f(init)
of the piece's own monoid onto its dual algebra and of e's inverse, as maps
built on generators, and None for any other monoid.
`bytes_signature_pairing` lets every state read the representative words of
the monoid's word images and pairs all states.  On lawful pieces against
their own monoids the two must pair with the same graphs, and
`_structure_iso` must certify a pairing of either exactly when it
certifies one of the other, with the same forward.  Against the monoid of
another piece of the same duality, of the same size and of another size,
the evaluation pairing must be None and the round trip, which then refines,
must end as `bytes_roundtrip_witness` does.  The corpus is seeded, of all
four dualities closed at a 512-element cap.  The cap-size tiers compare the
pairings on the cap-size families.

On corrupted pieces the round trip must refuse with the same class, message
and counterexample as with the bytes pairing, and as `bytes_roundtrip_witness`,
which classified refusals as before the pairing read generators only, and
certified with `graph_structure_iso`, the structure check that compared
whole graphs whenever a map was a table.  The corruptions: the letter
graphs swapped, the states renamed on the same carrier, one letter graph
shuffled, one output flipped, one letter graph held as a table and moved
at a state that is no generator, and pieces that repeat a language.  The
lawful piece with every map copied into a table must be certified with the
same forward graph as the piece itself.  Each runs through
`roundtrip_check` and through the round trip against the clean piece's
monoid, which refines whatever the piece.  `_structure_iso` alone must also
refuse as `graph_structure_iso` does when one entry of either witness map,
a letter graph or the output is moved.  A refused round trip refines once,
one certified through the piece's own monoid never, and one certified
against another piece's monoid once.

The cost: on BA `(aab)*` (4,096 states), DL `(aab)*` (721) and Z2 `(aab)*`
(512), the pairing reads no entry of either side's letter graphs.
"""

import random
from dataclasses import replace

import pytest

import langdual.correspondence
import langdual.languages
from langdual.automata import CCoalgebra, rqc_closure
from langdual.config import Limits
from langdual.correspondence import (
    _evaluation_pairing,
    _roundtrip_witness,
    _structure_iso,
    monoid_to_piece,
    piece_to_monoid,
)
from langdual.duality import DualityTag, c_tag
from langdual.errors import CorrespondenceError, ResourceExceededError
from langdual.languages import compile_text
from langdual.varieties import (
    BoolAlg,
    DistLat,
    FinMorphism,
    VectZ2,
    generators,
    identity,
    jsl_of_sets,
    two_element_algebra,
)
from helpers import random_generators, renamed_states
from oracles import bytes_roundtrip_witness, bytes_signature_pairing, graph_structure_iso

AB = ("a", "b")
CAP = Limits(max_carrier=512)
SMALL = Limits(max_carrier=64)
GENERATOR_SETS = 100


@pytest.fixture(scope="module")
def corpus():
    """(duality, piece, monoid) for every closure of the seeded generator
    sets that fits the 512-element cap."""
    rng = random.Random(1)
    out = []
    for _ in range(GENERATOR_SETS):
        gens = random_generators(rng, AB, max_states=6)
        for d in DualityTag:
            try:
                piece = rqc_closure(c_tag(d), gens, CAP)
            except ResourceExceededError:
                continue
            out.append((d, piece, piece_to_monoid(d, piece, CAP)))
    return out


def _certified(piece, back, paired):
    """The forward graph of a pairing that _structure_iso certifies, else None."""
    if paired is None:
        return None
    try:
        return _structure_iso(piece, back, *paired).forward.graph
    except CorrespondenceError:
        return None


def test_the_generator_pairing_is_the_bytes_pairing_on_the_corpus(corpus):
    """On its own monoid a piece is paired as the bytes pairing pairs it and
    certified alike; on another piece's monoid the evaluation pairing is
    None and the round trip ends as bytes_roundtrip_witness does."""
    rng = random.Random(2)
    big = {d: 0 for d in DualityTag}
    foreign = {"same size": 0, "other size": 0, "paired": 0}
    backs = [monoid_to_piece(d, monoid, CAP) for d, _, monoid in corpus]
    for i, (d, piece, monoid) in enumerate(corpus):
        ours = _evaluation_pairing(d, piece, backs[i], monoid)
        theirs = bytes_signature_pairing(piece, backs[i], monoid)
        assert theirs is not None and [m.graph for m in ours] == [m.graph for m in theirs]
        assert sorted(ours[0].graph) == list(range(piece.size))
        assert _certified(piece, backs[i], ours) == _certified(piece, backs[i], theirs) is not None
        big[d] += piece.size > 64
        others = [j for j, (e, _, _) in enumerate(corpus) if e is d and j != i]
        same = [j for j in others if corpus[j][1].size == piece.size]
        other = [j for j in others if corpus[j][1].size != piece.size]
        for kind, pool in (("same size", same), ("other size", other)):
            if pool:
                j = rng.choice(pool)
                assert _evaluation_pairing(d, piece, backs[j], corpus[j][2]) is None
                ran = _outcome(lambda: _roundtrip_witness(d, piece, corpus[j][2], CAP))
                assert ran == _outcome(lambda: bytes_roundtrip_witness(d, piece, corpus[j][2], CAP)), (d, kind)
                foreign["paired"] += bytes_signature_pairing(piece, backs[j], corpus[j][2]) is not None
                foreign[kind] += 1
    assert min(big.values()) >= 10, big
    assert min(foreign.values()) >= 100, foreign


def _outcome(run):
    try:
        return ("ok", run().forward.graph)
    except Exception as err:  # the refusals are compared, whatever they are
        return ("raise", type(err), str(err), getattr(err, "counterexample", None))


def _shuffled(piece, rng):
    graph = list(piece.gamma[0].graph)
    rng.shuffle(graph)
    return replace(piece, gamma=(FinMorphism(piece.carrier, piece.carrier, tuple(graph)), *piece.gamma[1:]))


def _flipped(piece, s):
    graph = list(piece.out.graph)
    graph[s] ^= 1
    return replace(piece, out=FinMorphism(piece.carrier, piece.out.cod, tuple(graph)))


def _off_generator(piece, rng):
    """One letter graph, as a table, moved at one state that is no
    generator: its images of the generators are the lawful ones."""
    ai = rng.randrange(len(piece.gamma))
    graph = list(piece.gamma[ai].graph)
    s = rng.choice(sorted(set(range(piece.size)) - set(generators(piece.carrier))))
    graph[s] = rng.choice([v for v in range(piece.size) if v != graph[s]])
    gamma = list(piece.gamma)
    gamma[ai] = FinMorphism(piece.carrier, piece.carrier, tuple(graph))
    return replace(piece, gamma=tuple(gamma))


def _as_tables(piece):
    """The piece with every map copied graph for graph into a table."""
    gamma = tuple(FinMorphism(g.dom, g.cod, tuple(g.graph)) for g in piece.gamma)
    return replace(piece, gamma=gamma, out=FinMorphism(piece.out.dom, piece.out.cod, tuple(piece.out.graph)))


def _corruptions(piece, rng):
    perm = list(range(piece.size))
    rng.shuffle(perm)
    return {
        "swapped letters": replace(piece, gamma=piece.gamma[::-1]),
        "renamed states": renamed_states(piece, perm),
        "shuffled letter": _shuffled(piece, rng),
        "flipped output": _flipped(piece, rng.randrange(piece.size)),
        "off-generator letter": _off_generator(piece, rng),
        "as tables": _as_tables(piece),
    }


def _repeating_pieces():
    """Four states that accept the empty language, the full one, the empty
    one and the full one again, on each output-side carrier of four
    elements: the letters fix every state and the output reads bit 0."""
    carriers = (BoolAlg(2), DistLat(((True, False), (False, True))), jsl_of_sets((0, 1, 2, 3)), VectZ2(2))
    for d, carrier in zip(DualityTag, carriers):
        out = FinMorphism(carrier, two_element_algebra(carrier.tag), (0, 1, 0, 1))
        yield d, CCoalgebra(carrier, AB, (identity(carrier),) * 2, out)


def _bytes_pairing(d, piece, back, monoid):
    """bytes_signature_pairing in the place of _evaluation_pairing."""
    return bytes_signature_pairing(piece, back, monoid)


def _same_refusals(d, bad, monoid, monkeypatch):
    """roundtrip_check of bad, and its round trip on monoid, with each
    pairing and with bytes_roundtrip_witness; returns the outcomes.  The
    first roundtrip_check keeps the monoid it builds on bad, if any, for the
    other two."""
    outcomes = []
    for check in ("roundtrip_check", "witness"):
        runs = []
        for pairing, witness in (
            (_evaluation_pairing, _roundtrip_witness),
            (_bytes_pairing, _roundtrip_witness),
            (_evaluation_pairing, bytes_roundtrip_witness),
        ):
            monkeypatch.setattr(langdual.correspondence, "_evaluation_pairing", pairing)
            monkeypatch.setattr(langdual.correspondence, "_roundtrip_witness", witness)
            if check == "roundtrip_check":
                runs.append(_outcome(lambda: langdual.correspondence.roundtrip_check(d, bad, SMALL)))
            else:
                runs.append(_outcome(lambda: witness(d, bad, monoid, SMALL)))
        assert runs[0] == runs[1] == runs[2], (d, check)
        outcomes.append(runs[0])
    return outcomes


def test_corrupted_pieces_are_refused_as_with_the_bytes_pairing(corpus, monkeypatch):
    rng = random.Random(3)
    seen: dict[str, set] = {}
    small = [(d, p, m) for d, p, m in corpus if 3 <= p.size <= 64]
    for d, piece, monoid in rng.sample(small, 40):
        clean = _outcome(lambda: _roundtrip_witness(d, piece, monoid, SMALL))
        for kind, bad in _corruptions(piece, rng).items():
            outcomes = _same_refusals(d, bad, monoid, monkeypatch)
            if kind == "as tables":
                assert clean[0] == "ok" and outcomes == [clean, clean], (d, outcomes)
            for outcome in outcomes:
                seen.setdefault(kind, set()).add(outcome[2] if outcome[0] == "raise" else "ok")
    for d, piece in _repeating_pieces():
        closed = rqc_closure(c_tag(d), piece.labels)
        outcomes = _same_refusals(d, piece, piece_to_monoid(d, closed), monkeypatch)
        assert {outcome[2] for outcome in outcomes} == {"round trip merged two states of one language"}
    assert "label bijection is not an isomorphism of carriers" in seen["renamed states"], seen
    assert "round trip changed the language set" in seen["flipped output"], seen
    assert "round trip changed the language set" in seen["shuffled letter"], seen
    assert "ok" in seen["swapped letters"], seen
    assert "ok" not in seen["off-generator letter"], seen


def _moved(graph, size, rng):
    """graph with one entry moved to another value below size."""
    graph = list(graph)
    s = rng.randrange(len(graph))
    graph[s] = rng.choice([v for v in range(size) if v != graph[s]])
    return tuple(graph)


def test_the_structure_check_refuses_as_the_graph_check(corpus):
    """_structure_iso against graph_structure_iso on the pairing of each
    small piece, with the witness or the piece as tables, and with one
    entry of backward, forward, a letter graph or the output moved."""
    rng = random.Random(6)
    seen: dict[str, set] = {}
    for d, piece, monoid in [(d, p, m) for d, p, m in corpus if 2 <= p.size <= 64]:
        back = monoid_to_piece(d, monoid, SMALL)
        forward, backward = _evaluation_pairing(d, piece, back, monoid)
        tables = [FinMorphism(m.dom, m.cod, tuple(m.graph)) for m in (forward, backward)]
        letter = FinMorphism(piece.carrier, piece.carrier, _moved(piece.gamma[0].graph, piece.size, rng))
        cases = {
            "as tables": (_as_tables(piece), *tables),
            "table witness": (piece, *tables),
            "moved backward": (piece, forward, FinMorphism(back.carrier, piece.carrier, _moved(backward.graph, piece.size, rng))),
            "moved forward": (piece, FinMorphism(piece.carrier, back.carrier, _moved(forward.graph, back.size, rng)), backward),
            "moved letter": (replace(piece, gamma=(letter, *piece.gamma[1:])), forward, backward),
            "moved output": (_flipped(piece, rng.randrange(piece.size)), forward, backward),
        }
        for kind, (p1, f, b) in cases.items():
            outcome = _outcome(lambda: _structure_iso(p1, back, f, b))
            assert outcome == _outcome(lambda: graph_structure_iso(p1, back, f, b)), (d, kind)
            seen.setdefault(kind, set()).add(outcome[2] if outcome[0] == "raise" else "ok")
    assert seen["as tables"] == seen["table witness"] == {"ok"}, seen
    assert seen["moved backward"] == seen["moved forward"] == {"label bijection is not an isomorphism of carriers"}, seen
    assert seen["moved letter"] == {"label bijection does not commute with transitions"}, seen
    assert seen["moved output"] == {"label bijection does not preserve outputs"}, seen


def test_a_refused_round_trip_refines_once(corpus, monkeypatch):
    """A refused round trip refines once, one certified through the piece's
    own monoid never, and one certified against another piece's monoid,
    which only the private entry point can ask for, once, with the witness
    of bytes_roundtrip_witness."""
    calls = [0]
    original = langdual.languages.refine_partition

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(langdual.languages, "refine_partition", counted)
    rng = random.Random(4)
    messages = set()
    certified = {"own": 0, "foreign": 0}
    small = [(d, p, m) for d, p, m in corpus if 3 <= p.size <= 64]
    cases = [(d, renamed_states(p, rng.sample(range(p.size), p.size)), m) for d, p, m in small[:30]]
    cases += [(d, _flipped(p, 0), m) for d, p, m in small[:30]]
    cases += [(d, p, piece_to_monoid(d, rqc_closure(c_tag(d), p.labels))) for d, p in _repeating_pieces()]
    cases += small[:30]
    for d, bad, monoid in cases:
        calls[0] = 0
        outcome = _outcome(lambda: _roundtrip_witness(d, bad, monoid, SMALL))
        refinements = calls[0]
        if outcome[0] == "raise":
            assert refinements == 1, outcome
            messages.add(outcome[2])
        elif vars(bad).get("_monoid") is monoid:
            assert refinements == 0
            certified["own"] += 1
        else:
            assert refinements == 1
            assert outcome == _outcome(lambda: bytes_roundtrip_witness(d, bad, monoid, SMALL))
            certified["foreign"] += 1
    assert messages >= {
        "label bijection is not an isomorphism of carriers",
        "round trip changed the language set",
        "round trip merged two states of one language",
    }, messages
    assert certified["own"] == 30 and certified["foreign"] >= 1, certified


class CountingTuple(tuple):
    """A tuple that counts the reads of its items."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def _counting(q):
    return replace(q, gamma=tuple(FinMorphism(g.dom, g.cod, CountingTuple(g.graph)) for g in q.gamma))


@pytest.mark.parametrize(
    "d, text, size",
    [(DualityTag.BA_SET, "(aab)*", 4096), (DualityTag.DL01_POS, "(aab)*", 721), (DualityTag.Z2_SELF, "(aab)*", 512)],
    ids=["BA", "DL", "Z2"],
)
def test_the_pairing_reads_no_letter_graph(d, text, size):
    piece = rqc_closure(c_tag(d), [compile_text(text, AB)])
    monoid = piece_to_monoid(d, piece)
    back = monoid_to_piece(d, monoid)
    assert piece.size == back.size == size
    counted = [_counting(piece), _counting(back)]
    vars(counted[0])["_monoid"] = monoid  # the copy keeps the piece's monoid
    assert _evaluation_pairing(d, *counted, monoid) == _evaluation_pairing(d, piece, back, monoid) is not None
    for q in counted:
        assert [g.graph.reads for g in q.gamma] == [0] * len(q.gamma)
