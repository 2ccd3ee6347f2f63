"""The round trip's signature pairing read through the carrier's generators,
against the bytes pairing it replaced.

`_signature_pairing` reads only the images of the generators of each
carrier (atoms for BA, a basis for Z2, join-irreducibles for DL and JSL)
under output and letter actions, follows the functionals out.gamma_w over
the monoid's word images, and pairs the generators of each side with the
states of the other that have their signatures (`element_of`), as maps
built on generators.  `bytes_signature_pairing` lets every state read the
same words and pairs all states.  On lawful pieces, against their own
monoids and against the monoid of another piece of the same duality, of
the same size and of another size, the generator pairing must pair with
the same graphs both ways whenever the bytes pairing pairs, and
`_structure_iso` must certify a pairing of either exactly when it
certifies one of the other, with the same forward.  The corpus is seeded,
of all four dualities closed at a 512-element cap.  The cap-size tiers
compare them on the cap-size families.

On corrupted pieces the round trip must refuse with the same class, message
and counterexample as with the bytes pairing, and as `bytes_roundtrip_witness`,
which classified refusals as before the pairing read generators only.  The
corruptions: the letter graphs swapped, the states renamed on the same
carrier, one letter graph shuffled, one output flipped, and pieces that
repeat a language.  Each runs through `roundtrip_check` and through the round
trip against the clean piece's monoid, which reaches the pairing whatever
the piece.  A refused round trip refines once.

The cost: on BA `(aab)*` (4,096 states), DL `(aab)*` (721) and Z2 `(aab)*`
(512), each letter graph of either side is read at most (generators × word
images) times by the pairing.
"""

import random
from dataclasses import replace

import pytest

import langdual.correspondence
import langdual.languages
from langdual.automata import CCoalgebra, rqc_closure
from langdual.config import Limits
from langdual.correspondence import (
    _roundtrip_witness,
    _signature_pairing,
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
from oracles import bytes_roundtrip_witness, bytes_signature_pairing

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


def _both(piece, monoid, back):
    """Both pairings: the generator one pairs as the bytes one does when
    that pairs, and _structure_iso certifies them alike."""
    ours, theirs = _signature_pairing(piece, back, monoid), bytes_signature_pairing(piece, back, monoid)
    if theirs is not None:
        assert ours is not None and [m.graph for m in ours] == [m.graph for m in theirs]
    assert _certified(piece, back, ours) == _certified(piece, back, theirs)
    return ours, theirs


def test_the_generator_pairing_is_the_bytes_pairing_on_the_corpus(corpus):
    rng = random.Random(2)
    big = {d: 0 for d in DualityTag}
    foreign = {"same size": 0, "other size": 0, "paired": 0}
    backs = [monoid_to_piece(d, monoid, CAP) for d, _, monoid in corpus]
    for i, (d, piece, monoid) in enumerate(corpus):
        ours, theirs = _both(piece, monoid, backs[i])
        assert theirs is not None and sorted(ours[0].graph) == list(range(piece.size))
        big[d] += piece.size > 64
        others = [j for j, (e, _, _) in enumerate(corpus) if e is d and j != i]
        same = [j for j in others if corpus[j][1].size == piece.size]
        other = [j for j in others if corpus[j][1].size != piece.size]
        for kind, pool in (("same size", same), ("other size", other)):
            if pool:
                j = rng.choice(pool)
                foreign["paired"] += _both(piece, corpus[j][2], backs[j])[1] is not None
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


def _corruptions(piece, rng):
    perm = list(range(piece.size))
    rng.shuffle(perm)
    return {
        "swapped letters": replace(piece, gamma=piece.gamma[::-1]),
        "renamed states": renamed_states(piece, perm),
        "shuffled letter": _shuffled(piece, rng),
        "flipped output": _flipped(piece, rng.randrange(piece.size)),
    }


def _repeating_pieces():
    """Four states that accept the empty language, the full one, the empty
    one and the full one again, on each output-side carrier of four
    elements: the letters fix every state and the output reads bit 0."""
    carriers = (BoolAlg(2), DistLat(((True, False), (False, True))), jsl_of_sets((0, 1, 2, 3)), VectZ2(2))
    for d, carrier in zip(DualityTag, carriers):
        out = FinMorphism(carrier, two_element_algebra(carrier.tag), (0, 1, 0, 1))
        yield d, CCoalgebra(carrier, AB, (identity(carrier),) * 2, out)


def _same_refusals(d, bad, monoid, monkeypatch):
    """roundtrip_check of bad, and its round trip on monoid, with each
    pairing and with bytes_roundtrip_witness; returns the outcomes.  The
    first roundtrip_check keeps the monoid it builds on bad, if any, for the
    other two."""
    outcomes = []
    for check in ("roundtrip_check", "witness"):
        runs = []
        for pairing, witness in (
            (_signature_pairing, _roundtrip_witness),
            (bytes_signature_pairing, _roundtrip_witness),
            (_signature_pairing, bytes_roundtrip_witness),
        ):
            monkeypatch.setattr(langdual.correspondence, "_signature_pairing", pairing)
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
        for kind, bad in _corruptions(piece, rng).items():
            for outcome in _same_refusals(d, bad, monoid, monkeypatch):
                seen.setdefault(kind, set()).add(outcome[2] if outcome[0] == "raise" else "ok")
    for d, piece in _repeating_pieces():
        closed = rqc_closure(c_tag(d), piece.labels)
        outcomes = _same_refusals(d, piece, piece_to_monoid(d, closed), monkeypatch)
        assert {outcome[2] for outcome in outcomes} == {"round trip merged two states of one language"}
    assert "label bijection is not an isomorphism of carriers" in seen["renamed states"], seen
    assert "round trip changed the language set" in seen["flipped output"], seen
    assert "round trip changed the language set" in seen["shuffled letter"], seen
    assert "ok" in seen["swapped letters"], seen


def test_a_refused_round_trip_refines_once(corpus, monkeypatch):
    calls = [0]
    original = langdual.languages.refine_partition

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(langdual.languages, "refine_partition", counted)
    rng = random.Random(4)
    messages = set()
    small = [(d, p, m) for d, p, m in corpus if 3 <= p.size <= 64]
    cases = [(d, renamed_states(p, rng.sample(range(p.size), p.size)), m) for d, p, m in small[:30]]
    cases += [(d, _flipped(p, 0), m) for d, p, m in small[:30]]
    cases += [(d, p, piece_to_monoid(d, rqc_closure(c_tag(d), p.labels))) for d, p in _repeating_pieces()]
    for d, bad, monoid in cases:
        calls[0] = 0
        outcome = _outcome(lambda: _roundtrip_witness(d, bad, monoid, SMALL))
        if outcome[0] == "raise":
            assert calls[0] == 1, outcome
            messages.add(outcome[2])
        else:
            assert calls[0] == 0
    assert messages >= {
        "label bijection is not an isomorphism of carriers",
        "round trip changed the language set",
        "round trip merged two states of one language",
    }, messages


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
def test_the_pairing_reads_each_letter_graph_once_per_generator_and_word_image(d, text, size):
    piece = rqc_closure(c_tag(d), [compile_text(text, AB)])
    monoid = piece_to_monoid(d, piece)
    back = monoid_to_piece(d, monoid)
    assert piece.size == back.size == size
    words = len(monoid.word_images[0])
    counted = [_counting(piece), _counting(back)]
    assert _signature_pairing(*counted, monoid) == _signature_pairing(piece, back, monoid) is not None
    for q in counted:
        bound = len(generators(q.carrier)) * words
        assert 10 * bound < size * words  # every state reading every word image
        for g in q.gamma:
            assert 0 < g.graph.reads <= bound
