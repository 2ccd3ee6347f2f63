"""Closure read off the transition monoid, and the round trip paired by the
dual of its evaluation isomorphism, against the refinements they replaced.

`piece_to_monoid` builds the transition monoid T of the piece's dual algebra
A with its closure capped at |A|, and refuses the piece as not closed under
right derivatives when |T| != |A| or, for DL, when evaluation at the initial
state does not reflect the order.  A cap refusal on the way is a closure
refusal exactly when `is_rqc_closed` says the piece is not closed.
`checked_piece_to_monoid` keeps the order it replaced: `is_rqc_closed`
first, then the reachable part and the monoid at the caller's cap.  Both
must return the same monoid, or raise the same class with the same message.

`_roundtrip_witness` pairs the piece's states with the returned ones by the
dual of the evaluation isomorphism of the piece's monoid; the pairing must
be the one `match_states` finds by refining the two side by side, and a successful `correspond` must run no refinement, where the
labels, `is_rqc_closed`, `order_check` and `piece_join` each run one.

The corpus: seeded generator sets of one or two regexes of at most 5 DFA
states, closed at a 512-element cap under all four dualities by
`generate_subcoalgebra` (often not closed under right derivatives) and by
`rqc_closure`.  Each piece is run at caps 2 to 512, so that pieces past the
smaller caps pin which refusal wins.
"""

import random

import pytest

import langdual.correspondence
import langdual.languages
from langdual.automata import (
    coalgebra_to_dalgebra,
    generate_subcoalgebra,
    is_rqc_closed,
    reachable_part,
    rqc_closure,
)
from langdual.config import Limits
from langdual.correspondence import (
    correspond,
    monoid_to_piece,
    order_check,
    piece_join,
    piece_to_monoid,
    roundtrip_check,
)
from langdual.duality import DualityTag, c_tag
from langdual.errors import LangdualError, NotRqcClosedError, ResourceExceededError
from langdual.languages import compile_text
from langdual.monoids import transition_monoid
from helpers import random_generators
from oracles import checked_piece_to_monoid, match_states, word_rqc_closed

AB = ("a", "b")
BUILD_CAP = Limits(max_carrier=512)
CAPS = (2, 4, 8, 16, 64, 512)
GENERATOR_SETS = 20

# DL pieces not closed under right derivatives whose monoid has as many
# elements as the dual algebra: evaluation is a bijection there, and only the
# order tells them apart from closed ones
BIJECTIVE_NOT_CLOSED = [("b*", "@|a(a|b)*"), ("b(a|b)", "a"), ("b|bb", "b|ab*")]

# the boolean-labels families of the benchmark and the cap-size families
# whose round trip takes well under a second
FAMILIES = [
    (DualityTag.BA_SET, "(aaaa)*b"),
    (DualityTag.BA_SET, "(ab)*b"),
    (DualityTag.DL01_POS, "(aa|b)*ab"),
    (DualityTag.DL01_POS, "(aaaa)*b"),
    (DualityTag.BA_SET, "(aab)*"),
    (DualityTag.DL01_POS, "(aab)*"),
    (DualityTag.DL01_POS, "(ab|ba)*a"),
    (DualityTag.Z2_SELF, "(aab)*"),
    (DualityTag.JSL_SELF, "(aab)*"),
]


@pytest.fixture(scope="module")
def corpus():
    """(duality, piece) for every closure of the seeded generator sets, by
    both builders, that fits the build cap."""
    rng = random.Random(2027)
    out = []
    for _ in range(GENERATOR_SETS):
        gens = random_generators(rng, AB, max_states=5)
        for d in DualityTag:
            for build in (generate_subcoalgebra, rqc_closure):
                try:
                    out.append((d, build(c_tag(d), gens, BUILD_CAP)))
                except ResourceExceededError:
                    continue
    return out


def _outcome(to_monoid, d, piece, limits):
    try:
        return ("ok", to_monoid(d, piece, limits))
    except LangdualError as err:
        return ("raise", type(err), str(err))


def test_closure_verdict_equals_the_checked_one(corpus):
    kinds = {"ok": 0, NotRqcClosedError: 0, ResourceExceededError: 0, "closure refusal past the cap": 0}
    for d, piece in corpus:
        closed = is_rqc_closed(piece)
        for cap in CAPS:
            limits = Limits(max_carrier=cap)
            ours = _outcome(piece_to_monoid, d, piece, limits)
            assert ours == _outcome(checked_piece_to_monoid, d, piece, limits)
            kinds[ours[0] if ours[0] == "ok" else ours[1]] += 1
            kinds["closure refusal past the cap"] += not closed and piece.size > cap
    assert {d for d, _ in corpus} == set(DualityTag)
    assert min(kinds.values()) >= 50, kinds


def test_is_rqc_closed_matches_word_enumeration_on_the_corpus(corpus):
    verdicts = [is_rqc_closed(piece) for _, piece in corpus]
    assert verdicts == [word_rqc_closed(piece, BUILD_CAP) for _, piece in corpus]
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 100


@pytest.mark.parametrize("texts", BIJECTIVE_NOT_CLOSED, ids="/".join)
def test_a_bijective_evaluation_that_does_not_reflect_the_order_is_refused(texts):
    d = DualityTag.DL01_POS
    piece = generate_subcoalgebra(c_tag(d), [compile_text(t, AB) for t in texts])
    algebra = reachable_part(coalgebra_to_dalgebra(d, piece))
    assert transition_monoid(algebra, reverse_composition=True).size == algebra.size
    assert not word_rqc_closed(piece)
    with pytest.raises(NotRqcClosedError, match=r"^piece is not closed under right derivatives$"):
        piece_to_monoid(d, piece)


@pytest.fixture
def returned(monkeypatch):
    """The automata that the round trip dualizes the monoid back into."""
    out = []

    def recorded(*args):
        out.append(monoid_to_piece(*args))
        return out[-1]

    monkeypatch.setattr(langdual.correspondence, "monoid_to_piece", recorded)
    return out


def _paired_like_the_refinement(d, piece, limits, returned):
    forward = roundtrip_check(d, piece, limits).forward.graph
    assert forward == match_states(piece, returned.pop())


def test_the_evaluation_pairing_is_the_refined_matching_on_the_corpus(corpus, returned):
    closed = [(d, piece) for d, piece in corpus if is_rqc_closed(piece)]
    assert len(closed) >= 100
    for d, piece in closed:
        _paired_like_the_refinement(d, piece, BUILD_CAP, returned)


@pytest.mark.parametrize("d, text", FAMILIES, ids=[f"{d.name}-{text}" for d, text in FAMILIES])
def test_the_evaluation_pairing_is_the_refined_matching_on_the_families(d, text, returned):
    _paired_like_the_refinement(d, rqc_closure(c_tag(d), [compile_text(text, AB)]), Limits(), returned)


def test_a_successful_correspond_runs_no_refinement(corpus, monkeypatch):
    """`languages.refine_partition` is the one refinement: under
    `is_rqc_closed`, the labels, `order_check`, `piece_join` and the
    `match_states` oracle.  Each of those runs it once, a second read of the
    labels none."""
    unclosed = next((d, p) for d, p in corpus if p.size > 8 and not is_rqc_closed(p))
    rng = random.Random(11)
    generator_sets = [random_generators(rng, AB, max_states=5) for _ in range(20)]
    families = [(d, [compile_text(text, AB)]) for d, text in FAMILIES[:4]]  # compiling minimizes
    calls = {"is_rqc_closed": 0, "refine_partition": 0}
    for module, name in ((langdual.correspondence, "is_rqc_closed"), (langdual.languages, "refine_partition")):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    pieces = {d: [] for d in DualityTag}
    for gens in generator_sets:
        for d in DualityTag:
            try:
                pieces[d].append(correspond(d, gens, Limits(max_carrier=64)).piece)
            except ResourceExceededError:
                continue
    for d, gens in families:
        correspond(d, gens)
    assert calls == {"is_rqc_closed": 0, "refine_partition": 0}

    def refinements(run):
        calls["refine_partition"] = 0
        run()
        return calls["refine_partition"]

    for d, (p1, p2, *_) in pieces.items():
        assert refinements(lambda: p1.labels) == 1
        assert refinements(lambda: p1.labels) == 0
        assert refinements(lambda: is_rqc_closed(p2)) == 1
        assert refinements(lambda: order_check(d, p1, p2)) == 1
        assert refinements(lambda: piece_join(d, p1, p2)) == 1

    # the counters see a refusal's refinement
    calls["refine_partition"] = 0
    with pytest.raises(NotRqcClosedError):
        piece_to_monoid(*unclosed, Limits(max_carrier=8))
    assert calls == {"is_rqc_closed": 1, "refine_partition": 1}
