"""Label inclusion and piece joins from one refinement, against the label path.

`order_check` decides label inclusion from the blocks of one refinement of
the two pieces side by side, and `piece_join` closes the quotient of that
refinement, with every block as a start, instead of the n1 + n2 label DFAs.
`oracles.label_inclusion` and `oracles.label_piece_join` are the label-set
path they replaced.  Both must give `==` pieces and equal verdicts, or raise
the same class with the same message.

The inputs: seeded pairs of generator sets in the style of the benchmark's
desk instances, closed at a 64-element cap under all four dualities, each
pair in both orders and each piece with itself, joined at caps 1, 8, 64 and
the default; a hand-built piece that repeats a language; and pieces over
different alphabets.  The oracle's monoids come from fresh copies of the
pieces, so no piece's kept monoid stands in for them.
"""

import random
from dataclasses import replace

from langdual.automata import CCoalgebra, rqc_closure
from langdual.config import DEFAULT_LIMITS, Limits
from langdual.correspondence import order_check, piece_join, piece_to_monoid
from langdual.duality import DualityTag, c_tag
from langdual.errors import ResourceExceededError
from langdual.languages import compile_text
from langdual.monoids import quotient_leq
from langdual.varieties import BoolAlg, FinMorphism, VarietyTag, identity, two_element_algebra
from helpers import random_generators
from oracles import label_inclusion, label_piece_join

AB = ("a", "b")
DESK = Limits(max_carrier=64)
CAPS = [Limits(max_carrier=cap) for cap in (1, 8, 64)] + [DEFAULT_LIMITS]
PAIRS = 20  # seeded pairs of generator sets


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as err:  # the refusals are compared, whatever they are
        return ("raise", type(err), str(err))


def _label_order_check(d, p1, p2, limits=DEFAULT_LIMITS):
    """order_check as the label path ran it: inclusion first, then the monoids."""
    inclusion = label_inclusion(p1, p2)
    m1 = piece_to_monoid(d, replace(p1), limits)
    m2 = piece_to_monoid(d, replace(p2), limits)
    return inclusion == quotient_leq(m1, m2, limits)


def _same(d, p1, p2, caps=CAPS):
    """The verdict and the join outcomes, each checked against the label path."""
    verdict = _outcome(lambda: order_check(d, p1, p2))
    assert verdict == _outcome(lambda: _label_order_check(d, p1, p2))
    joins = []
    for limits in caps:
        joins.append(_outcome(lambda: piece_join(d, p1, p2, limits)))
        assert joins[-1] == _outcome(lambda: label_piece_join(d, p1, p2, limits)), limits
    return verdict, joins


def desk_pairs():
    """(duality, piece, piece) for every seeded pair that closes under the cap."""
    rng = random.Random(25)
    out = []
    for _ in range(PAIRS):
        first, second = random_generators(rng, AB), random_generators(rng, AB)
        for d in DualityTag:
            try:
                out.append((d, rqc_closure(c_tag(d), first, DESK), rqc_closure(c_tag(d), second, DESK)))
            except ResourceExceededError:
                continue
    return out


def test_join_and_inclusion_equal_the_label_path_on_desk_pairs():
    pairs = desk_pairs()
    assert {d for d, _, _ in pairs} == set(DualityTag)
    inclusions, joined = set(), set()
    for d, p1, p2 in pairs:
        for left, right in ((p1, p2), (p2, p1), (p1, p1)):
            verdict, joins = _same(d, left, right)
            assert verdict == ("ok", True)
            inclusions.add(label_inclusion(left, right))
            joined.update((limits.max_carrier, kind) for limits, (kind, *_) in zip(CAPS, joins))
    assert inclusions == {True, False}
    # cap 8 refuses some joins and the default cap none
    assert {kind for cap, kind in joined if cap == 8} == {"ok", "raise"}
    assert {kind for cap, kind in joined if cap == DEFAULT_LIMITS.max_carrier} == {"ok"}


def test_a_piece_that_repeats_a_language_joins_as_before():
    """Four states accepting the empty language, the full one, the empty one
    and the full one again: one block per language, two states each."""
    carrier = BoolAlg(2)
    stay = identity(carrier)
    out = FinMorphism(carrier, two_element_algebra(VarietyTag.BA), (0, 1, 0, 1))
    piece = CCoalgebra(carrier, AB, (stay, stay), out)
    closed = rqc_closure(VarietyTag.BA, [compile_text("(ab)*", AB)])
    for p1, p2 in ((piece, piece), (piece, closed), (closed, piece)):
        _same(DualityTag.BA_SET, p1, p2)


def test_pieces_over_different_alphabets_are_refused_as_before():
    ab = rqc_closure(VarietyTag.BA, [compile_text("(ab)*", AB)])
    for alphabet in (("a",), ("a", "c")):
        other = rqc_closure(VarietyTag.BA, [compile_text("a*", alphabet)])
        for p1, p2 in ((ab, other), (other, ab)):
            verdict, joins = _same(DualityTag.BA_SET, p1, p2, [DEFAULT_LIMITS])
            assert verdict[0] == joins[0][0] == "raise"
