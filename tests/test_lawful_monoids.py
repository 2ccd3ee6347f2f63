"""Monoids that `piece_to_monoid` marks lawful, which the round trip then
dualizes without validating them again.

For every piece below that reaches a monoid, a marked monoid must pass
`validate_monoid`, and `_roundtrip_witness` must give the same outcome on it
and on its unmarked `replace` copy, which is validated: the same witness
graphs, or the same error class, message and counterexample.  A JSL0 join
table that repeats elements is no semilattice, so no masks present it: the
dual of such a piece is refused, and it reaches no monoid.  Every monoid that a
piece here reaches validates, marked or not, so that rule is what shows the
checks behind the mark are kept.  A marked monoid handed on under a smaller
cap is validated, and refused as before.

The pieces: the round-trip corpus of `test_roundtrip_differential.py`; the
families of the benchmark's linear-monoids and boolean-labels workloads; and
seeded hand-built pieces of all four dualities, with random carrier
endomorphisms, random maps that need not be morphisms, and JSL0 join tables
that repeat elements, so that their `below` masks repeat.
"""

import random
from dataclasses import replace

import pytest

from langdual.automata import CCoalgebra, rqc_closure
from langdual.config import DEFAULT_LIMITS, Limits
from langdual.correspondence import _roundtrip_witness, correspond, monoid_to_piece, piece_to_monoid
from langdual.duality import DualityTag, c_tag
from langdual.errors import LangdualError, ResourceExceededError
from langdual.languages import compile_text
from langdual.monoids import SigmaMonoid, validate_monoid
from langdual.varieties import FinMorphism, JoinSemilattice, VarietyTag, two_element_algebra
from helpers import random_algebra, random_morphism
from test_reference_sizes import WORKLOAD_FAMILIES
from test_roundtrip_differential import SMALL, seeded_corpus

AB = ("a", "b")
HAND_BUILT = 60  # pieces per duality and kind


def _outcome(d, piece, monoid, limits):
    try:
        witness = _roundtrip_witness(d, piece, monoid, limits)
    except Exception as err:  # the refusals are compared, whatever they are
        return ("raise", type(err), str(err), getattr(err, "counterexample", None))
    return ("ok", witness.forward.graph, witness.backward.graph)


def _repeats_masks(piece):
    carrier = piece.carrier
    return isinstance(carrier, JoinSemilattice) and len(set(carrier.below)) < carrier.size


def _check(d, piece, monoid, limits):
    """The mark's soundness on one monoid; returns whether it is marked."""
    if monoid.lawful:
        assert validate_monoid(monoid, DEFAULT_LIMITS)
        assert not _repeats_masks(piece)
    copy = replace(monoid)
    assert not copy.lawful and copy == monoid
    assert _outcome(d, piece, monoid, limits) == _outcome(d, piece, copy, limits)
    return monoid.lawful


def test_the_corpus_monoids_are_marked_and_lawful():
    corpus = seeded_corpus()
    assert {d for d, _, _ in corpus} == set(DualityTag)
    assert all(_check(d, piece, monoid, SMALL) for d, piece, monoid in corpus)


@pytest.mark.parametrize("d, text", WORKLOAD_FAMILIES, ids=[f"{d.name}-{text}" for d, text in WORKLOAD_FAMILIES])
def test_the_workload_family_monoids_are_marked_and_lawful(d, text):
    piece = rqc_closure(c_tag(d), [compile_text(text, AB)])
    assert _check(d, piece, piece_to_monoid(d, piece), DEFAULT_LIMITS)


def _random_map(rng, dom, cod):
    return FinMorphism(dom, cod, tuple(rng.randrange(cod.size) for _ in range(dom.size)))


def _repeated_table(rng):
    """A lawful JSL0 with one or two elements repeated: element e stands for
    base element idx[e], and each join picks one of the result's copies."""
    base = random_algebra(rng, VarietyTag.JSL0)
    idx = [*range(base.size), *(rng.randrange(base.size) for _ in range(rng.randint(1, 2)))]
    copies = [[e for e in range(len(idx)) if idx[e] == x] for x in range(base.size)]
    join = tuple(tuple(rng.choice(copies[base.join[x][y]]) for y in idx) for x in idx)
    return base, JoinSemilattice(join, base.zero), idx, copies


def _hand_built(rng, d, kind):
    tag = c_tag(d)
    two = two_element_algebra(tag)
    if kind == "repeated masks":
        base, carrier, idx, copies = _repeated_table(rng)
        gamma = [random_morphism(rng, base, base) for _ in AB]
        graphs = [tuple(rng.choice(copies[g.graph[x]]) for x in idx) for g in gamma]
        out = FinMorphism(carrier, two, tuple(random_morphism(rng, base, two).graph[x] for x in idx))
        return CCoalgebra(carrier, AB, tuple(FinMorphism(carrier, carrier, g) for g in graphs), out)
    carrier = random_algebra(rng, tag)
    if kind == "endomorphisms":
        gamma = [random_morphism(rng, carrier, carrier) for _ in AB]
        return CCoalgebra(carrier, AB, tuple(gamma), random_morphism(rng, carrier, two))
    # each map a morphism or not, at random
    gamma = [(_random_map if rng.random() < 0.5 else random_morphism)(rng, carrier, carrier) for _ in AB]
    out = (_random_map if rng.random() < 0.5 else random_morphism)(rng, carrier, two)
    return CCoalgebra(carrier, AB, tuple(gamma), out)


def test_hand_built_pieces_are_marked_only_when_lawful():
    rng = random.Random(18)
    seen = {}
    for d in DualityTag:
        kinds = ["endomorphisms", "maps"] + ["repeated masks"] * (d is DualityTag.JSL_SELF)
        for kind in kinds:
            for _ in range(HAND_BUILT):
                piece = _hand_built(rng, d, kind)
                try:
                    monoid = piece_to_monoid(d, piece, SMALL)
                except (LangdualError, ValueError):  # a refused piece reaches no round trip
                    seen[d, kind, "refused"] = seen.get((d, kind, "refused"), 0) + 1
                    continue
                key = (d, kind, _check(d, piece, monoid, SMALL))
                seen[key] = seen.get(key, 0) + 1
    for d in DualityTag:
        assert seen.get((d, "endomorphisms", True), 0) >= 10, seen
        assert seen.get((d, "maps", True), 0) >= 1, seen
    assert seen.get((DualityTag.JSL_SELF, "repeated masks", "refused"), 0) >= 10, seen
    assert not seen.get((DualityTag.JSL_SELF, "repeated masks", False)), seen


def test_a_marked_monoid_past_a_smaller_cap_is_validated_and_refused_as_before():
    monoid = correspond(DualityTag.JSL_SELF, [compile_text("(a|b)*abb", AB)]).monoid
    assert monoid.lawful and monoid.size > 8
    small = Limits(max_carrier=4)
    refusals = []
    for m in (monoid, replace(monoid)):
        with pytest.raises(ResourceExceededError) as err:
            monoid_to_piece(DualityTag.JSL_SELF, m, small)
        refusals.append(str(err.value))
    assert refusals == ["generation closure exceeded the carrier cap"] * 2


def test_no_constructor_sets_the_mark_and_validation_never_reads_it():
    monoid = correspond(DualityTag.Z2_SELF, [compile_text("(ab)*", AB)]).monoid
    assert monoid.lawful
    fields = (monoid.carrier, monoid.alphabet, monoid.unit, monoid.mult, monoid.gen)
    with pytest.raises(TypeError):
        SigmaMonoid(*fields, lawful=True)
    rebuilt = SigmaMonoid(*fields)
    assert not rebuilt.lawful and rebuilt == monoid and hash(rebuilt) == hash(monoid)
    assert repr(rebuilt) == repr(monoid) and "lawful" not in repr(monoid)
    # a corrupted table that carries the mark anyway is still refused
    row = list(monoid.mult[monoid.unit])
    row[-1] = (row[-1] + 1) % monoid.size
    broken = replace(monoid, mult=(*monoid.mult[: monoid.unit], tuple(row), *monoid.mult[monoid.unit + 1 :]))
    object.__setattr__(broken, "lawful", True)
    assert not validate_monoid(broken)
