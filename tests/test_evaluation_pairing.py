"""The transition monoid's evaluation, the objects that dualize back to
themselves, and the JSL upper adjoint built on generators: the three things
the round trip's witness, the dual of the evaluation isomorphism, is made
of.

- `transition_monoid(a).evaluation` is `cubic_transition_maps`' maps read at
  the initial state, in the monoid's numbering, on all four algebra-side
  carriers and both composition orders; under reverse composition it sends
  the unit to the initial state and a·x to alpha_a(e(x)).
- `dual_object(d, dual_object(d, x))` is x itself for DL01, POS and JSL0
  carriers, so a dual witness lands on the piece's own carrier.
- `dual_morphism` of a JSL0 map, built from its values at the codomain's
  meet-irreducibles, is `tabled_dual_morphism`'s full-table adjoint graph
  for graph, or raises as it does, on seeded random maps between JSL0
  carriers, most of them no join morphisms; the adjoint of the join
  extension of a map's values at the irreducibles can exist when the map
  is none, and then both return it.
"""

import random

from langdual.duality import DualityTag, dual_morphism, dual_object
from langdual.monoids import transition_monoid
from langdual.varieties import FinMorphism, VarietyTag, validate_morphism
from helpers import random_algebra, random_morphism
from oracles import cubic_transition_maps, tabled_dual_morphism
from test_monoid_differential import _corpus


def test_the_evaluation_reads_the_cubic_maps_at_the_initial_state():
    corpus = _corpus(seed=83, per_duality=8, cap=64)
    assert {d for d, _, _ in corpus} == set(DualityTag)
    for d, _, alg in corpus:
        maps, _ = cubic_transition_maps(alg)
        for reverse in (True, False):
            e = transition_monoid(alg, reverse).evaluation
            assert e.graph == tuple(f[alg.init] for f in maps), (d, reverse)
            assert e.cod is alg.carrier and e.dom.size == len(maps)


def test_under_reverse_composition_the_evaluation_follows_the_letters():
    for d, _, alg in _corpus(seed=84, per_duality=8, cap=64):
        m = transition_monoid(alg, reverse_composition=True)
        e = m.evaluation.graph
        assert e[m.unit] == alg.init
        for row, alpha in zip(m.letter_rows, alg.alpha):
            assert [e[ax] for ax in row] == [alpha.graph[ex] for ex in e], d


def test_dualizing_twice_returns_the_object():
    rng = random.Random(85)
    for d, tags in (
        (DualityTag.DL01_POS, (VarietyTag.DL01, VarietyTag.POS)),
        (DualityTag.JSL_SELF, (VarietyTag.JSL0,)),
    ):
        for tag in tags:
            for _ in range(30):
                x = random_algebra(rng, tag)
                assert dual_object(d, dual_object(d, x)) is x


def _outcome(run):
    try:
        return ("ok", run().graph)
    except Exception as err:  # the refusals are compared, whatever they are
        return ("raise", type(err), str(err))


def test_the_jsl_adjoint_on_generators_is_the_table_adjoint():
    rng = random.Random(86)
    seen = {"ok": 0, "raise": 0, "no morphism": 0}
    for i in range(1500):
        dom, cod = random_algebra(rng, VarietyTag.JSL0), random_algebra(rng, VarietyTag.JSL0)
        if i % 4:
            h = FinMorphism(dom, cod, tuple(rng.randrange(cod.size) for _ in range(dom.size)))
        else:
            h = random_morphism(rng, dom, cod)
        outcome = _outcome(lambda: dual_morphism(DualityTag.JSL_SELF, h))
        assert outcome == _outcome(lambda: tabled_dual_morphism(DualityTag.JSL_SELF, h))
        seen[outcome[0]] += 1
        seen["no morphism"] += not validate_morphism(h)
    assert min(seen.values()) >= 300 and seen["no morphism"] > seen["raise"], seen
