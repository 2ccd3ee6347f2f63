"""Morphism checks and dual maps read off generators, against the
element-by-element oracles they replaced.

validate_morphism checks BA maps as the subset sums of disjoint atom images
that cover the top, Z2VECT maps as the subset sums of their basis images and
JSL0 maps on the join-irreducibles.  dual_morphism reads a JSL upper adjoint
off the irreducibles, transposes Z2 basis columns, spans SET preimages from
the points' preimages and looks a DL least preimage up among the principal
downsets, and pulls a POS map's downsets back through unions of its fibres.
Seeded corpora over all six tags.
"""

import random
from functools import reduce
from itertools import product
from operator import or_

import pytest

from langdual.automata import rqc_closure
from langdual.correspondence import piece_to_monoid
from langdual.duality import DualityTag, c_tag, dual_morphism
from langdual.errors import NonFunctionalError
from langdual.languages import compile_text
from langdual.varieties import (
    BoolAlg,
    FinMorphism,
    VarietyTag,
    VectZ2,
    subset_sums,
    unions,
    validate_morphism,
)
from helpers import make_jsl, random_algebra, random_morphism, scrambled_jsl
from oracles import downset_meet_table, pairwise_validate_morphism, scanning_dual_morphism

DUALITY_OF = {
    VarietyTag.BA: DualityTag.BA_SET,
    VarietyTag.SET: DualityTag.BA_SET,
    VarietyTag.DL01: DualityTag.DL01_POS,
    VarietyTag.POS: DualityTag.DL01_POS,
    VarietyTag.JSL0: DualityTag.JSL_SELF,
    VarietyTag.Z2VECT: DualityTag.Z2_SELF,
}


def _agree(m):
    verdict = validate_morphism(m)
    assert verdict == pairwise_validate_morphism(m), m
    return verdict


def _corrupted(rng, m):
    """m with one entry moved to another element of the codomain."""
    graph = list(m.graph)
    x = rng.randrange(len(graph))
    graph[x] = rng.choice([v for v in range(m.cod.size) if v != graph[x]] or [graph[x]])
    return FinMorphism(m.dom, m.cod, tuple(graph))


@pytest.mark.parametrize("kind", [BoolAlg, VectZ2])
def test_ba_and_z2_checks_match_the_oracle_on_every_small_graph(kind):
    lawful = expected = 0
    for k, l in [(0, 1), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)]:
        dom, cod = kind(k), kind(l)
        lawful += sum(_agree(FinMorphism(dom, cod, graph)) for graph in product(range(cod.size), repeat=dom.size))
        # BA maps are dual to maps from the l codomain atoms to the k domain ones; linear maps are l x k matrices
        expected += k**l if kind is BoolAlg else 2 ** (k * l)
    assert lawful == expected


def test_ba_checks_match_the_oracle_on_aimed_atom_images():
    # each codomain atom goes under one domain atom's image or under none, so
    # the images are disjoint, and they cover the top when no atom is left out
    rng = random.Random(5)
    seen = {"lawful": 0, "uncovered": 0, "overlapping": 0, "other": 0}
    for _ in range(400):
        dom, cod = BoolAlg(rng.randint(1, 4)), BoolAlg(rng.randint(1, 4))
        owner = [rng.choice([*range(dom.atoms), None, None]) for _ in range(cod.atoms)]
        images = [sum(1 << j for j, o in enumerate(owner) if o == i) for i in range(dom.atoms)]
        if rng.random() < 0.3:
            images[rng.randrange(dom.atoms)] |= 1 << rng.randrange(cod.atoms)
        m = FinMorphism(dom, cod, tuple(subset_sums(images, or_)))
        lawful = _agree(m)
        covered = reduce(or_, images) == cod.top
        disjoint = sum(map(int.bit_count, images)) == reduce(or_, images).bit_count()
        seen["lawful" if lawful else "uncovered" if disjoint else "overlapping" if covered else "other"] += 1
        if lawful:
            assert not _agree(_corrupted(rng, m))
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("tag", [VarietyTag.BA, VarietyTag.Z2VECT])
def test_ba_and_z2_checks_match_the_oracle_on_random_graphs(tag):
    rng = random.Random(7)
    verdicts = []
    for _ in range(150):
        dom, cod = random_algebra(rng, tag), random_algebra(rng, tag)
        m = random_morphism(rng, dom, cod)
        assert _agree(m)
        verdicts.append(_agree(_corrupted(rng, m)))
        verdicts.append(_agree(FinMorphism(dom, cod, tuple(rng.randrange(cod.size) for _ in range(dom.size)))))
    assert verdicts.count(False) >= 200


def _join_extension(rng, dom, cod):
    """The map sending each x to the join of random images of the
    irreducibles below it: a join morphism when those are join-prime, and
    often not otherwise."""
    images = [rng.randrange(cod.size) for _ in dom.irreducibles]
    graph = []
    for mask in dom.below:
        image = cod.zero
        for i, v in enumerate(images):
            if mask >> i & 1:
                image = cod.join[image][v]
        graph.append(image)
    return FinMorphism(dom, cod, tuple(graph))


def test_jsl_checks_and_adjoints_match_the_oracles_on_scrambled_tables():
    rng = random.Random(11)
    algebras = []
    for _ in range(40):
        # sparse seeds keep their unions apart: families of up to 64 masks
        seeds = [sum(1 << rng.randrange(10) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(3, 6))]
        algebras.append(make_jsl(*scrambled_jsl(rng, seeds)))
    algebras.append(make_jsl(*scrambled_jsl(rng, [1 << i for i in range(6)])))  # all 64 subsets
    assert max(a.size for a in algebras) == 64
    for alg in algebras:
        assert alg.dual.join == downset_meet_table(alg.join)
        assert alg.dual.zero == reduce(lambda t, x: alg.join[t][x], range(alg.size), alg.zero)
    verdicts = []
    for _ in range(300):
        dom, cod = rng.choice(algebras), rng.choice(algebras)
        m = _join_extension(rng, dom, cod)
        if _agree(m):
            assert dual_morphism(DualityTag.JSL_SELF, m) == scanning_dual_morphism(DualityTag.JSL_SELF, m)
            verdicts.append(True)
            verdicts.append(_agree(_corrupted(rng, m)))
        else:
            verdicts.append(False)
        verdicts.append(_agree(FinMorphism(dom, cod, tuple(rng.randrange(cod.size) for _ in range(dom.size)))))
    assert verdicts.count(True) >= 200 and verdicts.count(False) >= 500


@pytest.mark.parametrize("tag", list(DUALITY_OF))
def test_dual_maps_match_the_oracle_on_every_morphism(tag):
    d = DUALITY_OF[tag]
    rng = random.Random(13)
    for _ in range(60):
        dom, cod = random_algebra(rng, tag), random_algebra(rng, tag)
        m = random_morphism(rng, dom, cod)
        assert dual_morphism(d, m) == scanning_dual_morphism(d, m)
        if tag not in (VarietyTag.SET, VarietyTag.DL01, VarietyTag.Z2VECT):
            continue  # unchanged cases, and off morphisms a JSL adjoint has no fixed answer
        # these read only what the oracle reads: the same graph or the same refusal
        m = _corrupted(rng, m)
        try:
            expected = scanning_dual_morphism(d, m)
        except NonFunctionalError as err:
            with pytest.raises(NonFunctionalError, match=str(err)):
                dual_morphism(d, m)
        else:
            assert dual_morphism(d, m) == expected


def test_join_preserving_lattice_maps_dualize_like_the_scan():
    # a map that sends each element to the union of its principal downsets'
    # images keeps joins and the bottom but not always meets or the top; its
    # least preimages are read off the principal downsets, and must be the
    # scan's, or its refusal
    rng = random.Random(19)
    seen = {"same graph": 0}
    for _ in range(400):
        dom, cod = random_algebra(rng, VarietyTag.DL01), random_algebra(rng, VarietyTag.DL01)
        image = [rng.choice(cod.downset_masks) for _ in range(dom.n_ji)]
        union = unions(image)
        m = FinMorphism(dom, cod, tuple(cod.downset_index[union(x)] for x in dom.downset_masks))
        try:
            expected = scanning_dual_morphism(DualityTag.DL01_POS, m)
        except NonFunctionalError as err:
            with pytest.raises(NonFunctionalError, match=str(err)):
                dual_morphism(DualityTag.DL01_POS, m)
            seen[str(err)] = seen.get(str(err), 0) + 1
        else:
            assert dual_morphism(DualityTag.DL01_POS, m) == expected
            seen["same graph"] += 1
    assert len(seen) == 3 and min(seen.values()) >= 30, seen


def test_poset_maps_dualize_like_the_downset_by_downset_preimage():
    # a map that is not monotone pulls some downset back to a non-downset,
    # which both look up in vain
    rng = random.Random(17)
    seen = {"same graph": 0, "KeyError": 0}
    for _ in range(300):
        dom, cod = random_algebra(rng, VarietyTag.POS), random_algebra(rng, VarietyTag.POS)
        if rng.random() < 0.5:
            m = random_morphism(rng, dom, cod)
        else:
            m = FinMorphism(dom, cod, tuple(rng.randrange(cod.size) for _ in range(dom.size)))
        try:
            expected = scanning_dual_morphism(DualityTag.DL01_POS, m)
        except Exception as err:  # the refusals are compared, whatever they are
            with pytest.raises(Exception) as caught:
                dual_morphism(DualityTag.DL01_POS, m)
            assert type(caught.value) is type(err)
            seen[type(err).__name__] += 1
        else:
            assert dual_morphism(DualityTag.DL01_POS, m) == expected
            seen["same graph"] += 1
    assert min(seen.values()) >= 50, seen


def test_a_map_that_keeps_no_joins_has_no_upper_adjoint():
    chain = make_jsl(((0, 1, 2), (1, 1, 2), (2, 2, 2)), 0)
    m = FinMorphism(chain, chain, (0, 1, 0))
    assert not validate_morphism(m)
    with pytest.raises(NonFunctionalError, match="upper adjoint"):
        dual_morphism(DualityTag.JSL_SELF, m)


def test_adjoints_of_a_684_element_piece_match_the_oracle():
    d = DualityTag.JSL_SELF
    piece = rqc_closure(c_tag(d), [compile_text("(a|b)*a(a|b)(a|b)(a|b)(a|b)", "ab")])
    assert piece.size == 684
    for h in [*piece.gamma, piece.out]:
        assert dual_morphism(d, h) == scanning_dual_morphism(d, h)
    m = piece_to_monoid(d, piece)
    for g in m.gen:
        left = FinMorphism(m.carrier, m.carrier, tuple(m.mult[g]))
        assert dual_morphism(d, left) == scanning_dual_morphism(d, left)
