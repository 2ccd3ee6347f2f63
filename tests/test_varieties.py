from operator import xor

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from langdual.errors import TagMismatchError
from langdual.varieties import (
    BoolAlg,
    DistLat,
    FinMorphism,
    FinSet,
    JoinSemilattice,
    VarietyTag,
    VectZ2,
    algebra_to_json,
    free_on_one,
    gaussian_basis,
    identity,
    is_order_reflecting,
    jsl_from_masks,
    leq,
    present_closure,
    present_subset,
    subset_sums,
    two_element_algebra,
    validate_morphism,
)
from helpers import algebra_from_json, is_injective, is_surjective, make_jsl, make_poset, pairing
from oracles import image_factorize, mask_lattice_presentation, product_algebra, sorted_order_basis

CHAIN3 = make_jsl(((0, 1, 2), (1, 1, 2), (2, 2, 2)), 0)


def brute_force_preserves(m: FinMorphism) -> bool:
    """Pairwise law check, independent of the shortcut validations."""
    dom, cod, g = m.dom, m.cod, m.graph
    match dom:
        case BoolAlg():
            for x in range(dom.size):
                for y in range(dom.size):
                    if g[x | y] != g[x] | g[y] or g[x & y] != g[x] & g[y]:
                        return False
                if g[dom.top ^ x] != cod.top ^ g[x]:
                    return False
            return g[0] == 0 and g[dom.top] == cod.top
        case VectZ2():
            return all(
                g[x ^ y] == g[x] ^ g[y] for x in range(dom.size) for y in range(dom.size)
            )
        case JoinSemilattice():
            return g[dom.zero] == cod.zero and all(
                g[dom.join[x][y]] == cod.join[g[x]][g[y]]
                for x in range(dom.size)
                for y in range(dom.size)
            )
    raise NotImplementedError


def test_two_element_algebras():
    assert two_element_algebra(VarietyTag.BA) == BoolAlg(1)
    assert two_element_algebra(VarietyTag.BA).size == 2
    jsl2 = two_element_algebra(VarietyTag.JSL0)
    assert jsl2.size == 2 and jsl2.zero == 0 and jsl2.join[0][1] == 1
    assert two_element_algebra(VarietyTag.Z2VECT) == VectZ2(1)
    assert two_element_algebra(VarietyTag.DL01).size == 2
    with pytest.raises(TagMismatchError):
        two_element_algebra(VarietyTag.SET)


def test_free_on_one():
    assert free_on_one(VarietyTag.SET) == FinSet(1)
    assert free_on_one(VarietyTag.POS).size == 1
    jsl = free_on_one(VarietyTag.JSL0)
    assert jsl.size == 2  # {0 < generator}, by term closure of one generator
    assert free_on_one(VarietyTag.Z2VECT) == VectZ2(1)


def test_validate_morphism_rejects_cross_variety_maps():
    with pytest.raises(TagMismatchError):
        validate_morphism(FinMorphism(BoolAlg(1), FinSet(2), (0, 1)))


def test_validate_morphism_identity_and_constants():
    for alg in [BoolAlg(3), CHAIN3, VectZ2(2), FinSet(4), make_poset(((True, True), (False, True)))]:
        assert validate_morphism(identity(alg))
    const0 = FinMorphism(CHAIN3, CHAIN3, (0, 0, 0))
    assert validate_morphism(const0)
    swap = FinMorphism(BoolAlg(1), BoolAlg(1), (1, 0))
    assert not validate_morphism(swap)


def test_validate_agrees_with_brute_force():
    import random

    rng = random.Random(7)
    for _ in range(200):
        alg = random.Random(rng.random()).choice([BoolAlg(2), VectZ2(2), CHAIN3])
        g = tuple(rng.randrange(alg.size) for _ in range(alg.size))
        m = FinMorphism(alg, alg, g)
        assert validate_morphism(m) == brute_force_preserves(m)


def test_generate_subalgebra_boolean_example():
    # closure of {{1}} inside the powerset of {1,2,3} under union, meet, complement
    amb = BoolAlg(3)
    sub, incl, _ = present_closure(amb, [0b001], 16, "closure")
    assert sub.size == 4
    assert sorted(incl.graph) == [0b000, 0b001, 0b110, 0b111]
    assert validate_morphism(incl)


def test_generate_subalgebra_jsl_chain():
    sub, incl, _ = present_closure(CHAIN3, [1], 16, "closure")
    assert sub.size == 2
    assert sorted(incl.graph) == [0, 1]


def test_generate_subalgebra_z2_span_of_one_vector():
    sub, incl, _ = present_closure(VectZ2(2), [0b10], 16, "closure")
    assert sub.size == 2
    assert sorted(incl.graph) == [0, 0b10]


def test_generate_subalgebra_idempotent_and_monotone():
    amb = BoolAlg(3)
    small, *_ = present_closure(amb, [0b001], 16, "closure")
    big, *_ = present_closure(amb, [0b001, 0b010], 16, "closure")
    again, *_ = present_closure(amb, [0b001, 0b110, 0b111, 0b000], 16, "closure")
    assert again.size == small.size
    assert small.size <= big.size


def test_product_examples():
    jsl2 = two_element_algebra(VarietyTag.JSL0)
    prod, p1, p2 = product_algebra(jsl2, jsl2)
    assert prod.size == 4
    assert validate_morphism(p1) and validate_morphism(p2)
    s, q1, q2 = product_algebra(FinSet(2), FinSet(3))
    assert s.size == 6
    v, *_ = product_algebra(VectZ2(1), VectZ2(1))
    assert v == VectZ2(2)


def test_pairing_is_a_morphism():
    jsl2 = two_element_algebra(VarietyTag.JSL0)
    prod, p1, p2 = product_algebra(CHAIN3, jsl2)
    f = identity(CHAIN3)
    g = FinMorphism(CHAIN3, jsl2, (0, 1, 1))
    assert validate_morphism(g)
    paired = pairing(f, g, prod, p1, p2)
    assert validate_morphism(paired)
    assert paired.then(p1).graph == f.graph
    assert paired.then(p2).graph == g.graph


def test_image_factorize_identity():
    alg = BoolAlg(2)
    epi, mono = image_factorize(identity(alg))
    assert epi.graph == mono.graph == identity(alg).graph


def test_image_factorize_constant_jsl():
    m = FinMorphism(CHAIN3, CHAIN3, (0, 0, 0))
    epi, mono = image_factorize(m)
    assert epi.cod.size == 1
    assert validate_morphism(epi) and validate_morphism(mono)
    assert epi.then(mono).graph == m.graph


def test_image_factorize_z2_rank():
    # rank-1 map on a 2-dimensional space
    alg = VectZ2(2)
    g = tuple((0b01 if x & 1 else 0) for x in range(4))
    m = FinMorphism(alg, alg, g)
    assert validate_morphism(m)
    epi, mono = image_factorize(m)
    assert epi.cod == VectZ2(1)


def test_image_factorize_random_properties():
    import random

    from helpers import random_algebra, random_morphism

    rng = random.Random(11)
    for tag in VarietyTag:
        for _ in range(25):
            dom = random_algebra(rng, tag, max_size=16)
            cod = random_algebra(rng, tag, max_size=16)
            m = random_morphism(rng, dom, cod)
            assert validate_morphism(m)
            epi, mono = image_factorize(m)
            assert validate_morphism(epi) and validate_morphism(mono)
            assert is_surjective(epi) and is_injective(mono)
            assert epi.then(mono).graph == m.graph
            if tag is VarietyTag.POS:
                assert is_order_reflecting(mono)


def test_pos_quotients_need_not_reflect_order():
    # surjective monotone collapse of an antichain onto a chain
    antichain = make_poset(((True, False), (False, True)))
    chain = make_poset(((True, True), (False, True)))
    m = FinMorphism(antichain, chain, (0, 1))
    assert validate_morphism(m)
    assert is_surjective(m)
    assert not is_order_reflecting(m)


def test_jsl_meets_exist():
    meets = CHAIN3.dual.join
    assert meets[1][2] == 1 and meets[0][2] == 0
    # XOR posing as a join has no top: its one irreducible lies below no element
    with pytest.raises(ValueError, match="does not admit meets"):
        JoinSemilattice(((0, 1), (1, 0)), 0).dual


def test_downsets_of_vee():
    # vee poset a < c, b < c: downsets are {}, {a}, {b}, {a,b}, {a,b,c}
    vee = DistLat(((True, False, True), (False, True, True), (False, False, True)))
    masks = vee.downset_masks
    assert masks == (0b000, 0b001, 0b010, 0b011, 0b111)
    assert vee.downset_masks[vee.downset_index[0b011]] == 0b011


def test_algebra_json_round_trip():
    for alg in [
        BoolAlg(3),
        DistLat(((True, True), (False, True))),
        CHAIN3,
        VectZ2(2),
        FinSet(5),
        make_poset(((True, True), (False, True))),
    ]:
        assert algebra_from_json(algebra_to_json(alg)) == alg


def test_leq_per_tag():
    assert leq(BoolAlg(2), 0b01, 0b11)
    assert not leq(BoolAlg(2), 0b10, 0b01)
    assert leq(CHAIN3, 0, 2)
    assert leq(VectZ2(2), 1, 1) and not leq(VectZ2(2), 1, 3)


def test_present_subset_refuses_sets_that_are_not_subalgebras():
    square, _ = jsl_from_masks(range(4))
    not_closed = [
        (BoolAlg(3), [0, 1, 2, 7]),  # 1 | 2 = 3 is missing
        (BoolAlg(2), [0, 1]),  # the top is missing
        (BoolAlg(2), [0, 3, 4]),  # 4 is not an element
        (square, [0, 1, 2]),  # 1 | 2 = 3 is missing
        (square, [1, 3]),  # the zero is missing
        (VectZ2(2), [0, 1, 2]),
        (DistLat(((True, False), (False, True))), [0, 1]),  # the top is missing
    ]
    for amb, subset in not_closed:
        with pytest.raises(ValueError):
            present_subset(amb, subset)
    with pytest.raises(ValueError):
        image_factorize(FinMorphism(BoolAlg(2), BoolAlg(3), (0, 1, 2, 7)))
    with pytest.raises(ValueError):
        mask_lattice_presentation([])
    sub, incl, to_sub = present_subset(square, [0, 1])
    assert sub.size == 2 and incl.graph == (0, 1) and to_sub == {0: 0, 1: 1}


@seed(901)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1023), max_size=8), st.randoms(use_true_random=False))
def test_the_basis_is_the_reduced_echelon_basis_of_the_span(vectors, rnd):
    span = set(subset_sums(vectors, xor))
    basis = gaussian_basis(vectors)
    assert set(subset_sums(basis, xor)) == span and 1 << len(basis) == len(span)
    assert gaussian_basis(sorted(span)) == basis == sorted_order_basis(span)
    rnd.shuffle(vectors)
    assert gaussian_basis(vectors) == basis
    leading = [1 << b.bit_length() - 1 for b in basis]
    assert all(not b & lead for b in basis for lead in leading if lead != 1 << b.bit_length() - 1)
