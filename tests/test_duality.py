import random

import pytest

from langdual.duality import (
    DualityTag,
    c_tag,
    d_tag,
    double_dual,
    dual_morphism,
    dual_object,
)
from langdual.errors import TagMismatchError
from langdual.varieties import (
    BoolAlg,
    DistLat,
    FinMorphism,
    FinPoset,
    FinSet,
    VectZ2,
    identity,
    is_order_reflecting,
    validate_morphism,
)
from helpers import is_injective, is_surjective, make_jsl, random_algebra, random_morphism

ALL_TAGS = list(DualityTag)


def test_pairings_match_the_predual_table():
    assert (c_tag(DualityTag.BA_SET).value, d_tag(DualityTag.BA_SET).value) == ("BA", "SET")
    assert (c_tag(DualityTag.DL01_POS).value, d_tag(DualityTag.DL01_POS).value) == ("DL01", "POS")
    assert c_tag(DualityTag.JSL_SELF) == d_tag(DualityTag.JSL_SELF)
    assert c_tag(DualityTag.Z2_SELF) == d_tag(DualityTag.Z2_SELF)


def test_dual_object_examples():
    assert dual_object(DualityTag.BA_SET, BoolAlg(2)) == FinSet(2)
    assert dual_object(DualityTag.BA_SET, FinSet(3)) == BoolAlg(3)
    # 3-chain 0 < m < 1 has the 2-chain of join-irreducibles {m < 1}
    chain3 = DistLat(((True, True), (False, True)))
    assert chain3.size == 3
    dual = dual_object(DualityTag.DL01_POS, chain3)
    assert dual == FinPoset(((True, True), (False, True)))
    # reversed 2-chain: the new join is the old meet, the new zero the old top
    two_chain = make_jsl(((0, 1), (1, 1)), 0)
    assert dual_object(DualityTag.JSL_SELF, two_chain) == make_jsl(((0, 0), (0, 1)), 1)
    assert dual_object(DualityTag.Z2_SELF, VectZ2(3)) == VectZ2(3)
    with pytest.raises(TagMismatchError):
        dual_object(DualityTag.BA_SET, VectZ2(1))


def test_dual_of_identity_is_identity():
    for tag in ALL_TAGS:
        rng = random.Random(3)
        for side in (c_tag(tag), d_tag(tag)):
            alg = random_algebra(rng, side)
            d = dual_morphism(tag, identity(alg))
            assert d.graph == identity(dual_object(tag, alg)).graph


def test_ba_dual_of_preimage_recovers_the_function():
    rng = random.Random(5)
    for _ in range(50):
        x, y = FinSet(rng.randint(1, 4)), FinSet(rng.randint(1, 4))
        g = random_morphism(rng, y, x)
        h = dual_morphism(DualityTag.BA_SET, g)  # P(X) -> P(Y)
        assert validate_morphism(h)
        back = dual_morphism(DualityTag.BA_SET, h)
        assert back.graph == g.graph


def test_z2_transpose_example():
    v = VectZ2(2)
    # matrix [[1,1],[0,1]] columns: e0 -> (1,0), e1 -> (1,1)
    m = FinMorphism(v, v, (0, 0b01, 0b11, 0b10))
    assert validate_morphism(m)
    t = dual_morphism(DualityTag.Z2_SELF, m)
    # transpose columns: e0 -> (1,1), e1 -> (0,1)
    assert t.graph == (0, 0b11, 0b10, 0b01)


def test_jsl_dual_is_upper_adjoint():
    chain3 = make_jsl(((0, 1, 2), (1, 1, 2), (2, 2, 2)), 0)
    two = make_jsl(((0, 1), (1, 1)), 0)
    f = FinMorphism(chain3, two, (0, 1, 1))
    assert validate_morphism(f)
    g = dual_morphism(DualityTag.JSL_SELF, f)
    # adjoint sends 0 to the top element mapping to 0, 1 to the top overall
    assert g.graph == (0, 2)
    assert validate_morphism(g)


def test_double_dual_examples():
    assert double_dual(DualityTag.BA_SET, BoolAlg(1)).forward.graph == (0, 1)
    vee = FinPoset(((True, False, True), (False, True, True), (False, False, True)))
    w = double_dual(DualityTag.DL01_POS, vee)
    assert validate_morphism(w.forward) and validate_morphism(w.backward)
    assert double_dual(DualityTag.Z2_SELF, VectZ2(3)).forward.dom == VectZ2(3)


def _random_pair(rng, tag):
    side = rng.choice([c_tag(tag), d_tag(tag)])
    dom = random_algebra(rng, side)
    cod = random_algebra(rng, side)
    return random_morphism(rng, dom, cod)


def test_contravariant_functoriality():
    rng = random.Random(17)
    for tag in ALL_TAGS:
        for _ in range(40):
            side = rng.choice([c_tag(tag), d_tag(tag)])
            a = random_algebra(rng, side)
            b = random_algebra(rng, side)
            c = random_algebra(rng, side)
            h = random_morphism(rng, a, b)
            g = random_morphism(rng, b, c)
            lhs = dual_morphism(tag, h.then(g))
            rhs = dual_morphism(tag, g).then(dual_morphism(tag, h))
            assert lhs.graph == rhs.graph


def test_dual_morphism_always_validates():
    rng = random.Random(23)
    for tag in ALL_TAGS:
        for _ in range(60):
            m = _random_pair(rng, tag)
            assert validate_morphism(dual_morphism(tag, m))


def test_epi_mono_exchange():
    rng = random.Random(29)
    for tag in ALL_TAGS:
        for _ in range(60):
            m = _random_pair(rng, tag)
            d = dual_morphism(tag, m)
            if tag is DualityTag.DL01_POS:
                dual_monic = is_injective(d) and (
                    not isinstance(d.cod, FinPoset) or is_order_reflecting(d)
                )
            else:
                dual_monic = is_injective(d)
            assert is_surjective(m) == dual_monic
            # the exchange in the other direction
            if tag is DualityTag.DL01_POS and isinstance(m.cod, FinPoset):
                monic = is_injective(m) and is_order_reflecting(m)
            else:
                monic = is_injective(m)
            assert monic == is_surjective(d)


def test_double_dual_naturality():
    rng = random.Random(31)
    for tag in ALL_TAGS:
        for _ in range(40):
            m = _random_pair(rng, tag)
            twice = dual_morphism(tag, dual_morphism(tag, m))
            w_dom = double_dual(tag, m.dom)
            w_cod = double_dual(tag, m.cod)
            assert w_dom.forward.then(twice).then(w_cod.backward).graph == m.graph


def test_invalid_morphisms_are_flagged_as_non_functional():
    from langdual.errors import NonFunctionalError

    swap = FinMorphism(BoolAlg(1), BoolAlg(1), (1, 0))
    with pytest.raises(NonFunctionalError):
        dual_morphism(DualityTag.BA_SET, swap)
    chain3 = DistLat(((True, True), (False, True)))
    not_hom = FinMorphism(chain3, chain3, (2, 1, 0))
    with pytest.raises(NonFunctionalError):
        dual_morphism(DualityTag.DL01_POS, not_hom)
