import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langdual.errors import NotReachableError
from langdual.languages import Dfa, LanguageId, compile_text
from langdual.monoids import (
    SigmaMonoid,
    free_language,
    free_mult,
    free_unit,
    free_word,
    quotient_leq,
    sigma_monoid_iso,
    subdirect_product,
    transition_monoid,
    validate_monoid,
)
from langdual.varieties import FinSet, JoinSemilattice, VarietyTag
from helpers import eval_word, language_dalgebra, trivial_monoid
from oracles import brute_syntactic_monoid, odd_factorization_product

AB = ("a", "b")


def lang(text, alphabet=AB):
    return compile_text(text, alphabet)


def brute_monoid_as_sigma(language: LanguageId) -> SigmaMonoid:
    size, mult, unit, gens, _ = brute_syntactic_monoid(language)
    return SigmaMonoid(
        FinSet(size),
        language.alphabet,
        unit,
        mult,
        tuple(gens[a] for a in language.alphabet),
    )


# --- free multiplication ---


def test_free_mult_examples():
    assert free_mult(
        VarietyTag.JSL0, free_language(VarietyTag.JSL0, ["a"]), free_language(VarietyTag.JSL0, ["b"])
    ) == free_language(VarietyTag.JSL0, ["ab"])
    x = free_language(VarietyTag.Z2VECT, ["", "a"])
    prod = free_mult(VarietyTag.Z2VECT, x, x)
    assert prod == free_language(VarietyTag.Z2VECT, ["", "aa"])
    assert set(prod.words) == odd_factorization_product(
        frozenset(x.words), frozenset(x.words)
    )
    w = free_word(VarietyTag.SET, "abba")
    assert free_mult(VarietyTag.SET, free_unit(VarietyTag.SET), w) == w


words = st.text(alphabet="ab", max_size=3)


@st.composite
def free_elements(draw, tag):
    if tag in (VarietyTag.SET, VarietyTag.POS):
        return free_word(tag, draw(words))
    return free_language(tag, draw(st.lists(words, max_size=3)))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_free_monoid_laws(data):
    for tag in (VarietyTag.SET, VarietyTag.POS, VarietyTag.JSL0, VarietyTag.Z2VECT):
        x = data.draw(free_elements(tag))
        y = data.draw(free_elements(tag))
        z = data.draw(free_elements(tag))
        assert free_mult(tag, free_mult(tag, x, y), z) == free_mult(tag, x, free_mult(tag, y, z))
        unit = free_unit(tag)
        assert free_mult(tag, unit, x) == x
        assert free_mult(tag, x, unit) == x


@settings(max_examples=80, deadline=None)
@given(st.lists(words, max_size=4), st.lists(words, max_size=4))
def test_z2_mult_matches_factorization_parity(ws1, ws2):
    x = free_language(VarietyTag.Z2VECT, ws1)
    y = free_language(VarietyTag.Z2VECT, ws2)
    assert set(free_mult(VarietyTag.Z2VECT, x, y).words) == odd_factorization_product(
        frozenset(x.words), frozenset(y.words)
    )


# --- transition monoids ---


def test_transition_monoid_of_full_language_is_trivial():
    m = transition_monoid(language_dalgebra(lang("(a|b)*")))
    assert m.size == 1
    assert validate_monoid(m)


def test_transition_monoid_of_even_as():
    m = transition_monoid(language_dalgebra(lang("(aa)*", ("a",))))
    assert m.size == 2
    g = m.gen[0]
    assert m.mult[g][g] == m.unit
    assert validate_monoid(m)


def test_transition_monoid_of_ab_star_is_the_syntactic_monoid():
    m = transition_monoid(language_dalgebra(lang("(ab)*")))
    assert m.size == 6
    a, b = m.gen
    ab = m.mult[a][b]
    ba = m.mult[b][a]
    zero = m.mult[a][a]
    assert m.mult[b][b] == zero
    assert m.mult[m.mult[a][b]][a] == a  # aba = a
    assert m.mult[m.mult[b][a]][b] == b  # bab = b
    assert len({m.unit, a, b, ab, ba, zero}) == 6
    # absorbing element
    assert all(m.mult[zero][x] == zero and m.mult[x][zero] == zero for x in range(6))
    # against the context-signature construction
    iso = sigma_monoid_iso(m, brute_monoid_as_sigma(lang("(ab)*")))
    assert iso is not None


def test_transition_monoid_requires_reachability():
    d = Dfa(AB, 2, 0, frozenset({0}), ((0, 0), (1, 1)))
    alg = language_dalgebra(LanguageId(d))
    with pytest.raises(NotReachableError):
        transition_monoid(alg)


def test_eval_word_examples():
    m = transition_monoid(language_dalgebra(lang("(ab)*")))
    assert eval_word(m, "") == m.unit
    e = eval_word(m, "ab")
    assert e != m.unit and m.mult[e][e] == e
    assert eval_word(m, "aba") == eval_word(m, "a")


def test_eval_is_a_monoid_morphism():
    m = transition_monoid(language_dalgebra(lang("a*b")))
    rng = random.Random(5)
    for _ in range(50):
        u = "".join(rng.choice(AB) for _ in range(rng.randrange(5)))
        v = "".join(rng.choice(AB) for _ in range(rng.randrange(5)))
        assert eval_word(m, u + v) == m.mult[eval_word(m, u)][eval_word(m, v)]


def test_eval_word_on_language_normal_forms():
    from langdual.automata import coalgebra_to_dalgebra, rqc_closure
    from langdual.duality import DualityTag

    piece = rqc_closure(VarietyTag.JSL0, [lang("(ab)*")])
    m = transition_monoid(
        coalgebra_to_dalgebra(DualityTag.JSL_SELF, piece), reverse_composition=True
    )
    assert validate_monoid(m)
    x = free_language(VarietyTag.JSL0, ["", "a"])
    joined = m.carrier.join[eval_word(m, "")][eval_word(m, "a")]
    assert eval_word(m, x) == joined


def test_transition_monoid_elements_are_eval_images():
    piece_lang = lang("(ab)*")
    m = transition_monoid(language_dalgebra(piece_lang))
    images = {eval_word(m, "")}
    frontier = [""]
    words_seen = {""}
    while frontier:
        w = frontier.pop()
        if len(w) > 6:
            continue
        for a in AB:
            if w + a not in words_seen:
                words_seen.add(w + a)
                frontier.append(w + a)
                images.add(eval_word(m, w + a))
    assert images == set(range(m.size))


def test_validate_monoid_rejects_broken_tables():
    bad = SigmaMonoid(FinSet(3), AB, 0, ((0, 1, 2), (1, 2, 2), (2, 2, 1)), (1, 2))
    assert not validate_monoid(bad)
    # join-semilattice carrier where multiplication is not join-preserving
    chain = JoinSemilattice(((0, 1), (1, 1)), 0)
    not_bilinear = SigmaMonoid(chain, ("a",), 0, ((0, 1), (1, 0)), (1,))
    assert not validate_monoid(not_bilinear)


def test_validate_monoid_rejects_out_of_range_indices():
    fine = ((0, 1), (1, 0))
    assert validate_monoid(SigmaMonoid(FinSet(2), ("a",), 0, fine, (1,)))
    assert not validate_monoid(SigmaMonoid(FinSet(2), ("a",), 0, ((0, 1), (1, 7)), (1,)))
    assert not validate_monoid(SigmaMonoid(FinSet(2), ("a",), 0, ((0, 1), (1, -1)), (1,)))
    assert not validate_monoid(SigmaMonoid(FinSet(2), ("a",), 2, fine, (1,)))
    assert not validate_monoid(SigmaMonoid(FinSet(2), ("a",), -1, fine, (1,)))
    assert not validate_monoid(SigmaMonoid(FinSet(2), ("a",), 0, fine, (5,)))
    assert not validate_monoid(SigmaMonoid(FinSet(2), ("a",), 0, fine, (1, 1)))
    chain = JoinSemilattice(((0, 1), (1, 9)), 0)
    assert not validate_monoid(SigmaMonoid(chain, ("a",), 1, ((0, 0), (0, 1)), (1,)))


# --- quotient order and subdirect products ---


def test_quotient_leq_reflexive_and_trivial():
    m = transition_monoid(language_dalgebra(lang("(ab)*")))
    t = trivial_monoid(VarietyTag.SET, AB)
    assert quotient_leq(m, m)
    assert quotient_leq(t, m)
    assert not quotient_leq(m, t)


def test_subdirect_product_examples():
    m = transition_monoid(language_dalgebra(lang("(ab)*")))
    t = trivial_monoid(VarietyTag.SET, AB)
    assert sigma_monoid_iso(subdirect_product(m, m), m) is not None
    assert sigma_monoid_iso(subdirect_product(m, t), m) is not None


def test_subdirect_product_of_cycles():
    two = transition_monoid(language_dalgebra(lang("(aa)*", ("a",))))
    three = transition_monoid(language_dalgebra(lang("(aaa)*", ("a",))))
    six = subdirect_product(two, three)
    assert six.size == 6
    g = six.gen[0]
    power = six.unit
    seen = set()
    for _ in range(6):
        power = six.mult[power][g]
        seen.add(power)
    assert len(seen) == 6 and power == six.unit


def test_quotient_leq_is_a_partial_order_up_to_iso():
    m2 = transition_monoid(language_dalgebra(lang("(aa)*", ("a",))))
    m3 = transition_monoid(language_dalgebra(lang("(aaa)*", ("a",))))
    m6 = subdirect_product(m2, m3)
    assert quotient_leq(m2, m6) and quotient_leq(m3, m6)
    assert not quotient_leq(m6, m2)
    # antisymmetry modulo generator-preserving isomorphism
    assert quotient_leq(m2, m2) and sigma_monoid_iso(m2, m2) is not None


def test_subdirect_is_least_upper_bound():
    m2 = transition_monoid(language_dalgebra(lang("(aa)*", ("a",))))
    m3 = transition_monoid(language_dalgebra(lang("(aaa)*", ("a",))))
    m6 = subdirect_product(m2, m3)
    # any common upper bound receives the join as a quotient
    for upper in [m6, subdirect_product(m6, m2)]:
        assert quotient_leq(m2, upper) and quotient_leq(m3, upper)
        assert quotient_leq(m6, upper)


def test_syntactic_monoid_against_brute_force_on_random_regexes():
    from langdual.cli import random_regex
    from langdual.languages import compile_regex

    rng = random.Random(13)
    checked = 0
    while checked < 10:
        l = compile_regex(random_regex(rng, AB), AB)
        if l.n_states > 4:
            continue
        m = transition_monoid(language_dalgebra(l))
        if m.size > 16:
            continue
        assert sigma_monoid_iso(m, brute_monoid_as_sigma(l)) is not None
        checked += 1


def test_sigma_monoid_iso_rejects_a_proper_quotient():
    # m2 identifies the two letters of m1: the paired evaluation is a
    # surjection onto m2 but not injective, so there is no isomorphism
    m1 = SigmaMonoid(FinSet(3), AB, 0, ((0, 1, 2), (1, 1, 1), (2, 2, 2)), (1, 2))
    m2 = SigmaMonoid(FinSet(2), AB, 0, ((0, 1), (1, 1)), (1, 1))
    assert validate_monoid(m1) and validate_monoid(m2)
    assert quotient_leq(m2, m1) and not quotient_leq(m1, m2)
    assert sigma_monoid_iso(m1, m2) is None
    assert sigma_monoid_iso(m2, m1) is None
    # m2 with an element no word reaches: the pairs are a bijection onto
    # part of it only
    padded = SigmaMonoid(FinSet(3), AB, 0, ((0, 1, 2), (1, 1, 2), (2, 2, 2)), (1, 1))
    assert sigma_monoid_iso(m2, padded) is None
