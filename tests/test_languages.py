import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langdual.errors import RegexSyntaxError, UnknownSymbolError
from langdual.languages import (
    Concat,
    Empty,
    Epsilon,
    Literal,
    Star,
    Union,
    brzozowski_dfa,
    canonical_language,
    compile_regex,
    compile_text,
    language_to_regex,
    left_derivative,
    parse_regex,
    residuals,
    right_derivative,
    two_sided_residuals,
)
from oracles import (
    derivative_oracle,
    empty_language,
    full_language,
    lang_complement,
    lang_intersect,
    lang_symdiff,
    lang_union,
    member_agree,
    nerode_class_count,
    words_up_to,
)

AB = ("a", "b")


def lang(text, alphabet=AB):
    return compile_text(text, alphabet)


# --- parsing ---


def test_parse_reserved_tokens():
    assert parse_regex("#", AB) == Empty()
    assert parse_regex("@", AB) == Epsilon()


def test_parse_star_concat():
    assert parse_regex("(ab)*", AB) == Star(Concat(Literal("a"), Literal("b")))


def test_parse_union_epsilon():
    assert parse_regex("a|@", AB) == Union(Literal("a"), Epsilon())


def test_parse_precedence_star_over_concat_over_union():
    assert parse_regex("ab*", AB) == Concat(Literal("a"), Star(Literal("b")))
    assert parse_regex("a|ba", AB) == Union(Literal("a"), Concat(Literal("b"), Literal("a")))
    assert parse_regex("ba*", AB) != Star(Concat(Literal("b"), Literal("a")))


def test_parse_errors():
    with pytest.raises(RegexSyntaxError):
        parse_regex("(a", AB)
    with pytest.raises(RegexSyntaxError):
        parse_regex("a)", AB)
    with pytest.raises(RegexSyntaxError):
        parse_regex("*a", AB)
    with pytest.raises(UnknownSymbolError):
        parse_regex("ac", AB)
    with pytest.raises(ValueError):
        parse_regex("a", ())
    with pytest.raises(ValueError):
        parse_regex("a", ("a", "a"))


def test_parse_error_position():
    try:
        parse_regex("ab(", AB)
    except RegexSyntaxError as e:
        assert e.position == 3
    else:
        pytest.fail("expected a syntax error")


# --- compilation ---


def test_compile_ab_star_is_three_states_one_final():
    # expected class count pinned by the bounded word-quotient oracle on the
    # raw derivative automaton
    raw = brzozowski_dfa(parse_regex("(ab)*", AB), AB)
    assert nerode_class_count(raw, 8) == 3
    got = lang("(ab)*")
    assert got.n_states == 3
    assert len(got.dfa.finals) == 1


def test_compile_full_language_one_state():
    got = lang("(a|b)*")
    assert got.n_states == 1
    assert got == full_language(AB)


def test_compile_empty_one_state_no_finals():
    got = lang("#")
    assert got.n_states == 1
    assert got.dfa.finals == frozenset()
    assert got == empty_language(AB)


def test_accepts():
    k = lang("(ab)*")
    assert k.dfa.accepts_word("abab")
    assert not k.dfa.accepts_word("aba")
    assert not lang("#").dfa.accepts_word("")
    assert not lang("a*").dfa.accepts_word("b")
    with pytest.raises(UnknownSymbolError):
        k.dfa.accepts_word("xyz")


# --- derivatives ---


def test_left_derivative_examples():
    k = lang("(ab)*")
    assert left_derivative(k, "") == k
    da = left_derivative(k, "a")
    assert derivative_oracle(k, "a", "left", da, 8)
    assert da == lang("b(ab)*")
    db = left_derivative(k, "b")
    assert derivative_oracle(k, "b", "left", db, 8)
    assert db == empty_language(AB)


def test_right_derivative_examples():
    k = lang("(ab)*")
    assert right_derivative(k, "") == k
    db = right_derivative(k, "b")
    assert derivative_oracle(k, "b", "right", db, 8)
    assert db == lang("(ab)*a")
    dba = right_derivative(k, "ba")
    assert derivative_oracle(k, "ba", "right", dba, 8)
    assert dba == empty_language(AB)


def test_residuals_examples():
    k = lang("(ab)*")
    assert residuals(k) == frozenset({k, lang("b(ab)*"), empty_language(AB)})
    assert residuals(lang("(a|b)*")) == frozenset({full_language(AB)})
    assert residuals(lang("#")) == frozenset({empty_language(AB)})


def test_residual_count_equals_minimal_state_count():
    for text in ["(ab)*", "a*b", "(a|b)*a", "ab|ba", "a(ba)*"]:
        el = lang(text)
        assert len(residuals(el)) == el.n_states


def test_equivalent_examples():
    assert lang("a|b") == lang("b|a")
    k = lang("(ab)*")
    other = lang("@|a(ba)*b")
    assert member_agree(k, other, 10)
    assert k == other
    assert lang("a*") != lang("a")


def test_two_sided_residual_examples():
    assert two_sided_residuals(empty_language(AB)) == frozenset({empty_language(AB)})
    assert two_sided_residuals(full_language(AB)) == frozenset({full_language(AB)})
    tsr = two_sided_residuals(lang("(ab)*"))
    for member in [lang("(ab)*"), lang("b(ab)*"), lang("(ab)*a"), empty_language(AB)]:
        assert member in tsr
    # closed under both operators
    for el in tsr:
        for a in AB:
            assert left_derivative(el, a) in tsr
            assert right_derivative(el, a) in tsr


# --- derivative laws ---


@st.composite
def regexes(draw, alphabet=AB, max_leaves=6):
    leaf = st.one_of(
        st.sampled_from([Literal(a) for a in alphabet]),
        st.just(Epsilon()),
        st.just(Empty()),
    )
    return draw(
        st.recursive(
            leaf,
            lambda inner: st.one_of(
                st.builds(Union, inner, inner),
                st.builds(Concat, inner, inner),
                st.builds(Star, inner),
            ),
            max_leaves=max_leaves,
        )
    )


@st.composite
def langs(draw):
    return compile_regex(draw(regexes()), AB)


@settings(max_examples=60, deadline=None)
@given(langs(), st.text(alphabet="ab", max_size=3), st.text(alphabet="ab", max_size=3))
def test_derivative_composition(el, u, v):
    assert left_derivative(left_derivative(el, u), v) == left_derivative(el, u + v)
    assert right_derivative(right_derivative(el, v), u) == right_derivative(el, u + v)


@settings(max_examples=60, deadline=None)
@given(langs(), st.text(alphabet="ab", max_size=3), st.text(alphabet="ab", max_size=3))
def test_left_right_derivatives_commute(el, u, w):
    assert left_derivative(right_derivative(el, w), u) == right_derivative(
        left_derivative(el, u), w
    )


@settings(max_examples=40, deadline=None)
@given(regexes())
def test_canonicity_under_semantic_rewrites(r):
    base = compile_regex(r, AB)
    assert compile_regex(Union(r, r), AB) == base
    assert compile_regex(Concat(Epsilon(), r), AB) == base
    assert compile_regex(Union(Empty(), r), AB) == base
    star_unfold = Union(Epsilon(), Concat(r, Star(r)))
    assert compile_regex(star_unfold, AB) == compile_regex(Star(r), AB)
    assert member_agree(base, compile_regex(Union(r, r), AB), 6)


@settings(max_examples=40, deadline=None)
@given(langs(), langs())
def test_boolean_combinations_agree_with_membership(l1, l2):
    u = lang_union(l1, l2)
    i = lang_intersect(l1, l2)
    s = lang_symdiff(l1, l2)
    c = lang_complement(l1)
    for w in words_up_to(AB, 4):
        a, b = l1.dfa.accepts_word(w), l2.dfa.accepts_word(w)
        assert u.dfa.accepts_word(w) == (a or b)
        assert i.dfa.accepts_word(w) == (a and b)
        assert s.dfa.accepts_word(w) == (a != b)
        assert c.dfa.accepts_word(w) == (not a)


def test_dfa_equivalent_on_non_canonical():
    raw1 = brzozowski_dfa(parse_regex("(ab)*", AB), AB)
    raw2 = brzozowski_dfa(parse_regex("@|a(ba)*b", AB), AB)
    assert canonical_language(raw1) == canonical_language(raw2)
    raw3 = brzozowski_dfa(parse_regex("a*", AB), AB)
    assert canonical_language(raw1) != canonical_language(raw3)


# --- synthesis ---


@settings(max_examples=40, deadline=None)
@given(langs())
def test_regex_synthesis_round_trip(el):
    text = language_to_regex(el)
    assert compile_text(text, AB) == el


def test_synthesis_of_derivative_example():
    da = left_derivative(lang("(ab)*"), "a")
    assert compile_text(language_to_regex(da), AB) == lang("b(ab)*")
