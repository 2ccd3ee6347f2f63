"""The pre-keyed, iterative regex layer against the recursive dataclass trees.

Seeded hypothesis corpora: parse trees and parse errors, the unknown symbol
reported for a tree, the trees that the numbered constructors rebuild
(union-part order included), normalized renders, derivative renders, the
derivative automaton (states rebuilt from the closure's numbers, and rows)
and the regex text of state elimination, on random languages and on every
label of four closed pieces, must be identical to those of the recursive
code in `oracles`, byte for byte.  The command line must answer long, deep
and random regex text with exit 0 or 2, never a traceback, a finished
compile must leave no tree alive, state elimination must build no tree but
the one it renders, and a tree pickled in another process must equal the
tree built here.
"""

import contextlib
import gc
import io
import os
import pickle
import subprocess
import sys
import weakref
from functools import cmp_to_key

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import langdual.languages as languages
from langdual.automata import rqc_closure
from langdual.cli import main
from langdual.config import Limits
from langdual.errors import LangdualError
from langdual.languages import (
    _TAG_LITERAL,
    _TAG_UNION,
    Concat,
    Empty,
    Epsilon,
    Literal,
    Star,
    Union,
    _compare,
    _derivative_closure,
    _Terms,
    _spine,
    brzozowski_dfa,
    compile_regex,
    compile_text,
    language_to_regex,
    left_derivative,
    normalize,
    parse_regex,
    render_regex,
    residuals,
)
from langdual.varieties import VarietyTag
from helpers import derivative
from oracles import (
    RecursiveParser,
    as_tree,
    recursive_check_symbols,
    recursive_derivative,
    recursive_derivative_closure,
    recursive_key,
    recursive_language_to_regex,
    recursive_make_concat,
    recursive_make_star,
    recursive_make_union,
    recursive_normalize,
    recursive_nullable,
    recursive_render,
    recursive_union_parts,
)

ABC = ("a", "b", "c")


def regexes(max_leaves=10):
    leaf = st.one_of(
        st.sampled_from([Literal(a) for a in ABC]),
        st.just(Epsilon()),
        st.just(Empty()),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(Union, inner, inner),
            st.builds(Concat, inner, inner),
            st.builds(Star, inner),
        ),
        max_leaves=max_leaves,
    )


def _outcome(parse):
    """The tree, or the class, message and position of the error raised."""
    try:
        return parse()
    except LangdualError as err:
        return type(err), str(err), getattr(err, "position", None)


@seed(6100)
@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="ab()|*@#c", max_size=30) | regexes(max_leaves=14).map(render_regex))
def test_parse_trees_and_errors(text):
    got = _outcome(lambda: as_tree(parse_regex(text, "ab")))
    assert got == _outcome(lambda: RecursiveParser(text, "ab").parse())


@seed(6107)
@settings(max_examples=200, deadline=None)
@given(regexes(max_leaves=14))
def test_first_unknown_symbol(r):
    def compile_raw():
        brzozowski_dfa(r, "a")

    got = _outcome(compile_raw)
    assert got == _outcome(lambda: recursive_check_symbols(as_tree(r), frozenset("a")))


@seed(6101)
@settings(max_examples=300, deadline=None)
@given(st.lists(regexes(), max_size=6), regexes(), regexes())
def test_numbered_constructors_rebuild_the_recursive_trees(parts, x, y):
    """union, concat and star on the numbers of normalized parts, then tree,
    give the recursive constructors' trees, union parts in their order; two
    numbers are equal exactly when their trees are."""
    terms = _Terms()
    got = terms.tree(terms.union(map(terms.number, parts)))
    want = recursive_make_union([recursive_normalize(as_tree(p)) for p in parts])
    assert as_tree(got) == want
    assert [as_tree(p) for p in _spine(got, _TAG_UNION)] == list(recursive_union_parts(want))
    i, j = terms.number(x), terms.number(y)
    tx, ty = recursive_normalize(as_tree(x)), recursive_normalize(as_tree(y))
    assert (i == j) == (tx == ty)
    assert as_tree(terms.tree(terms.concat(i, j))) == recursive_make_concat(tx, ty)
    assert as_tree(terms.tree(terms.star(i))) == recursive_make_star(tx)
    assert terms.nullable[terms.concat(i, j)] == recursive_nullable(recursive_make_concat(tx, ty))


@seed(6102)
@settings(max_examples=300, deadline=None)
@given(regexes(), regexes())
def test_compare_equality_and_hash_follow_the_sort_key(x, y):
    kx, ky = recursive_key(as_tree(x)), recursive_key(as_tree(y))
    assert _compare(x, y) == (kx > ky) - (kx < ky)
    assert (x == y) == (kx == ky)
    if x == y:
        assert hash(x) == hash(y)
    assert x.nullable == recursive_nullable(as_tree(x))
    ordered = sorted([x, y, Union(x, y), Star(y)], key=cmp_to_key(_compare))
    assert [as_tree(r) for r in ordered] == sorted(
        [as_tree(r) for r in (x, y, Union(x, y), Star(y))], key=recursive_key
    )


@seed(6103)
@settings(max_examples=300, deadline=None)
@given(regexes(max_leaves=14))
def test_normalized_and_derivative_renders(r):
    tree = as_tree(r)
    assert render_regex(r) == recursive_render(tree)
    assert render_regex(normalize(r)) == recursive_render(recursive_normalize(tree))
    for start, old in ((r, tree), (normalize(r), recursive_normalize(tree))):
        for a in ABC:
            assert render_regex(derivative(start, a)) == recursive_render(recursive_derivative(old, a))


@seed(6104)
@settings(max_examples=150, deadline=None)
@given(regexes(max_leaves=12))
def test_derivative_automaton(r):
    states, rows, terms = _derivative_closure(r, ABC, Limits())
    old_states, old_rows = recursive_derivative_closure(as_tree(r), ABC)
    assert [render_regex(terms.tree(s)) for s in states] == [recursive_render(s) for s in old_states]
    assert [terms.nullable[s] for s in states] == [recursive_nullable(s) for s in old_states]
    assert rows == old_rows
    dfa = brzozowski_dfa(r, ABC)
    assert dfa.delta == tuple(old_rows)
    assert dfa.finals == frozenset(i for i, s in enumerate(old_states) if recursive_nullable(s))


@seed(6105)
@settings(max_examples=120, deadline=None)
@given(regexes(max_leaves=12))
def test_state_elimination_text(r):
    lang = compile_regex(r, ABC)
    assert language_to_regex(lang) == recursive_language_to_regex(lang)
    for res in residuals(lang):
        assert language_to_regex(res) == recursive_language_to_regex(res)


@seed(6107)
@settings(max_examples=200, deadline=None)
@given(regexes(max_leaves=12))
def test_the_regex_text_bound_counts_every_character(r):
    """A bound of exactly the text's length lets the text through; one less
    refuses it, naming the length."""
    for render, tree in ((render_regex, r), (render_regex, normalize(r)), (language_to_regex, compile_regex(r, ABC))):
        text = render(tree)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(languages, "MAX_REGEX_TEXT", len(text))
            assert render(tree) == text
            patch.setattr(languages, "MAX_REGEX_TEXT", len(text) - 1)
            with pytest.raises(LangdualError, match=f"would have {len(text)} characters"):
                render(tree)


LARGER = [("(a|b)*a" + "(a|b)" * 3, "ab"), ("(aab)*", "a"), ("(ab|ba)*a", "b"), ("a(a|b)*b(ab)*", "ab")]


@pytest.mark.parametrize("text, word", LARGER)
def test_state_elimination_text_on_larger_automata(text, word):
    lang = left_derivative(compile_text(text, "ab"), word)
    assert language_to_regex(lang) == recursive_language_to_regex(lang)


PIECES = [
    (VarietyTag.BA, "(aab)*"),
    (VarietyTag.DL01, "(ab|ba)*a"),
    (VarietyTag.JSL0, "(a|b)*abb"),
    (VarietyTag.Z2VECT, "(aa)*b"),
]


@pytest.mark.parametrize("tag, text", PIECES, ids=[tag.name for tag, _ in PIECES])
def test_state_elimination_text_on_every_label_of_a_piece(tag, text):
    """The labels that the closure, export-dot and correspondence reports
    name, 32 to 4,096 per piece."""
    labels = rqc_closure(tag, [compile_text(text, "ab")]).labels
    assert [language_to_regex(lang) for lang in labels] == [recursive_language_to_regex(lang) for lang in labels]


def test_a_label_over_the_text_bound_is_refused(monkeypatch):
    labels = rqc_closure(VarietyTag.JSL0, [compile_text("(a|b)*abb", "ab")]).labels
    lang = max(labels, key=lambda lang: len(recursive_language_to_regex(lang)))
    n = len(recursive_language_to_regex(lang))
    monkeypatch.setattr(languages, "MAX_REGEX_TEXT", n - 1)
    with pytest.raises(LangdualError) as refused:
        language_to_regex(lang)
    assert str(refused.value) == f"regex text would have {n} characters; a report carries at most {n - 1}"


def _cli(argv):
    """main's exit code; its output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _literal(n):
    return ("ab" * n)[:n]


texts = st.one_of(
    st.integers(1, 1600).map(_literal),
    st.integers(1, 400).map(lambda n: "(" * n + "a" + ")*" * n),
    st.integers(1, 400).map(lambda n: "(" * n + "ab" + ")" * n),
    st.integers(1, 1200).map(lambda n: "a" + "*" * n),
    st.integers(1, 1200).map(lambda n: "a|" * n + "b"),
    st.text(alphabet="ab()|*@#c", max_size=40),
)


@seed(6106)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["parse", "min-dfa", "derive", "residuals"]), texts)
@example("min-dfa", _literal(600))
@example("parse", _literal(600))
@example("min-dfa", "(" * 300 + "a" + ")*" * 300)
@example("parse", "(" * 300 + "a" + ")*" * 300)
@example("min-dfa", _literal(1400) + "|" + _literal(1400)[::-1])
@example("derive", _literal(1400) + "|" + _literal(1400)[::-1])
@example("parse", _literal(1400) + "|" + _literal(1400)[::-1])
def test_cli_exits_0_or_2_on_long_deep_and_random_regexes(verb, text):
    argv = [verb, "--regex", text, "--max-states", "4000"]
    if verb == "derive":
        argv += ["--word", "a"]
    assert _cli(argv) in (0, 2)


def test_parse_refuses_a_tree_deeper_than_a_json_report(capsys):
    assert main(["parse", "--regex", _literal(1500)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1500 levels" in err
    # the deepest tree allowed, from the command line's own stack
    src = str(languages.__file__).rsplit(os.sep, 2)[0]
    deepest = subprocess.run(
        [sys.executable, "-m", "langdual", "parse", "--regex", _literal(languages.MAX_JSON_DEPTH)],
        capture_output=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src},
    )
    assert deepest.returncode == 0, deepest.stderr.decode(errors="replace")
    assert deepest.stdout.startswith(b"{\n") and deepest.stderr == b""


def _track_construction(monkeypatch):
    """A list that gets a weak reference to every Literal, Star, Concat and
    Union node the library builds from now on."""
    built = []
    for name in ("Literal", "Star", "Concat", "Union"):
        node = getattr(languages, name)

        class Tracked(node):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                built.append(weakref.ref(self))

        monkeypatch.setattr(languages, name, Tracked)
    return built


def test_compile_text_leaves_no_tree_alive(monkeypatch):
    built = _track_construction(monkeypatch)
    lang = compile_text("(a|b)*a(a|b)(a|b)|(ab)*" + _literal(50), "ab")
    gc.collect()
    assert lang.n_states > 1 and len(built) > 100
    assert [ref for ref in built if ref() is not None] == []


@pytest.mark.parametrize("text, word", LARGER)
def test_state_elimination_builds_only_the_tree_it_renders(monkeypatch, text, word):
    """The nodes built are exactly the distinct nodes of the rendered tree:
    elimination runs on numbers, and no intermediate tree is made."""
    lang = left_derivative(compile_text(text, "ab"), word)
    rendered = []
    render = languages.render_regex
    monkeypatch.setattr(languages, "render_regex", lambda r: rendered.append(r) or render(r))
    built = _track_construction(monkeypatch)
    assert language_to_regex(lang) == recursive_language_to_regex(lang)
    (tree,) = rendered
    nodes = {}
    stack = [tree]
    while stack:
        x = stack.pop()
        if id(x) not in nodes:
            nodes[id(x)] = x
            stack += [getattr(x, field) for field in x._fields if field != "symbol"]
    alive = [ref() for ref in built]
    assert None not in alive
    assert sorted(map(id, alive)) == sorted(key for key, x in nodes.items() if x.tag >= _TAG_LITERAL)


def test_a_tree_pickled_under_another_hash_seed_equals_the_local_tree():
    text = "(ab|ba)*a(c|@)*|#"
    src = str(languages.__file__).rsplit(os.sep, 2)[0]
    child = (
        "import pickle, sys; from langdual.languages import parse_regex; "
        f"sys.stdout.buffer.write(pickle.dumps(parse_regex({text!r}, 'abc')))"
    )
    for hash_seed in ("1", "31337"):
        dumped = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            check=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
        ).stdout
        here = parse_regex(text, ABC)
        loaded = pickle.loads(dumped)
        assert loaded == here and hash(loaded) == hash(here)
        assert {here: 1}[loaded] == 1
