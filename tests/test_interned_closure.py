"""The derivative closure over interned numbers against the closure over
trees that it replaced (`oracles.tree_derivative_closure`).

The raw automaton must be the same, row for row and final for final, on the
suffix family (a|b)*a(a|b)^k, long literals, seeded random regexes and
nested stars, and the state cap must refuse at exactly the tree closure's
state count less one.  The walk that numbers a tree also names its first
unknown symbol, as the recursive oracle does on the unshared tree.
"""

import random

import pytest

import langdual.languages as languages
from langdual.cli import random_regex
from langdual.config import Limits
from langdual.errors import ResourceExceededError, UnknownSymbolError
from langdual.languages import (
    Concat,
    Empty,
    Epsilon,
    Literal,
    Regex,
    Star,
    Union,
    brzozowski_dfa,
    compile_regex,
    parse_regex,
)
from oracles import as_tree, recursive_check_symbols, tree_derivative_closure

ABC = ("a", "b", "c")
SUFFIX = ["(a|b)*a" + "(a|b)" * k for k in range(10)]
LITERALS = [("abc" * 300)[:n] for n in (100, 250, 500, 800)]
NESTED_STARS = [
    "(((@*|aa|c|a)*)*)*",
    "((a*)*)*b((b|@)*)*",
    "(((a|b)*c)*|((c*)*)*)*a",
    "((((ab)*)*|#)*(ba)*)*",
    "(@|(a*|(b|c*)*)*)*(a|#*)",
]


def _seeded(count, depth, seed):
    rng = random.Random(seed)
    return [random_regex(rng, ABC, depth) for _ in range(count)]


def _assert_same_automaton(r, limits=Limits(), alphabet=ABC):
    states, rows = tree_derivative_closure(r, alphabet, limits)
    dfa = brzozowski_dfa(r, alphabet, limits)
    assert dfa.n_states == len(states)
    assert dfa.delta == tuple(rows)
    assert dfa.finals == frozenset(i for i, s in enumerate(states) if s.nullable)


@pytest.mark.parametrize("text", SUFFIX + LITERALS + NESTED_STARS)
def test_same_automaton_on_the_named_shapes(text):
    _assert_same_automaton(parse_regex(text, ABC))


def test_same_automaton_on_seeded_depth_6_regexes():
    for r in _seeded(300, 6, 2209):
        _assert_same_automaton(r)


def test_the_closure_compares_no_trees(monkeypatch):
    def refuse(*args):
        raise AssertionError("a tree was compared")

    monkeypatch.setattr(languages, "_compare", refuse)
    monkeypatch.setattr(languages, "_sort_key", refuse)
    monkeypatch.setattr(Regex, "__eq__", refuse)
    for text in [SUFFIX[6], LITERALS[0], *NESTED_STARS]:
        brzozowski_dfa(parse_regex(text, ABC), ABC)


def test_the_literals_keep_one_state_per_suffix():
    for text in LITERALS:
        assert brzozowski_dfa(parse_regex(text, ABC), ABC).n_states == len(text) + 2


@pytest.mark.parametrize(
    "r",
    _seeded(60, 6, 2210) + [parse_regex(text, ABC) for text in SUFFIX + NESTED_STARS],
    ids=repr,
)
def test_the_state_cap_refuses_at_one_below_the_state_count(r):
    n = len(tree_derivative_closure(r, ABC)[0])
    assert compile_regex(r, ABC, Limits(max_states=n)) == compile_regex(r, ABC)
    if n > 1:
        with pytest.raises(ResourceExceededError) as refused:
            brzozowski_dfa(r, ABC, Limits(max_states=n - 1))
        assert str(refused.value) == f"derivative closure exceeded {n - 1} states"


def _shared_dag(rng):
    """A random tree whose nodes are shared between parents, over abcd."""
    pool = [Literal(c) for c in "abcd"] + [Epsilon(), Empty()]
    for _ in range(rng.randint(1, 12)):
        roll = rng.random()
        if roll < 0.4:
            pool.append(Concat(rng.choice(pool), rng.choice(pool)))
        elif roll < 0.8:
            pool.append(Union(rng.choice(pool), rng.choice(pool)))
        else:
            pool.append(Star(rng.choice(pool)))
    return pool[-1]


def test_the_first_unknown_symbol_of_a_shared_tree():
    """The walk that numbers a tree visits a shared node once, and still
    names the first unknown literal of the unshared tree."""
    rng = random.Random(2211)
    refused = 0
    for _ in range(500):
        r, alphabet = _shared_dag(rng), rng.choice(["a", "ab", "abc", "cb"])
        try:
            recursive_check_symbols(as_tree(r), frozenset(alphabet))
        except UnknownSymbolError as err:
            refused += 1
            with pytest.raises(UnknownSymbolError) as got:
                brzozowski_dfa(r, alphabet)
            assert str(got.value) == str(err)
        else:
            _assert_same_automaton(r, alphabet=tuple(alphabet))
    assert refused > 100
