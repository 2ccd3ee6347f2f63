"""Regular languages as canonical minimal DFAs.

A language value is its minimal deterministic automaton in a canonical
numbering, so two values denote the same language exactly when they are
componentwise equal.  Compilation goes through Brzozowski derivatives,
normalized up to associativity/commutativity/idempotence of union plus the
empty/epsilon unit laws; that normalization is what keeps the derivative
closure finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, cmp_to_key, partial
from typing import Callable, Hashable, Iterable, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import LangdualError, RegexSyntaxError, ResourceExceededError, UnknownSymbolError
from .varieties import orbit

RESERVED_TOKENS = "#@|*()"


# ---------------------------------------------------------------------------
# regex syntax trees
#
# No walk over a tree recurses, so depth is bounded by memory, not by the
# interpreter's stack.  The bottom-up walks keep their results per node
# object, so a subtree shared by several parents is visited once.


# node tags, in the order the sort key gives them
_TAG_EMPTY, _TAG_EPSILON, _TAG_LITERAL, _TAG_STAR, _TAG_CONCAT, _TAG_UNION = range(6)


class Regex:
    """Base class for regular-expression syntax trees.

    Nodes are immutable.  Each one computes its hash and `nullable` from its
    children when it is built.  Equality is structural and tests identity
    first.  The sort key of a node is its tag followed by its symbol or by
    its children's keys; `_compare` reads that order off two trees without
    building the keys.
    """

    __slots__ = ("__weakref__",)
    tag: int
    nullable: bool
    _hash: int
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Regex):
            return NotImplemented
        return self._hash == other._hash and _compare(self, other) == 0

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({render_regex(self)!r})"

    def __reduce__(self):
        # rebuilt through the constructor, because the cached hash depends on
        # the string hash seed of the process that computed it
        return type(self), tuple(getattr(self, field) for field in self._fields)


class Empty(Regex):
    __slots__ = ()
    tag = _TAG_EMPTY
    nullable = False
    _hash = hash((_TAG_EMPTY,))


class Epsilon(Regex):
    __slots__ = ()
    tag = _TAG_EPSILON
    nullable = True
    _hash = hash((_TAG_EPSILON,))


class Literal(Regex):
    __slots__ = ("symbol", "_hash")
    tag = _TAG_LITERAL
    nullable = False
    _fields = ("symbol",)

    def __init__(self, symbol: str):
        self.symbol = symbol
        self._hash = hash((_TAG_LITERAL, symbol))


class Star(Regex):
    __slots__ = ("inner", "_hash")
    tag = _TAG_STAR
    nullable = True
    _fields = ("inner",)

    def __init__(self, inner: Regex):
        self.inner = inner
        self._hash = hash((_TAG_STAR, inner._hash))


class Concat(Regex):
    __slots__ = ("left", "right", "_hash", "nullable")
    tag = _TAG_CONCAT
    _fields = ("left", "right")

    def __init__(self, left: Regex, right: Regex):
        self.left = left
        self.right = right
        self._hash = hash((_TAG_CONCAT, left._hash, right._hash))
        self.nullable = left.nullable and right.nullable


class Union(Regex):
    __slots__ = ("left", "right", "_hash", "nullable")
    tag = _TAG_UNION
    _fields = ("left", "right")

    def __init__(self, left: Regex, right: Regex):
        self.left = left
        self.right = right
        self._hash = hash((_TAG_UNION, left._hash, right._hash))
        self.nullable = left.nullable or right.nullable


_EMPTY = Empty()
_EPSILON = Epsilon()


def _compare(x: Regex, y: Regex) -> int:
    """-1, 0 or 1 as the sort key of x is below, equal to or above that of y.

    Keys compare lexicographically: tag, then symbol, or the inner key, or
    the left and then the right key.  Pairs are taken from an explicit stack,
    and a pair of identical subtrees is skipped unread.
    """
    pairs = [(x, y)]
    while pairs:
        x, y = pairs.pop()
        if x is y:
            continue
        tag = x.tag
        if tag != y.tag:
            return -1 if tag < y.tag else 1
        if tag == _TAG_LITERAL:
            if x.symbol != y.symbol:
                return -1 if x.symbol < y.symbol else 1
        elif tag == _TAG_STAR:
            pairs.append((x.inner, y.inner))
        elif tag > _TAG_STAR:
            pairs.append((x.right, y.right))
            pairs.append((x.left, y.left))
    return 0


_sort_key = cmp_to_key(_compare)


def _spine(r: Regex, tag: int) -> list[Regex]:
    """The maximal subtrees of r whose root is not a `tag` node, left to
    right: the parts of a union, or the factors of a concatenation."""
    out = []
    stack = [r]
    while stack:
        x = stack.pop()
        if x.tag == tag:
            stack.append(x.right)
            stack.append(x.left)
        else:
            out.append(x)
    return out


def _chain(node: type, items: list[Regex]) -> Regex:
    """items joined by a binary node class, nested to the right."""
    out = items[-1]
    for item in reversed(items[:-1]):
        out = node(item, out)
    return out


def _post_order(key: Hashable, root, children: Callable) -> dict:
    """Every node that children reaches from root, each once and after the
    nodes it reaches, root last: a dict from a node's key to (node, the keys
    of its children).  children(node) lists (key, child) pairs, and key is
    root's.

    Nodes are taken from an explicit stack, first child first, and a node
    shared by several parents is visited once.
    """
    order: dict = {}
    stack = [(key, root, None)]
    while stack:
        key, x, pairs = stack.pop()
        if key in order:
            continue
        if pairs is None:
            pairs = children(x)
        todo = [(k, c, None) for k, c in pairs if k not in order]
        if todo:
            stack.append((key, x, pairs))
            stack += reversed(todo)
            continue
        order[key] = (x, [k for k, _ in pairs])
    return order


class _Terms:
    """Regexes in normal form, numbered for the life of one table.

    A term (an epsilon, literal, star or concatenation node) is numbered by
    its key: (tag,), (tag, symbol), (tag, inner) or (tag, left, right), over
    numbered children.  A regex is numbered by the set of its union parts'
    terms, parts[i]; keys[i] is None unless that set is one term.  0 is the
    empty set, the empty language, and 1 is epsilon.  union, concat and star
    build the normal form on numbers, so two regexes have one normal form
    exactly when their numbers are equal, and no tree is compared or sorted
    until tree() rebuilds one.
    """

    __slots__ = ("keys", "parts", "nullable", "_ids", "_trees")

    def __init__(self):
        self.keys: list[tuple | None] = [None, (_TAG_EPSILON,)]
        self.parts = [frozenset(), frozenset((1,))]
        self.nullable = [False, True]
        self._ids: dict[object, int] = {self.parts[0]: 0, self.parts[1]: 1}
        self._trees: dict[int, Regex] = {0: _EMPTY, 1: _EPSILON}

    def term(self, key: tuple, null: bool) -> int:
        ids = self._ids
        i = ids.get(key)
        if i is None:
            i = ids[key] = ids[frozenset((len(self.keys),))] = len(self.keys)
            self.keys.append(key)
            self.parts.append(frozenset((i,)))
            self.nullable.append(null)
        return i

    def union(self, items: Iterable[int]) -> int:
        parts = self.parts
        s = frozenset().union(*map(parts.__getitem__, items))
        i = self._ids.get(s)
        if i is None:
            i = self._ids[s] = len(self.keys)
            self.keys.append(None)
            parts.append(s)
            self.nullable.append(any(map(self.nullable.__getitem__, s)))
        return i

    def concat(self, left: int, right: int) -> int:
        if not left or not right:
            return 0
        if left == 1 or right == 1:
            return right if left == 1 else left
        return self.term((_TAG_CONCAT, left, right), self.nullable[left] and self.nullable[right])

    def star(self, inner: int) -> int:
        if inner < 2:
            return 1
        key = self.keys[inner]
        return inner if key and key[0] == _TAG_STAR else self.term((_TAG_STAR, inner), True)

    def number(self, r: Regex, symbols: Sequence[str] | None = None) -> int:
        """The number of r's normal form.

        With symbols given, UnknownSymbolError names the first literal, left
        to right, outside them: the walk takes each node's left child first.
        """
        term, concat, union, star = self.term, self.concat, self.union, self.star
        done: dict[int, int] = {}
        stack = [r]
        while stack:
            x = stack.pop()
            if id(x) in done:
                continue
            tag = x.tag
            if tag < _TAG_LITERAL:
                out = tag  # the numbers of the empty set and of epsilon
            elif tag == _TAG_LITERAL:
                if symbols is not None and x.symbol not in symbols:
                    raise UnknownSymbolError(x.symbol)
                out = term((tag, x.symbol), False)
            elif tag == _TAG_STAR:
                inner = done.get(id(x.inner))
                if inner is None:
                    stack += (x, x.inner)
                    continue
                out = star(inner)
            elif tag == _TAG_CONCAT:
                left, right = done.get(id(x.left)), done.get(id(x.right))
                if left is None or right is None:
                    stack += (x, x.right, x.left)
                    continue
                out = concat(left, right)
            else:
                kids = _spine(x, tag)
                todo = [p for p in kids if id(p) not in done]
                if todo:
                    stack.append(x)
                    stack += reversed(todo)
                    continue
                out = union([done[id(p)] for p in kids])
            done[id(x)] = out
        return done[id(r)]

    def tree(self, i: int) -> Regex:
        """The normalized tree of number i: a union is a right-nested chain
        of its parts sorted by _sort_key.  Trees are kept per number, so
        equal subtrees are one object."""
        keys, parts, trees = self.keys, self.parts, self._trees

        def children(j: int) -> list[tuple[int, int]]:
            key = keys[j]
            if j in trees or key and key[0] <= _TAG_LITERAL:
                return []
            return [(k, k) for k in (parts[j] if key is None else key[1:])]

        for j, (_, kids) in _post_order(i, i, children).items():
            if j in trees:
                continue
            key = keys[j]
            if key is None:
                out = _chain(Union, sorted(map(trees.__getitem__, kids), key=_sort_key))
            elif key[0] == _TAG_LITERAL:
                out = Literal(key[1])
            elif key[0] == _TAG_STAR:
                out = Star(trees[key[1]])
            else:
                out = Concat(trees[key[1]], trees[key[2]])
            trees[j] = out
        return trees[i]


def normalize(r: Regex) -> Regex:
    """The normal form of r, as one tree whose equal subtrees are one object."""
    terms = _Terms()
    return terms.tree(terms.number(r))


# ---------------------------------------------------------------------------
# parsing


def check_alphabet(alphabet: Sequence[str]) -> tuple[str, ...]:
    symbols = tuple(alphabet)
    if not symbols:
        raise ValueError("alphabet must be nonempty")
    if len(set(symbols)) != len(symbols):
        raise ValueError("alphabet symbols must be distinct")
    for s in symbols:
        if len(s) != 1 or not s.isprintable() or s in RESERVED_TOKENS:
            raise ValueError(f"invalid alphabet symbol {s!r}")
    return symbols


def parse_regex(text: str, alphabet: Sequence[str]) -> Regex:
    """Parse the ASCII grammar: # empty, @ epsilon, | * and grouping.

    Star binds tighter than concatenation, which binds tighter than union;
    both binary operators nest to the right.  Each open parenthesis saves
    the enclosing group's alternatives and factors on an explicit stack.
    """
    symbols = frozenset(check_alphabet(alphabet))
    n = len(text)
    pos = 0
    groups: list[tuple[list[Regex], list[Regex]]] = []
    alternatives: list[Regex] = []
    factors: list[Regex] = []
    while True:
        c = text[pos] if pos < n else None
        if c is None:
            raise RegexSyntaxError("unexpected end of input", pos)
        if c == "(":
            pos += 1
            groups.append((alternatives, factors))
            alternatives, factors = [], []
            continue
        if c == "#":
            node: Regex = _EMPTY
        elif c == "@":
            node = _EPSILON
        elif c in "|*)":
            raise RegexSyntaxError(f"unexpected {c!r}", pos)
        elif c not in symbols:
            raise UnknownSymbolError(c)
        else:
            node = Literal(c)
        pos += 1
        # node is a complete factor base; close every group that ends here
        while True:
            while pos < n and text[pos] == "*":
                pos += 1
                node = Star(node)
            factors.append(node)
            c = text[pos] if pos < n else None
            if c is not None and c not in "|)":
                break
            alternatives.append(_chain(Concat, factors))
            factors = []
            if c == "|":
                pos += 1
                break
            node = _chain(Union, alternatives)
            if not groups:
                if pos != n:
                    raise RegexSyntaxError("trailing input", pos)
                return node
            if c != ")":
                raise RegexSyntaxError("expected ')'", pos)
            pos += 1
            alternatives, factors = groups.pop()


# ---------------------------------------------------------------------------
# DFAs


@dataclass(frozen=True)
class Dfa:
    """Total deterministic automaton over an ordered alphabet."""

    alphabet: tuple[str, ...]
    n_states: int
    initial: int
    finals: frozenset[int]
    delta: tuple[tuple[int, ...], ...]

    def symbol_index(self, a: str) -> int:
        try:
            return self.alphabet.index(a)
        except ValueError:
            raise UnknownSymbolError(a) from None

    def step(self, state: int, a: str) -> int:
        return self.delta[state][self.symbol_index(a)]

    def run(self, word: str, start: int | None = None) -> int:
        q = self.initial if start is None else start
        for a in word:
            q = self.step(q, a)
        return q

    def accepts_word(self, word: str) -> bool:
        return self.run(word) in self.finals

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "states": self.n_states,
            "initial": self.initial,
            "finals": sorted(self.finals),
            "delta": [list(row) for row in self.delta],
        }


def _restrict_reachable(d: Dfa, start: int | None = None) -> Dfa:
    """The part reachable from start (by default the initial state), numbered
    in breadth-first order from it; start becomes the initial state."""
    start = d.initial if start is None else start
    renum = {start: 0}
    order = [start]
    for q in order:  # not orbit: a call per letter cost regex-compile 14% of its instances/s
        for t in d.delta[q]:
            if t not in renum:
                renum[t] = len(order)
                order.append(t)
    if d.initial == start and len(order) == d.n_states and order == list(range(d.n_states)):
        return d
    return Dfa(
        alphabet=d.alphabet,
        n_states=len(order),
        initial=0,
        finals=frozenset(new for new, old in enumerate(order) if old in d.finals),
        delta=tuple(tuple(map(renum.__getitem__, d.delta[old])) for old in order),
    )


def refine_partition(
    n_states: int, n_letters: int, finals: Iterable[int], delta: Sequence[Sequence[int]]
) -> list[int]:
    """Hopcroft's refinement: the block of every state in the coarsest
    partition that separates finals from the rest and is stable under delta.

    Two states share a block exactly when they accept the same language.
    delta[q][ai] is the successor of q under letter ai.  A worklist holds
    splitter blocks; each popped splitter is scanned through the predecessor
    lists, and only the blocks it touches are split.  The touched part moves
    to a new block; the half to queue is the new one when the old block was
    already queued, the smaller one otherwise (Hopcroft 1971), which bounds
    the work by O(n k log n).
    """
    pre = [[[] for _ in range(n_states)] for _ in range(n_letters)]
    for p, row in enumerate(delta):
        for ai in range(n_letters):
            pre[ai][row[ai]].append(p)
    accepting = set(finals)
    members = [b for b in (accepting, set(range(n_states)) - accepting) if b]
    block = [0] * n_states
    for b, states in enumerate(members):
        for q in states:
            block[q] = b
    work = list(range(len(members)))
    queued = [True] * len(members)
    while work:
        b = work.pop()
        queued[b] = False
        splitter = list(members[b])
        for pre_a in pre:
            touched: dict[int, list[int]] = {}
            for q in splitter:
                for p in pre_a[q]:
                    touched.setdefault(block[p], []).append(p)
            for c, moved in touched.items():
                if len(moved) == len(members[c]):
                    continue
                new = len(members)
                part = set(moved)
                members[c] -= part
                members.append(part)
                queued.append(False)
                for p in moved:
                    block[p] = new
                pick = new if queued[c] or len(part) <= len(members[c]) else c
                work.append(pick)
                queued[pick] = True
    return block


def language_quotient(d: Dfa) -> tuple[Dfa, list[int]]:
    """The quotient of d by language equivalence, its blocks numbered in the
    order of their least states, and the block of every state."""
    k = len(d.alphabet)
    block = refine_partition(d.n_states, k, d.finals, d.delta)
    number: dict[int, int] = {}
    reps = []
    for q, b in enumerate(block):
        if b not in number:
            number[b] = len(reps)
            reps.append(q)
    block_of = [number[b] for b in block]
    quotient = Dfa(
        alphabet=d.alphabet,
        n_states=len(reps),
        initial=block_of[d.initial],
        finals=frozenset(block_of[q] for q in d.finals),
        delta=tuple(tuple(block_of[d.delta[r][ai]] for ai in range(k)) for r in reps),
    )
    return quotient, block_of


def minimize_dfa(d: Dfa) -> Dfa:
    """Partition refinement on the reachable part."""
    return language_quotient(_restrict_reachable(d))[0]


@dataclass(frozen=True)
class LanguageId:
    """A regular language, as its minimal DFA with BFS-canonical numbering.

    The hash reads the whole DFA, so it is computed once per object.
    """

    dfa: Dfa

    @cached_property
    def _hash(self) -> int:
        return hash(self.dfa)

    def __hash__(self) -> int:
        return self._hash

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.dfa.alphabet

    @property
    def n_states(self) -> int:
        return self.dfa.n_states

    def sort_key(self) -> tuple:
        return (
            self.dfa.n_states,
            tuple(sorted(self.dfa.finals)),
            self.dfa.delta,
            self.dfa.alphabet,
        )


def canonical_language(d: Dfa) -> LanguageId:
    return LanguageId(_restrict_reachable(minimize_dfa(d)))


def block_language(quotient: Dfa, block: int) -> LanguageId:
    """The language of a block of language_quotient's quotient: what the
    block reaches, renumbered breadth-first, as the quotient is minimal."""
    return LanguageId(_restrict_reachable(quotient, block))


# ---------------------------------------------------------------------------
# compilation and the basic operations


def _derivative_closure(
    r: Regex, symbols: tuple[str, ...], limits: Limits
) -> tuple[list[int], list[tuple[int, ...]], _Terms]:
    """The derivative automaton of r: (states, rows, terms).

    states are the numbers, in terms, of r's derivatives in breadth-first
    order from r, and rows[q][ai] the state that letter ai takes state q to.
    UnknownSymbolError names the first literal of r, left to right, outside
    symbols.
    """
    terms = _Terms()
    keys, parts, nullable, union, concat = terms.keys, terms.parts, terms.nullable, terms.union, terms.concat

    def derive(i: int, a: str, memo: dict[int, int]) -> int:
        """a^-1 of number i, reading and filling memo: number -> its
        derivative by a.  A union's derivative is the union of its parts'."""
        stack = [i]
        while stack:
            x = stack[-1]
            if x in memo:
                stack.pop()
                continue
            key = keys[x]
            if key is None:
                todo = [t for t in parts[x] if t not in memo]
                if todo:
                    stack += todo
                    continue
                out = union([memo[t] for t in parts[x]])
            elif key[0] == _TAG_STAR:
                inner = memo.get(key[1])
                if inner is None:
                    stack.append(key[1])
                    continue
                out = concat(inner, x)
            elif key[0] == _TAG_CONCAT:
                _, left, right = key
                head = memo.get(left)
                tail = memo.get(right) if nullable[left] else 0
                if head is None or tail is None:
                    stack += (left, right) if nullable[left] else (left,)
                    continue
                out = concat(head, right)
                out = union((out, tail)) if tail else out
            else:
                out = 1 if key[0] == _TAG_LITERAL and key[1] == a else 0
            memo[x] = out
            stack.pop()
        return memo[i]

    start = terms.number(r, symbols)
    steps = [partial(derive, a=a, memo={}) for a in symbols]
    try:
        states, edges, _ = orbit([start], steps, limits.max_states, "derivative closure")
    except ResourceExceededError:
        raise ResourceExceededError(f"derivative closure exceeded {limits.max_states} states") from None
    return states, list(map(tuple, edges)), terms


def brzozowski_dfa(r: Regex, alphabet: Sequence[str], limits: Limits = DEFAULT_LIMITS) -> Dfa:
    """Raw derivative automaton, before any minimization."""
    symbols = check_alphabet(alphabet)
    states, rows, terms = _derivative_closure(r, symbols, limits)
    return Dfa(
        alphabet=symbols,
        n_states=len(states),
        initial=0,
        finals=frozenset(i for i, s in enumerate(states) if terms.nullable[s]),
        delta=tuple(rows),
    )


def compile_regex(r: Regex, alphabet: Sequence[str], limits: Limits = DEFAULT_LIMITS) -> LanguageId:
    return canonical_language(brzozowski_dfa(r, alphabet, limits))


def compile_text(text: str, alphabet: Sequence[str], limits: Limits = DEFAULT_LIMITS) -> LanguageId:
    return compile_regex(parse_regex(text, alphabet), alphabet, limits)


def left_derivative(lang: LanguageId, word: str) -> LanguageId:
    """The language {u : word u is in L}: the minimal DFA restricted to what
    the state reached by word reaches, which is minimal and canonical."""
    return LanguageId(_restrict_reachable(lang.dfa, lang.dfa.run(word)))


def right_derivative(lang: LanguageId, word: str) -> LanguageId:
    """The language {u : u word is in L}: shift the finals backwards along word."""
    d = lang.dfa
    new_finals = frozenset(q for q in range(d.n_states) if d.run(word, start=q) in d.finals)
    return canonical_language(Dfa(d.alphabet, d.n_states, d.initial, new_finals, d.delta))


def residuals(lang: LanguageId) -> frozenset[LanguageId]:
    """All left derivatives: the minimal DFA restricted from each state."""
    d = lang.dfa
    return frozenset(LanguageId(_restrict_reachable(d, q)) for q in range(d.n_states))


def two_sided_residuals(lang: LanguageId, limits: Limits = DEFAULT_LIMITS) -> frozenset[LanguageId]:
    """Closure of {L} under single-letter left and right derivatives.

    Finite because left derivatives range over minimal-DFA states and right
    derivatives only depend on the finals-shift, of which there are at most
    as many as transition maps.
    """
    steps = [
        partial(derive, word=a)
        for a in lang.alphabet
        for derive in (left_derivative, right_derivative)
    ]
    return frozenset(orbit([lang], steps, limits.max_carrier, "two-sided residual closure")[0])


# ---------------------------------------------------------------------------
# regex synthesis (state elimination), for reports and labels


def language_to_regex(lang: LanguageId) -> str:
    """A regex for lang, by state elimination over numbered normal forms;
    one tree is built, for the text, at the end."""
    d = lang.dfa
    n = d.n_states
    start, accept = n, n + 1
    terms = _Terms()
    # (i, j) -> the number of the regex on the edge from i to j; no edge
    # carries the empty language, 0
    table = {(start, d.initial): 1}
    for q in d.finals:
        table[q, accept] = 1
    letters = [terms.term((_TAG_LITERAL, a), False) for a in d.alphabet]
    for q in range(n):
        for t, letter in zip(d.delta[q], letters):
            table[q, t] = terms.union((table.get((q, t), 0), letter))

    nodes = [start, accept] + list(range(n))
    for s in range(n):
        nodes.remove(s)
        loop = terms.star(table.get((s, s), 0))
        ins = [(p, table[p, s]) for p in nodes if (p, s) in table]
        outs = [(q, table[s, q]) for q in nodes if (s, q) in table]
        for p, rin in ins:
            for q, rout in outs:
                bridge = terms.concat(terms.concat(rin, loop), rout)
                table[p, q] = terms.union((table.get((p, q), 0), bridge))
        for p in list(table):
            if s in p:
                del table[p]
    return render_regex(terms.tree(table.get((start, accept), 0)))


def render_regex(r: Regex) -> str:
    """Render with precedence star > concat > union; @ is epsilon, # empty.

    A node's text depends on the node and on the context it sits in (1
    under a union or at the top, 2 in a concatenation, 3 under a star), so
    texts are memoized on that pair.  A chain of unions, or of
    concatenations, is rendered from its list of parts in one join, and only
    the heads of chains are memoized.  Each memoized text is built once, so
    a subtree shared by many parents costs its length once, not once per
    occurrence in the output.

    The lengths are summed on the same pairs before any text is built, and
    a text longer than MAX_REGEX_TEXT characters raises LangdualError: a
    small shared tree can stand for billions of characters.
    """

    def children(item: tuple[Regex, int]) -> list:
        x, _ = item
        tag = x.tag
        if tag <= _TAG_LITERAL:
            return []
        if tag == _TAG_STAR:
            return [((id(x.inner), 3), (x.inner, 3))]
        c = 2 if tag == _TAG_CONCAT else 1
        return [((id(p), c), (p, c)) for p in _spine(x, tag)]

    order = _post_order((id(r), 1), (r, 1), children).values()
    width: dict[tuple[int, int], int] = {}
    for (x, context), parts in order:
        tag = x.tag
        n = sum(map(width.__getitem__, parts))
        if tag == _TAG_STAR:
            n += 1
        elif tag == _TAG_CONCAT:
            n += 2 if context > 2 else 0
        elif tag == _TAG_UNION:
            n += len(parts) - 1 + (2 if context > 1 else 0)
        else:
            n = len(x.symbol) if tag == _TAG_LITERAL else 1
        width[id(x), context] = n
    if n > MAX_REGEX_TEXT:  # the last pair is r at the top
        raise LangdualError(f"regex text would have {n} characters; a report carries at most {MAX_REGEX_TEXT}")
    memo: dict[tuple[int, int], str] = {}
    for (x, context), parts in order:
        tag = x.tag
        texts = [memo[key] for key in parts]
        if tag == _TAG_STAR:
            text = texts[0] + "*"
        elif tag == _TAG_CONCAT:
            text = "".join(texts)
            text = f"({text})" if context > 2 else text
        elif tag == _TAG_UNION:
            text = "|".join(texts)
            text = f"({text})" if context > 1 else text
        else:
            text = x.symbol if tag == _TAG_LITERAL else "#@"[tag]
        memo[id(x), context] = text
    return text


# The longest regex text a report carries.
MAX_REGEX_TEXT = 1 << 26

# Python's json module nests one level of its own stack per level of a
# document, both to write a report and to read it back; the interpreter's
# default limit of 1000 frames leaves room for this many levels of tree
# below a report's top-level object.
MAX_JSON_DEPTH = 900


def regex_to_json(r: Regex) -> object:
    """The tree as nested JSON objects.

    Raises LangdualError when the tree has more than MAX_JSON_DEPTH levels.
    """
    def children(x: Regex) -> list[tuple[int, Regex]]:
        tag = x.tag
        kids = () if tag < _TAG_STAR else (x.inner,) if tag == _TAG_STAR else (x.left, x.right)
        return [(id(k), k) for k in kids]

    done: dict[int, tuple[dict, int]] = {}
    for key, (x, kids) in _post_order(id(r), r, children).items():
        tag = x.tag
        built = [done[k] for k in kids]
        if tag == _TAG_EMPTY:
            obj: dict = {"kind": "empty"}
        elif tag == _TAG_EPSILON:
            obj = {"kind": "epsilon"}
        elif tag == _TAG_LITERAL:
            obj = {"kind": "literal", "symbol": x.symbol}
        elif tag == _TAG_STAR:
            obj = {"kind": "star", "inner": built[0][0]}
        else:
            kind = "concat" if tag == _TAG_CONCAT else "union"
            obj = {"kind": kind, "left": built[0][0], "right": built[1][0]}
        done[key] = (obj, 1 + max((levels for _, levels in built), default=0))
    obj, levels = done[id(r)]
    if levels > MAX_JSON_DEPTH:
        raise LangdualError(
            f"regex tree has {levels} levels; a JSON report carries at most {MAX_JSON_DEPTH}"
        )
    return obj


_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"'})


def dot_digraph(name: str, nodes: Iterable[tuple], edges: Iterable[tuple], start: str | None = None) -> str:
    """DOT text of a digraph drawn left to right: nodes as (id, shape,
    label), edges as (source id, target id, label), and a point arrow into
    the node start if one is given.  Each label is written double-quoted,
    with backslash and quote escaped."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    if start is not None:
        lines.append('  start [shape=point, label=""];')
    lines += [f'  {v} [shape={shape}, label="{label.translate(_DOT_ESCAPES)}"];' for v, shape, label in nodes]
    if start is not None:
        lines.append(f"  start -> {start};")
    lines += [f'  {s} -> {t} [label="{label.translate(_DOT_ESCAPES)}"];' for s, t, label in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def dfa_to_dot(d: Dfa) -> str:
    edges = []
    for q in range(d.n_states):
        by_target: dict[int, list[str]] = {}
        for ai, a in enumerate(d.alphabet):
            by_target.setdefault(d.delta[q][ai], []).append(a)
        for t, symbols in sorted(by_target.items()):  # one edge per symbol if "," is one
            edges += [(f"q{q}", f"q{t}", label) for label in (symbols if "," in symbols else [",".join(symbols)])]
    nodes = [(f"q{q}", "doublecircle" if q in d.finals else "circle", str(q)) for q in range(d.n_states)]
    return dot_digraph("dfa", nodes, edges, start=f"q{d.initial}")
