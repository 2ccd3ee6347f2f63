"""Regular languages as canonical minimal DFAs.

A language value is its minimal deterministic automaton in a canonical
numbering, so two values denote the same language exactly when they are
componentwise equal.  Compilation goes through Brzozowski derivatives,
normalized up to associativity/commutativity/idempotence of union plus the
empty/epsilon unit laws; that normalization is what keeps the derivative
closure finite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import RegexSyntaxError, ResourceExceededError, UnknownSymbolError

RESERVED_TOKENS = "#@|*()"


# ---------------------------------------------------------------------------
# regex syntax trees


class Regex:
    """Base class for regular-expression syntax trees."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(Regex):
    pass


@dataclass(frozen=True)
class Epsilon(Regex):
    pass


@dataclass(frozen=True)
class Literal(Regex):
    symbol: str


@dataclass(frozen=True)
class Union(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex


def _key(r: Regex) -> tuple:
    """Total order on trees, used to sort union parts deterministically."""
    if isinstance(r, Empty):
        return (0,)
    if isinstance(r, Epsilon):
        return (1,)
    if isinstance(r, Literal):
        return (2, r.symbol)
    if isinstance(r, Star):
        return (3, _key(r.inner))
    if isinstance(r, Concat):
        return (4, _key(r.left), _key(r.right))
    if isinstance(r, Union):
        return (5, _key(r.left), _key(r.right))
    raise TypeError(f"not a Regex: {r!r}")


def _union_parts(r: Regex) -> Iterator[Regex]:
    if isinstance(r, Union):
        yield from _union_parts(r.left)
        yield from _union_parts(r.right)
    else:
        yield r


def make_union(parts: Iterable[Regex]) -> Regex:
    """Union normalized to a sorted, duplicate-free, right-nested chain."""
    flat: list[Regex] = []
    for p in parts:
        flat.extend(_union_parts(p))
    flat = [p for p in flat if not isinstance(p, Empty)]
    dedup: dict[tuple, Regex] = {_key(p): p for p in flat}
    ordered = [dedup[k] for k in sorted(dedup)]
    if not ordered:
        return Empty()
    out = ordered[-1]
    for p in reversed(ordered[:-1]):
        out = Union(p, out)
    return out


def make_concat(left: Regex, right: Regex) -> Regex:
    if isinstance(left, Empty) or isinstance(right, Empty):
        return Empty()
    if isinstance(left, Epsilon):
        return right
    if isinstance(right, Epsilon):
        return left
    return Concat(left, right)


def make_star(r: Regex) -> Regex:
    if isinstance(r, (Empty, Epsilon)):
        return Epsilon()
    if isinstance(r, Star):
        return r
    return Star(r)


def normalize(r: Regex) -> Regex:
    """Rebuild a tree bottom-up through the normalizing constructors."""
    if isinstance(r, (Empty, Epsilon, Literal)):
        return r
    if isinstance(r, Union):
        return make_union([normalize(r.left), normalize(r.right)])
    if isinstance(r, Concat):
        return make_concat(normalize(r.left), normalize(r.right))
    if isinstance(r, Star):
        return make_star(normalize(r.inner))
    raise TypeError(f"not a Regex: {r!r}")


def nullable(r: Regex) -> bool:
    if isinstance(r, (Empty, Literal)):
        return False
    if isinstance(r, (Epsilon, Star)):
        return True
    if isinstance(r, Union):
        return nullable(r.left) or nullable(r.right)
    if isinstance(r, Concat):
        return nullable(r.left) and nullable(r.right)
    raise TypeError(f"not a Regex: {r!r}")


def derivative(r: Regex, a: str) -> Regex:
    """Brzozowski derivative: the normalized tree for a^-1 L(r)."""
    if isinstance(r, (Empty, Epsilon)):
        return Empty()
    if isinstance(r, Literal):
        return Epsilon() if r.symbol == a else Empty()
    if isinstance(r, Union):
        return make_union([derivative(r.left, a), derivative(r.right, a)])
    if isinstance(r, Concat):
        head = make_concat(derivative(r.left, a), r.right)
        if nullable(r.left):
            return make_union([head, derivative(r.right, a)])
        return head
    if isinstance(r, Star):
        return make_concat(derivative(r.inner, a), r)
    raise TypeError(f"not a Regex: {r!r}")


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


class _Parser:
    def __init__(self, text: str, alphabet: frozenset[str]):
        self.text = text
        self.alphabet = alphabet
        self.pos = 0

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def union(self) -> Regex:
        out = self.concatenation()
        if self.peek() == "|":
            self.pos += 1
            return Union(out, self.union())
        return out

    def concatenation(self) -> Regex:
        factors = [self.postfix()]
        while self.peek() is not None and self.peek() not in "|)":
            factors.append(self.postfix())
        out = factors[-1]
        for f in reversed(factors[:-1]):
            out = Concat(f, out)
        return out

    def postfix(self) -> Regex:
        out = self.base()
        while self.peek() == "*":
            self.pos += 1
            out = Star(out)
        return out

    def base(self) -> Regex:
        c = self.peek()
        if c is None:
            raise RegexSyntaxError("unexpected end of input", self.pos)
        if c == "#":
            self.pos += 1
            return Empty()
        if c == "@":
            self.pos += 1
            return Epsilon()
        if c == "(":
            self.pos += 1
            inner = self.union()
            if self.peek() != ")":
                raise RegexSyntaxError("expected ')'", self.pos)
            self.pos += 1
            return inner
        if c in "|*)":
            raise RegexSyntaxError(f"unexpected {c!r}", self.pos)
        if c not in self.alphabet:
            raise UnknownSymbolError(c)
        self.pos += 1
        return Literal(c)


def parse_regex(text: str, alphabet: Sequence[str]) -> Regex:
    """Parse the ASCII grammar: # empty, @ epsilon, | * and grouping."""
    symbols = check_alphabet(alphabet)
    parser = _Parser(text, frozenset(symbols))
    out = parser.union()
    if parser.pos != len(text):
        raise RegexSyntaxError("trailing input", parser.pos)
    return out


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

    @staticmethod
    def from_json(data: dict) -> "Dfa":
        dfa = Dfa(
            alphabet=tuple(data["alphabet"]),
            n_states=int(data["states"]),
            initial=int(data["initial"]),
            finals=frozenset(int(q) for q in data["finals"]),
            delta=tuple(tuple(int(t) for t in row) for row in data["delta"]),
        )
        validate_dfa(dfa)
        return dfa


def validate_dfa(d: Dfa) -> None:
    check_alphabet(d.alphabet)
    if not (0 <= d.initial < d.n_states):
        raise ValueError("initial state out of range")
    if not all(0 <= q < d.n_states for q in d.finals):
        raise ValueError("final state out of range")
    if len(d.delta) != d.n_states or any(len(row) != len(d.alphabet) for row in d.delta):
        raise ValueError("transition table has wrong shape")
    if not all(0 <= t < d.n_states for row in d.delta for t in row):
        raise ValueError("transition target out of range")


def _restrict_reachable(d: Dfa) -> Dfa:
    """The part reachable from the initial state, numbered in breadth-first
    order from it."""
    renum = {d.initial: 0}
    order = [d.initial]
    for q in order:
        for t in d.delta[q]:
            if t not in renum:
                renum[t] = len(order)
                order.append(t)
    if len(order) == d.n_states and order == list(range(d.n_states)):
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


def _quotient(d: Dfa) -> tuple[Dfa, list[int]]:
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
    return _quotient(_restrict_reachable(d))[0]


@dataclass(frozen=True)
class LanguageId:
    """A regular language, as its minimal DFA with BFS-canonical numbering."""

    dfa: Dfa

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


def state_languages(d: Dfa) -> Callable[[int], LanguageId]:
    """State -> the language accepted from it, from one refinement of all
    states; the initial state of d is not read.

    The quotient by language equivalence is minimal from each of its states,
    so a state's canonical DFA is the quotient restricted to what its block
    reaches, renumbered breadth-first from that block, with no minimization
    per state.  Languages are memoized per block.
    """
    quotient, block_of = _quotient(d)
    memo: dict[int, LanguageId] = {}

    def language(state: int) -> LanguageId:
        b = block_of[state]
        if b not in memo:
            memo[b] = LanguageId(_restrict_reachable(replace(quotient, initial=b)))
        return memo[b]

    return language


# ---------------------------------------------------------------------------
# compilation and the basic operations


def _check_symbols(r: Regex, symbols: frozenset[str]) -> None:
    if isinstance(r, Literal):
        if r.symbol not in symbols:
            raise UnknownSymbolError(r.symbol)
    elif isinstance(r, (Union, Concat)):
        _check_symbols(r.left, symbols)
        _check_symbols(r.right, symbols)
    elif isinstance(r, Star):
        _check_symbols(r.inner, symbols)


def brzozowski_dfa(r: Regex, alphabet: Sequence[str], limits: Limits = DEFAULT_LIMITS) -> Dfa:
    """Raw derivative automaton, before any minimization."""
    symbols = check_alphabet(alphabet)
    _check_symbols(r, frozenset(symbols))
    start = normalize(r)
    index = {start: 0}
    states = [start]
    rows: list[tuple[int, ...]] = []
    queue = deque([start])
    while queue:
        state = queue.popleft()
        row = []
        for a in symbols:
            nxt = derivative(state, a)
            if nxt not in index:
                if len(index) >= limits.max_states:
                    raise ResourceExceededError(
                        f"derivative closure exceeded {limits.max_states} states"
                    )
                index[nxt] = len(states)
                states.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    return Dfa(
        alphabet=symbols,
        n_states=len(states),
        initial=0,
        finals=frozenset(i for i, s in enumerate(states) if nullable(s)),
        delta=tuple(rows),
    )


def compile_regex(r: Regex, alphabet: Sequence[str], limits: Limits = DEFAULT_LIMITS) -> LanguageId:
    return canonical_language(brzozowski_dfa(r, alphabet, limits))


def compile_text(text: str, alphabet: Sequence[str], limits: Limits = DEFAULT_LIMITS) -> LanguageId:
    return compile_regex(parse_regex(text, alphabet), alphabet, limits)


def accepts(lang: LanguageId, word: str) -> bool:
    return lang.dfa.accepts_word(word)


def left_derivative(lang: LanguageId, word: str) -> LanguageId:
    """The language {u : word u is in L}, canonical."""
    d = lang.dfa
    start = d.run(word)
    return canonical_language(
        Dfa(d.alphabet, d.n_states, start, d.finals, d.delta)
    )


def right_derivative(lang: LanguageId, word: str) -> LanguageId:
    """The language {u : u word is in L}: shift the finals backwards along word."""
    d = lang.dfa
    new_finals = frozenset(q for q in range(d.n_states) if d.run(word, start=q) in d.finals)
    return canonical_language(Dfa(d.alphabet, d.n_states, d.initial, new_finals, d.delta))


def residuals(lang: LanguageId) -> frozenset[LanguageId]:
    """All left derivatives; these are the state languages of the minimal DFA."""
    return frozenset(map(state_languages(lang.dfa), range(lang.n_states)))


def two_sided_residuals(lang: LanguageId, limits: Limits = DEFAULT_LIMITS) -> frozenset[LanguageId]:
    """Closure of {L} under single-letter left and right derivatives.

    Finite because left derivatives range over minimal-DFA states and right
    derivatives only depend on the finals-shift, of which there are at most
    as many as transition maps.
    """
    seen = {lang}
    queue = deque([lang])
    while queue:
        cur = queue.popleft()
        for a in cur.alphabet:
            for nxt in (left_derivative(cur, a), right_derivative(cur, a)):
                if nxt not in seen:
                    if len(seen) >= limits.max_carrier:
                        raise ResourceExceededError("two-sided residual closure too large")
                    seen.add(nxt)
                    queue.append(nxt)
    return frozenset(seen)


def equivalent(lang1: LanguageId, lang2: LanguageId) -> bool:
    """Canonical forms make language equality a componentwise equality."""
    return lang1 == lang2


def dfa_equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Bisimulation check for not-necessarily-canonical DFAs."""
    if d1.alphabet != d2.alphabet:
        return False
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    stack = [((0, d1.initial), (1, d2.initial))]
    while stack:
        x, y = stack.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        (sx, qx), (sy, qy) = x, y
        in1 = qx in d1.finals if sx == 0 else qx in d2.finals
        in2 = qy in d1.finals if sy == 0 else qy in d2.finals
        if in1 != in2:
            return False
        parent[rx] = ry
        for ai in range(len(d1.alphabet)):
            tx = d1.delta[qx][ai] if sx == 0 else d2.delta[qx][ai]
            ty = d1.delta[qy][ai] if sy == 0 else d2.delta[qy][ai]
            stack.append(((sx, tx), (sy, ty)))
    return True


# ---------------------------------------------------------------------------
# boolean combinations (library internals for closure constructions)


def _combine(l1: LanguageId, l2: LanguageId, keep) -> LanguageId:
    if l1.alphabet != l2.alphabet:
        raise ValueError("languages over different alphabets")
    d1, d2 = l1.dfa, l2.dfa
    k = len(d1.alphabet)
    index = {(d1.initial, d2.initial): 0}
    order = [(d1.initial, d2.initial)]
    rows = []
    queue = deque(order)
    while queue:
        q1, q2 = queue.popleft()
        row = []
        for ai in range(k):
            t = (d1.delta[q1][ai], d2.delta[q2][ai])
            if t not in index:
                index[t] = len(order)
                order.append(t)
                queue.append(t)
            row.append(index[t])
        rows.append(tuple(row))
    finals = frozenset(
        i for i, (q1, q2) in enumerate(order) if keep(q1 in d1.finals, q2 in d2.finals)
    )
    return canonical_language(Dfa(d1.alphabet, len(order), 0, finals, tuple(rows)))


def lang_union(l1: LanguageId, l2: LanguageId) -> LanguageId:
    return _combine(l1, l2, lambda a, b: a or b)


def lang_intersect(l1: LanguageId, l2: LanguageId) -> LanguageId:
    return _combine(l1, l2, lambda a, b: a and b)


def lang_symdiff(l1: LanguageId, l2: LanguageId) -> LanguageId:
    return _combine(l1, l2, lambda a, b: a != b)


def lang_complement(lang: LanguageId) -> LanguageId:
    d = lang.dfa
    return canonical_language(
        Dfa(d.alphabet, d.n_states, d.initial, frozenset(range(d.n_states)) - d.finals, d.delta)
    )


def empty_language(alphabet: Sequence[str]) -> LanguageId:
    symbols = check_alphabet(alphabet)
    return canonical_language(Dfa(symbols, 1, 0, frozenset(), ((0,) * len(symbols),)))


def full_language(alphabet: Sequence[str]) -> LanguageId:
    symbols = check_alphabet(alphabet)
    return canonical_language(Dfa(symbols, 1, 0, frozenset({0}), ((0,) * len(symbols),)))


# ---------------------------------------------------------------------------
# regex synthesis (state elimination), for reports and labels


def language_to_regex(lang: LanguageId) -> str:
    d = lang.dfa
    n = d.n_states
    start, accept = n, n + 1
    table: dict[tuple[int, int], Regex] = {}

    def get(i, j):
        return table.get((i, j), Empty())

    def put(i, j, r):
        if isinstance(r, Empty):
            table.pop((i, j), None)
        else:
            table[(i, j)] = r

    put(start, d.initial, Epsilon())
    for q in d.finals:
        put(q, accept, Epsilon())
    for q in range(n):
        for ai, a in enumerate(d.alphabet):
            t = d.delta[q][ai]
            put(q, t, make_union([get(q, t), Literal(a)]))

    nodes = [start, accept] + list(range(n))
    for s in range(n):
        nodes.remove(s)
        loop = make_star(get(s, s))
        ins = [(p, get(p, s)) for p in nodes if not isinstance(get(p, s), Empty)]
        outs = [(q, get(s, q)) for q in nodes if not isinstance(get(s, q), Empty)]
        for p, rin in ins:
            for q, rout in outs:
                bridge = make_concat(make_concat(rin, loop), rout)
                put(p, q, make_union([get(p, q), bridge]))
        for p in list(table):
            if s in p:
                del table[p]
    return render_regex(get(start, accept))


def render_regex(r: Regex) -> str:
    """Render with precedence star > concat > union; @ is epsilon, # empty."""

    def go(x: Regex, context: int) -> str:
        if isinstance(x, Empty):
            return "#"
        if isinstance(x, Epsilon):
            return "@"
        if isinstance(x, Literal):
            return x.symbol
        if isinstance(x, Star):
            return go(x.inner, 3) + "*"
        if isinstance(x, Concat):
            s = go(x.left, 2) + go(x.right, 2)
            return f"({s})" if context > 2 else s
        if isinstance(x, Union):
            s = go(x.left, 1) + "|" + go(x.right, 1)
            return f"({s})" if context > 1 else s
        raise TypeError(f"not a Regex: {x!r}")

    return go(r, 1)


def regex_to_json(r: Regex) -> object:
    if isinstance(r, Empty):
        return {"kind": "empty"}
    if isinstance(r, Epsilon):
        return {"kind": "epsilon"}
    if isinstance(r, Literal):
        return {"kind": "literal", "symbol": r.symbol}
    if isinstance(r, Union):
        return {"kind": "union", "left": regex_to_json(r.left), "right": regex_to_json(r.right)}
    if isinstance(r, Concat):
        return {"kind": "concat", "left": regex_to_json(r.left), "right": regex_to_json(r.right)}
    if isinstance(r, Star):
        return {"kind": "star", "inner": regex_to_json(r.inner)}
    raise TypeError(f"not a Regex: {r!r}")


def dfa_to_dot(d: Dfa, labels: Sequence[str] | None = None) -> str:
    lines = ["digraph dfa {", "  rankdir=LR;", '  start [shape=point, label=""];']
    for q in range(d.n_states):
        shape = "doublecircle" if q in d.finals else "circle"
        name = labels[q] if labels is not None else str(q)
        lines.append(f'  q{q} [shape={shape}, label="{name}"];')
    lines.append(f"  start -> q{d.initial};")
    for q in range(d.n_states):
        by_target: dict[int, list[str]] = {}
        for ai, a in enumerate(d.alphabet):
            by_target.setdefault(d.delta[q][ai], []).append(a)
        for t in sorted(by_target):
            label = ",".join(by_target[t])
            lines.append(f'  q{q} -> q{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
