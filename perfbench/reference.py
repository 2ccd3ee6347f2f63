"""Reference answers computed without langdual.

Regex texts are parsed here, turned into automata by subset construction,
minimized by Moore refinement, and the syntactic monoid of a tuple of
languages is read off the minimal automaton.  Every language in a piece is a
union of syntactic classes, so the piece is counted as a family of bitmasks
over the monoid: boolean algebras have one atom per class, Z2 spaces are
spanned by the two-sided residuals, and lattices and join-semilattices are
closed from them.  Nothing here imports the code under test.
"""

from __future__ import annotations


class TooLarge(Exception):
    """A reference construction passed its cap."""


# ---------------------------------------------------------------------------
# regex texts: '#' empty, '@' epsilon, '|', juxtaposition, '*', parentheses


def parse(text: str):
    """Parse into nested tuples ('empty',) ('eps',) ('sym', c) ('alt', [..])
    ('cat', [..]) ('star', x).  Concatenation is n-ary, so long literals do
    not nest."""
    pos = 0

    def union():
        nonlocal pos
        parts = [concat()]
        while pos < len(text) and text[pos] == "|":
            pos += 1
            parts.append(concat())
        return parts[0] if len(parts) == 1 else ("alt", parts)

    def concat():
        nonlocal pos
        factors = []
        while pos < len(text) and text[pos] not in "|)":
            factors.append(postfix())
        if not factors:
            raise ValueError(f"empty factor at {pos} in {text!r}")
        return factors[0] if len(factors) == 1 else ("cat", factors)

    def postfix():
        nonlocal pos
        node = base()
        while pos < len(text) and text[pos] == "*":
            pos += 1
            node = ("star", node)
        return node

    def base():
        nonlocal pos
        c = text[pos]
        pos += 1
        if c == "#":
            return ("empty",)
        if c == "@":
            return ("eps",)
        if c == "(":
            node = union()
            if pos >= len(text) or text[pos] != ")":
                raise ValueError(f"expected ')' at {pos} in {text!r}")
            pos += 1
            return node
        if c in "|*)":
            raise ValueError(f"unexpected {c!r} at {pos - 1} in {text!r}")
        return ("sym", c)

    node = union()
    if pos != len(text):
        raise ValueError(f"trailing input at {pos} in {text!r}")
    return node


# ---------------------------------------------------------------------------
# automata


def _thompson(node, nfa: list[list[tuple[str | None, int]]]) -> tuple[int, int]:
    """Add the fragment for node to nfa; return (start, accept)."""

    def new() -> int:
        nfa.append([])
        return len(nfa) - 1

    kind = node[0]
    if kind in ("empty", "eps", "sym"):
        s, t = new(), new()
        if kind == "eps":
            nfa[s].append((None, t))
        elif kind == "sym":
            nfa[s].append((node[1], t))
        return s, t
    if kind == "star":
        s, t = new(), new()
        i, o = _thompson(node[1], nfa)
        nfa[s] += [(None, i), (None, t)]
        nfa[o] += [(None, i), (None, t)]
        return s, t
    if kind == "alt":
        s, t = new(), new()
        for part in node[1]:
            i, o = _thompson(part, nfa)
            nfa[s].append((None, i))
            nfa[o].append((None, t))
        return s, t
    start = prev = None
    for part in node[1]:
        i, o = _thompson(part, nfa)
        if prev is None:
            start = i
        else:
            nfa[prev].append((None, i))
        prev = o
    return start, prev


def dfa_of(text: str, alphabet: str, cap: int = 50_000):
    """Complete DFA (delta, finals) with initial state 0, by subset construction."""
    nfa: list[list[tuple[str | None, int]]] = []
    start, accept = _thompson(parse(text), nfa)

    def eclose(states):
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for label, r in nfa[q]:
                if label is None and r not in seen:
                    seen.add(r)
                    stack.append(r)
        return frozenset(seen)

    init = eclose([start])
    index = {init: 0}
    order = [init]
    delta: list[list[int]] = []
    for subset in order:
        row = []
        for a in alphabet:
            moved = eclose([r for q in subset for label, r in nfa[q] if label == a])
            if moved not in index:
                if len(order) >= cap:
                    raise TooLarge(f"subset construction passed {cap} states")
                index[moved] = len(order)
                order.append(moved)
            row.append(index[moved])
        delta.append(row)
    return delta, [accept in subset for subset in order]


def minimize(delta, outputs):
    """Moore refinement of a reachable DFA whose states carry outputs.

    Returns (delta, outputs) of the quotient, with the initial state 0."""
    n = len(delta)
    names: dict = {}
    block = [names.setdefault(outputs[q], len(names)) for q in range(n)]
    count = len(names)
    while True:
        names = {}
        refined = [
            names.setdefault((block[q], tuple(block[r] for r in delta[q])), len(names))
            for q in range(n)
        ]
        if len(names) == count:
            break
        block, count = refined, len(names)
    # renumber so the initial state's block is 0
    order = {block[0]: 0}
    for q in range(n):
        order.setdefault(block[q], len(order))
    new_delta = [None] * count
    new_out = [None] * count
    for q in range(n):
        b = order[block[q]]
        if new_delta[b] is None:
            new_delta[b] = [order[block[r]] for r in delta[q]]
            new_out[b] = outputs[q]
    return new_delta, new_out


def min_states(text: str, alphabet: str, cap: int = 50_000) -> int:
    """State count of the complete minimal DFA."""
    delta, finals = dfa_of(text, alphabet, cap)
    return len(minimize(delta, finals)[0])


# ---------------------------------------------------------------------------
# the syntactic monoid and the piece sizes


def syntactic_monoid(texts, alphabet: str, cap: int = 4096):
    """Minimal automaton of the tuple of languages, and its transition monoid.

    Returns (delta, outputs, elements): elements are maps on states, as
    tuples, with the identity first."""
    machines = [minimize(*dfa_of(t, alphabet)) for t in texts]
    start = tuple(0 for _ in machines)
    index = {start: 0}
    order = [start]
    delta = []
    for state in order:
        row = []
        for ai in range(len(alphabet)):
            nxt = tuple(m[0][q][ai] for m, q in zip(machines, state))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        delta.append(row)
    outputs = [tuple(m[1][q] for m, q in zip(machines, state)) for state in order]
    delta, outputs = minimize(delta, outputs)
    n = len(delta)
    identity = tuple(range(n))
    elements = [identity]
    seen = {identity}
    for f in elements:
        for ai in range(len(alphabet)):
            g = tuple(delta[f[q]][ai] for q in range(n))
            if g not in seen:
                if len(elements) >= cap:
                    raise TooLarge(f"syntactic monoid passed {cap} elements")
                seen.add(g)
                elements.append(g)
    return delta, outputs, elements


def residual_masks(texts, alphabet: str, cap: int = 4096) -> tuple[int, list[int]]:
    """|M| and the two-sided residuals u^-1 L v^-1 of every generator L, each
    as the set of syntactic classes it contains."""
    delta, outputs, elements = syntactic_monoid(texts, alphabet, cap)
    n = len(delta)
    finals_after = {
        tuple(q for q in range(n) if outputs[v[q]][k])
        for v in elements
        for k in range(len(texts))
    }
    masks = set()
    for finals in finals_after:
        accepting = set(finals)
        for s in range(n):
            mask = 0
            for i, m in enumerate(elements):
                if m[s] in accepting:
                    mask |= 1 << i
            masks.add(mask)
    return len(elements), sorted(masks)


def _close(seeds, ops, cap: int) -> int:
    family = set(seeds)
    frontier = list(family)
    while frontier:
        x = frontier.pop()
        for y in list(family):
            for op in ops:
                z = op(x, y)
                if z not in family:
                    if len(family) >= cap:
                        raise TooLarge(f"family passed {cap} members")
                    family.add(z)
                    frontier.append(z)
    return len(family)


def piece_and_monoid_size(variety: str, texts, alphabet: str, cap: int = 4096) -> tuple[int, int]:
    """Size of the derivative-closed family generated by texts in the given
    variety ('BA', 'DL', 'JSL', 'Z2'), and the size of its dual monoid.

    Raises TooLarge when the family would pass cap."""
    size_m, masks = residual_masks(texts, alphabet, cap)
    full = (1 << size_m) - 1
    if variety == "BA":
        atoms = len({tuple(mask >> i & 1 for mask in masks) for i in range(size_m)})
        if atoms != size_m:
            raise AssertionError("syntactic classes are not separated by residuals")
        if size_m > cap.bit_length() - 1:
            raise TooLarge(f"boolean family 2^{size_m} passes {cap}")
        return 1 << size_m, size_m
    if variety == "Z2":
        basis: list[int] = []
        for v in masks:
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
        if len(basis) > cap.bit_length() - 1:
            raise TooLarge(f"Z2 family 2^{len(basis)} passes {cap}")
        return 1 << len(basis), 1 << len(basis)
    if variety == "JSL":
        size = _close([0, *masks], [lambda x, y: x | y], cap)
        return size, size
    if variety == "DL":
        return _close([0, full, *masks], [lambda x, y: x | y, lambda x, y: x & y], cap), size_m
    raise ValueError(variety)


# ---------------------------------------------------------------------------
# membership


def words_up_to(alphabet: str, max_len: int):
    layer = [""]
    for _ in range(max_len + 1):
        yield from layer
        layer = [w + a for w in layer for a in alphabet]


def membership(text: str, alphabet: str, words) -> list[bool]:
    """Whether each word is in the language, by the subset-construction DFA.

    Python's re would do, but it backtracks exponentially on nested stars
    such as (((@*|aa|c|a)*)*)*, which the random corpus produces."""
    delta, finals = dfa_of(text, alphabet)
    index = {a: i for i, a in enumerate(alphabet)}
    out = []
    for word in words:
        q = 0
        for a in word:
            q = delta[q][index[a]]
        out.append(finals[q])
    return out
