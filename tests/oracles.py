"""Independent brute-force oracles used to pin expected values.

The language oracles work from word membership and plain enumeration, never
through the minimization/duality code paths they are used to check.  The
monoid, join-semilattice, closure, class automaton, residual closure, DFA
equivalence, minimization, left derivative, residual, labelling, DL01,
join-semilattice table, morphism check, dual map, labelled round-trip,
checked piece-to-monoid, state-matching, bit-by-bit union, map-by-map
preimage, per-element piece, label join, label inclusion and join-closed
DL01 family (join_closed_lattice, presented by the verifying
mask_lattice_presentation) oracles are the exhaustive algorithms that the
library's faster or shorter ones replaced, and close is orbit's reference,
the closure loop that kept no edge table or tree;
they share only carrier primitives such as validate_morphism, orbit,
jsl_from_masks, gaussian_basis and the breadth-first renumbering of a DFA
with the code they check (the per-element piece also shares the class
automaton and generate_family, as it pins only the letter actions; the
labelled round trip also shares monoid_to_piece, the dualization it
labels, the checked piece-to-monoid shares the dualization, reachable part
and transition monoid, as it pins only where the closure verdict comes
from, the left derivative and residuals share canonical_language,
language_quotient and block_language, as they pin only that a minimal DFA
needs no second minimization, and the state matching shares
joint_quotient, the refinement that the round trip's signature pairing
replaced; the label join shares rqc_closure, as it pins only that the join
closes the same labels without computing them; the bytes signature pairing,
in which every state reads every word, is the one that the pairing through
the carrier's generators replaced, and its round trip keeps the refusal
classification of its time and shares the structure check and
joint_quotient, through least_odd_language; the tabled piece and tabled
dual morphism are the eager builders that made every letter action,
output and dual map a full table, before maps were built from their
images of the generators, and share the class automaton and
generate_family with the piece they check).  The presentations of
subalgebras are scanned from their element lists here
(scanned_present_subset), as before the library's closures handed back the
atoms, basis or join-irreducibles they found.  The regex oracles are the
recursive dataclass trees and walks that the library's pre-keyed, iterative
trees replaced; they share nothing with them.  The tree derivative closure is
the one that the library's closure over interned numbers replaced, with the
normalizing tree constructors and tree_normalize that the library's
numbered normal form replaced; it shares the trees, their sort key and
orbit with the library, as it pins only that numbering the trees changes no
state and no row.  The boolean combinations of languages (product
automata), and the product algebras with image factorization (the textbook
subdirect product), serve the tests only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import and_, or_

from langdual.automata import (
    CCoalgebra,
    ClassAutomaton,
    DAlgebra,
    class_automaton,
    coalgebra_to_dalgebra,
    is_rqc_closed,
    joint_quotient,
    label_set,
    reachable_part,
    rqc_closure,
)
from langdual.config import DEFAULT_LIMITS
from langdual.correspondence import _structure_iso, monoid_to_piece
from langdual.duality import DualityTag, IsoWitness, c_tag, dual_morphism, dual_object
from langdual.errors import (
    CorrespondenceError,
    NonFunctionalError,
    NotRqcClosedError,
    NotReachableError,
    RegexSyntaxError,
    ResourceExceededError,
    TagMismatchError,
    UnknownSymbolError,
)
from langdual.languages import (
    _EMPTY,
    _EPSILON,
    _TAG_CONCAT,
    _TAG_EMPTY,
    _TAG_EPSILON,
    _TAG_LITERAL,
    _TAG_STAR,
    _TAG_UNION,
    Concat,
    Dfa,
    LanguageId,
    Regex,
    Star,
    Union,
    _chain,
    _compare,
    _restrict_reachable,
    _sort_key,
    _spine,
    block_language,
    canonical_language,
    check_alphabet,
    language_quotient,
    language_to_regex,
    left_derivative,
    right_derivative,
)
from langdual.monoids import LINEARISH, SigmaMonoid, carrier_add, transition_monoid
from langdual.varieties import (
    BoolAlg,
    DistLat,
    FinMorphism,
    FinPoset,
    FinSet,
    JoinSemilattice,
    VarietyTag,
    VectZ2,
    _downsets,
    constants,
    fibres,
    gaussian_basis,
    generate_family,
    generator_sums,
    generators,
    identity,
    is_order_reflecting,
    jsl_from_masks,
    orbit,
    present_subset,
    two_element_algebra,
    unions,
    validate_morphism,
)


def op_table(elements, op):
    """The table of a family closed under op: entry [x][y] is the index of
    op(elements[x], elements[y]), as the library built its join, meet and
    product tables."""
    index = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(index[op(x, y)] for y in elements) for x in elements)


def words_up_to(alphabet, max_len):
    for n in range(max_len + 1):
        for tup in product(alphabet, repeat=n):
            yield "".join(tup)


def nerode_class_count(d: Dfa, depth: int) -> int:
    """Number of distinct word-quotient classes, by bounded acceptance profiles.

    Profiles over words of length <= depth separate every pair of states of a
    minimal DFA with at most depth states, so for such languages the count is
    exactly the number of residuals.
    """
    profiles: list[set[str]] = [set() for _ in range(d.n_states)]
    for q in range(d.n_states):
        acc = profiles[q]
        stack = [(q, "", 0)]
        while stack:
            state, word, length = stack.pop()
            if state in d.finals:
                acc.add(word)
            if length < depth:
                for ai, a in enumerate(d.alphabet):
                    stack.append((d.delta[state][ai], word + a, length + 1))

    reachable = {d.initial}
    frontier = [d.initial]
    for _ in range(depth):
        nxt = []
        for q in frontier:
            for t in d.delta[q]:
                if t not in reachable:
                    reachable.add(t)
                    nxt.append(t)
        frontier = nxt
    return len({frozenset(profiles[q]) for q in reachable})


def member_agree(lang_a: LanguageId, lang_b: LanguageId, max_len: int) -> bool:
    return all(
        lang_a.dfa.accepts_word(w) == lang_b.dfa.accepts_word(w)
        for w in words_up_to(lang_a.alphabet, max_len)
    )


def derivative_oracle(lang: LanguageId, word: str, side: str, candidate: LanguageId, max_len: int) -> bool:
    """Check candidate = word^-1 L (left) or L word^-1 (right) by membership."""
    for u in words_up_to(lang.alphabet, max_len):
        expected = (
            lang.dfa.accepts_word(word + u) if side == "left" else lang.dfa.accepts_word(u + word)
        )
        if candidate.dfa.accepts_word(u) != expected:
            return False
    return True


def odd_factorization_product(x: frozenset[str], y: frozenset[str]) -> frozenset[str]:
    """Words with an odd number of factorizations w = uv, u in x, v in y."""
    candidates = {u + v for u in x for v in y}
    return frozenset(
        w
        for w in candidates
        if sum(1 for i in range(len(w) + 1) if w[:i] in x and w[i:] in y) % 2 == 1
    )


def brute_syntactic_monoid(lang: LanguageId):
    """Syntactic monoid by two-sided context signatures.

    Contexts (x, y) range over words of length < n on each side, where n is
    the state count of the canonical DFA; that bound is past stabilization
    because such contexts reach every state and separate every inequivalent
    pair.  Returns (size, mult, unit, gens, reps).
    """
    d = lang.dfa
    n = max(d.n_states, 1)
    context_words = list(words_up_to(d.alphabet, n - 1))

    def profile(state: int) -> tuple[bool, ...]:
        return tuple(d.run(y, start=state) in d.finals for y in context_words)

    left_states = []
    seen_states = set()
    for x in context_words:
        q = d.run(x)
        if q not in seen_states:
            seen_states.add(q)
            left_states.append(q)

    def signature(u: str):
        return tuple(profile(d.run(u, start=q)) for q in left_states)

    sig_index: dict[tuple, int] = {}
    reps: list[str] = []

    def intern(u: str) -> int:
        s = signature(u)
        if s not in sig_index:
            sig_index[s] = len(reps)
            reps.append(u)
        return sig_index[s]

    unit = intern("")
    queue = [""]
    while queue:
        u = queue.pop()
        for a in d.alphabet:
            before = len(reps)
            idx = intern(u + a)
            if len(reps) > before:
                queue.append(reps[idx])
    size = len(reps)
    mult = tuple(tuple(intern(reps[i] + reps[j]) for j in range(size)) for i in range(size))
    gens = {a: intern(a) for a in d.alphabet}
    return size, mult, unit, gens, tuple(reps)


# ---------------------------------------------------------------------------
# exhaustive monoid construction and validation
#
# The pairwise closure and the triple associativity scan that the quadratic
# transition_monoid and validate_monoid replaced; differential tests compare
# the two.  The enumeration (sorted graphs, or coordinates over the Gaussian
# basis for Z2VECT) is part of what they pin.


def _encode_linear(graph, dim):
    return sum(graph[1 << i] << (i * dim) for i in range(dim))


def _decode_linear(code, dim):
    images = [(code >> (i * dim)) & ((1 << dim) - 1) for i in range(dim)]
    out = []
    for x in range(1 << dim):
        v = 0
        for i in range(dim):
            if x >> i & 1:
                v ^= images[i]
        out.append(v)
    return tuple(out)


def _map_pointwise(carrier, f, g):
    return tuple(carrier_add(carrier, f[q], g[q]) for q in range(len(f)))


def _present_map_family(carrier, maps):
    if isinstance(carrier, VectZ2):
        d = carrier.dim
        basis = gaussian_basis(_encode_linear(m, d) for m in maps)
        funcs = []
        for idx in range(1 << len(basis)):
            code = 0
            for i, b in enumerate(basis):
                if idx >> i & 1:
                    code ^= b
            funcs.append(_decode_linear(code, d))
        if len(funcs) != len(maps):
            raise ValueError("map family is not closed under pointwise sums")
        return funcs, {f: i for i, f in enumerate(funcs)}
    funcs = sorted(maps)
    return funcs, {f: i for i, f in enumerate(funcs)}


def _map_carrier(carrier, funcs):
    match carrier:
        case FinSet():
            return FinSet(len(funcs))
        case FinPoset():
            return FinPoset(
                tuple(
                    tuple(all(carrier.leq[f[q]][g[q]] for q in range(len(f))) for g in funcs)
                    for f in funcs
                )
            )
        case JoinSemilattice():
            index = {f: i for i, f in enumerate(funcs)}
            join = tuple(
                tuple(index[_map_pointwise(carrier, f, g)] for g in funcs) for f in funcs
            )
            zero = index[tuple(carrier.zero for _ in range(carrier.size))]
            return JoinSemilattice(join, zero)
        case VectZ2():
            r = (len(funcs) - 1).bit_length() if len(funcs) > 1 else 0
            return VectZ2(r)
    raise TypeError(f"not an algebra-side carrier: {carrier!r}")


def cubic_transition_monoid(a, reverse_composition=False, limits=DEFAULT_LIMITS):
    """Closure of the letter actions under composition both ways and pointwise
    sums against every known map, then every table built from graphs."""
    if reachable_part(a, limits).size != a.size:
        raise NotReachableError("algebra is not generated by its initial state")
    carrier = a.carrier
    n = carrier.size
    ident = tuple(range(n))
    seeds = [ident] + [m.graph for m in a.alpha]
    if carrier.tag in LINEARISH:
        seeds.append(tuple(constants(carrier)[0] for _ in range(n)))
    closed = {}
    order = []
    queue = deque()
    for s in seeds:
        if s not in closed:
            closed[s] = len(order)
            order.append(s)
            queue.append(s)
    if len(order) > limits.max_carrier:
        raise ResourceExceededError("transition monoid exceeded the carrier cap")
    while queue:
        f = queue.popleft()
        new = []
        for g in list(order):
            new.append(tuple(g[f[q]] for q in range(n)))
            new.append(tuple(f[g[q]] for q in range(n)))
            if carrier.tag in LINEARISH:
                new.append(_map_pointwise(carrier, f, g))
        for h in new:
            if h not in closed:
                if len(order) >= limits.max_carrier:
                    raise ResourceExceededError("transition monoid exceeded the carrier cap")
                closed[h] = len(order)
                order.append(h)
                queue.append(h)
    funcs, index = _present_map_family(carrier, order)

    def compose(i, j):
        f, g = funcs[i], funcs[j]
        if reverse_composition:
            return index[tuple(f[g[q]] for q in range(n))]
        return index[tuple(g[f[q]] for q in range(n))]

    size = len(funcs)
    mult = tuple(tuple(compose(i, j) for j in range(size)) for i in range(size))
    gens = tuple(index[m.graph] for m in a.alpha)
    return SigmaMonoid(_map_carrier(carrier, funcs), a.alphabet, index[ident], mult, gens)


def cubic_generated_closure(m, limits=DEFAULT_LIMITS):
    """Closure of the unit, the letters and the constants under products on
    both sides and every carrier operation, against every known element."""
    closed = {m.unit} | set(m.gen) | set(constants(m.carrier))
    unary = unary_ops(m.carrier)
    binary = binary_ops(m.carrier)
    queue = deque(sorted(closed))
    while queue:
        x = queue.popleft()
        new = [op(x) for op in unary]
        for y in sorted(closed):
            new.append(m.mult[x][y])
            new.append(m.mult[y][x])
            for op in binary:
                new.append(op(x, y))
        for v in new:
            if v not in closed:
                if len(closed) >= limits.max_carrier:
                    raise ResourceExceededError("generation closure exceeded the carrier cap")
                closed.add(v)
                queue.append(v)
    return closed


def cubic_validate_monoid(m, limits=DEFAULT_LIMITS):
    """Triple associativity scan, every translation through
    pairwise_validate_morphism, and generation by the pairwise closure.
    Tables must be in range."""
    n = m.size
    if len(m.mult) != n or any(len(row) != n for row in m.mult):
        return False
    if any(m.mult[m.unit][x] != x or m.mult[x][m.unit] != x for x in range(n)):
        return False
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if m.mult[m.mult[x][y]][z] != m.mult[x][m.mult[y][z]]:
                    return False
    for x in range(n):
        left = FinMorphism(m.carrier, m.carrier, tuple(m.mult[x][y] for y in range(n)))
        right = FinMorphism(m.carrier, m.carrier, tuple(m.mult[y][x] for y in range(n)))
        if not (pairwise_validate_morphism(left) and pairwise_validate_morphism(right)):
            return False
    return cubic_generated_closure(m, limits) == set(range(n))


def translation_validate_monoid(m, limits=DEFAULT_LIMITS):
    """validate_monoid before it checked through the generators: every one
    of the 2n left and right translations is a carrier morphism, generation
    by closing the unit under right letter actions and then under sums with
    word images, and Light's test on the letters.  Tables must be in
    range."""
    n = m.size
    mult = m.mult
    if len(mult) != n or any(len(row) != n for row in mult):
        return False
    if not 0 <= m.unit < n or len(m.gen) != len(m.alphabet):
        return False
    if any(not 0 <= g < n for g in m.gen) or any(min(row) < 0 or max(row) >= n for row in mult):
        return False
    if any(mult[m.unit][x] != x or mult[x][m.unit] != x for x in range(n)):
        return False
    carrier = m.carrier
    translations = [tuple(row) for row in mult] + list(zip(*mult))
    if isinstance(carrier, JoinSemilattice):
        try:
            irreducibles = table_jsl_irreducibles(carrier.join, carrier.zero)
        except ValueError:
            return False
        join, zero = carrier.join, carrier.zero
        for f in translations:
            if f[zero] != zero:
                return False
            for j in irreducibles:
                if list(map(f.__getitem__, join[j])) != list(map(join[f[j]].__getitem__, f)):
                    return False
    elif not all(validate_morphism(FinMorphism(carrier, carrier, f)) for f in translations):
        return False
    cap = limits.max_carrier
    steps = [lambda x, g=g: mult[x][g] for g in m.gen]
    words = close([m.unit, *m.gen, *constants(carrier)], steps, cap, "generation closure")
    if carrier.tag in LINEARISH:
        sums = [lambda x, w=w: carrier_add(carrier, w, x) for w in words]
        words = close(words, sums, cap, "generation closure")
    if len(words) != n:
        return False
    for g in set(m.gen):
        after_g = mult[g]
        for x in range(n):
            if list(map(mult[x].__getitem__, after_g)) != list(mult[mult[x][g]]):
                return False
    return True


def cubic_jsl_laws(join, zero):
    """The semilattice laws by a triple scan: idempotent, zero as unit,
    commutative and associative."""
    n = len(join)
    for x in range(n):
        if join[x][x] != x or join[x][zero] != x or join[zero][x] != x:
            return False
        for y in range(n):
            if join[x][y] != join[y][x]:
                return False
            for z in range(n):
                if join[join[x][y]][z] != join[x][join[y][z]]:
                    return False
    return True


def cubic_meet_table(join, zero):
    """Meets as the join of all common lower bounds, x <= y meaning x + y = y."""
    n = len(join)
    table = []
    for x in range(n):
        row = []
        for y in range(n):
            m = zero
            for z in range(n):
                if join[z][x] == x and join[z][y] == y:
                    m = join[m][z]
            row.append(m)
        table.append(tuple(row))
    return tuple(table)


def pairwise_subdirect_size(m1, m2):
    """Size of the subdirect product: word pairs, then closed under sums of
    every two pairs, as the subdirect closure did before it closed against
    word pairs only."""
    pairs = {(m1.unit, m2.unit)}
    frontier = list(pairs)
    while frontier:
        x1, x2 = frontier.pop()
        for g1, g2 in zip(m1.gen, m2.gen):
            p = (m1.mult[x1][g1], m2.mult[x2][g2])
            if p not in pairs:
                pairs.add(p)
                frontier.append(p)
    if m1.carrier.tag in LINEARISH:
        pairs.add((constants(m1.carrier)[0], constants(m2.carrier)[0]))
        changed = True
        while changed:
            changed = False
            for p in list(pairs):
                for q in list(pairs):
                    s = (carrier_add(m1.carrier, p[0], q[0]), carrier_add(m2.carrier, p[1], q[1]))
                    if s not in pairs:
                        pairs.add(s)
                        changed = True
    return len(pairs)


# ---------------------------------------------------------------------------
# hand-written orbits
#
# The breadth-first worklists that orbit() replaced in the class automaton:
# the whole reachable product of the generators' DFAs, then the maps with a
# hashed tuple per map and letter for the left letter table.  The library
# now acts on the generators' DFAs side by side and builds no product.
# The deque closure of two_sided_residuals, with its own refusal message,
# and the union-find bisimulation that equality of canonical forms replaced.


def queue_joint_dfa(gens):
    """Reachable product of the generators' DFAs; finals kept per generator,
    and the product's state tuples in the order of their indices."""
    alphabet = gens[0].alphabet
    if any(g.alphabet != alphabet for g in gens):
        raise ValueError("generators must share one alphabet")
    k = len(alphabet)
    start = tuple(g.dfa.initial for g in gens)
    index = {start: 0}
    order = [start]
    rows = []
    queue = deque([start])
    while queue:
        state = queue.popleft()
        row = []
        for ai in range(k):
            nxt = tuple(g.dfa.delta[s][ai] for g, s in zip(gens, state))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    finals = [
        frozenset(i for i, st in enumerate(order) if st[gi] in g.dfa.finals)
        for gi, g in enumerate(gens)
    ]
    return alphabet, tuple(rows), finals, order


def queue_class_automaton(gens, limits=DEFAULT_LIMITS):
    """Build the map automaton and the generator languages as masks."""
    alphabet, delta, finals, _ = queue_joint_dfa(gens)
    n = len(delta)
    k = len(alphabet)
    ident = tuple(range(n))
    index = {ident: 0}
    maps = [ident]
    post_rows = [[]]
    queue = deque([0])
    while queue:
        j = queue.popleft()
        m = maps[j]
        row = []
        for ai in range(k):
            nxt = tuple(delta[m[q]][ai] for q in range(n))
            if nxt not in index:
                if len(maps) >= limits.max_carrier:
                    raise ResourceExceededError("transition-map closure exceeded the carrier cap")
                index[nxt] = len(maps)
                maps.append(nxt)
                post_rows.append([])
                queue.append(len(maps) - 1)
            row.append(index[nxt])
        post_rows[j] = row
    pre = tuple(
        tuple(index[tuple(maps[j][delta[q][ai]] for q in range(n))] for j in range(len(maps)))
        for ai in range(k)
    )
    post = tuple(tuple(post_rows[j][ai] for j in range(len(maps))) for ai in range(k))
    caut = ClassAutomaton(alphabet, tuple(maps), post, pre)
    gen_masks = [
        sum(1 << j for j in range(len(maps)) if maps[j][0] in fin) for fin in finals
    ]
    return caut, gen_masks


def queue_two_sided_residuals(lang, limits=DEFAULT_LIMITS):
    """Closure of {L} under single-letter left and right derivatives."""
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


def bisimulation_equivalent(d1, d2):
    """Union-find bisimulation for not-necessarily-canonical DFAs."""
    if d1.alphabet != d2.alphabet:
        return False
    parent = {}

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
# worklist closure
#
# orbit's reference: the library's closure loop for the callers that read no
# edge table, until orbit became its only one.  It pins orbit's order and
# refusals with no index, edges or tree.


def close(seeds, steps, cap, what):
    """The closure of seeds under unary steps, in insertion order: the seeds
    without repeats, then each new element as a worklist finds it.

    Raises ResourceExceededError when the closure would hold more than cap
    elements, seeds included.  A binary operation closes as the steps "op
    with a generator" when it is associative, since every product of
    generators is then a shorter product op one generator.
    """
    closed = list(dict.fromkeys(seeds))
    if len(closed) > cap:
        raise ResourceExceededError(f"{what} exceeded the carrier cap")
    seen = set(closed)
    for x in closed:
        for step in steps:
            v = step(x)
            if v not in seen:
                if len(closed) >= cap:
                    raise ResourceExceededError(f"{what} exceeded the carrier cap")
                seen.add(v)
                closed.append(v)
    return closed


# ---------------------------------------------------------------------------
# pairwise closures
#
# The worklist fixpoints that close() replaced: each popped element is
# combined with every known one, both ways, re-sorting the closed set on every
# pop, and the atom and basis spans are expanded bit by bit.  The refusal
# messages and the points where the caps trip are part of what they pin.


def unary_ops(alg):
    match alg:
        case BoolAlg():
            return [lambda x: alg.top ^ x]
        case _:
            return []


def binary_ops(alg):
    match alg:
        case BoolAlg():
            return [lambda x, y: x | y, lambda x, y: x & y]
        case DistLat():
            return [
                lambda x, y: alg.downset_index[alg.downset_masks[x] | alg.downset_masks[y]],
                lambda x, y: alg.downset_index[alg.downset_masks[x] & alg.downset_masks[y]],
            ]
        case JoinSemilattice():
            return [lambda x, y: alg.join[x][y]]
        case VectZ2():
            return [lambda x, y: x ^ y]
        case _:
            return []


def _pairwise_fixpoint(seed, op, cap):
    closed = set(seed)
    if len(closed) > cap:
        raise ResourceExceededError("operation closure exceeded the carrier cap")
    queue = deque(sorted(closed))
    while queue:
        x = queue.popleft()
        for y in sorted(closed):
            v = op(x, y)
            if v not in closed:
                if len(closed) >= cap:
                    raise ResourceExceededError("operation closure exceeded the carrier cap")
                closed.add(v)
                queue.append(v)
    return closed


def _expand(gens, op):
    out = []
    for choice in range(1 << len(gens)):
        v = 0
        for i, g in enumerate(gens):
            if choice >> i & 1:
                v = op(v, g)
        out.append(v)
    return out


def scanned_left_preimage(caut, mask, ai):
    """The maps j whose word u_j has a·u_j in the mask, one map at a time."""
    return sum(1 << j for j in range(caut.n_maps) if mask >> caut.pre[ai][j] & 1)


def scanned_right_preimage(caut, mask, ai):
    """The maps j whose word u_j has u_j·a in the mask, one map at a time."""
    return sum(1 << j for j in range(caut.n_maps) if mask >> caut.post[ai][j] & 1)


def bitwise_union_of(masks, picked):
    """The union of the masks at the positions of the bits of picked."""
    union = 0
    for j, mask in enumerate(masks):
        if picked >> j & 1:
            union |= mask
    return union


def per_element_closed_piece(tag, gens, include_right, limits=DEFAULT_LIMITS):
    """The piece generated by gens, with every letter action read one
    element at a time: the index of the left preimage of each element's
    mask, and the output from each element's mask."""
    gens = sorted(set(gens), key=lambda g: g.sort_key())
    if not gens:
        raise ValueError("at least one generator language is required")
    caut, gen_masks = class_automaton(gens, limits)
    sides = (scanned_left_preimage, scanned_right_preimage) if include_right else (scanned_left_preimage,)
    steps = [lambda m, side=side, ai=ai: side(caut, m, ai) for ai in range(len(caut.alphabet)) for side in sides]
    seeds = close(gen_masks, steps, limits.max_carrier, "derivative closure")
    what = {VarietyTag.BA: "boolean closure", VarietyTag.Z2VECT: "linear closure"}.get(tag, "operation closure")
    carrier, element_masks = generate_family(tag, seeds, caut.full_mask, limits.max_carrier, what)
    mask_index = {m: i for i, m in enumerate(element_masks)}
    gamma = tuple(
        FinMorphism(carrier, carrier, tuple(mask_index[scanned_left_preimage(caut, m, ai)] for m in element_masks))
        for ai in range(len(caut.alphabet))
    )
    out_graph = tuple(m & 1 for m in element_masks)
    out = FinMorphism(carrier, two_element_algebra(tag), out_graph)
    return CCoalgebra(carrier, caut.alphabet, gamma, out)


def tabled_closed_piece(tag, gens, include_right, limits=DEFAULT_LIMITS):
    """The piece generated by gens with its letter actions and output built
    as full tables, as before they were built from their images of the
    generators: every element's mask, the generator sums of the preimages
    of the generators' masks, and an index of all masks."""
    caut, masks = class_automaton(sorted(set(gens), key=lambda g: g.sort_key()), limits)
    sides = (caut.left_preimage, caut.right_preimage) if include_right else (caut.left_preimage,)
    steps = [side[ai] for ai in range(len(caut.alphabet)) for side in sides]
    seeds = orbit(masks, steps, limits.max_carrier, "derivative closure")[0]
    what = {VarietyTag.BA: "boolean closure", VarietyTag.Z2VECT: "linear closure"}.get(tag, "operation closure")
    carrier, element_masks = generate_family(tag, seeds, caut.full_mask, limits.max_carrier, what)
    index = {m: i for i, m in enumerate(element_masks)}.__getitem__
    points = list(map(element_masks.__getitem__, generators(carrier)))
    if tag in (VarietyTag.DL01, VarietyTag.JSL0):
        act = lambda pre: tuple(map(index, generator_sums(carrier, list(map(pre, points)))))
    else:
        act = lambda pre: tuple(generator_sums(carrier, list(map(index, map(pre, points)))))
    gamma = tuple(FinMorphism(carrier, carrier, act(pre)) for pre in caut.left_preimage)
    out = FinMorphism(carrier, two_element_algebra(tag), tuple(m & 1 for m in element_masks))
    return CCoalgebra(carrier, caut.alphabet, gamma, out)


def summed_graph(dom, cod, images):
    """The graph of the map that sends the i-th generator of dom to
    images[i] and each element to the sum of the images of the generators
    under it, one element and one generator at a time."""
    gens = generators(dom)
    graph = []
    for x in range(dom.size):
        match dom:
            case BoolAlg() | VectZ2():
                picked = [i for i in range(len(gens)) if x >> i & 1]
            case DistLat():
                picked = [i for i in range(len(gens)) if dom.downset_masks[x] >> i & 1]
            case JoinSemilattice():
                picked = [i for i, g in enumerate(gens) if jsl_leq(dom, g, x)]
        y = constants(cod)[0]
        for i in picked:
            match cod:
                case BoolAlg():
                    y |= images[i]
                case VectZ2():
                    y ^= images[i]
                case DistLat():
                    y = cod.downset_index[cod.downset_masks[y] | cod.downset_masks[images[i]]]
                case JoinSemilattice():
                    y = cod.join[y][images[i]]
        graph.append(y)
    return tuple(graph)


def derivative_mask_closure(caut, seeds, include_right, limits=DEFAULT_LIMITS):
    closed = set(seeds)
    if len(closed) > limits.max_carrier:
        raise ResourceExceededError("derivative closure exceeded the carrier cap")
    queue = deque(sorted(closed))
    while queue:
        mask = queue.popleft()
        for ai in range(len(caut.alphabet)):
            new = [scanned_left_preimage(caut, mask, ai)]
            if include_right:
                new.append(scanned_right_preimage(caut, mask, ai))
            for nxt in new:
                if nxt not in closed:
                    if len(closed) >= limits.max_carrier:
                        raise ResourceExceededError("derivative closure exceeded the carrier cap")
                    closed.add(nxt)
                    queue.append(nxt)
    return closed


def pairwise_family(tag, seeds, full, cap):
    """Masks closed under the variety's language operations and constants."""
    match tag:
        case VarietyTag.BA:
            ordered = sorted(seeds)
            groups = {}
            for j in range(full.bit_length()):
                sig = tuple(bool(s >> j & 1) for s in ordered)
                groups[sig] = groups.get(sig, 0) | (1 << j)
            atoms = sorted(groups.values())
            if 1 << len(atoms) > cap:
                raise ResourceExceededError("boolean closure exceeded the carrier cap")
            return tuple(sorted(_expand(atoms, int.__or__)))
        case VarietyTag.DL01:
            meets = _pairwise_fixpoint(set(seeds) | {0, full}, lambda x, y: x & y, cap)
            return tuple(sorted(_pairwise_fixpoint(meets, lambda x, y: x | y, cap)))
        case VarietyTag.JSL0:
            return tuple(sorted(_pairwise_fixpoint(set(seeds) | {0}, lambda x, y: x | y, cap)))
        case VarietyTag.Z2VECT:
            basis = gaussian_basis(seeds)
            if 1 << len(basis) > cap:
                raise ResourceExceededError("linear closure exceeded the carrier cap")
            return tuple(sorted(_expand(basis, int.__xor__)))
    raise TagMismatchError(f"{tag} is not an output-side variety")


def pairwise_reachable_part(a, limits=DEFAULT_LIMITS):
    closed = {a.init} | set(constants(a.carrier))
    if len(closed) > limits.max_carrier:
        raise ResourceExceededError("reachable closure exceeded the carrier cap")
    unary = unary_ops(a.carrier)
    binary = binary_ops(a.carrier)
    queue = deque(sorted(closed))
    while queue:
        x = queue.popleft()
        new = [m.graph[x] for m in a.alpha]
        new.extend(op(x) for op in unary)
        for y in sorted(closed):
            for op in binary:
                new.append(op(x, y))
        for v in new:
            if v not in closed:
                if len(closed) >= limits.max_carrier:
                    raise ResourceExceededError("reachable closure exceeded the carrier cap")
                closed.add(v)
                queue.append(v)
    if len(closed) == a.size:
        return a
    sub, incl, to_sub = scanned_present_subset(a.carrier, sorted(closed))
    alpha = tuple(
        FinMorphism(sub, sub, tuple(to_sub[m.graph[incl.graph[i]]] for i in range(sub.size)))
        for m in a.alpha
    )
    return DAlgebra(sub, a.alphabet, alpha, to_sub[a.init])


def pairwise_generate_subalgebra(amb, gens, limits=DEFAULT_LIMITS):
    closed = set(gens) | set(constants(amb))
    if len(closed) > limits.max_carrier:
        raise ResourceExceededError("subalgebra closure exceeded the carrier cap")
    unary = unary_ops(amb)
    binary = binary_ops(amb)
    queue = deque(sorted(closed))
    while queue:
        x = queue.popleft()
        new = [op(x) for op in unary]
        for y in sorted(closed):
            for op in binary:
                new.append(op(x, y))
                new.append(op(y, x))
        for v in new:
            if v not in closed:
                if len(closed) >= limits.max_carrier:
                    raise ResourceExceededError("subalgebra closure exceeded the carrier cap")
                closed.add(v)
                queue.append(v)
    sub, incl, _ = scanned_present_subset(amb, sorted(closed))
    return sub, incl


def propagated_sigma_monoid_iso(m1, m2):
    """The candidate map propagated from the unit (and zero) through letters,
    products and sums until nothing changes; then it must be a bijection
    that preserves the carrier and the multiplication."""
    if m1.carrier.tag != m2.carrier.tag or m1.alphabet != m2.alphabet or m1.size != m2.size:
        return None
    linear = m1.carrier.tag in LINEARISH
    mapping = {m1.unit: m2.unit}
    if linear:
        mapping[constants(m1.carrier)[0]] = constants(m2.carrier)[0]
    changed = True
    while changed:
        changed = False
        for x in list(mapping):
            fx = mapping[x]
            images = [(m1.mult[x][g1], m2.mult[fx][g2]) for g1, g2 in zip(m1.gen, m2.gen)]
            for y in list(mapping):
                fy = mapping[y]
                images.append((m1.mult[x][y], m2.mult[fx][fy]))
                if linear:
                    images.append((carrier_add(m1.carrier, x, y), carrier_add(m2.carrier, fx, fy)))
            for src, dst in images:
                if mapping.get(src, dst) != dst:
                    return None
                if src not in mapping:
                    mapping[src] = dst
                    changed = True
    if len(mapping) != m1.size or len(set(mapping.values())) != m2.size:
        return None
    morphism = FinMorphism(m1.carrier, m2.carrier, tuple(mapping[x] for x in range(m1.size)))
    if not validate_morphism(morphism):
        return None
    if m1.carrier.tag is VarietyTag.POS and not is_order_reflecting(morphism):
        return None
    for x in range(m1.size):
        for y in range(m1.size):
            if morphism.graph[m1.mult[x][y]] != m2.mult[morphism.graph[x]][morphism.graph[y]]:
                return None
    return morphism


def carrier_map_monoid(q, limits=DEFAULT_LIMITS):
    """Representative words for the distinct composites gamma_w."""
    seen = {identity(q.carrier).graph: ""}
    order = [("", identity(q.carrier))]
    queue = deque(order)
    while queue:
        word, m = queue.popleft()
        for ai, a in enumerate(q.alphabet):
            nxt = m.then(q.gamma[ai])
            if nxt.graph not in seen:
                if len(seen) >= limits.max_carrier:
                    raise ResourceExceededError("carrier map monoid exceeded the carrier cap")
                seen[nxt.graph] = word + a
                order.append((word + a, nxt))
                queue.append((word + a, nxt))
    return order


def word_rqc_closed(q, limits=DEFAULT_LIMITS):
    """Right derivatives by one word per distinct composite map gamma_w, which
    is exhaustive because a right derivative depends only on that map."""
    labels = label_set(q)
    for word, _ in carrier_map_monoid(q, limits):
        for lang in labels:
            if right_derivative(lang, word) not in labels:
                return False
    return True



def checked_piece_to_monoid(d, piece, limits=DEFAULT_LIMITS):
    """piece_to_monoid with closure checked first, by refining the piece
    beside its shifts, and the monoid closed at the caller's cap."""
    if not is_rqc_closed(piece):
        raise NotRqcClosedError("piece is not closed under right derivatives")
    algebra = reachable_part(coalgebra_to_dalgebra(d, piece), limits)
    return transition_monoid(algebra, reverse_composition=True, limits=limits)


def match_states(p, q):
    """Each state of p to the state of q with its language, by one refinement
    of the two side by side; None unless each class holds one state of each."""
    n = p.size
    if p.alphabet != q.alphabet or q.size != n:
        return None
    _, (mine, theirs) = joint_quotient(p, q)
    mate = {b: t for t, b in enumerate(theirs)}
    if len(mate) != n or mate.keys() != set(mine):
        return None
    return tuple(map(mate.__getitem__, mine))


def table_pair(p1, p2, forward):
    """The bijection forward from p1's carrier to p2's, and its inverse, as
    tables."""
    backward = tuple(sorted(range(len(forward)), key=forward.__getitem__))
    return FinMorphism(p1.carrier, p2.carrier, tuple(forward)), FinMorphism(p2.carrier, p1.carrier, backward)


def bytes_signature_pairing(piece, back, monoid):
    """Each state of piece to the state of back that accepts the same
    representative words, one per word image of the monoid (a letter
    followed by its tree parent's word, monoid.word_images), and back, as
    tables (table_pair); None unless that is a bijection.  Every state
    reads every word: a column holds the state each state reaches by one
    word, the word a.u's being u's column read through gamma_a, and a
    state's signature is its slice of one bytes buffer of their outputs."""
    n = back.size
    if piece.alphabet != back.alphabet or piece.size != n or not {*piece.out.graph} <= {0, 1}:
        return None
    _, tree = monoid.word_images

    def signatures(q):
        cols = [range(n)]
        for parent, ai in tree:
            cols.append(list(map(cols[parent].__getitem__, q.gamma[ai].graph)))
        outs = b"".join(bytes(map(q.out.graph.__getitem__, col)) for col in cols)
        return [outs[s::n] for s in range(n)]

    mate = dict(zip(signatures(back), range(n)))
    forward = tuple(map(mate.get, signatures(piece)))
    if len(mate) != n or None in forward or len(set(forward)) != n:
        return None
    return table_pair(piece, back, forward)


def least_odd_language(p, q):
    """The least language by sort_key that states of one of p and q accept
    and no state of the other does, or None, from one refinement of the two."""
    quotient, (mine, theirs) = joint_quotient(p, q)
    odd = set(mine).symmetric_difference(theirs)
    return min((block_language(quotient, b) for b in odd), key=LanguageId.sort_key, default=None)


def bytes_roundtrip_witness(d, piece, monoid, limits=DEFAULT_LIMITS):
    """The round trip paired by bytes_signature_pairing, with the refusal
    classified as before the pairing read the generators only: a failed
    pairing's structure error stands when the label sets agree, and no
    pairing with equal label sets means a repeated language."""
    back = monoid_to_piece(d, monoid, limits)
    if (paired := bytes_signature_pairing(piece, back, monoid)) is not None:
        try:
            return _structure_iso(piece, back, *paired)
        except CorrespondenceError:
            if (extra := least_odd_language(piece, back)) is None:
                raise
    else:
        extra = least_odd_language(piece, back)
    if extra is not None:
        raise CorrespondenceError("round trip changed the language set", counterexample=language_to_regex(extra))
    raise CorrespondenceError("round trip merged two states of one language")

# ---------------------------------------------------------------------------
# products and images
#
# The textbook subdirect product: the product algebra with its projections,
# then the image of a map into it, presented in its own right.
# subdirect_product builds the generated pairs directly instead.


def product_algebra(a, b):
    """(a x b, first projection, second projection)."""
    if a.tag != b.tag:
        raise TagMismatchError(f"product of {a.tag} and {b.tag}")
    match (a, b):
        case (BoolAlg(), BoolAlg()):
            prod = BoolAlg(a.atoms + b.atoms)
            low = (1 << a.atoms) - 1
            p1 = tuple(x & low for x in range(prod.size))
            p2 = tuple(x >> a.atoms for x in range(prod.size))
        case (DistLat(), DistLat()):
            ka, kb = a.n_ji, b.n_ji

            def block(i, j):
                if i < ka and j < ka:
                    return a.ji_leq[i][j]
                if i >= ka and j >= ka:
                    return b.ji_leq[i - ka][j - ka]
                return False

            prod = DistLat(tuple(tuple(block(i, j) for j in range(ka + kb)) for i in range(ka + kb)))
            low = (1 << ka) - 1
            p1 = tuple(a.downset_index[x & low] for x in prod.downset_masks)
            p2 = tuple(b.downset_index[x >> ka] for x in prod.downset_masks)
        case (VectZ2(), VectZ2()):
            prod = VectZ2(a.dim + b.dim)
            low = (1 << a.dim) - 1
            p1 = tuple(x & low for x in range(prod.size))
            p2 = tuple(x >> a.dim for x in range(prod.size))
        case (JoinSemilattice() | FinSet() | FinPoset(), _):
            pairs = [(x, y) for x in range(a.size) for y in range(b.size)]
            if isinstance(a, JoinSemilattice):
                join = op_table(pairs, lambda p, q: (a.join[p[0]][q[0]], b.join[p[1]][q[1]]))
                prod = JoinSemilattice(join, a.zero * b.size + b.zero)
            elif isinstance(a, FinSet):
                prod = FinSet(len(pairs))
            else:
                prod = FinPoset(tuple(tuple(a.leq[x1][x2] and b.leq[y1][y2] for x2, y2 in pairs) for x1, y1 in pairs))
            p1 = tuple(x for x, _ in pairs)
            p2 = tuple(y for _, y in pairs)
        case _:
            raise TagMismatchError(f"product of {a.tag} and {b.tag}")
    return prod, FinMorphism(prod, a, p1), FinMorphism(prod, b, p2)


def image_factorize(m):
    """Factor m as a surjection onto its image followed by an inclusion."""
    if m.dom.tag != m.cod.tag:
        raise TagMismatchError("cannot factorize a cross-variety map")
    mid, incl, to_sub = present_subset(m.cod, m.graph)
    return FinMorphism(m.dom, mid, tuple(to_sub[v] for v in m.graph)), incl


# ---------------------------------------------------------------------------
# generation, then a presentation scanned from the elements
#
# The path that generate_family and present_closure replaced: a closure was
# generated as an ascending element list, and present_subset then found its
# atoms, a basis or its join-irreducibles again by scanning those elements.
# The basis is found in sorted order without back-reduction, so it is the
# reduced echelon basis only when the vectors are a whole span.


def sorted_order_basis(vectors):
    """An echelon basis, reducing each vector in sorted order against the
    basis so far."""
    basis = []
    for v in sorted(set(vectors)):
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    basis.sort()
    return basis


def mask_lattice_presentation(masks):
    """Present a 01-sublattice of sets (given as masks) by its JI poset,
    verifying that it is one: the presentation that generate_family used
    on the join closure of its meets, before it read the carrier off the
    meets' join-irreducibles.

    Returns the lattice together with, per element index, the original mask.
    The join-irreducibles are the least members holding each point, each
    the first member holding it in ascending order, since no superset of a
    mask is smaller: such a member is join-prime, and every member is the
    union of those below it.  Raises ValueError unless the unions of the JI
    poset's downsets are the family, one member each.
    """
    family = set(masks)
    ji, unseen = [], 0
    for s in family:
        unseen |= s
    for s in sorted(family):
        if s & unseen:
            ji.append(s)
            unseen &= ~s
    sub = DistLat(tuple(tuple(a & b == a for b in ji) for a in ji))
    # a wide antichain has exponentially many downsets: count to the family's
    # size, and keep the count as the lattice's downset_masks
    downsets = _downsets(sub.principal, len(family))
    if downsets is not None and len(downsets) == len(family):
        vars(sub)["downset_masks"] = tuple(sorted(downsets))
        element_masks = tuple(map(unions(ji), sub.downset_masks))
        if set(element_masks) == family:
            return sub, element_masks
    raise ValueError("family is not a distributive lattice of sets")


def join_closed_lattice(seeds, full, cap, what):
    """generate_family for DL01 as it was before it read the carrier off the
    meets' join-irreducibles: the meets closed under joins with every meet,
    then presented by the verifying mask_lattice_presentation."""
    seeds = set(seeds) | {0, full}
    meets = close(seeds, [partial(and_, s) for s in seeds], cap, what)
    return mask_lattice_presentation(close(meets, [partial(or_, m) for m in meets], cap, what))


def scanned_mask_lattice(masks):
    """mask_lattice_presentation with the join-irreducibles found as the
    members that are not the union of the members strictly below them."""
    family = sorted(set(masks))
    ji = []
    for s in family:
        joined = 0
        for t in family:
            if t & s == t != s:
                joined |= t
        if joined != s:
            ji.append(s)
    sub = DistLat(tuple(tuple(a & b == a for b in ji) for a in ji))
    if sub.size != len(family):
        raise ValueError("family is not a distributive lattice of sets")
    element_masks = []
    for d in sub.downset_masks:
        union = 0
        for j, m in enumerate(ji):
            if d >> j & 1:
                union |= m
        element_masks.append(union)
    return sub, tuple(element_masks)


def scanned_present_subset(amb, subset):
    """present_subset as the element scans had it: (algebra, inclusion,
    ambient index -> subset index).  It trusts the subset to be closed."""
    subset = sorted(set(subset))
    match amb:
        case BoolAlg():
            nonzero = [m for m in subset if m]
            atoms = [m for m in nonzero if not any(o and o & m == o and o != m for o in nonzero)]
            if 1 << len(atoms) != len(subset):
                raise ValueError("subset is not a boolean subalgebra")
            sub, incl = BoolAlg(len(atoms)), _expand(atoms, int.__or__)
        case DistLat():
            sub, masks = scanned_mask_lattice(amb.downset_masks[i] for i in subset)
            incl = [amb.downset_index[m] for m in masks]
        case JoinSemilattice():
            index = {v: i for i, v in enumerate(subset)}
            join = tuple(tuple(index[amb.join[x][y]] for y in subset) for x in subset)
            sub, incl = JoinSemilattice(join, index[amb.zero]), subset
        case VectZ2():
            basis = sorted_order_basis(subset)
            if 1 << len(basis) != len(subset):
                raise ValueError("subset is not a linear subspace")
            sub, incl = VectZ2(len(basis)), _expand(basis, int.__xor__)
        case FinSet():
            sub, incl = FinSet(len(subset)), subset
        case FinPoset():
            sub, incl = FinPoset(tuple(tuple(amb.leq[x][y] for y in subset) for x in subset)), subset
    return sub, FinMorphism(sub, amb, tuple(incl)), {v: i for i, v in enumerate(incl)}


def generated_then_presented(tag, seeds, full, cap, what):
    """generate_family as an ascending mask list, then the carrier and the
    element masks scanned from that list."""
    seeds = set(seeds)
    match tag:
        case VarietyTag.BA:
            ordered = sorted(seeds)
            groups = {}
            for j in range(full.bit_length()):
                sig = tuple(s >> j & 1 for s in ordered)
                groups[sig] = groups.get(sig, 0) | 1 << j
            gens, op = sorted(groups.values()), int.__or__
        case VarietyTag.DL01:
            seeds |= {0, full}
            meets = close(seeds, [lambda x, s=s: x & s for s in seeds], cap, what)
            return scanned_mask_lattice(close(meets, [lambda x, m=m: x | m for m in meets], cap, what))
        case VarietyTag.JSL0:
            return jsl_from_masks(close(seeds | {0}, [lambda x, s=s: x | s for s in seeds], cap, what))
        case VarietyTag.Z2VECT:
            gens, op = sorted_order_basis(seeds), int.__xor__
    if 1 << len(gens) > cap:
        raise ResourceExceededError(f"{what} exceeded the carrier cap")
    amb = BoolAlg(full.bit_length()) if tag is VarietyTag.BA else VectZ2(full.bit_length())
    carrier, incl, _ = scanned_present_subset(amb, _expand(gens, op))
    return carrier, incl.graph


# ---------------------------------------------------------------------------
# one minimization per language
#
# The refinement that refine_partition replaced (every splitter scans every
# block and tests worklist membership), the left derivatives and residuals
# that minimized a DFA the library already holds minimal, the labelling,
# right-derivative and DL01 morphism checks built on one minimization per
# state, per label and letter, or per pair of elements, and the DL01
# presentation by every subset of the join-irreducibles and by counting
# lower covers.


def scanning_minimize_dfa(d):
    """Partition refinement on the reachable part, blocks numbered by their
    least state."""
    d = _restrict_reachable(d)
    n = d.n_states
    k = len(d.alphabet)
    finals = frozenset(d.finals)
    others = frozenset(range(n)) - finals

    pre = [[[] for _ in range(n)] for _ in range(k)]
    for p in range(n):
        for ai in range(k):
            pre[ai][d.delta[p][ai]].append(p)

    partition = {b for b in (finals, others) if b}
    worklist = deque(partition)
    while worklist:
        splitter = worklist.popleft()
        for ai in range(k):
            x = frozenset(p for q in splitter for p in pre[ai][q])
            if not x:
                continue
            for block in list(partition):
                inter = block & x
                rest = block - x
                if inter and rest:
                    partition.remove(block)
                    partition.update((inter, rest))
                    if block in worklist:
                        worklist.remove(block)
                        worklist.extend((inter, rest))
                    else:
                        worklist.append(min(inter, rest, key=len))

    blocks = sorted(partition, key=min)
    block_of = {}
    for i, b in enumerate(blocks):
        for q in b:
            block_of[q] = i
    reps = [min(b) for b in blocks]
    return Dfa(
        alphabet=d.alphabet,
        n_states=len(blocks),
        initial=block_of[d.initial],
        finals=frozenset(block_of[q] for q in d.finals),
        delta=tuple(tuple(block_of[d.delta[r][ai]] for ai in range(k)) for r in reps),
    )


def scanning_language(d):
    return LanguageId(_restrict_reachable(scanning_minimize_dfa(d)))


def minimized_left_derivative(lang, word):
    """word^-1 L: the minimal DFA started where word leads, minimized again."""
    d = lang.dfa
    return canonical_language(Dfa(d.alphabet, d.n_states, d.run(word), d.finals, d.delta))


def refined_residuals(lang):
    """Every left derivative, from one refinement of the minimal DFA."""
    quotient, _ = language_quotient(lang.dfa)
    return frozenset(block_language(quotient, b) for b in range(quotient.n_states))


def mask_language(caut, mask):
    """The language of a mask over the transition-map automaton."""
    finals = frozenset(j for j in range(caut.n_maps) if mask >> j & 1)
    delta = tuple(
        tuple(caut.post[ai][j] for ai in range(len(caut.alphabet))) for j in range(caut.n_maps)
    )
    return scanning_language(Dfa(caut.alphabet, caut.n_maps, 0, finals, delta))


def per_state_labels(q):
    """Every state's language, one minimization of the whole coalgebra each."""
    delta = tuple(
        tuple(q.gamma[ai].graph[s] for ai in range(len(q.alphabet))) for s in range(q.size)
    )
    finals = frozenset(s for s in range(q.size) if q.out.graph[s] == 1)
    return tuple(scanning_language(Dfa(q.alphabet, q.size, s, finals, delta)) for s in range(q.size))


def letterwise_rqc_closed(q):
    """One right derivative per label and letter, looked up in the label set."""
    labels = label_set(q)
    return all(right_derivative(lang, a) in labels for lang in labels for a in q.alphabet)


def pairwise_dl_morphism(m):
    """A DL01 map preserves 0, 1 and the join and meet of every pair."""
    dom, cod, g = m.dom, m.cod, m.graph
    if len(g) != dom.size or any(not 0 <= v < cod.size for v in g):
        return False
    masks = dom.downset_masks
    index = dom.downset_index
    cod_index = cod.downset_index
    cod_masks = cod.downset_masks
    if g[index[0]] != cod_index[0]:
        return False
    if g[index[(1 << dom.n_ji) - 1]] != cod_index[(1 << cod.n_ji) - 1]:
        return False
    for x in range(dom.size):
        for y in range(x, dom.size):
            if cod_masks[g[index[masks[x] | masks[y]]]] != cod_masks[g[x]] | cod_masks[g[y]]:
                return False
            if cod_masks[g[index[masks[x] & masks[y]]]] != cod_masks[g[x]] & cod_masks[g[y]]:
                return False
    return True


def subset_downset_masks(alg):
    """The downsets of a JI poset, by testing every subset of the JIs."""
    k = alg.n_ji
    below = [sum(1 << i for i in range(k) if alg.ji_leq[i][j]) for j in range(k)]
    return tuple(
        mask
        for mask in range(1 << k)
        if all(below[j] & mask == below[j] for j in range(k) if mask >> j & 1)
    )


def covers_lattice_presentation(masks):
    """mask_lattice_presentation with the join-irreducibles found as the
    members with exactly one lower cover, and each element as the union of a
    subset of them."""
    family = sorted(set(masks))
    ji = []
    for s in family:
        if s == 0:
            continue
        below = [t for t in family if t & s == t and t != s]
        covers = [t for t in below if not any(u & t == t and t != u for u in below)]
        if len(covers) == 1:
            ji.append(s)
    ji_leq = tuple(tuple(ji[i] & ji[j] == ji[i] for j in range(len(ji))) for i in range(len(ji)))
    sub = DistLat(ji_leq)
    downsets = subset_downset_masks(sub)
    if len(downsets) != len(family):
        raise ValueError("family is not a distributive lattice of sets")
    return sub, tuple(_expand(ji, int.__or__)[d] for d in downsets)



# ---------------------------------------------------------------------------
# morphisms element by element: the checks and dual maps that the library
# now reads off the generators (atoms, bases, join-irreducibles)


def jsl_leq(alg, x, y):
    return alg.join[x][y] == y


def pairwise_validate_morphism(m):
    """validate_morphism with BA maps checked element by element, JSL0 maps
    pair by pair and Z2VECT maps by the lowest bit; other tags go to the
    library."""
    if m.dom.tag != m.cod.tag or m.dom.tag not in (VarietyTag.BA, VarietyTag.JSL0, VarietyTag.Z2VECT):
        return validate_morphism(m)
    if len(m.graph) != m.dom.size or any(not 0 <= v < m.cod.size for v in m.graph):
        return False
    g = m.graph
    dom, cod = m.dom, m.cod
    match dom:
        case BoolAlg():
            if g[0] != 0 or g[dom.top] != cod.top:
                return False
            for x in range(dom.size):
                image = 0
                for i in range(dom.atoms):
                    if x >> i & 1:
                        image |= g[1 << i]
                if g[x] != image or g[dom.top ^ x] != cod.top ^ g[x]:
                    return False
            return True
        case JoinSemilattice():
            if g[dom.zero] != cod.zero:
                return False
            n = dom.size
            for x in range(n):
                for y in range(x, n):
                    if g[dom.join[x][y]] != cod.join[g[x]][g[y]]:
                        return False
            return True
        case VectZ2():
            # x is x without its lowest bit plus that bit, so by induction on
            # the bit count this is g[x] = sum of g over the basis bits of x
            return g[0] == 0 and all(g[x] == g[x & (x - 1)] ^ g[x & -x] for x in range(1, dom.size))


def scanning_dual_morphism(d, h):
    """dual_morphism with the JSL upper adjoint found by comparing every
    pair, the Z2 transpose by parities, SET preimages mask by mask, DL
    least preimages by a scan for the maximal join-irreducible and POS
    preimages downset by downset."""
    if h.dom.tag != h.cod.tag:
        raise TagMismatchError("cannot dualize a cross-variety map")
    dom, cod, g = h.dom, h.cod, h.graph
    new_dom = dual_object(d, cod)
    new_cod = dual_object(d, dom)
    match (d, dom):
        case (DualityTag.BA_SET, FinSet()):
            # a function dualizes to preimage between powersets
            graph = []
            for mask in range(1 << cod.size):
                graph.append(sum(1 << y for y in range(dom.size) if mask >> g[y] & 1))
            return FinMorphism(new_dom, new_cod, tuple(graph))
        case (DualityTag.DL01_POS, DistLat()):
            graph = []
            dom_masks, cod_masks = dom.downset_masks, cod.downset_masks
            for j in range(cod.n_ji):
                meet = (1 << dom.n_ji) - 1
                found = False
                for x in range(dom.size):
                    if cod_masks[g[x]] >> j & 1:
                        meet &= dom_masks[x]
                        found = True
                if not found:
                    raise NonFunctionalError("no element maps above a join-irreducible")
                maximal = [
                    i
                    for i in range(dom.n_ji)
                    if meet >> i & 1
                    and not any(
                        meet >> i2 & 1 and dom.ji_leq[i][i2] and i2 != i for i2 in range(dom.n_ji)
                    )
                ]
                if len(maximal) != 1:
                    raise NonFunctionalError("least preimage is not join-irreducible")
                graph.append(maximal[0])
            return FinMorphism(new_dom, new_cod, tuple(graph))
        case (DualityTag.DL01_POS, FinPoset()):
            # a monotone map dualizes to preimage between downset lattices,
            # found one downset and one point at a time
            graph = []
            for mask in new_dom.downset_masks:
                pre = sum(1 << x for x in range(dom.size) if mask >> g[x] & 1)
                graph.append(new_cod.downset_index[pre])
            return FinMorphism(new_dom, new_cod, tuple(graph))
        case (DualityTag.JSL_SELF, JoinSemilattice()):
            # upper adjoint: largest element mapping below the argument
            graph = []
            for b in range(cod.size):
                best = dom.zero
                for a in range(dom.size):
                    if jsl_leq(cod, g[a], b):
                        best = dom.join[best][a]
                graph.append(best)
            return FinMorphism(new_dom, new_cod, tuple(graph))
        case (DualityTag.Z2_SELF, VectZ2()):
            graph = []
            for phi in range(1 << cod.dim):
                image = 0
                for i in range(dom.dim):
                    if bin(phi & g[1 << i]).count("1") % 2 == 1:
                        image |= 1 << i
                graph.append(image)
            return FinMorphism(new_dom, new_cod, tuple(graph))
    return dual_morphism(d, h)


def tabled_dual_morphism(d, h):
    """dual_morphism as before maps were built from their images of the
    generators: every dual a full table, SET and POS preimages as the
    generator sums of the fibres, and a DL01 map tested for being the
    generator sums of its values at the join-irreducibles."""
    if h.dom.tag != h.cod.tag:
        raise TagMismatchError("cannot dualize a cross-variety map")
    dom, cod, g = h.dom, h.cod, h.graph
    new_dom = dual_object(d, cod)
    new_cod = dual_object(d, dom)
    match (d, dom):
        case (DualityTag.BA_SET, BoolAlg()):
            graph = []
            for j in range(cod.atoms):
                hits = [i for i in range(dom.atoms) if g[1 << i] >> j & 1]
                if len(hits) != 1:
                    raise NonFunctionalError("atom characterization failed; not a BA morphism")
                graph.append(hits[0])
            return FinMorphism(new_dom, new_cod, tuple(graph))
        case (DualityTag.BA_SET, FinSet()):
            return FinMorphism(new_dom, new_cod, tuple(generator_sums(new_dom, fibres(g, cod.size))))
        case (DualityTag.DL01_POS, DistLat()):
            graph = []
            dom_masks, cod_masks = dom.downset_masks, cod.downset_masks
            principal = dom.principal
            image = [cod_masks[g[dom.downset_index[b]]] for b in principal]
            masks = list(map(cod_masks.__getitem__, g))
            scanned = list(zip(principal, image) if masks == generator_sums(dom, image) else zip(dom_masks, masks))
            for j in range(cod.n_ji):
                above = [x for x, y in scanned if y >> j & 1]
                if not above:
                    raise NonFunctionalError("no element maps above a join-irreducible")
                meet = above[0]
                for x in above:
                    meet &= x
                if meet not in principal:
                    raise NonFunctionalError("least preimage is not join-irreducible")
                graph.append(principal.index(meet))
            return FinMorphism(new_dom, new_cod, tuple(graph))
        case (DualityTag.DL01_POS, FinPoset()):
            preimages = generator_sums(new_dom, fibres(g, cod.size))
            return FinMorphism(new_dom, new_cod, tuple(map(new_cod.downset_index.__getitem__, preimages)))
        case (DualityTag.Z2_SELF, VectZ2()):
            rows = [sum(1 << i for i in range(dom.dim) if g[1 << i] >> k & 1) for k in range(cod.dim)]
            return FinMorphism(new_dom, new_cod, tuple(generator_sums(new_dom, rows)))
    return dual_morphism(d, h)


def downset_meet_table(join):
    """Meets looked up by the intersection of n-bit down-set masks."""
    down = [sum(1 << z for z, v in enumerate(row) if v == x) for x, row in enumerate(join)]
    by_down = {mask: x for x, mask in enumerate(down)}
    try:
        return tuple(tuple(by_down[dx & dy] for dy in down) for dx in down)
    except KeyError:
        raise ValueError("join table does not admit meets") from None


# ---------------------------------------------------------------------------
# join-semilattices as tables
#
# What JoinSemilattice held before it was presented by its irreducibles: the
# join table of a union-closed family and the meet table of its dual, both
# built by op_table, and the join-irreducibles and their below masks scanned
# off a table.  Each works on (join, zero) tables alone.


def table_from_masks(family):
    """jsl_from_masks as a join table: (join, zero, ascending masks)."""
    masks = tuple(sorted(set(family)))
    return op_table(masks, or_), 0, masks


def scanned_irreducibles(join, zero):
    """All but the zero and the joins y + z other than y and z."""
    ids = range(len(join))
    reducible = {zero}
    for y, row in enumerate(join):
        joins = {v for z, v in enumerate(row) if v != z}
        joins.discard(y)
        reducible |= joins
    return tuple(x for x in ids if x not in reducible)


def scanned_below(join, irreducibles):
    """Per x, the mask of the irreducibles j_i with j_i + x = x (bit i)."""
    below = [0] * len(join)
    for i, j in enumerate(irreducibles):
        for x, v in enumerate(join[j]):
            if v == x:
                below[x] |= 1 << i
    return tuple(below)


def table_dual(join, zero):
    """(meet table, top): the meet of x and y is the element whose below
    mask is below[x] & below[y]."""
    irreducibles = scanned_irreducibles(join, zero)
    below = scanned_below(join, irreducibles)
    try:
        return op_table(below, and_), below.index((1 << len(irreducibles)) - 1)
    except (KeyError, ValueError):
        raise ValueError("join table does not admit meets") from None


def table_jsl_irreducibles(join, zero):
    """The join-irreducibles of a join table, scanned off it after checking
    that it is a semilattice with least element zero.  Any other table is
    refused with ValueError naming the first law it breaks: a square shape
    over its elements, idempotence, the zero as unit, commutativity, else
    associativity.  The library keeps only the verdict, reading the masks
    (JoinSemilattice.irreducibles)."""
    n = len(join)
    if not 0 <= zero < n or any(len(row) != n or min(row) < 0 or max(row) >= n for row in join):
        raise ValueError("join table is not square over its elements")
    if any(join[x][x] != x for x in range(n)):
        raise ValueError("join not idempotent")
    if list(join[zero]) != list(range(n)):
        raise ValueError("zero is not a unit for join")
    rows = list(map(tuple, join))
    if rows != list(zip(*join)):
        raise ValueError("join not commutative")
    up = [sum(1 << y for y, v in enumerate(row) if v == y) for row in rows]
    for row, ux in zip(rows, up):
        if [ux & uy for uy in up] != [up[v] for v in row]:
            raise ValueError("join not associative")
    return list(scanned_irreducibles(join, zero))


def labelled_roundtrip_witness(d, piece, monoid, limits=DEFAULT_LIMITS):
    """The round trip certified through labels: every returned state
    labelled by monoid_to_piece, the two label sets compared, and the
    label-matching bijection checked to commute with the structure."""
    back = monoid_to_piece(d, monoid, limits)
    ours, theirs = label_set(piece), label_set(back)
    if ours != theirs:
        extra = sorted(ours.symmetric_difference(theirs), key=lambda l: l.sort_key())
        raise CorrespondenceError(
            "round trip changed the language set",
            counterexample=language_to_regex(extra[0]),
        )
    return labelled_structure_iso(piece, back)


def labelled_structure_iso(p1, p2):
    """The label-matching bijection, checked to commute with the structure."""
    assert p1.labels is not None and p2.labels is not None
    position = {lang: i for i, lang in enumerate(p2.labels)}
    forward = FinMorphism(p1.carrier, p2.carrier, tuple(position[lang] for lang in p1.labels))
    back_position = {lang: i for i, lang in enumerate(p1.labels)}
    backward = FinMorphism(p2.carrier, p1.carrier, tuple(back_position[lang] for lang in p2.labels))
    if not (validate_morphism(forward) and validate_morphism(backward)):
        raise CorrespondenceError("label bijection is not an isomorphism of carriers")
    for ai in range(len(p1.alphabet)):
        lhs = forward.then(p2.gamma[ai])
        rhs = p1.gamma[ai].then(forward)
        if lhs.graph != rhs.graph:
            raise CorrespondenceError("label bijection does not commute with transitions")
    if forward.then(p2.out).graph != p1.out.graph:
        raise CorrespondenceError("label bijection does not preserve outputs")
    return IsoWitness(forward, backward)


def label_inclusion(p1, p2):
    """Whether every label of p1 is a label of p2, by their label sets."""
    return label_set(p1) <= label_set(p2)


def label_piece_join(d, p1, p2, limits=DEFAULT_LIMITS):
    """The join closed from both label sets: the n1 + n2 label DFAs side by
    side in the class automaton."""
    return rqc_closure(c_tag(d), label_set(p1) | label_set(p2), limits)


# ---------------------------------------------------------------------------
# regex trees as recursive frozen dataclasses
#
# The regex layer that the pre-keyed nodes of langdual.languages replaced:
# every walk recurses, `recursive_key` rebuilds a tree's sort key on each
# call and the dataclasses hash whole trees.  `as_tree` copies a
# langdual.languages tree into these classes; the differential tests compare
# renders, derivative states and synthesized regex text byte for byte.


class Tree:
    __slots__ = ()


@dataclass(frozen=True)
class TreeEmpty(Tree):
    pass


@dataclass(frozen=True)
class TreeEpsilon(Tree):
    pass


@dataclass(frozen=True)
class TreeLiteral(Tree):
    symbol: str


@dataclass(frozen=True)
class TreeUnion(Tree):
    left: Tree
    right: Tree


@dataclass(frozen=True)
class TreeConcat(Tree):
    left: Tree
    right: Tree


@dataclass(frozen=True)
class TreeStar(Tree):
    inner: Tree


def as_tree(r):
    """The dataclass copy of a langdual.languages regex tree."""
    kind = type(r).__name__
    if kind == "Empty":
        return TreeEmpty()
    if kind == "Epsilon":
        return TreeEpsilon()
    if kind == "Literal":
        return TreeLiteral(r.symbol)
    if kind == "Star":
        return TreeStar(as_tree(r.inner))
    node = TreeUnion if kind == "Union" else TreeConcat
    return node(as_tree(r.left), as_tree(r.right))


class RecursiveParser:
    """The recursive-descent parser over the dataclass trees."""

    def __init__(self, text, alphabet):
        self.text = text
        self.alphabet = frozenset(check_alphabet(alphabet))
        self.pos = 0

    def parse(self):
        out = self.union()
        if self.pos != len(self.text):
            raise RegexSyntaxError("trailing input", self.pos)
        return out

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else None

    def union(self):
        out = self.concatenation()
        if self.peek() == "|":
            self.pos += 1
            return TreeUnion(out, self.union())
        return out

    def concatenation(self):
        factors = [self.postfix()]
        while self.peek() is not None and self.peek() not in "|)":
            factors.append(self.postfix())
        out = factors[-1]
        for f in reversed(factors[:-1]):
            out = TreeConcat(f, out)
        return out

    def postfix(self):
        out = self.base()
        while self.peek() == "*":
            self.pos += 1
            out = TreeStar(out)
        return out

    def base(self):
        c = self.peek()
        if c is None:
            raise RegexSyntaxError("unexpected end of input", self.pos)
        if c == "#":
            self.pos += 1
            return TreeEmpty()
        if c == "@":
            self.pos += 1
            return TreeEpsilon()
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
        return TreeLiteral(c)


def recursive_check_symbols(r, symbols):
    if isinstance(r, TreeLiteral):
        if r.symbol not in symbols:
            raise UnknownSymbolError(r.symbol)
    elif isinstance(r, (TreeUnion, TreeConcat)):
        recursive_check_symbols(r.left, symbols)
        recursive_check_symbols(r.right, symbols)
    elif isinstance(r, TreeStar):
        recursive_check_symbols(r.inner, symbols)


def recursive_key(r):
    """Total order on trees, used to sort union parts deterministically."""
    if isinstance(r, TreeEmpty):
        return (0,)
    if isinstance(r, TreeEpsilon):
        return (1,)
    if isinstance(r, TreeLiteral):
        return (2, r.symbol)
    if isinstance(r, TreeStar):
        return (3, recursive_key(r.inner))
    if isinstance(r, TreeConcat):
        return (4, recursive_key(r.left), recursive_key(r.right))
    if isinstance(r, TreeUnion):
        return (5, recursive_key(r.left), recursive_key(r.right))
    raise TypeError(f"not a Tree: {r!r}")


def recursive_union_parts(r):
    if isinstance(r, TreeUnion):
        yield from recursive_union_parts(r.left)
        yield from recursive_union_parts(r.right)
    else:
        yield r


def recursive_make_union(parts):
    """Union normalized to a sorted, duplicate-free, right-nested chain."""
    flat = []
    for p in parts:
        flat.extend(recursive_union_parts(p))
    flat = [p for p in flat if not isinstance(p, TreeEmpty)]
    dedup = {recursive_key(p): p for p in flat}
    ordered = [dedup[k] for k in sorted(dedup)]
    if not ordered:
        return TreeEmpty()
    out = ordered[-1]
    for p in reversed(ordered[:-1]):
        out = TreeUnion(p, out)
    return out


def recursive_make_concat(left, right):
    if isinstance(left, TreeEmpty) or isinstance(right, TreeEmpty):
        return TreeEmpty()
    if isinstance(left, TreeEpsilon):
        return right
    if isinstance(right, TreeEpsilon):
        return left
    return TreeConcat(left, right)


def recursive_make_star(r):
    if isinstance(r, (TreeEmpty, TreeEpsilon)):
        return TreeEpsilon()
    if isinstance(r, TreeStar):
        return r
    return TreeStar(r)


def recursive_normalize(r):
    if isinstance(r, (TreeEmpty, TreeEpsilon, TreeLiteral)):
        return r
    if isinstance(r, TreeUnion):
        return recursive_make_union([recursive_normalize(r.left), recursive_normalize(r.right)])
    if isinstance(r, TreeConcat):
        return recursive_make_concat(recursive_normalize(r.left), recursive_normalize(r.right))
    if isinstance(r, TreeStar):
        return recursive_make_star(recursive_normalize(r.inner))
    raise TypeError(f"not a Tree: {r!r}")


def recursive_nullable(r):
    if isinstance(r, (TreeEmpty, TreeLiteral)):
        return False
    if isinstance(r, (TreeEpsilon, TreeStar)):
        return True
    if isinstance(r, TreeUnion):
        return recursive_nullable(r.left) or recursive_nullable(r.right)
    return recursive_nullable(r.left) and recursive_nullable(r.right)


def recursive_derivative(r, a):
    """Brzozowski derivative: the normalized tree for a^-1 L(r)."""
    if isinstance(r, (TreeEmpty, TreeEpsilon)):
        return TreeEmpty()
    if isinstance(r, TreeLiteral):
        return TreeEpsilon() if r.symbol == a else TreeEmpty()
    if isinstance(r, TreeUnion):
        return recursive_make_union([recursive_derivative(r.left, a), recursive_derivative(r.right, a)])
    if isinstance(r, TreeConcat):
        head = recursive_make_concat(recursive_derivative(r.left, a), r.right)
        if recursive_nullable(r.left):
            return recursive_make_union([head, recursive_derivative(r.right, a)])
        return head
    if isinstance(r, TreeStar):
        return recursive_make_concat(recursive_derivative(r.inner, a), r)
    raise TypeError(f"not a Tree: {r!r}")


def recursive_derivative_closure(r, symbols):
    """The states of the raw derivative automaton, in breadth-first order,
    and its transition rows."""
    start = recursive_normalize(r)
    index = {start: 0}
    states = [start]
    rows = []
    for state in states:
        row = []
        for a in symbols:
            nxt = recursive_derivative(state, a)
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    return states, rows


def recursive_render(r):
    """Render with precedence star > concat > union; @ is epsilon, # empty."""

    def go(x, context):
        if isinstance(x, TreeEmpty):
            return "#"
        if isinstance(x, TreeEpsilon):
            return "@"
        if isinstance(x, TreeLiteral):
            return x.symbol
        if isinstance(x, TreeStar):
            return go(x.inner, 3) + "*"
        if isinstance(x, TreeConcat):
            s = go(x.left, 2) + go(x.right, 2)
            return f"({s})" if context > 2 else s
        if isinstance(x, TreeUnion):
            s = go(x.left, 1) + "|" + go(x.right, 1)
            return f"({s})" if context > 1 else s
        raise TypeError(f"not a Tree: {x!r}")

    return go(r, 1)


def recursive_language_to_regex(lang):
    """State elimination over the recursive trees."""
    d = lang.dfa
    n = d.n_states
    start, accept = n, n + 1
    table = {}

    def get(i, j):
        return table.get((i, j), TreeEmpty())

    def put(i, j, r):
        if isinstance(r, TreeEmpty):
            table.pop((i, j), None)
        else:
            table[(i, j)] = r

    put(start, d.initial, TreeEpsilon())
    for q in d.finals:
        put(q, accept, TreeEpsilon())
    for q in range(n):
        for ai, a in enumerate(d.alphabet):
            t = d.delta[q][ai]
            put(q, t, recursive_make_union([get(q, t), TreeLiteral(a)]))

    nodes = [start, accept] + list(range(n))
    for s in range(n):
        nodes.remove(s)
        loop = recursive_make_star(get(s, s))
        ins = [(p, get(p, s)) for p in nodes if not isinstance(get(p, s), TreeEmpty)]
        outs = [(q, get(s, q)) for q in nodes if not isinstance(get(s, q), TreeEmpty)]
        for p, rin in ins:
            for q, rout in outs:
                bridge = recursive_make_concat(recursive_make_concat(rin, loop), rout)
                put(p, q, recursive_make_union([get(p, q), bridge]))
        for p in list(table):
            if s in p:
                del table[p]
    return recursive_render(get(start, accept))


# ---------------------------------------------------------------------------
# the derivative closure over trees
#
# The closure that the library's closure over interned numbers replaced:
# every derivative is a normalized tree built by make_concat and make_union,
# which sorts the union parts, and orbit compares the states as trees.  The
# normalizing constructors and normalize are the tree ones that the
# library's numbered normal form replaced.


def make_union(parts):
    """Union normalized to a sorted, duplicate-free, right-nested chain."""
    flat: dict[Regex, None] = {}
    for p in parts:
        for q in _spine(p, _TAG_UNION):
            if q.tag != _TAG_EMPTY:
                flat[q] = None
    if not flat:
        return _EMPTY
    if len(flat) == 1:
        return next(iter(flat))
    if len(flat) == 2:
        x, y = flat
        return Union(x, y) if _compare(x, y) < 0 else Union(y, x)
    return _chain(Union, sorted(flat, key=_sort_key))


def make_concat(left, right):
    if left.tag == _TAG_EMPTY or right.tag == _TAG_EMPTY:
        return _EMPTY
    if left.tag == _TAG_EPSILON:
        return right
    if right.tag == _TAG_EPSILON:
        return left
    return Concat(left, right)


def make_star(r):
    if r.tag < _TAG_LITERAL:
        return _EPSILON
    if r.tag == _TAG_STAR:
        return r
    return Star(r)


def tree_normalize(r: Regex) -> Regex:
    """Rebuild a tree bottom-up through the normalizing constructors; a
    union is rebuilt from all its parts in one make_union.  Equal subtrees
    of the result are one object."""
    done: dict[int, Regex] = {}
    shared: dict[Regex, Regex] = {}
    stack = [r]
    while stack:
        x = stack.pop()
        key = id(x)
        if key in done:
            continue
        tag = x.tag
        if tag < _TAG_STAR:
            out = x
        elif tag == _TAG_STAR:
            inner = done.get(id(x.inner))
            if inner is None:
                stack += (x, x.inner)
                continue
            out = make_star(inner)
        elif tag == _TAG_CONCAT:
            left, right = done.get(id(x.left)), done.get(id(x.right))
            if left is None or right is None:
                stack += (x, x.left, x.right)
                continue
            out = make_concat(left, right)
        else:
            parts = _spine(x, _TAG_UNION)
            todo = [p for p in parts if id(p) not in done]
            if todo:
                stack.append(x)
                stack += todo
                continue
            out = make_union([done[id(p)] for p in parts])
        done[key] = shared.setdefault(out, out)
    return done[id(r)]


def tree_derive(r: Regex, a: str, done: dict[int, Regex]) -> Regex:
    """The Brzozowski derivative a^-1 r as a normalized tree, reading and
    filling done: the id of a node -> its derivative by a.  Entries stay
    valid while their nodes are alive, so a caller may share done between
    calls on trees it keeps.

    The derivative of a union is the union of its parts' derivatives, taken
    over all parts at once as in tree_normalize.
    """
    stack = [r]
    while stack:
        x = stack.pop()
        key = id(x)
        if key in done:
            continue
        tag = x.tag
        if tag < _TAG_LITERAL:
            done[key] = _EMPTY
        elif tag == _TAG_LITERAL:
            done[key] = _EPSILON if x.symbol == a else _EMPTY
        elif tag == _TAG_STAR:
            inner = done.get(id(x.inner))
            if inner is None:
                stack += (x, x.inner)
            else:
                done[key] = make_concat(inner, x)
        elif tag == _TAG_CONCAT:
            head = done.get(id(x.left))
            if x.left.nullable:
                tail = done.get(id(x.right))
                if head is None or tail is None:
                    stack += (x, x.left, x.right)
                else:
                    done[key] = make_union([make_concat(head, x.right), tail])
            elif head is None:
                stack += (x, x.left)
            else:
                done[key] = make_concat(head, x.right)
        else:
            parts = _spine(x, _TAG_UNION)
            todo = [p for p in parts if id(p) not in done]
            if todo:
                stack.append(x)
                stack += todo
            else:
                done[key] = make_union([done[id(p)] for p in parts])
    return done[id(r)]


def tree_derivative_closure(r: Regex, symbols, limits=DEFAULT_LIMITS):
    """The normalized derivatives of r in breadth-first order from r, and
    the transition rows between them."""
    # every tree tree_derive walks is a state or part of one, and orbit keeps
    # the states until it returns, so the memos' ids stay valid
    steps = [partial(tree_derive, a=a, done={}) for a in symbols]
    try:
        states, edges, _ = orbit([tree_normalize(r)], steps, limits.max_states, "derivative closure")
    except ResourceExceededError:
        raise ResourceExceededError(f"derivative closure exceeded {limits.max_states} states") from None
    return states, list(map(tuple, edges))


# ---------------------------------------------------------------------------
# boolean combinations of languages, by the product automaton


def _combine(l1, l2, keep):
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


def lang_union(l1, l2):
    return _combine(l1, l2, lambda a, b: a or b)


def lang_intersect(l1, l2):
    return _combine(l1, l2, lambda a, b: a and b)


def lang_symdiff(l1, l2):
    return _combine(l1, l2, lambda a, b: a != b)


def lang_complement(lang):
    d = lang.dfa
    return canonical_language(
        Dfa(d.alphabet, d.n_states, d.initial, frozenset(range(d.n_states)) - d.finals, d.delta)
    )


def empty_language(alphabet):
    symbols = check_alphabet(alphabet)
    return canonical_language(Dfa(symbols, 1, 0, frozenset(), ((0,) * len(symbols),)))


def full_language(alphabet):
    symbols = check_alphabet(alphabet)
    return canonical_language(Dfa(symbols, 1, 0, frozenset({0}), ((0,) * len(symbols),)))
