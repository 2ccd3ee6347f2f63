"""Test-only helpers: seeded random algebras and morphisms, validating
constructors, JSON readers, checks on coalgebras, and small fixtures: the
plain automaton of a language, the trivial monoid and word evaluation.

The library itself never calls these; the tests use them to build instances
and to state properties.  Identical seeds reproduce identical instances.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Sequence

from langdual.automata import CCoalgebra, DAlgebra
from langdual.cli import random_regex
from langdual.errors import TagMismatchError
from langdual.languages import (
    LanguageId,
    Regex,
    compile_regex,
    language_to_regex,
    left_derivative,
)
from langdual.monoids import FreeElement, SigmaMonoid, carrier_add
from langdual.varieties import (
    BoolAlg,
    DistLat,
    FinAlgebra,
    FinMorphism,
    FinPoset,
    FinSet,
    JoinSemilattice,
    Matrix,
    VarietyTag,
    VectZ2,
    algebra_to_json,
    constants,
    jsl_from_masks,
    two_element_algebra,
    validate_morphism,
)
from oracles import table_jsl_irreducibles, tree_derive

C_OPERATION_TAGS = (VarietyTag.BA, VarietyTag.DL01, VarietyTag.JSL0, VarietyTag.Z2VECT)

# ---------------------------------------------------------------------------
# regexes and morphisms


def random_generators(rng: random.Random, alphabet: Sequence[str], max_states: int = 5) -> list[LanguageId]:
    """One or two languages of seeded random regexes, each with at most
    max_states states in its minimal DFA."""
    count = rng.randint(1, 2)
    out: list[LanguageId] = []
    while len(out) < count:
        lang = compile_regex(random_regex(rng, alphabet), tuple(alphabet))
        if lang.n_states <= max_states:
            out.append(lang)
    return out


def renamed_states(piece: CCoalgebra, perm: Sequence[int]) -> CCoalgebra:
    """The same automaton with state s renamed perm[s] on the same carrier,
    which is not renumbered: the state languages move, the algebra does not."""
    inverse = sorted(range(piece.size), key=perm.__getitem__)
    gamma = tuple(
        FinMorphism(piece.carrier, piece.carrier, tuple(perm[g.graph[s]] for s in inverse)) for g in piece.gamma
    )
    out = FinMorphism(piece.carrier, piece.out.cod, tuple(piece.out.graph[s] for s in inverse))
    return replace(piece, gamma=gamma, out=out)


def jsl_leq(alg: JoinSemilattice, x: int, y: int) -> bool:
    return alg.join[x][y] == y


def derivative(r: Regex, a: str) -> Regex:
    """Brzozowski derivative: the normalized tree for a^-1 L(r)."""
    return tree_derive(r, a, {})


def is_surjective(m: FinMorphism) -> bool:
    return len(set(m.graph)) == m.cod.size


def is_injective(m: FinMorphism) -> bool:
    return len(set(m.graph)) == len(m.graph)


def pairing(f: FinMorphism, g: FinMorphism, prod: FinAlgebra, p1: FinMorphism, p2: FinMorphism) -> FinMorphism:
    """The morphism <f, g> into a product built by product_algebra."""
    lookup = {(p1.graph[x], p2.graph[x]): x for x in range(prod.size)}
    return FinMorphism(f.dom, prod, tuple(lookup[(f.graph[x], g.graph[x])] for x in range(f.dom.size)))


# ---------------------------------------------------------------------------
# fixtures: the automaton of a language, the trivial monoid, word evaluation


def language_dalgebra(lang: LanguageId) -> DAlgebra:
    """The canonical DFA of a language as a plain initialized automaton."""
    d = lang.dfa
    carrier = FinSet(d.n_states)
    alpha = tuple(FinMorphism(carrier, carrier, column) for column in zip(*d.delta))
    return DAlgebra(carrier, d.alphabet, alpha, d.initial)


def trivial_monoid(tag: VarietyTag, alphabet: Sequence[str]) -> SigmaMonoid:
    carrier = {
        VarietyTag.SET: FinSet(1),
        VarietyTag.POS: FinPoset(((True,),)),
        VarietyTag.JSL0: JoinSemilattice(((0,),), 0),
        VarietyTag.Z2VECT: VectZ2(0),
    }[tag]
    return SigmaMonoid(carrier, tuple(alphabet), 0, ((0,),), (0,) * len(alphabet))


def eval_word(m: SigmaMonoid, x: FreeElement | str) -> int:
    """The unique monoid morphism from free normal forms, letter by letter."""
    if isinstance(x, str):
        cur = m.unit
        for a in x:
            cur = m.mult[cur][m.gen[m.alphabet.index(a)]]
        return cur
    if x.tag != m.carrier.tag:
        raise TagMismatchError("free element of the wrong variety")
    if x.tag in (VarietyTag.SET, VarietyTag.POS):
        return eval_word(m, x.words[0])
    total = constants(m.carrier)[0]
    for w in x.words:
        total = carrier_add(m.carrier, total, eval_word(m, w))
    return total


# ---------------------------------------------------------------------------
# validating constructors and JSON


def make_poset(leq: Matrix) -> FinPoset:
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            raise ValueError("order not reflexive")
        for j in range(n):
            if leq[i][j] and leq[j][i] and i != j:
                raise ValueError("order not antisymmetric")
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    raise ValueError("order not transitive")
    return FinPoset(leq)


def make_jsl(join: Sequence[Sequence[int]], zero: int) -> JoinSemilattice:
    table_jsl_irreducibles(join, zero)
    return JoinSemilattice(tuple(tuple(row) for row in join), zero)


def make_distlat(ji_leq: Matrix) -> DistLat:
    make_poset(ji_leq)
    return DistLat(ji_leq)


def algebra_from_json(data: dict) -> FinAlgebra:
    tag = VarietyTag(data["tag"])
    match tag:
        case VarietyTag.BA:
            return BoolAlg(int(data["atoms"]))
        case VarietyTag.DL01:
            return make_distlat(tuple(tuple(bool(v) for v in row) for row in data["ji_order"]))
        case VarietyTag.JSL0:
            return make_jsl(data["join"], int(data["zero"]))
        case VarietyTag.Z2VECT:
            return VectZ2(int(data["dim"]))
        case VarietyTag.SET:
            return FinSet(int(data["size"]))
        case VarietyTag.POS:
            return make_poset(tuple(tuple(bool(v) for v in row) for row in data["order"]))
    raise ValueError(f"unknown tag {data['tag']!r}")


# ---------------------------------------------------------------------------
# coalgebras


def validate_coalgebra(q: CCoalgebra) -> bool:
    if q.carrier.tag not in C_OPERATION_TAGS:
        raise TagMismatchError(f"{q.carrier.tag} is not an output-side variety")
    two = two_element_algebra(q.carrier.tag)
    if q.out.cod != two:
        return False
    if not all(validate_morphism(g) for g in q.gamma):
        return False
    return validate_morphism(q.out)


def check_labels(q: CCoalgebra) -> bool:
    """Labels must be a coalgebra homomorphism into the language automaton."""
    for state in range(q.size):
        if (q.out.graph[state] == 1) != q.labels[state].dfa.accepts_word(""):
            return False
        for ai, a in enumerate(q.alphabet):
            if q.labels[q.gamma[ai].graph[state]] != left_derivative(q.labels[state], a):
                return False
    return True


def ccoalgebra_to_json(q: CCoalgebra) -> dict:
    return {
        "carrier": algebra_to_json(q.carrier),
        "alphabet": list(q.alphabet),
        "gamma": {a: list(q.gamma[ai].graph) for ai, a in enumerate(q.alphabet)},
        "out": list(q.out.graph),
        "labels": [language_to_regex(lang) for lang in q.labels],
    }


# ---------------------------------------------------------------------------
# seeded random algebras and morphisms


def _random_poset_matrix(rng: random.Random, n: int):
    strict = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            strict[i][j] = rng.random() < 0.4
    # transitive closure keeps i < j only, so the result is antisymmetric
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if strict[i][k] and strict[k][j]:
                    strict[i][j] = True
    return tuple(tuple(strict[i][j] or i == j for j in range(n)) for i in range(n))


def random_algebra(rng: random.Random, tag: VarietyTag, max_size: int = 16) -> FinAlgebra:
    match tag:
        case VarietyTag.BA:
            max_atoms = max(1, max_size.bit_length() - 1)
            return BoolAlg(rng.randint(1, min(4, max_atoms)))
        case VarietyTag.DL01:
            while True:
                k = rng.randint(1, 4)
                alg = DistLat(_random_poset_matrix(rng, k))
                if alg.size <= max_size:
                    return alg
        case VarietyTag.JSL0:
            family = {0}
            for _ in range(rng.randint(1, 5)):
                family.add(rng.randrange(16))
            closed = set(family)
            while True:
                extra = {x | y for x in closed for y in closed} - closed
                if not extra:
                    break
                closed |= extra
            if len(closed) > max_size:
                closed = {0}
            alg, _ = jsl_from_masks(closed)
            return alg
        case VarietyTag.Z2VECT:
            max_dim = max(1, max_size.bit_length() - 1)
            return VectZ2(rng.randint(1, min(4, max_dim)))
        case VarietyTag.SET:
            return FinSet(rng.randint(1, min(8, max_size)))
        case VarietyTag.POS:
            return make_poset(_random_poset_matrix(rng, rng.randint(1, min(6, max_size))))
    raise ValueError(tag)


def scrambled_jsl(rng: random.Random, seeds: Sequence[int] = ()) -> tuple[list[list[int]], int]:
    """The union-closed family of masks generated by seeds (by default up to
    six random 7-bit masks, at most 64 members) as a join table, with the
    elements renumbered at random."""
    family = {0} | set(seeds or {rng.randrange(1 << 7) for _ in range(rng.randint(1, 6))})
    while True:
        extra = {x | y for x in family for y in family} - family
        if not extra:
            break
        family |= extra
    masks = sorted(family)
    order = list(range(len(masks)))
    rng.shuffle(order)
    index = {masks[i]: k for k, i in enumerate(order)}
    join = [[0] * len(masks) for _ in masks]
    for x in masks:
        for y in masks:
            join[index[x]][index[y]] = index[x | y]
    return join, index[0]


def _random_monotone(rng: random.Random, dom_leq, cod_leq, n_dom: int, n_cod: int):
    """Random monotone map between explicit posets, None when a draw fails."""
    order = sorted(range(n_dom), key=lambda x: sum(dom_leq[y][x] for y in range(n_dom)))
    graph: dict[int, int] = {}
    for x in order:
        lower = [graph[y] for y in range(n_dom) if y != x and dom_leq[y][x] and y in graph]
        candidates = [c for c in range(n_cod) if all(cod_leq[v][c] for v in lower)]
        if not candidates:
            return None
        graph[x] = rng.choice(candidates)
    return tuple(graph[x] for x in range(n_dom))


def random_morphism(rng: random.Random, dom: FinAlgebra, cod: FinAlgebra) -> FinMorphism:
    """A uniformly scruffy but always valid morphism dom -> cod."""
    match (dom, cod):
        case (BoolAlg(), BoolAlg()):
            atom_map = [rng.randrange(dom.atoms) for _ in range(cod.atoms)]
            graph = []
            for x in range(dom.size):
                image = 0
                for j, src in enumerate(atom_map):
                    if x >> src & 1:
                        image |= 1 << j
                graph.append(image)
            return FinMorphism(dom, cod, tuple(graph))
        case (DistLat(), DistLat()):
            # dual to a monotone map from the codomain JI poset to the domain's
            while True:
                f = _random_monotone(rng, cod.ji_leq, dom.ji_leq, cod.n_ji, dom.n_ji)
                if f is not None:
                    break
            graph = []
            for x_mask in dom.downset_masks:
                image = 0
                for j in range(cod.n_ji):
                    if x_mask >> f[j] & 1:
                        image |= 1 << j
                graph.append(cod.downset_masks.index(image))
            return FinMorphism(dom, cod, tuple(graph))
        case (JoinSemilattice(), JoinSemilattice()):
            for _ in range(64):
                order = sorted(
                    range(dom.size), key=lambda x: sum(jsl_leq(dom, y, x) for y in range(dom.size))
                )
                graph: dict[int, int] = {dom.zero: cod.zero}
                ok = True
                for x in order:
                    if x in graph:
                        continue
                    parts = [
                        (y, z)
                        for y in range(dom.size)
                        for z in range(dom.size)
                        if y in graph and z in graph and y != x and z != x and dom.join[y][z] == x
                    ]
                    if parts:
                        y, z = parts[0]
                        graph[x] = cod.join[graph[y]][graph[z]]
                        continue
                    lower = [graph[y] for y in range(dom.size) if y in graph and jsl_leq(dom, y, x)]
                    floor = cod.zero
                    for v in lower:
                        floor = cod.join[floor][v]
                    candidates = [c for c in range(cod.size) if jsl_leq(cod, floor, c)]
                    graph[x] = rng.choice(candidates)
                m = FinMorphism(dom, cod, tuple(graph[x] for x in range(dom.size)))
                if validate_morphism(m):
                    return m
            return FinMorphism(dom, cod, tuple(cod.zero for _ in range(dom.size)))
        case (VectZ2(), VectZ2()):
            basis_images = [rng.randrange(cod.size) for _ in range(dom.dim)]
            graph = []
            for x in range(dom.size):
                image = 0
                for i in range(dom.dim):
                    if x >> i & 1:
                        image ^= basis_images[i]
                graph.append(image)
            return FinMorphism(dom, cod, tuple(graph))
        case (FinSet(), FinSet()):
            return FinMorphism(dom, cod, tuple(rng.randrange(cod.size) for _ in range(dom.size)))
        case (FinPoset(), FinPoset()):
            while True:
                f = _random_monotone(rng, dom.leq, cod.leq, dom.size, cod.size)
                if f is not None:
                    return FinMorphism(dom, cod, f)
    raise ValueError(f"cannot build a morphism from {dom.tag} to {cod.tag}")
