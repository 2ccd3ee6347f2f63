"""Finite algebras of six locally finite varieties, with total morphism graphs.

Every algebra carries an explicit element enumeration, so elements are plain
indices 0..size-1 and morphisms are index arrays; this keeps every law
exhaustively checkable.  A morphism out of a BA, DL01, JSL0 or Z2VECT
carrier may instead be given by its images of the generators (atoms,
join-irreducibles, a basis), its index array built only when read
(FinMorphism.on_generators).  Boolean algebras and bounded distributive lattices
are stored by their dual presentations (atom count, join-irreducible poset;
a generated DL01 reads its JIs off its meets, its elements being their
unions).  Tables derived from a presentation (principal downsets and downset
masks, a JSL0's join table and its order-reversed dual, a poset's downset
lattice) are computed once per object and live on it:

  BA      index = bitmask of atoms
  DL01    index = position in the sorted list of downset masks of the JI poset
  JSL0    index -> masks of the join-irreducibles below it and of the
          meet-irreducibles above it, and back; joins intersect the latter
  Z2VECT  index = coordinate bit vector
  SET     bare index
  POS     index into an explicit order matrix
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial, reduce
from itertools import combinations, compress, repeat
from operator import and_, eq, ne, or_, xor
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .errors import ResourceExceededError, TagMismatchError

Matrix = tuple[tuple[bool, ...], ...]
T = TypeVar("T", bound=Hashable)


class VarietyTag(str, Enum):
    BA = "BA"
    DL01 = "DL01"
    JSL0 = "JSL0"
    Z2VECT = "Z2VECT"
    SET = "SET"
    POS = "POS"


@dataclass(frozen=True)
class BoolAlg:
    """Finite boolean algebra presented by its atom count."""

    atoms: int

    tag = VarietyTag.BA

    @property
    def size(self) -> int:
        return 1 << self.atoms

    @property
    def top(self) -> int:
        return (1 << self.atoms) - 1


@dataclass(frozen=True)
class DistLat:
    """Bounded distributive lattice presented by its join-irreducible poset;
    element i is the i-th downset mask in ascending order."""

    ji_leq: Matrix

    tag = VarietyTag.DL01

    @property
    def n_ji(self) -> int:
        return len(self.ji_leq)

    @property
    def size(self) -> int:
        return len(self.downset_masks)

    @cached_property
    def principal(self) -> tuple[int, ...]:
        """Per join-irreducible j, the mask of the JIs below it (j included)."""
        k = self.n_ji
        return tuple(sum(1 << i for i in range(k) if self.ji_leq[i][j]) for j in range(k))

    @cached_property
    def downset_masks(self) -> tuple[int, ...]:
        """All downset masks of the JI poset, ascending."""
        return tuple(sorted(_downsets(self.principal, 1 << self.n_ji)))

    @cached_property
    def downset_index(self) -> dict[int, int]:
        """The element index of each downset mask."""
        return {m: i for i, m in enumerate(self.downset_masks)}


class _Table(Sequence):
    """A table of size rows, built on first read.  It is equal to, hashes
    like and prints as the tuple of its rows, read or not."""

    def __init__(self, build: Callable[[], tuple[tuple[int, ...], ...]], size: int):
        self._build = build
        self._size = size

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        rows = self._build()
        del self._build  # what it reads is no longer needed
        return rows

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other) -> bool:
        return self.rows == (other.rows if isinstance(other, _Table) else other)

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return repr(self.rows)


@dataclass(frozen=True)
class JoinSemilattice:
    """Join-semilattice with least element, presented by its irreducibles:
    below[x] masks the join-irreducibles under x (bit i for irreducibles[i]),
    above[x] the meet-irreducibles over it, and by_below and by_above map
    them back.  x + y is the element whose above mask is above[x] & above[y],
    the meet the one whose below mask is below[x] & below[y], and the dual
    swaps the two.  jsl_of_sets builds one, its join table a _Table; a table
    given from outside gets its masks from its rows on first use, and is
    refused with ValueError unless they give it back."""

    join: Sequence[Sequence[int]]
    zero: int

    tag = VarietyTag.JSL0

    @property
    def size(self) -> int:
        return len(self.join)

    def __getattr__(self, name: str):
        # in a lawful table x is the set of the y with x + y != y, the
        # complement of its up-set U(x), and U(x + y) = U(x) & U(y)
        if name not in _MASKS:
            raise AttributeError(name)
        ids = range(self.size)
        bits = [1 << y for y in ids]
        try:
            lattice = jsl_of_sets([sum(compress(bits, map(ne, row, ids))) for row in self.join])
            if lattice.zero == self.zero and lattice.join == tuple(map(tuple, self.join)):
                vars(self).update((key, vars(lattice)[key]) for key in _MASKS)
                return vars(self)[name]
        except KeyError:
            pass
        raise ValueError("join table is not a semilattice: it does not admit meets")

    @cached_property
    def dual(self) -> "JoinSemilattice":
        """The order-reversed lattice, meets as its join and the top as its
        zero, elements numbered as here: the masks swapped."""
        dual = _with_masks(self.meet_irreducibles, self.above, self.irreducibles, self.below)
        vars(dual)["dual"] = self
        return dual


_MASKS = ("irreducibles", "below", "meet_irreducibles", "above", "by_below", "by_above")


def _with_masks(irreducibles, below, meet_irreducibles, above) -> JoinSemilattice:
    """The lattice of these masks, with the dicts back and a lazy join table."""
    by_below, by_above = {d: x for x, d in enumerate(below)}, {m: x for x, m in enumerate(above)}

    def rows() -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(map(by_above.__getitem__, map(and_, above, repeat(m)))) for m in above)

    lattice = JoinSemilattice(_Table(rows, len(above)), by_below[0])
    vars(lattice).update(zip(_MASKS, (irreducibles, below, meet_irreducibles, above, by_below, by_above)))
    return lattice


def _irreducible_masks(sets: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The x whose set is no union of smaller ones in a union-closed family
    of distinct sets, ascending, and per x the mask of those inside sets[x].
    Each set is the union of the smaller irreducibles inside it, so sets
    taken by bit count need only the irreducibles found before."""
    found: list[int] = []
    for s in sorted(sets, key=int.bit_count):
        if reduce(or_, compress(found, map(eq, map(and_, found, repeat(s)), found)), 0) != s:
            found.append(s)
    index = {s: x for x, s in enumerate(sets)}
    irreducibles = sorted(map(index.__getitem__, found))
    masks = [0] * len(sets)
    for i, j in enumerate(irreducibles):
        for x in compress(range(len(sets)), map(eq, map(and_, sets, repeat(sets[j])), repeat(sets[j]))):
            masks[x] |= 1 << i
    return tuple(irreducibles), tuple(masks)


def jsl_of_sets(sets: Sequence[int]) -> JoinSemilattice:
    """The join-semilattice of a union-closed family of distinct sets with
    the empty set, element x being sets[x].  Meets intersect below masks, so
    the complements of those are a family whose irreducibles are the
    meet-irreducibles."""
    irreducibles, below = _irreducible_masks(sets)
    full = (1 << len(irreducibles)) - 1
    meet_irreducibles, above = _irreducible_masks([full ^ d for d in below])
    return _with_masks(irreducibles, below, meet_irreducibles, above)


@dataclass(frozen=True)
class VectZ2:
    """Vector space over the two-element field; elements are bit vectors."""

    dim: int

    tag = VarietyTag.Z2VECT

    @property
    def size(self) -> int:
        return 1 << self.dim


@dataclass(frozen=True)
class FinSet:
    n: int

    tag = VarietyTag.SET

    @property
    def size(self) -> int:
        return self.n


@dataclass(frozen=True)
class FinPoset:
    leq: Matrix

    tag = VarietyTag.POS

    @property
    def size(self) -> int:
        return len(self.leq)

    @cached_property
    def dual(self) -> DistLat:
        """The lattice of downsets, which has this poset as its JIs."""
        return DistLat(self.leq)


FinAlgebra = BoolAlg | DistLat | JoinSemilattice | VectZ2 | FinSet | FinPoset


@dataclass(frozen=True)
class FinMorphism:
    """A map of carriers by its graph: graph[x] is the image of x.

    A map out of an output-side carrier (BA, DL01, JSL0, Z2VECT) that keeps
    its sums (joins; ^ for Z2VECT) is fixed by its images of generators(dom),
    and the library builds its own such maps from those alone
    (on_generators).  The graph of such a map is the generator sums of its
    images, built on first read; composing, validating and dualizing it
    read the images, but for a JSL0 domain, whose join-irreducibles need
    not be join-prime, its laws and composites read the graph.  Equality,
    hashing and printing read the graph, so a map equals its table however
    it was built."""

    dom: FinAlgebra
    cod: FinAlgebra
    graph: tuple[int, ...]

    presented = False  # whether the map was built on_generators

    @classmethod
    def on_generators(cls, dom: FinAlgebra, cod: FinAlgebra, images: Iterable[int]) -> "FinMorphism":
        """The map sending the i-th of generators(dom) to images[i] and each
        sum of generators to the sum of their images.  A DL01 or JSL0
        generator thus goes to the sum of the images of those below it,
        which is its image when the map is monotone."""
        m = object.__new__(cls)
        vars(m).update(dom=dom, cod=cod, _images=tuple(images), presented=True)
        return m

    @property
    def images(self) -> Sequence[int]:
        """The images it was built from, or its graph at generators(dom)."""
        if self.presented:
            return self._images
        return list(map(self.graph.__getitem__, generators(self.dom)))

    def __getattr__(self, name: str):
        # only a map built on_generators lacks its graph
        if name != "graph" or not self.presented:
            raise AttributeError(name)
        sums = generator_sums(self.dom, to_codes(self.cod, self._images))
        graph = vars(self)["graph"] = tuple(from_codes(self.cod, sums))
        return graph

    def on(self, elements: Iterable[int]) -> list[int]:
        """The images of elements of dom: graph reads, or, while a map built
        on_generators has no graph, the sum of the images of the generators
        under each."""
        if not self.presented or "graph" in vars(self):
            return list(map(self.graph.__getitem__, elements))
        under = generators_under(self.dom)
        if under is None:  # a BA or Z2VECT element is the mask of its generators, and its own code
            op = xor if isinstance(self.dom, VectZ2) else or_
            return [sum_picked(self._images, x, op) for x in elements]
        codes, masks = to_codes(self.cod, self._images), under[0]
        return list(from_codes(self.cod, [sum_picked(codes, masks[x]) for x in elements]))

    def __call__(self, x: int) -> int:
        return self.on((x,))[0]

    def then(self, other: "FinMorphism") -> "FinMorphism":
        """Composite that applies self first, then other.  Two maps built
        on_generators compose on the images when other keeps sums, as any
        out of a BA, DL01 or Z2VECT carrier does, whatever its images, its
        generators being join-prime or a basis; a JSL0 one need not."""
        if self.cod != other.dom:
            raise TagMismatchError("composition endpoints do not match")
        if self.presented and other.presented and not isinstance(other.dom, JoinSemilattice):
            return FinMorphism.on_generators(self.dom, other.cod, other.on(self._images))
        g = other.graph
        return FinMorphism(self.dom, other.cod, tuple([g[v] for v in self.graph]))


def identity(alg: FinAlgebra) -> FinMorphism:
    return FinMorphism(alg, alg, tuple(range(alg.size)))


# ---------------------------------------------------------------------------
# closures


def orbit(
    seeds: Iterable[T], steps: Sequence[Callable[[T], T]], cap: int, what: str
) -> tuple[list[T], list[list[int]], list[tuple[int, int] | None]]:
    """The closure of seeds under unary steps with the graph it walked:
    returns (elements, edges, tree).  The elements come in insertion order:
    the seeds without repeats, then each new element as a worklist finds
    it.  edges[i][s] is the index of steps[s](elements[i]) and tree[i] is
    the first (element index, step) that reached element i, None for a seed.

    Raises ResourceExceededError when the closure would hold more than cap
    elements, seeds included.  A binary operation closes as the steps "op
    with a generator" when it is associative, since every product of
    generators is then a shorter product op one generator.
    """
    elements = list(dict.fromkeys(seeds))
    if len(elements) > cap:
        raise ResourceExceededError(f"{what} exceeded the carrier cap")
    index = {x: i for i, x in enumerate(elements)}
    tree: list[tuple[int, int] | None] = [None] * len(elements)
    edges = []
    for i, x in enumerate(elements):
        row: list[int] = []
        for step in steps:
            v = step(x)
            j = index.get(v)
            if j is None:
                if len(elements) >= cap:
                    raise ResourceExceededError(f"{what} exceeded the carrier cap")
                j = index[v] = len(elements)
                elements.append(v)
                tree.append((i, len(row)))
            row.append(j)
        edges.append(row)
    return elements, edges, tree


def cayley_columns(
    start: T, steps: Sequence[Callable[[T], T]], cap: int, what: str
) -> tuple[list[T], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], list[tuple[int, int]]]:
    """The word images of start, a unit, under steps, as orbit finds them
    and refuses them, with each step's right and left column and orbit's
    tree past start: right[s][i] is the index of element i followed by step
    s (orbit's edges), left[s][i] that of step s followed by element i.  A
    left column follows the tree, as s(pl) = (sp)l, one lookup per element."""
    elements, edges, tree = orbit([start], steps, cap, what)
    right, tree = tuple(zip(*edges)), tree[1:]
    left = []
    for first in edges[0]:
        col = [first]
        for parent, s in tree:
            col.append(right[s][col[parent]])
        left.append(tuple(col))
    return elements, right, tuple(left), tree


def subset_sums(gens: Iterable[int], op: Callable[[int, int], int]) -> list[int]:
    """Index i holds the op-sum of the gens picked by the bits of i, index 0
    the empty sum 0: the span of atoms under op = or_ or of a basis under
    op = xor, each written inline rather than called per sum."""
    sums = [0]
    for g in gens:
        sums += [s ^ g for s in sums] if op is xor else [s | g for s in sums]
    return sums


def unions(masks: Sequence[int]) -> Callable[[int], int]:
    """picked -> the union of the masks at the bits of picked, read from one
    256-entry table of subset_sums per byte of picked.  Bits of picked past
    the masks pick nothing: a table of k < 8 masks repeats its 2^k sums."""
    chunks = [masks[i : i + 8] for i in range(0, len(masks) or 1, 8)]
    tables = [subset_sums(chunk, or_) * (256 >> len(chunk)) for chunk in chunks]
    if len(tables) == 1:
        table = tables[0]
        return lambda picked: table[picked & 255]
    def union(picked: int) -> int:
        u = 0
        for table in tables:
            u |= table[picked & 255]
            picked >>= 8
        return u
    return union


def sum_picked(values: Sequence[int], picked: int, op: Callable[[int, int], int] = or_) -> int:
    """The op-sum of the values at the bits of picked, 0 when none is, one
    step per bit set."""
    total = 0
    while picked:
        low = picked & -picked
        total = op(total, values[low.bit_length() - 1])
        picked ^= low
    return total


def generators(alg: FinAlgebra) -> list[int]:
    """Atoms (BA), a basis (Z2VECT) or the join-irreducibles (DL01, JSL0)."""
    match alg:
        case BoolAlg() | VectZ2():
            return [1 << i for i in range(alg.size.bit_length() - 1)]
        case DistLat():
            return list(map(alg.downset_index.__getitem__, alg.principal))
        case JoinSemilattice():
            return list(alg.irreducibles)
    raise TypeError(f"not an output-side algebra: {alg!r}")


def generator_sums(alg: FinAlgebra, images: Sequence[int]) -> list[int]:
    """Per element, the sum (^ for Z2VECT, | otherwise) of the images of the
    generators under it: the morphism into bit vectors sending generator i
    to images[i].  A BA or Z2VECT index is itself such a bit vector; DL01
    and JSL0 read one subset_sums table per 8 join-irreducibles, for all
    elements' downset or below masks at once."""
    match alg:
        case BoolAlg() | VectZ2():
            return subset_sums(images, xor if isinstance(alg, VectZ2) else or_)
        case DistLat() | JoinSemilattice():
            masks = generators_under(alg)[0]
            sums = [0] * alg.size
            for i in range(0, len(images), 8):
                table = subset_sums(images[i : i + 8], or_)
                sums = [s | table[d >> i & 255] for s, d in zip(sums, masks)]
            return sums
    raise TypeError(f"not an output-side algebra: {alg!r}")


def element_of(alg: FinAlgebra, points: Sequence[int]) -> Callable[[int], int | None]:
    """s -> the element of an output-side algebra whose points sum to s:
    points holds an int per generator (generators(alg) order), and an
    element sums those of the generators under it, by | (^ for Z2VECT).
    That element is found when one is and the sums tell elements apart, as
    for the masks of a family (family_generators) or the signatures of a
    morphism: in BA, DL01 and JSL0 as the one whose generators are those
    with points inside s, in Z2VECT by an elimination that keeps no row's
    leading bit in another row.  Otherwise the answer is None, or in BA,
    DL01 and JSL0 possibly an element of another sum."""
    if isinstance(alg, VectZ2):
        rows: list[tuple[int, int]] = []  # (sum, coordinates)
        for i, v in enumerate(points):
            c = 1 << i
            for w, d in rows:
                if v ^ w < v:
                    v, c = v ^ w, c ^ d
            if not v:  # two elements share a sum
                return lambda s: None
            rows = [(w ^ v, d ^ c) if w ^ v < w else (w, d) for w, d in rows]
            rows.append((v, c))

        def solve(s: int) -> int | None:
            x = 0
            for w, d in rows:
                if s ^ w < s:
                    s, x = s ^ w, x ^ d
            return None if s else x

        return solve
    flags = [1 << i for i in range(len(points))]
    under = generators_under(alg)
    element = int if under is None else under[1].get  # a BA element is its mask of atoms
    return lambda s: element(sum(compress(flags, map(eq, map(and_, points, repeat(s)), points))))


def fibres(graph: Sequence[int], n: int) -> list[int]:
    """Per t < n, the mask of the x with graph[x] = t; their unions are preimages."""
    masks = [0] * n
    for x, t in enumerate(graph):
        masks[t] |= 1 << x
    return masks


def to_codes(alg: FinAlgebra, elements: Iterable[int]) -> list[int]:
    """Output-side algebra elements as ints whose | (^ for Z2VECT) is their
    sum: a DL01 element's downset mask, a JSL0 one's mask of the
    meet-irreducibles not above it, a BA or Z2VECT one itself."""
    match alg:
        case DistLat():
            return list(map(alg.downset_masks.__getitem__, elements))
        case JoinSemilattice():
            return list(map(xor, map(alg.above.__getitem__, elements), repeat(alg.above[alg.zero])))
    return list(elements)


def from_codes(alg: FinAlgebra, codes: Iterable[int]) -> Iterator[int]:
    """The elements of codes, inverting to_codes."""
    match alg:
        case DistLat():
            return map(alg.downset_index.__getitem__, codes)
        case JoinSemilattice():
            return map(alg.by_above.__getitem__, map(xor, codes, repeat(alg.above[alg.zero])))
    return iter(codes)


def generators_under(alg: FinAlgebra) -> tuple[Sequence[int], dict[int, int]] | None:
    """Per element, the mask of the generators below it (bit i for the i-th
    of generators(alg)), and the element of each such mask; None where an
    element is that mask (BA, Z2VECT)."""
    match alg:
        case DistLat():
            return alg.downset_masks, alg.downset_index
        case JoinSemilattice():
            return alg.below, alg.by_below
    return None


# ---------------------------------------------------------------------------
# presentations: validation and derived structure


def is_partial_order(alg: FinPoset) -> bool:
    """Whether a square order matrix is reflexive, transitive and antisymmetric,
    in n^2 mask operations on the up-sets U(x) of the y with x <= y: x is in
    U(x), each y in U(x) has U(y) inside it, and no two are equal."""
    n, ids = alg.size, range(alg.size)
    up = [sum(1 << y for y in compress(ids, row)) for row in alg.leq]
    return all(len(row) == n for row in alg.leq) and len(set(up)) == n and all(
        ux >> x & 1 and not any(up[y] & ~ux for y in compress(ids, row))
        for x, (ux, row) in enumerate(zip(up, alg.leq))
    )


def _downsets(below: Sequence[int], most: int) -> list[int] | None:
    """The downset masks of a JI poset given by its principal downsets, or None
    past most of them.  The JIs come in a linear extension, so a downset of
    those seen extends by j exactly when it holds all below j: the count only
    grows, and the work is the count times the number of JIs."""
    masks = [0]
    for j in sorted(range(len(below)), key=lambda j: below[j].bit_count()):
        strict = below[j] ^ 1 << j
        masks += [m | 1 << j for m in masks if m & strict == strict]
        if len(masks) > most:
            return None
    return masks


def jsl_from_masks(family: Iterable[int]) -> tuple[JoinSemilattice, tuple[int, ...]]:
    """Join-semilattice structure on a union-closed family of masks with 0.

    Returns the algebra together with the ascending mask enumeration.
    """
    masks = tuple(sorted(set(family)))
    if masks[:1] != (0,):
        raise ValueError("family must contain the empty mask")
    return jsl_of_sets(masks), masks


def leq(alg: FinAlgebra, x: int, y: int) -> bool:
    """The natural order where one exists; discrete comparison otherwise."""
    match alg:
        case BoolAlg():
            return x & y == x
        case DistLat():
            masks = alg.downset_masks
            return masks[x] & masks[y] == masks[x]
        case JoinSemilattice():
            return alg.below[x] & alg.below[y] == alg.below[x]
        case FinPoset():
            return alg.leq[x][y]
        case _:
            return x == y


# ---------------------------------------------------------------------------
# distinguished objects


# the two-element algebras, one object each, so that the tables derived
# from them are built once and the JSL0 one is compared by identity
_CHAIN = jsl_of_sets((0, 1))
_POINT = FinPoset(((True,),))
_TWO = {VarietyTag.BA: BoolAlg(1), VarietyTag.DL01: _POINT.dual, VarietyTag.JSL0: _CHAIN, VarietyTag.Z2VECT: VectZ2(1)}
_FREE_ON_ONE = {VarietyTag.SET: FinSet(1), VarietyTag.POS: _POINT, VarietyTag.JSL0: _CHAIN, VarietyTag.Z2VECT: VectZ2(1)}


def two_element_algebra(tag: VarietyTag) -> FinAlgebra:
    """The two-element output algebra of the coalgebra side."""
    if tag not in _TWO:
        raise TagMismatchError(f"{tag} is not an output-side variety")
    return _TWO[tag]


def free_on_one(tag: VarietyTag) -> FinAlgebra:
    """The free algebra on one generator of the algebra side."""
    if tag not in _FREE_ON_ONE:
        raise TagMismatchError(f"{tag} is not an algebra-side variety")
    return _FREE_ON_ONE[tag]


# ---------------------------------------------------------------------------
# operations, constants, and morphism validation per tag


def constants(alg: FinAlgebra) -> list[int]:
    match alg:
        case BoolAlg():
            return [0, alg.top]
        case DistLat():
            return [0, alg.size - 1]  # the empty and the full downset
        case JoinSemilattice():
            return [alg.zero]
        case VectZ2():
            return [0]
        case _:
            return []


def validate_morphism(m: FinMorphism) -> bool:
    """Check the preservation laws of the common variety through the
    domain's generators: atoms (BA), a basis (Z2VECT), join-irreducibles
    (DL01, and JSL0 by g(x + j) = g(x) + g(j) for each x and irreducible j,
    as every y is their join), and every pair for POS.  This is exact for
    lawful algebras; a JSL0 table from outside that is not one raises
    ValueError when its masks are read.  A BA, DL01 or Z2VECT map built
    on_generators is checked on its images alone (_images_lawful).
    """
    if m.dom.tag != m.cod.tag:
        raise TagMismatchError(f"morphism between {m.dom.tag} and {m.cod.tag}")
    if m.presented and not isinstance(m.dom, JoinSemilattice):
        return _images_lawful(m)
    g = m.graph
    if len(g) != m.dom.size or g and not (min(g) >= 0 and max(g) < m.cod.size):
        return False
    dom, cod = m.dom, m.cod
    match dom:
        case BoolAlg():
            # the subset sums of disjoint atom images that cover the top
            images = list(map(g.__getitem__, generators(dom)))
            disjoint = sum(map(int.bit_count, images)) == g[dom.top].bit_count()
            return list(g) == generator_sums(dom, images) and disjoint and g[dom.top] == cod.top
        case DistLat():
            # x is the join of the principal downsets of its JIs, and JIs are
            # join-prime, so g preserves joins once it sends each x to the
            # join of those images; x & y is the join of the meets of two
            # principal downsets, so meets then follow from the pairs of JIs
            assert isinstance(cod, DistLat)
            index, below = dom.downset_index, dom.principal
            cod_masks = cod.downset_masks
            if g[0] != 0 or g[dom.size - 1] != cod.size - 1:
                return False
            image = [cod_masks[g[x]] for x in generators(dom)]
            return list(map(cod_masks.__getitem__, g)) == generator_sums(dom, image) and all(
                cod_masks[g[index[below[i] & below[j]]]] == image[i] & image[j]
                for i, j in combinations(range(dom.n_ji), 2)
            )
        case JoinSemilattice():
            # g(x + j) = g(x) + g(j), compared on the codomain's above masks
            assert isinstance(cod, JoinSemilattice)
            up, dom_above, plus = list(map(cod.above.__getitem__, g)), dom.above, dom.by_above.__getitem__
            return g[dom.zero] == cod.zero and all(
                list(map(up.__getitem__, map(plus, map(and_, dom_above, repeat(dom_above[j])))))
                == list(map(and_, up, repeat(up[j])))
                for j in dom.irreducibles
            )
        case VectZ2():
            return list(g) == generator_sums(dom, list(map(g.__getitem__, generators(dom))))
        case FinSet():
            return True
        case FinPoset():
            assert isinstance(cod, FinPoset)
            n = dom.size
            for x in range(n):
                for y in range(n):
                    if dom.leq[x][y] and not cod.leq[g[x]][g[y]]:
                        return False
            return True
    raise TypeError(f"not a FinAlgebra: {dom!r}")


def _images_lawful(m: FinMorphism) -> bool:
    """validate_morphism of a map built on_generators out of a BA, DL01 or
    Z2VECT carrier.  Its graph is the generator sums of its images, so it
    keeps sums and 0 whatever they are: every Z2VECT map of basis images is
    linear, a BA one keeps complements when the atom images are disjoint
    and cover the top, and a DL01 one is a lattice map when it sends the
    top to the top and keeps the meets of pairs of principal downsets (as
    in validate_morphism), its value at JI i being the union of the images
    of the JIs below i."""
    dom, cod, images = m.dom, m.cod, m._images
    count = dom.n_ji if isinstance(dom, DistLat) else dom.size.bit_length() - 1
    if len(images) != count or images and not (min(images) >= 0 and max(images) < cod.size):
        return False
    match dom:
        case BoolAlg():
            return sum(map(int.bit_count, images)) == cod.atoms and reduce(or_, images, 0) == cod.top
        case DistLat():
            below, cod_masks = dom.principal, cod.downset_masks
            union = unions([cod_masks[y] for y in images])
            at = list(map(union, below))
            return union(reduce(or_, below, 0)) == cod_masks[-1] and all(
                union(below[i] & below[j]) == at[i] & at[j] for i, j in combinations(range(dom.n_ji), 2)
            )
    return True


def is_order_reflecting(m: FinMorphism) -> bool:
    """For ordered carriers: the map reflects the natural order (embedding)."""
    n = m.dom.size
    for x in range(n):
        for y in range(n):
            if leq(m.cod, m.graph[x], m.graph[y]) and not leq(m.dom, x, y):
                return False
    return True


# ---------------------------------------------------------------------------
# subalgebra generation and image factorization


def gaussian_basis(vectors: Iterable[int]) -> list[int]:
    """The reduced echelon basis of the span, ascending: no basis vector
    holds another's leading bit.  A span has one such basis, so it does not
    depend on the vectors' order or on which of them span."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = [min(b, b ^ v) for b in basis]
            basis.append(v)
    return sorted(basis)


def mask_lattice_presentation(meets: Sequence[int], cap: int, what: str) -> tuple[DistLat, list[int]]:
    """The lattice of unions of an intersection-closed family of masks with
    0 and the full mask, by its JI poset, and the masks of its JIs.  The
    JIs are the least meets holding each point, each the first holding it in
    ascending order, as no superset of a mask is smaller.  They are
    join-prime, so distinct downsets of them have distinct unions, one per
    element, with no join closure: refuses past cap downsets."""
    ji, unseen = [], reduce(or_, meets, 0)
    for s in sorted(meets):
        if s & unseen:
            ji.append(s)
            unseen &= ~s
    sub = DistLat(tuple(tuple(a & b == a for b in ji) for a in ji))
    # a wide antichain has exponentially many downsets: count them to the cap
    downsets = _downsets(sub.principal, cap)
    if downsets is None:
        raise ResourceExceededError(f"{what} exceeded the carrier cap")
    vars(sub)["downset_masks"] = tuple(sorted(downsets))
    return sub, ji


def family_generators(
    tag: VarietyTag, seeds: Iterable[int], full: int, cap: int, what: str
) -> tuple[FinAlgebra, list[int]]:
    """The algebra of masks generated by seeds under the set operations of
    an output-side variety, with the masks of its generators, in the order
    of generators(algebra): union, intersection and complement in full for
    BA; union, intersection, 0 and full for DL01; union and 0 for JSL0;
    symmetric difference and 0 for Z2VECT.  Each element's mask is the
    generator sum of those under it (generate_family).

    The carrier comes from the generators the closure finds.  BA takes its
    atoms from the seeds' membership signatures and Z2VECT the reduced
    echelon basis of the seeds; both refuse when their span would pass cap.
    DL01 closes under meets with the seeds and reads its carrier off the
    join-irreducibles of those meets (mask_lattice_presentation), its
    elements being their unions; JSL0 closes under joins with the seeds and
    is presented by jsl_from_masks.
    """
    seeds = set(seeds)
    match tag:
        case VarietyTag.BA:
            ordered = sorted(seeds)
            groups: dict[tuple[int, ...], int] = {}
            for j in range(full.bit_length()):
                sig = tuple(s >> j & 1 for s in ordered)
                groups[sig] = groups.get(sig, 0) | 1 << j
            gens, algebra = sorted(groups.values()), BoolAlg
        case VarietyTag.DL01:
            seeds |= {0, full}
            return mask_lattice_presentation(orbit(seeds, [partial(and_, s) for s in seeds], cap, what)[0], cap, what)
        case VarietyTag.JSL0:
            lattice, masks = jsl_from_masks(orbit(seeds | {0}, [partial(or_, s) for s in seeds], cap, what)[0])
            return lattice, list(map(masks.__getitem__, lattice.irreducibles))
        case VarietyTag.Z2VECT:
            gens, algebra = gaussian_basis(seeds), VectZ2
        case _:
            raise TagMismatchError(f"{tag} is not an output-side variety")
    if 1 << len(gens) > cap:
        raise ResourceExceededError(f"{what} exceeded the carrier cap")
    return algebra(len(gens)), gens


def generate_family(
    tag: VarietyTag, seeds: Iterable[int], full: int, cap: int, what: str
) -> tuple[FinAlgebra, tuple[int, ...]]:
    """family_generators, with the mask of each element in place of the
    generators', refused alike.

    A Z2VECT element is numbered by its coordinates over the reduced
    echelon basis, sorted ascending, so its masks come in ascending order:
    no basis vector holds another's leading bit, so the highest coordinate
    in which two elements differ decides which is larger.  Z2VECT thus
    numbers any family of ints closed under ^ by sorting it: the transition
    monoid's maps by their keys and the subdirect product's pairs by their
    codes, full being unread.
    """
    algebra, gens = family_generators(tag, seeds, full, cap, what)
    return algebra, tuple(generator_sums(algebra, gens))


def present_closure(
    amb: FinAlgebra, gens: Iterable[int], cap: int, what: str
) -> tuple[FinAlgebra, FinMorphism, dict[int, int]]:
    """The subalgebra generated by gens and the constants, presented in its
    own right: (algebra, inclusion into amb, ambient index -> subalgebra
    index).  A JSL0 closure that is all of amb, as it is when the
    generators hold every join-irreducible, is amb itself.  Refuses when it
    would hold more than cap elements."""
    seeds = set(gens) | set(constants(amb))
    match amb:
        case BoolAlg() | VectZ2():
            sub, incl = generate_family(amb.tag, seeds, amb.size - 1, cap, what)
        case DistLat():
            masks = amb.downset_masks
            sub, family = generate_family(amb.tag, (masks[x] for x in seeds), masks[-1], cap, what)
            incl = tuple(map(amb.downset_index.__getitem__, family))
        case JoinSemilattice() if seeds >= set(amb.irreducibles):  # every element is a join of them
            if amb.size > cap:
                raise ResourceExceededError(f"{what} exceeded the carrier cap")
            sub, incl = amb, tuple(range(amb.size))
        case JoinSemilattice():
            # x as the set of the meet-irreducibles not above it: joins are unions
            above, element, full = amb.above, amb.by_above, amb.above[amb.zero]
            steps = [lambda x, m=above[g]: element[above[x] & m] for g in seeds]
            incl = tuple(sorted(orbit(seeds, steps, cap, what)[0]))
            sub = jsl_of_sets([full ^ above[x] for x in incl])
        case FinSet():  # SET and POS have no operations
            incl = tuple(sorted(orbit(seeds, [], cap, what)[0]))
            sub = FinSet(len(incl))
        case FinPoset():
            incl = tuple(sorted(orbit(seeds, [], cap, what)[0]))
            sub = FinPoset(tuple(tuple(amb.leq[x][y] for y in incl) for x in incl))
        case _:
            raise TypeError(f"not a FinAlgebra: {amb!r}")
    return sub, FinMorphism(sub, amb, incl), {v: i for i, v in enumerate(incl)}


def present_subset(
    amb: FinAlgebra, subset: Iterable[int]
) -> tuple[FinAlgebra, FinMorphism, dict[int, int]]:
    """Present a subalgebra, given as its elements, in its own right.

    Returns (algebra, inclusion into amb, ambient index -> subset index).
    Raises ValueError unless the subset holds the constants and is closed
    under the variety operations.
    """
    subset = set(subset)
    if all(0 <= x < amb.size for x in subset):
        try:
            presented = present_closure(amb, subset, len(subset), "subset closure")
        except ResourceExceededError:
            pass
        else:
            if len(presented[2]) == len(subset):
                return presented
    raise ValueError("subset is not a subalgebra")


# ---------------------------------------------------------------------------
# JSON shapes


def algebra_to_json(alg: FinAlgebra) -> dict:
    match alg:
        case BoolAlg():
            return {"tag": "BA", "atoms": alg.atoms}
        case DistLat():
            return {"tag": "DL01", "ji_order": [list(row) for row in alg.ji_leq]}
        case JoinSemilattice():
            return {
                "tag": "JSL0",
                "size": alg.size,
                "join": [list(row) for row in alg.join],
                "zero": alg.zero,
            }
        case VectZ2():
            return {"tag": "Z2VECT", "dim": alg.dim}
        case FinSet():
            return {"tag": "SET", "size": alg.size}
        case FinPoset():
            return {"tag": "POS", "order": [list(row) for row in alg.leq]}
    raise TypeError(f"not a FinAlgebra: {alg!r}")
