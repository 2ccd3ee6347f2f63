"""Finite alphabet-generated monoids with carrier-compatible multiplication.

Depending on the carrier variety these are plain monoids (SET), ordered
monoids (POS), idempotent semirings (JSL0) or algebras over the two-element
field (Z2VECT).  Elements of the free such monoid have normal forms: a word
for SET/POS, a finite language for JSL0, and a finite language read as a
characteristic vector for Z2VECT, where products keep a word exactly when it
has an odd number of factorizations.

The workhorse construction is the transition monoid: the closure of the
letter actions of a reachable algebra under composition and the pointwise
carrier operations.  Multiplication follows reading order, so evaluating a
word left to right is a monoid homomorphism.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable

from .automata import DAlgebra, reachable_part
from .config import DEFAULT_LIMITS, Limits
from .errors import NotReachableError, ResourceExceededError, TagMismatchError
from .languages import dot_digraph
from .varieties import (
    FinAlgebra,
    FinMorphism,
    FinPoset,
    FinSet,
    JoinSemilattice,
    VarietyTag,
    VectZ2,
    _Table,
    algebra_to_json,
    cayley_columns,
    constants,
    from_codes,
    generators,
    is_order_reflecting,
    is_partial_order,
    jsl_of_sets,
    leq,
    orbit,
    to_codes,
    validate_morphism,
)

D_TAGS = (VarietyTag.SET, VarietyTag.POS, VarietyTag.JSL0, VarietyTag.Z2VECT)
LINEARISH = (VarietyTag.JSL0, VarietyTag.Z2VECT)


# ---------------------------------------------------------------------------
# free normal forms


@dataclass(frozen=True)
class FreeElement:
    """Normal form of a free-monoid element: one word, or a finite language."""

    tag: VarietyTag
    words: tuple[str, ...]

    def __post_init__(self):
        if self.tag not in D_TAGS:
            raise TagMismatchError(f"{self.tag} is not an algebra-side variety")
        if self.tag in (VarietyTag.SET, VarietyTag.POS):
            if len(self.words) != 1:
                raise ValueError("word-shaped normal forms hold exactly one word")
        elif list(self.words) != sorted(set(self.words)):
            raise ValueError("language-shaped normal forms are sorted and duplicate-free")


def free_unit(tag: VarietyTag) -> FreeElement:
    return FreeElement(tag, ("",))


def free_word(tag: VarietyTag, word: str) -> FreeElement:
    # for language-shaped tags a single word is the singleton language
    return FreeElement(tag, (word,))


def free_language(tag: VarietyTag, words: Iterable[str]) -> FreeElement:
    if tag not in LINEARISH:
        raise TagMismatchError(f"{tag} normal forms are single words")
    return FreeElement(tag, tuple(sorted(set(words))))


def free_mult(tag: VarietyTag, x: FreeElement, y: FreeElement) -> FreeElement:
    if x.tag != tag or y.tag != tag:
        raise TagMismatchError("free elements of the wrong variety")
    match tag:
        case VarietyTag.SET | VarietyTag.POS:
            return FreeElement(tag, (x.words[0] + y.words[0],))
        case VarietyTag.JSL0:
            return FreeElement(tag, tuple(sorted({u + v for u in x.words for v in y.words})))
        case VarietyTag.Z2VECT:
            xs, ys = set(x.words), set(y.words)
            out = []
            for w in {u + v for u in xs for v in ys}:
                count = sum(1 for i in range(len(w) + 1) if w[:i] in xs and w[i:] in ys)
                if count % 2 == 1:
                    out.append(w)
            return FreeElement(tag, tuple(sorted(out)))
    raise TagMismatchError(f"{tag} is not an algebra-side variety")


# ---------------------------------------------------------------------------
# finite alphabet-generated monoids


def carrier_add(carrier: FinAlgebra, x: int, y: int) -> int:
    """The additive carrier operation where one exists (join or vector sum)."""
    match carrier:
        case JoinSemilattice():
            return carrier.by_above[carrier.above[x] & carrier.above[y]]
        case VectZ2():
            return x ^ y
    raise TagMismatchError(f"{carrier.tag} has no additive structure")


def _map_adder(carrier: FinAlgebra) -> Callable[[Sequence[int], Sequence[int]], tuple[int, ...]]:
    """The pointwise sum f + g of two maps into a JSL0 or Z2VECT carrier,
    given and returned as graphs."""
    if isinstance(carrier, VectZ2):
        ids = tuple(range(carrier.size))  # one int object per element, however many sums hold it
        return lambda f, g: tuple(map(ids.__getitem__, map(operator.xor, f, g)))
    assert isinstance(carrier, JoinSemilattice)
    if carrier.size == 1:  # itemgetter of one index returns no tuple
        return lambda f, g: f
    above, element, gather = carrier.above, carrier.by_above, operator.itemgetter
    return lambda f, g: gather(*map(operator.and_, gather(*f)(above), gather(*g)(above)))(element)


@dataclass(frozen=True)
class SigmaMonoid:
    """An alphabet-generated monoid: mult[x][y] is the product xy of the
    elements x and y, gen[a] the element of letter a.

    transition_monoid, and subdirect_product of two lawful monoids, hold
    their table as a _Table, built on first read, and set their letters'
    rows and columns apart; the round trip, quotient_leq and, on lawful
    monoids, sigma_monoid_iso read only those.  Any other monoid reads them
    off its table.  Equality and hashing compare the tables whether or not
    they have been read.  A transition monoid also keeps its evaluation,
    f -> f(init), a map from its carrier onto the algebra's."""

    carrier: FinAlgebra
    alphabet: tuple[str, ...]
    unit: int
    mult: Sequence[Sequence[int]]
    gen: tuple[int, ...]
    # set only by correspondence.piece_to_monoid and by subdirect_product of
    # two lawful monoids; constructors and replace leave it False
    lawful: bool = field(default=False, init=False, repr=False, compare=False)
    # set only by transition_monoid
    evaluation: FinMorphism | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.carrier.size

    @cached_property
    def letter_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per letter a, its row: y -> ay."""
        return tuple(tuple(self.mult[g]) for g in self.gen)

    @cached_property
    def letter_cols(self) -> tuple[tuple[int, ...], ...]:
        """Per letter a, its column: x -> xa."""
        return tuple(tuple(map(operator.itemgetter(g), self.mult)) for g in self.gen)


# ---------------------------------------------------------------------------
# transition monoids


def transition_monoid(
    a: DAlgebra,
    reverse_composition: bool = False,
    limits: Limits = DEFAULT_LIMITS,
) -> SigmaMonoid:
    """Closure of the letter actions under composition and pointwise carrier
    operations, multiplied in reading order.

    With reverse_composition the product applies its second factor first;
    this variant is used at the duality boundary, where the dual letter
    actions act like left multiplications and the reading order has to be
    restored.

    The letter actions are carrier morphisms, so composition is bilinear and
    the closure is the additive span of the word images.  The word images
    and each letter's row, y -> ay, and column, x -> xa, on them come from
    cayley_columns over the letters acting on the left: a row entry is an
    edge of the left Cayley graph and a column entry follows its tree,
    (bp)a = b(pa).  For JSL0/Z2VECT every sum is a smaller sum plus a word
    image.  The sums close over one int per map, so that a sum is one
    operation: the codes (to_codes) of the images of the carrier's
    generators side by side, added by | (^ for Z2VECT), the zero map's key
    being 0.  Those keys also present the monoid's JSL0 carrier
    (jsl_of_sets) and, sorted, number its Z2VECT elements by their
    coordinates over a basis (generate_family), so there a sum is the ^ of
    the numbers; SET, POS and JSL0 elements are numbered by their sorted
    graphs.

    Along the sum tree each column and row take one sum per element,
    (l + w)a = la + wa and a(l + w) = al + aw.  The full table (mult, a
    _Table) is built only when read, row by row along that tree, (bx)y =
    b(xy), and then the sums, (l + w)y = ly + wy.  The round
    trip reads only the letters, so correspond builds no n x n table.

    The images of the initial state under the closed family are its
    reachable part (the letter orbit, and its sums for JSL0/Z2VECT), so the
    algebra is generated exactly when they cover the carrier.  The monoid
    keeps them as its evaluation e(f) = f(init), onto the algebra's
    carrier; with reverse_composition, e(unit) = init and e(ax) =
    alpha_a(e(x)).  reachable_part runs only before the closure here is
    refused, where an algebra that is not generated is reported as such.
    The cap bounds the monoid it returns, the identity and the letters
    included.
    """
    if a.carrier.tag not in D_TAGS:
        raise TagMismatchError(f"{a.carrier.tag} is not an algebra-side variety")

    def grow(closure: Callable, seeds, moves: list) -> tuple:
        try:
            return closure(seeds, moves, limits.max_carrier, "transition monoid")
        except ResourceExceededError:
            if reachable_part(a, limits).size != a.size:
                raise NotReachableError("algebra is not generated by its initial state")
            raise

    carrier = a.carrier
    n = carrier.size
    linear = carrier.tag in LINEARISH
    letters = [m.graph for m in a.alpha]
    # a step puts its letter before a map in reading order: the letter acts
    # first, or last with reverse_composition
    if reverse_composition:
        steps = [lambda f, g=g: tuple(map(g.__getitem__, f)) for g in letters]
    else:
        steps = [lambda f, g=g: tuple(map(f.__getitem__, g)) for g in letters]

    # word images: the orbit of the identity over the left Cayley graph,
    # with each letter's row and column on them
    graphs, word_rows, word_cols, tree = grow(cayley_columns, tuple(range(n)), steps)
    n_words = len(graphs)
    keys = graphs
    at_init = [f[a.init] for f in graphs]

    # sums, each an earlier element plus a word image: ids after the words
    # are the zero (unless it is a word image: the empty sum, reached from
    # the unit by a constant step and counted like any sum) and then the
    # sums, in order
    zero = 0
    sums: list[tuple[int, int]] = []
    if linear:
        code = to_codes(carrier, range(n))
        plus = operator.xor if isinstance(carrier, VectZ2) else operator.or_
        points, width = generators(carrier), max(code).bit_length()

        def key(f: tuple[int, ...]) -> int:
            return sum(code[f[p]] << i * width for i, p in enumerate(points))

        keys = list(map(key, graphs))
        keys, _, add_tree = grow(orbit, keys, [lambda f: 0] + [partial(plus, w) for w in keys])
        zero = keys.index(0)
        sums = [(x, s - 1) for x, s in add_tree[n_words:] if s]
        if zero >= n_words:
            at_init += constants(carrier)
        for left, w in sums:
            at_init.append(carrier_add(carrier, at_init[left], at_init[w]))
    if len(set(at_init)) != n:
        raise NotReachableError("algebra is not generated by its initial state")
    size = len(keys)

    if isinstance(carrier, JoinSemilattice):  # full graphs, joined once along the sum tree, to number them
        graphs += [(carrier.zero,) * n] * (zero >= n_words)
        join_maps = _map_adder(carrier)
        for left, w in sums:
            graphs.append(join_maps(graphs[left], graphs[w]))
    order = sorted(range(size), key=(keys if isinstance(carrier, VectZ2) else graphs).__getitem__)
    pos = [0] * size  # order[pos[x]] = x
    for rank, x in enumerate(order):
        pos[x] = rank

    match carrier:
        case FinSet():
            monoid_carrier = FinSet(size)
        case FinPoset():
            funcs = [graphs[i] for i in order]
            monoid_carrier = FinPoset(
                tuple(
                    tuple(all(carrier.leq[f[q]][g[q]] for q in range(n)) for g in funcs)
                    for f in funcs
                )
            )
        case JoinSemilattice():
            monoid_carrier = jsl_of_sets([keys[x] for x in order])
        case VectZ2():
            monoid_carrier = VectZ2(size.bit_length() - 1)

    def spread(on_words: list[int]) -> tuple[int, ...]:
        """An additive map into the monoid, given on the word images in
        their order (and extended there), on every element in the final
        numbering: the zero goes to the zero, l + w to f(l) + f(w)."""
        values = on_words
        if linear:
            values += [pos[zero]] * (zero >= n_words)
            for left, w in sums:
                values.append(carrier_add(monoid_carrier, values[left], values[w]))
        return tuple(map(values.__getitem__, order))

    cols = [spread(list(map(pos.__getitem__, col))) for col in word_cols]
    rows = [spread(list(map(pos.__getitem__, row))) for row in word_rows]
    gens = tuple(pos[col[0]] for col in word_cols)
    unit = pos[0]
    words = tuple(pos[:n_words])

    def table() -> tuple[tuple[int, ...], ...]:
        built: list = [None] * size
        built[unit] = tuple(range(size))
        for x, (parent, ai) in zip(words[1:], tree):
            built[x] = tuple(map(rows[ai].__getitem__, built[words[parent]]))
        if linear:
            add = _map_adder(monoid_carrier)
            if zero >= n_words:
                built[pos[zero]] = (pos[zero],) * size
            for s, (left, w) in enumerate(sums, size - len(sums)):
                built[pos[s]] = add(built[pos[left]], built[pos[w]])
        return tuple(built)

    monoid = SigmaMonoid(monoid_carrier, a.alphabet, unit, _Table(table, size), gens)
    vars(monoid).update(
        letter_rows=tuple(rows),
        letter_cols=tuple(cols),
        evaluation=FinMorphism(monoid_carrier, carrier, tuple(map(at_init.__getitem__, order))),
    )
    return monoid


# ---------------------------------------------------------------------------
# validation


def validate_monoid(m: SigmaMonoid, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Monoid axioms, bilinearity and alphabet-generation, through the
    generating structure.

    Checked in turn: table shapes and index ranges; the unit; for JSL0, that
    the join table is a semilattice (its masks give it back), and for POS,
    that the order is a partial order (is_partial_order); that the constants
    absorb, x0 = 0 = 0x; that the translations x -> xa and y -> ay by each
    letter are carrier morphisms; Light's associativity test on the letters,
    x(ay) = (xa)y; and that the unit reaches every element under right
    letters and, for JSL0/Z2VECT, then under sums with word images, in an
    orbit whose tree makes each sum s = l + w, with row s = row l + row w.

    This is exact.  Light's test gives x(wy) = (xw)y for each word image
    w = pa, by induction: x(p(ay)) = (xp)(ay) = ((xp)a)y.  So w's
    translations are composites of letter ones, xw = (xp)a and wy = p(ay),
    hence additive, like the zero's constant ones.  By the row checks each
    left translation is a sum of additive ones, and as each y is a sum of
    word images v, x -> xy is the sum of the additive x -> xv: the columns
    need no check.  With every translation additive, the elements b with
    x(by) = (xb)y for all x, y, the word images and the zero among them, are
    closed under sums, as x((b + c)y) = x(by) + x(cy) = (x(b + c))y, so they
    are all elements.  POS has no sums, so its letters are enough.
    A lawful monoid passes every check, each quadratic in the size times the
    letters or the join-irreducibles (validate_morphism).
    """
    n = m.size
    mult = list(map(tuple, m.mult))
    if len(mult) != n or any(len(row) != n for row in mult):
        return False
    if not 0 <= m.unit < n or len(m.gen) != len(m.alphabet):
        return False
    if any(not 0 <= g < n for g in m.gen) or any(min(row) < 0 or max(row) >= n for row in mult):
        return False
    if any(mult[m.unit][x] != x or mult[x][m.unit] != x for x in range(n)):
        return False
    carrier = m.carrier
    if carrier.tag not in D_TAGS:
        raise TagMismatchError(f"{carrier.tag} is not an algebra-side variety")
    if isinstance(carrier, JoinSemilattice):
        try:
            carrier.irreducibles
        except ValueError:  # the table's masks do not give it back
            return False
    if isinstance(carrier, FinPoset) and not is_partial_order(carrier):
        return False
    zeros = constants(carrier)
    if any(mult[z] != (z,) * n or any(row[z] != z for row in mult) for z in zeros):
        return False
    columns = [tuple(row[g] for row in mult) for g in m.gen]  # x -> xa per letter
    translations = [*columns, *map(mult.__getitem__, m.gen)]
    if not all(validate_morphism(FinMorphism(carrier, carrier, f)) for f in translations):
        return False
    if not all(tuple(map(row.__getitem__, mult[g])) == mult[row[g]] for g in set(m.gen) for row in mult):
        return False
    cap = limits.max_carrier
    elements = words = orbit([m.unit, *m.gen, *zeros], [c.__getitem__ for c in columns], cap, "generation closure")[0]
    if carrier.tag in LINEARISH:
        elements, _, tree = orbit(words, [partial(carrier_add, carrier, w) for w in words], cap, "generation closure")
        add, sums = _map_adder(carrier), zip(elements[len(words):], tree[len(words):])
        if any(add(mult[elements[left]], mult[words[w]]) != mult[s] for s, (left, w) in sums):
            return False
    return len(elements) == n


# ---------------------------------------------------------------------------
# quotient order, subdirect products, pseudovarieties


def _check_compatible(m1: SigmaMonoid, m2: SigmaMonoid) -> None:
    if m1.carrier.tag != m2.carrier.tag:
        raise TagMismatchError(f"{m1.carrier.tag} and {m2.carrier.tag} monoids")
    if m1.alphabet != m2.alphabet:
        raise ValueError("monoids over different alphabets")


def _subdirect_pairs(m1: SigmaMonoid, m2: SigmaMonoid, limits: Limits) -> list[tuple[int, int]]:
    """Image of the paired evaluation: word pairs, then the additive span.

    Every element of the span is a sum of word pairs, so closing under
    "+ word pair" alone reaches it.  The sums close over the int codes that
    subdirect_product presents the pairs by (_pair_codes), so that a sum is
    one | or ^.
    """
    _check_compatible(m1, m2)
    cap = limits.max_carrier
    letters = [lambda p, c=c, d=d: (c[p[0]], d[p[1]]) for c, d in zip(m1.letter_cols, m2.letter_cols)]
    pairs = orbit([(m1.unit, m2.unit)], letters, cap, "subdirect closure")[0]
    if m1.carrier.tag in LINEARISH:
        encode, decode, plus = _pair_codes(m1.carrier, m2.carrier)
        words = encode(pairs)
        pairs = decode(orbit([*words, 0], [partial(plus, w) for w in words], cap, "subdirect closure")[0])
    return sorted(pairs)


def _pair_codes(c1: FinAlgebra, c2: FinAlgebra) -> tuple[Callable, Callable, Callable[[int, int], int]]:
    """(encode, decode, plus) for lists of pairs of elements of two JSL0 or
    Z2VECT carriers as ints, the pair of zeros as 0: a pair as its first
    factor's code (to_codes) shifted past its second's, added by
    | (^ for Z2VECT)."""
    linear = isinstance(c2, VectZ2)
    shift = c2.dim if linear else c2.above[c2.zero].bit_length()
    low = ~(-1 << shift)

    def encode(pairs: Sequence[tuple[int, int]]) -> list[int]:
        ones, twos = to_codes(c1, [p for p, _ in pairs]), to_codes(c2, [q for _, q in pairs])
        return [p << shift | q for p, q in zip(ones, twos)]

    def decode(codes: Sequence[int]) -> list[tuple[int, int]]:
        return list(zip(from_codes(c1, [c >> shift for c in codes]), from_codes(c2, [c & low for c in codes])))

    return encode, decode, operator.xor if linear else operator.or_


def subdirect_product(m1: SigmaMonoid, m2: SigmaMonoid, limits: Limits = DEFAULT_LIMITS) -> SigmaMonoid:
    """The join in the quotient order: the monoid generated by paired letters
    inside the product.

    The product of two lawful monoids is a submonoid and subalgebra of their
    direct product, so it is lawful too: its table is built on first read,
    and its letters' rows and columns pair the factors'."""
    pairs = _subdirect_pairs(m1, m2, limits)
    c1, c2 = m1.carrier, m2.carrier
    tag = c1.tag
    match tag:
        case VarietyTag.SET:
            carrier: FinAlgebra = FinSet(len(pairs))
        case VarietyTag.POS:
            order = [[leq(c1, p[0], q[0]) and leq(c2, p[1], q[1]) for q in pairs] for p in pairs]
            carrier = FinPoset(tuple(map(tuple, order)))
        case VarietyTag.JSL0:
            # a pair by its code (_pair_codes), whose sums are unions
            carrier = jsl_of_sets(_pair_codes(c1, c2)[0](pairs))
        case VarietyTag.Z2VECT:
            # the pairs are sorted as their codes are, so each is numbered by its
            # coordinates over a basis (generate_family), and sums are ^
            carrier = VectZ2(len(pairs).bit_length() - 1)
        case _:
            raise TagMismatchError(f"{tag} is not an algebra-side variety")
    index = {p: i for i, p in enumerate(pairs)}

    def table() -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(index[m1.mult[p][r], m2.mult[q][s]] for r, s in pairs) for p, q in pairs)

    lawful = m1.lawful and m2.lawful
    mult = _Table(table, len(pairs)) if lawful else table()
    gens = tuple(index[p] for p in zip(m1.gen, m2.gen))
    product = SigmaMonoid(carrier, m1.alphabet, index[m1.unit, m2.unit], mult, gens)
    if lawful:
        object.__setattr__(product, "lawful", True)
        for name in ("letter_rows", "letter_cols"):
            lines = zip(getattr(m1, name), getattr(m2, name))
            vars(product)[name] = tuple(tuple(index[one[p], two[q]] for p, q in pairs) for one, two in lines)
    return product


def quotient_leq(m1: SigmaMonoid, m2: SigmaMonoid, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Whether m1 is a quotient of m2 as alphabet-generated monoids.

    Decided on the subdirect product of (m2, m1): a generator-preserving map
    m2 -> m1 exists exactly when the first projection is injective there (and
    order-reflecting for ordered carriers).
    """
    _check_compatible(m1, m2)
    pairs = _subdirect_pairs(m2, m1, limits)
    firsts = [p[0] for p in pairs]
    if len(set(firsts)) != len(firsts):
        return False
    if m1.carrier.tag is VarietyTag.POS:
        for p in pairs:
            for q in pairs:
                if leq(m2.carrier, p[0], q[0]) and not leq(m1.carrier, p[1], q[1]):
                    return False
    return True


def sigma_monoid_iso(m1: SigmaMonoid, m2: SigmaMonoid) -> FinMorphism | None:
    """The generator-preserving isomorphism, if one exists.

    Generation forces the candidate: an isomorphism maps each element to its
    partner in the image of the paired evaluation (the subdirect closure), so
    that image must be the graph of a bijection, and no search is involved.
    The closure stops as soon as it outgrows m1.

    The image commutes with right letters and with sums of word images, so
    on lawful monoids it commutes with every product: x(pa) = (xp)a and
    x(l + w) = xl + xw, by induction along the words and then the sums.
    Only monoids built from tables have their products checked pair by pair.
    """
    if m1.size != m2.size:
        return None
    try:
        pairs = _subdirect_pairs(m1, m2, Limits(max_carrier=m1.size))
    except (TagMismatchError, ValueError, ResourceExceededError):
        return None
    mapping = dict(pairs)
    if not len(pairs) == len(mapping) == len(set(mapping.values())) == m1.size:
        return None
    morphism = FinMorphism(m1.carrier, m2.carrier, tuple(mapping[x] for x in range(m1.size)))
    if not validate_morphism(morphism):
        return None
    if m1.carrier.tag is VarietyTag.POS and not is_order_reflecting(morphism):
        return None
    if not (m1.lawful and m2.lawful):
        for x in range(m1.size):
            for y in range(m1.size):
                if morphism.graph[m1.mult[x][y]] != m2.mult[morphism.graph[x]][morphism.graph[y]]:
                    return None
    return morphism


# ---------------------------------------------------------------------------
# JSON and DOT


def monoid_to_json(m: SigmaMonoid) -> dict:
    return {
        "tag": m.carrier.tag.value,
        "carrier": algebra_to_json(m.carrier),
        "unit": m.unit,
        "mult": [list(row) for row in m.mult],
        "gen": {a: m.gen[ai] for ai, a in enumerate(m.alphabet)},
    }


def monoid_to_dot(m: SigmaMonoid) -> str:
    return dot_digraph(
        "cayley",
        [(f"e{x}", "doublecircle" if x == m.unit else "circle", str(x)) for x in range(m.size)],
        [(f"e{x}", f"e{col[x]}", a) for x in range(m.size) for a, col in zip(m.alphabet, m.letter_cols)],
    )
