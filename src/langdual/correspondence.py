"""The local correspondence between derivative-closed language algebras and
alphabet-generated monoids.

A piece (a finite labeled subautomaton of the language automaton closed under
both derivatives and the variety operations) dualizes to an algebra whose
letter actions behave like left multiplications; composing evaluations
against reading order therefore recovers the multiplication in word order.
That single reversal, applied once in each direction, makes the two maps
mutually inverse:

  piece  ->  dual algebra  ->  transition monoid (reversed composition)
  monoid ->  left-multiplication algebra  ->  dual coalgebra

Label-set inclusion of pieces then coincides with the quotient order of the
monoids, and joins of pieces with subdirect products; one refinement of two
pieces side by side (joint_quotient) decides both.  Labels (state
languages) are computed on first read.

Neither direction refines an automaton unless it refuses.  A piece is closed
under right derivatives exactly when evaluation at the initial state is an
isomorphism from its transition monoid onto its dual algebra, so
piece_to_monoid reads closure off the monoid it builds.  A round trip
dualizes the monoid once and pairs the returned states with the piece's by
the representative words of the monoid's word images that they accept, as
an isomorphism must, read off the images of the carriers' generators
(atoms, a basis or join-irreducibles) only; the structure check certifies
the pairing on those images, so a boolean or lattice round trip builds no
table as large as its carrier.  Only reports and
a refused round trip's counterexample compute labels.  The transition
monoid of a lawful algebra is an alphabet-generated monoid, so
piece_to_monoid marks the monoids it builds lawful and the round trip does
not validate them again; a piece keeps the monoid it dualized to.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import compress, repeat
from operator import and_, attrgetter
from typing import Iterable, Sequence

from .automata import (
    CCoalgebra,
    DAlgebra,
    coalgebra_to_dalgebra,
    dalgebra_to_coalgebra,
    is_rqc_closed,
    joint_quotient,
    reachable_part,
    rqc_closure,
    rqc_join,
)
from .config import DEFAULT_LIMITS, Limits
from .duality import DualityTag, IsoWitness, c_tag, d_tag
from .errors import CorrespondenceError, NotRqcClosedError, ResourceExceededError, TagMismatchError
from .languages import LanguageId, block_language, language_to_regex
from .monoids import (
    SigmaMonoid,
    monoid_to_json,
    quotient_leq,
    sigma_monoid_iso,
    transition_monoid,
    validate_monoid,
)
from .varieties import (
    FinMorphism,
    FinPoset,
    VectZ2,
    element_of,
    generators,
    generators_under,
    is_partial_order,
    validate_morphism,
)


def piece_to_monoid(d: DualityTag, piece: CCoalgebra, limits: Limits = DEFAULT_LIMITS) -> SigmaMonoid:
    """Dualize and read off the transition monoid T in word order, refusing a
    piece that is not closed under right derivatives.

    Closure is read off T: the piece is closed exactly when evaluation at the
    initial state, e(f) = f(init), is an isomorphism T -> A onto the dual
    algebra A in the variety.  e preserves the pointwise operations, and it
    is onto because A is generated (reachable_part): every element is a term
    in the images init·w = e(w).  So e is an isomorphism exactly when
    |T| = |A| and, for POS, e reflects the order.

    This is exact.  The labels are closed under a^-1 exactly when some
    carrier endomorphism r of the piece commutes with the letter actions and
    has out·r = out·gamma_a, as then state r(s) accepts L(s)a^-1; dually,
    when some endomorphism rho of A commutes with the letter actions and has
    rho(init) = alpha_a(init).  If e is an isomorphism, rho is right
    multiplication by a carried over by e: a carrier morphism, monotone for
    POS as T's order is pointwise, commuting with left multiplications.
    Conversely, given each rho_a, each element of A is rho(init) for a
    composite or sum rho of them, as rho_a(init) = alpha_a(init) and they
    commute with the letters; so f(init) = g(init) gives f(x) = rho(f(init))
    = rho(g(init)) = g(x), and for POS f(init) <= g(init) gives f <= g
    likewise.

    A closed piece has |T| = |A|, so the closure of T stops at |A|.  When a
    cap refuses on the way, is_rqc_closed decides which error wins: a piece
    that is not closed is refused as such, as when closure was checked
    before anything was built.  So only a refusal refines the piece beside
    its shifts.

    T is marked lawful when A is: its carrier obeys its laws (a JSL0 dual
    swaps the masks of the piece's carrier, which present a lattice or are
    refused; a POS one must be a partial order; SET and Z2VECT ones always
    are), and its letters are carrier morphisms, as dual maps are by
    construction and validate_morphism confirms, exactly on a lawful
    carrier.  Then T's elements are carrier morphisms, closed under
    composition and the pointwise operations and generated by the letters,
    so T is an alphabet-generated monoid and validate_monoid accepts it.

    The piece keeps T: c_tag is injective, so the piece fixes d, and on a
    closed piece every closure here, seeds included, holds at most
    |T| = |A| elements, so every cap of at least |T| builds this T and
    every smaller one refuses.  Under a smaller cap the call runs in full,
    so every refusal is computed.
    """
    if piece.carrier.tag != c_tag(d):
        raise TagMismatchError(f"piece carrier {piece.carrier.tag} does not match {d}")
    if (kept := vars(piece).get("_monoid")) is not None and kept.size <= limits.max_carrier:
        return kept
    try:
        algebra = reachable_part(coalgebra_to_dalgebra(d, piece), limits)
        capped = replace(limits, max_carrier=min(algebra.size, limits.max_carrier))
        monoid = transition_monoid(algebra, reverse_composition=True, limits=capped)
    except ResourceExceededError:
        if not is_rqc_closed(piece):
            raise NotRqcClosedError("piece is not closed under right derivatives") from None
        raise
    if monoid.size != algebra.size or not _evaluation_reflects_order(monoid, algebra):
        raise NotRqcClosedError("piece is not closed under right derivatives")
    if (not isinstance(algebra.carrier, FinPoset) or is_partial_order(algebra.carrier)) and all(
        map(validate_morphism, algebra.alpha)
    ):
        object.__setattr__(monoid, "lawful", True)
    vars(piece)["_monoid"] = monoid
    return monoid


def _evaluation_reflects_order(monoid: SigmaMonoid, algebra: DAlgebra) -> bool:
    """For a POS carrier, whether the bijection e(f) = f(init) reflects the
    order; e is read off a search over left multiplication, e(unit) = init
    and e(g·x) = alpha_g(e(x)), along the monoid's word images."""
    if not isinstance(algebra.carrier, FinPoset):
        return True
    elements, tree = monoid.word_images
    at = [algebra.init] * monoid.size
    for x, (parent, ai) in zip(elements[1:], tree):
        at[x] = algebra.alpha[ai].graph[at[elements[parent]]]
    leq = algebra.carrier.leq
    return all(tuple(row) == tuple(map(leq[at[x]].__getitem__, at)) for x, row in enumerate(monoid.carrier.leq))


def monoid_to_piece(d: DualityTag, m: SigmaMonoid, limits: Limits = DEFAULT_LIMITS) -> CCoalgebra:
    """Dualize the left-multiplication algebra of the monoid."""
    return dalgebra_to_coalgebra(d, _left_algebra(d, m, limits))


def _left_algebra(d: DualityTag, m: SigmaMonoid, limits: Limits) -> DAlgebra:
    """The left-multiplication algebra of a valid monoid.  A monoid that
    piece_to_monoid marked lawful and that fits the cap is trusted, as
    validate_monoid would accept it without refusing; any other is checked."""
    if m.carrier.tag != d_tag(d):
        raise TagMismatchError(f"monoid carrier {m.carrier.tag} does not match {d}")
    if not (m.lawful and m.size <= limits.max_carrier) and not validate_monoid(m, limits):
        raise ValueError("input is not a valid alphabet-generated monoid")
    left_actions = tuple(FinMorphism(m.carrier, m.carrier, row) for row in m.letter_rows)
    return DAlgebra(m.carrier, m.alphabet, left_actions, m.unit)


def _structure_iso(p1: CCoalgebra, p2: CCoalgebra, forward: FinMorphism, backward: FinMorphism) -> IsoWitness:
    """forward and backward, checked to be mutually inverse carrier
    isomorphisms between p1 and p2 that commute with the structure; p2 is
    the automaton a round trip dualizes back, whose maps are carrier
    morphisms by construction.  forward.backward is the identity on p2, so
    forward is onto, one-to-one between carriers of one size, and backward
    is its inverse, a morphism too.  When forward, backward and p1's maps
    are built on_generators, maps are compared on their images: a composite
    is given by the images of the first map's images under the second,
    exactly as the second, forward or a map of p2, keeps sums, and maps
    that agree on the generators are equal."""
    if not validate_morphism(forward):
        raise CorrespondenceError("label bijection is not an isomorphism of carriers")
    presented = all(m.presented for m in (forward, backward, p1.out, *p1.gamma))
    values = attrgetter("images" if presented else "graph")
    ones = tuple(generators(p2.carrier) if presented else range(p2.size))

    def then(f: FinMorphism, g: FinMorphism) -> tuple[int, ...]:
        return tuple(g.on(values(f)))

    if p1.size != p2.size or then(backward, forward) != ones:
        raise CorrespondenceError("label bijection is not an isomorphism of carriers")
    if any(then(forward, g2) != then(g1, forward) for g1, g2 in zip(p1.gamma, p2.gamma)):
        raise CorrespondenceError("label bijection does not commute with transitions")
    if then(forward, p2.out) != tuple(values(p1.out)):
        raise CorrespondenceError("label bijection does not preserve outputs")
    return IsoWitness(forward, backward)


@dataclass(frozen=True)
class Correspondence:
    """A piece, its monoid, and the witness identifying the round trip."""

    piece: CCoalgebra
    monoid: SigmaMonoid
    witness: IsoWitness


def roundtrip_check(d: DualityTag, piece: CCoalgebra, limits: Limits = DEFAULT_LIMITS) -> IsoWitness:
    """piece -> monoid -> piece must give back the piece's states, isomorphically."""
    return _roundtrip_witness(d, piece, piece_to_monoid(d, piece, limits), limits)


def _roundtrip_witness(d: DualityTag, piece: CCoalgebra, monoid: SigmaMonoid, limits: Limits) -> IsoWitness:
    """roundtrip_check on the piece's monoid.

    The returned automaton is the dual of a generated algebra: lawful, its
    states of distinct languages recognized by the monoid, so of distinct
    signatures.  An isomorphism keeps languages, so it pairs equal
    signatures; _structure_iso certifies the pairing.  One that passes makes
    the piece lawful, and a lawful piece's signatures are its languages'.
    So a refusal is classified by the languages, from one refinement: the
    least extra one if the label sets differ, else the structure error of
    the pairing by languages, unless the piece repeats one."""
    back = monoid_to_piece(d, monoid, limits)
    if (paired := _signature_pairing(piece, back, monoid)) is not None:
        with suppress(CorrespondenceError):
            return _structure_iso(piece, back, *paired)
    quotient, (mine, theirs) = joint_quotient(piece, back)
    if odd := set(mine).symmetric_difference(theirs):
        extra = min((block_language(quotient, b) for b in odd), key=LanguageId.sort_key)
        raise CorrespondenceError("round trip changed the language set", counterexample=language_to_regex(extra))
    forward = tuple(map(dict(zip(theirs, range(back.size))).__getitem__, mine))
    if not _pairable(piece, back) or len(set(forward)) != back.size:
        raise CorrespondenceError("round trip merged two states of one language")
    backward = tuple(sorted(range(back.size), key=forward.__getitem__))
    tables = FinMorphism(piece.carrier, back.carrier, forward), FinMorphism(back.carrier, piece.carrier, backward)
    return _structure_iso(piece, back, *tables)


def _pairable(piece: CCoalgebra, back: CCoalgebra) -> bool:
    out = piece.out
    # into two elements, sums of 0s and 1s are 0s and 1s
    values = out.images if out.presented and out.cod.size == 2 else out.graph
    return piece.alphabet == back.alphabet and piece.size == back.size and {*values} <= {0, 1}


def _signature_pairing(
    piece: CCoalgebra, back: CCoalgebra, monoid: SigmaMonoid
) -> tuple[FinMorphism, FinMorphism] | None:
    """Maps each way between the carriers, built on_generators: a generator
    goes to the state of the other side with its signature, the words of
    the monoid's word images that it accepts (_signatures), and element_of
    finds that state from the generators' signatures, a state's being the
    sum of theirs under it.  None unless every generator has one."""
    if not _pairable(piece, back):
        return None
    _, tree = monoid.word_images
    mine, theirs = _signatures(piece, tree), _signatures(back, tree)
    forward = list(map(element_of(back.carrier, theirs), mine))
    backward = list(map(element_of(piece.carrier, mine), theirs))
    if None in forward or None in backward:
        return None
    return (
        FinMorphism.on_generators(piece.carrier, back.carrier, forward),
        FinMorphism.on_generators(back.carrier, piece.carrier, backward),
    )


def _signatures(q: CCoalgebra, tree: Sequence[tuple[int, int]]) -> list[int]:
    """Per generator g of q's carrier, the bits over the word images w, in
    tree order, of out(gamma_w(g)), read off the images of the generators
    under output and letter actions alone.  As these keep sums, out.gamma_w
    is fixed by the mask r of the generators whose images it sends to 1: it
    sends x to 1 when one under x is in r (an odd number, for Z2VECT).  The
    word a.u of the tree gives out.gamma_u.gamma_a, whose mask holds i when
    the image of generator i under gamma_a goes to 1 under u's."""
    gens, under = generators(q.carrier), generators_under(q.carrier)
    under = under and under[0]
    width = len(gens)
    flags = [1 << i for i in range(width)]
    letters = [g.images if under is None else list(map(under.__getitem__, g.images)) for g in q.gamma]
    rs = [sum(compress(flags, q.out.images))]
    if isinstance(q.carrier, VectZ2):
        for parent, ai in tree:
            odd = map(and_, map(int.bit_count, map(and_, letters[ai], repeat(rs[parent]))), repeat(1))
            rs.append(sum(compress(flags, odd)))
    else:
        for parent, ai in tree:
            rs.append(sum(compress(flags, map(and_, letters[ai], repeat(rs[parent])))))
        if under is not None:  # a generator goes to 1 when one below it has an image that does
            below = list(map(under.__getitem__, gens))
            rs = [sum(compress(flags, map(and_, below, repeat(r)))) for r in rs]
    bits = "".join([format(r, f"0{width}b") for r in rs])
    return [int(bits[width - 1 - i :: width], 2) for i in range(width)]


def correspond(
    d: DualityTag, gens: Iterable[LanguageId], limits: Limits = DEFAULT_LIMITS
) -> Correspondence:
    """Close the generators, dualize, and certify the identification."""
    piece = rqc_closure(c_tag(d), gens, limits)
    monoid = piece_to_monoid(d, piece, limits)
    return Correspondence(piece, monoid, _roundtrip_witness(d, piece, monoid, limits))


def monoid_roundtrip_check(d: DualityTag, m: SigmaMonoid, limits: Limits = DEFAULT_LIMITS) -> FinMorphism:
    """monoid -> piece -> monoid must give a generator-preserving isomorphism."""
    again = piece_to_monoid(d, monoid_to_piece(d, m, limits), limits)
    iso = sigma_monoid_iso(m, again)
    if iso is None:
        raise CorrespondenceError("monoid round trip lost the generated structure")
    return iso


def order_check(d: DualityTag, p1: CCoalgebra, p2: CCoalgebra, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Label inclusion, read off one refinement of both pieces as in
    is_rqc_closed, must agree with the monoid quotient order."""
    leq = quotient_leq(piece_to_monoid(d, p1, limits), piece_to_monoid(d, p2, limits), limits)
    _, (mine, theirs) = joint_quotient(p1, p2)
    return (set(mine) <= set(theirs)) == leq


def piece_join(d: DualityTag, p1: CCoalgebra, p2: CCoalgebra, limits: Limits = DEFAULT_LIMITS) -> CCoalgebra:
    """Smallest piece containing both, closed from one refinement of the two
    (rqc_join); its monoid is the subdirect product."""
    return rqc_join(c_tag(d), (p1, p2), limits)


def verify_correspondence(
    d: DualityTag, gens: Iterable[LanguageId], limits: Limits = DEFAULT_LIMITS
) -> tuple[CCoalgebra, SigmaMonoid, object]:
    """The piece, its monoid and the round trip's verdict: "ok", or the
    counterexample of a refused round trip."""
    piece = rqc_closure(c_tag(d), gens, limits)
    monoid = piece_to_monoid(d, piece, limits)
    try:
        _roundtrip_witness(d, piece, monoid, limits)
        verdict: object = "ok"
    except CorrespondenceError as err:
        verdict = {"counterexample": err.counterexample}
    return piece, monoid, verdict


def correspondence_report(
    d: DualityTag, gens: Iterable[LanguageId], limits: Limits = DEFAULT_LIMITS
) -> dict:
    piece, monoid, verdict = verify_correspondence(d, gens, limits)
    return {
        "piece": {"languages": sorted(language_to_regex(lang) for lang in piece.labels)},
        "monoid": monoid_to_json(monoid),
        "roundtrip": verdict,
    }
