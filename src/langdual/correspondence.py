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
an isomorphism must, read by the carriers' generators (atoms, a basis or
join-irreducibles) only; the structure check certifies it.  Only reports and
a refused round trip's counterexample compute labels.  The transition
monoid of a lawful algebra is an alphabet-generated monoid, so
piece_to_monoid marks the monoids it builds lawful and the round trip does
not validate them again; a piece keeps the monoid it dualized to.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
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
from .varieties import FinMorphism, FinPoset, generator_sums, generators, is_partial_order, orbit, validate_morphism


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
    and e(g·x) = alpha_g(e(x))."""
    if not isinstance(algebra.carrier, FinPoset):
        return True
    steps = [row.__getitem__ for row in monoid.letter_rows]
    elements, _, tree = orbit([monoid.unit], steps, monoid.size, "evaluation")
    at = [algebra.init] * monoid.size
    for x, (parent, ai) in zip(elements[1:], tree[1:]):
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


def _structure_iso(p1: CCoalgebra, p2: CCoalgebra, graph: Sequence[int]) -> IsoWitness:
    """The bijection graph from p1 to p2, checked to commute with the structure."""
    inverse = sorted(range(len(graph)), key=graph.__getitem__)
    forward = FinMorphism(p1.carrier, p2.carrier, tuple(graph))
    backward = FinMorphism(p2.carrier, p1.carrier, tuple(inverse))
    if not (validate_morphism(forward) and validate_morphism(backward)):
        raise CorrespondenceError("label bijection is not an isomorphism of carriers")
    if any(forward.then(g2).graph != g1.then(forward).graph for g1, g2 in zip(p1.gamma, p2.gamma)):
        raise CorrespondenceError("label bijection does not commute with transitions")
    if forward.then(p2.out).graph != p1.out.graph:
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
    if (forward := _signature_pairing(piece, back, monoid)) is not None:
        with suppress(CorrespondenceError):
            return _structure_iso(piece, back, forward)
    quotient, (mine, theirs) = joint_quotient(piece, back)
    if odd := set(mine).symmetric_difference(theirs):
        extra = min((block_language(quotient, b) for b in odd), key=LanguageId.sort_key)
        raise CorrespondenceError("round trip changed the language set", counterexample=language_to_regex(extra))
    forward = tuple(map(dict(zip(theirs, range(back.size))).__getitem__, mine))
    if not _pairable(piece, back) or len(set(forward)) != back.size:
        raise CorrespondenceError("round trip merged two states of one language")
    return _structure_iso(piece, back, forward)


def _pairable(piece: CCoalgebra, back: CCoalgebra) -> bool:
    return piece.alphabet == back.alphabet and piece.size == back.size and {*piece.out.graph} <= {0, 1}


def _signature_pairing(piece: CCoalgebra, back: CCoalgebra, monoid: SigmaMonoid) -> tuple[int, ...] | None:
    """Each state of piece to the state of back that accepts the same
    representative words, one per word image of the monoid (its tree
    parent's word plus a letter), read as the bits of one int; None unless
    that is a bijection.  Output and letter actions are carrier morphisms,
    so only the generators read words, and a state's signature is the sum
    of theirs under it (generator_sums)."""
    if not _pairable(piece, back):
        return None
    steps = [col.__getitem__ for col in monoid.letter_cols]
    _, _, tree = orbit([monoid.unit], steps, monoid.size, "word images")

    def signatures(q: CCoalgebra) -> list[int]:
        cols = [generators(q.carrier)]
        for parent, ai in tree[1:]:
            cols.append(list(map(q.gamma[ai].graph.__getitem__, cols[parent])))
        outs = b"".join(bytes(map(b"01".__getitem__, map(q.out.graph.__getitem__, col))) for col in cols)
        return generator_sums(q.carrier, [int(outs[i :: len(cols[0])], 2) for i in range(len(cols[0]))])

    mate = dict(zip(signatures(back), range(back.size)))
    forward = tuple(map(mate.get, signatures(piece)))
    return forward if len(mate) == len(set(forward)) == back.size and None not in forward else None


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
