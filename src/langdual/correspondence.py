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
monoids, and joins of pieces with subdirect products.  A coalgebra's labels,
its state languages, are computed on first read.

Neither direction refines an automaton unless it refuses.  A piece is closed
under right derivatives exactly when evaluation at the initial state is an
isomorphism from its transition monoid onto its dual algebra, so
piece_to_monoid reads closure off the monoid it builds.  A round trip
dualizes the monoid once and pairs the returned states with the piece's by
the representative words of the monoid's word images that they accept, a
pairing that an isomorphism must follow; the structure check then certifies
it.  Only label inclusion, joins, reports and the classification of a
refused round trip compute labels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .automata import (
    CCoalgebra,
    DAlgebra,
    coalgebra_to_dalgebra,
    dalgebra_to_coalgebra,
    is_rqc_closed,
    label_set,
    rqc_closure,
    reachable_part,
)
from .config import DEFAULT_LIMITS, Limits
from .duality import DualityTag, IsoWitness, c_tag, d_tag
from .errors import CorrespondenceError, NotRqcClosedError, ResourceExceededError, TagMismatchError
from .languages import LanguageId, language_to_regex
from .monoids import (
    SigmaMonoid,
    monoid_to_json,
    quotient_leq,
    sigma_monoid_iso,
    transition_monoid,
    validate_monoid,
)
from .varieties import FinMorphism, FinPoset, orbit, validate_morphism


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
    """
    if piece.carrier.tag != c_tag(d):
        raise TagMismatchError(f"piece carrier {piece.carrier.tag} does not match {d}")
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
    return monoid


def _evaluation_reflects_order(monoid: SigmaMonoid, algebra: DAlgebra) -> bool:
    """For a POS carrier, whether the bijection e(f) = f(init) reflects the
    order; e is read off a search over left multiplication, e(unit) = init
    and e(g·x) = alpha_g(e(x))."""
    if not isinstance(algebra.carrier, FinPoset):
        return True
    steps = [monoid.mult[g].__getitem__ for g in monoid.gen]
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
    """The left-multiplication algebra of a valid monoid."""
    if m.carrier.tag != d_tag(d):
        raise TagMismatchError(f"monoid carrier {m.carrier.tag} does not match {d}")
    if not validate_monoid(m, limits):
        raise ValueError("input is not a valid alphabet-generated monoid")
    left_actions = tuple(FinMorphism(m.carrier, m.carrier, tuple(m.mult[g])) for g in m.gen)
    return DAlgebra(m.carrier, m.alphabet, left_actions, m.unit)


def _structure_iso(p1: CCoalgebra, p2: CCoalgebra, graph: Sequence[int]) -> IsoWitness:
    """The bijection graph from p1 to p2, checked to commute with the structure."""
    inverse = sorted(range(len(graph)), key=graph.__getitem__)
    forward = FinMorphism(p1.carrier, p2.carrier, tuple(graph))
    backward = FinMorphism(p2.carrier, p1.carrier, tuple(inverse))
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

    The returned states are paired with the piece's by their signatures:
    which representative words of the monoid's word images each accepts.
    Every state language of the returned automaton is recognized by the
    monoid, so its signature fixes it, and its states are distinct
    languages, as the dual of a generated algebra is observable; so their
    signatures are distinct.  An isomorphism keeps languages, so it pairs
    equal signatures and is unique; _structure_iso certifies the pairing.

    A signature depends only on the language, so any pairing of equal
    languages is this one.  A refusal is therefore classified by the label
    sets alone: if they agree, the signature pairing was the language
    matching and its structure error stands; if they differ, the languages
    changed; with no signature bijection and equal sets, the piece repeats a
    language (its n states carry fewer than n languages)."""
    back = monoid_to_piece(d, monoid, limits)
    if (forward := _signature_pairing(piece, back, monoid)) is not None:
        try:
            return _structure_iso(piece, back, forward)
        except CorrespondenceError:
            if label_set(piece) == label_set(back):
                raise
    ours, theirs = label_set(piece), label_set(back)
    if ours != theirs:
        extra = sorted(ours.symmetric_difference(theirs), key=lambda l: l.sort_key())
        raise CorrespondenceError(
            "round trip changed the language set",
            counterexample=language_to_regex(extra[0]),
        )
    raise CorrespondenceError("round trip merged two states of one language")


def _signature_pairing(piece: CCoalgebra, back: CCoalgebra, monoid: SigmaMonoid) -> tuple[int, ...] | None:
    """Each state of piece to the state of back that accepts the same
    representative words, one per word image of the monoid (its tree
    parent's word plus a letter); None unless that is a bijection.  A column
    holds the state each state reaches by one word, so each costs n lookups
    in its parent's."""
    n = back.size
    if piece.alphabet != back.alphabet or piece.size != n:
        return None
    steps = [lambda x, g=g: monoid.mult[x][g] for g in monoid.gen]
    _, _, tree = orbit([monoid.unit], steps, monoid.size, "word images")

    def signatures(q: CCoalgebra) -> Iterable[tuple[int, ...]]:
        cols: list[Sequence[int]] = [range(n)]
        for parent, ai in tree[1:]:
            cols.append(list(map(q.gamma[ai].graph.__getitem__, cols[parent])))
        return zip(*(map(q.out.graph.__getitem__, col) for col in cols))

    mate = {sig: t for t, sig in enumerate(signatures(back))}
    forward = tuple(map(mate.get, signatures(piece)))
    if len(mate) != n or None in forward or len(set(forward)) != n:
        return None
    return forward


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


def order_check(
    d: DualityTag, p1: CCoalgebra, p2: CCoalgebra, limits: Limits = DEFAULT_LIMITS
) -> bool:
    """Label inclusion must agree with the monoid quotient order."""
    inclusion = label_set(p1) <= label_set(p2)
    m1 = piece_to_monoid(d, p1, limits)
    m2 = piece_to_monoid(d, p2, limits)
    return inclusion == quotient_leq(m1, m2, limits)


def piece_join(
    d: DualityTag, p1: CCoalgebra, p2: CCoalgebra, limits: Limits = DEFAULT_LIMITS
) -> CCoalgebra:
    """Smallest piece containing both; its monoid is the subdirect product."""
    return rqc_closure(c_tag(d), label_set(p1) | label_set(p2), limits)


def correspondence_report(
    d: DualityTag, gens: Iterable[LanguageId], limits: Limits = DEFAULT_LIMITS
) -> dict:
    piece = rqc_closure(c_tag(d), gens, limits)
    monoid = piece_to_monoid(d, piece, limits)
    try:
        _roundtrip_witness(d, piece, monoid, limits)
        verdict: object = "ok"
    except CorrespondenceError as err:
        verdict = {"counterexample": err.counterexample}
    return {
        "piece": {"languages": sorted(language_to_regex(lang) for lang in piece.labels)},
        "monoid": monoid_to_json(monoid),
        "roundtrip": verdict,
    }
