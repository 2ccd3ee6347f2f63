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
its state languages, are computed on first read.  A round trip dualizes the
monoid once and matches its states to the piece's without them, so only label
inclusion, joins, reports and a refusal's counterexample compute labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .automata import (
    CCoalgebra,
    DAlgebra,
    coalgebra_to_dalgebra,
    dalgebra_to_coalgebra,
    is_rqc_closed,
    label_set,
    match_states,
    rqc_closure,
    reachable_part,
)
from .config import DEFAULT_LIMITS, Limits
from .duality import DualityTag, IsoWitness, c_tag, d_tag
from .errors import CorrespondenceError, NotRqcClosedError, TagMismatchError
from .languages import LanguageId, language_to_regex
from .monoids import (
    SigmaMonoid,
    monoid_to_json,
    quotient_leq,
    sigma_monoid_iso,
    transition_monoid,
    validate_monoid,
)
from .varieties import FinMorphism, validate_morphism


def piece_to_monoid(d: DualityTag, piece: CCoalgebra, limits: Limits = DEFAULT_LIMITS) -> SigmaMonoid:
    """Dualize and read off the transition monoid in word order."""
    if piece.carrier.tag != c_tag(d):
        raise TagMismatchError(f"piece carrier {piece.carrier.tag} does not match {d}")
    if not is_rqc_closed(piece):
        raise NotRqcClosedError("piece is not closed under right derivatives")
    algebra = reachable_part(coalgebra_to_dalgebra(d, piece), limits)
    return transition_monoid(algebra, reverse_composition=True, limits=limits)


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
    """roundtrip_check on the piece's monoid; labels only name a refusal.  The
    dual of a generated algebra is observable: its states are distinct
    languages, so equal label sets without a bijection mean the piece repeats
    one."""
    back = monoid_to_piece(d, monoid, limits)
    if (forward := match_states(piece, back)) is not None:
        return _structure_iso(piece, back, forward)
    ours, theirs = label_set(piece), label_set(back)
    if ours != theirs:
        extra = sorted(ours.symmetric_difference(theirs), key=lambda l: l.sort_key())
        raise CorrespondenceError(
            "round trip changed the language set",
            counterexample=language_to_regex(extra[0]),
        )
    raise CorrespondenceError("round trip merged two states of one language")


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
