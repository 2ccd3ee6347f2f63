"""The four finite dual equivalences between predual variety pairs.

Objects and morphisms dualize contravariantly:

  BA_SET    finite boolean algebras <-> finite sets (atoms / powersets)
  DL01_POS  bounded distributive lattices <-> posets (join-irreducibles /
            downset lattices)
  JSL_SELF  join-semilattices with zero, self-dual by order reversal; a
            morphism dualizes to its upper adjoint read in reversed orders
  Z2_SELF   Z2 vector spaces, self-dual by transposition in coordinate bases

Because boolean algebras and distributive lattices are stored by their dual
presentations, dualizing twice lands on a presentation-equal object and the
double-dual witnesses are identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import NonFunctionalError, TagMismatchError
from .varieties import (
    BoolAlg,
    DistLat,
    FinAlgebra,
    FinMorphism,
    FinPoset,
    FinSet,
    JoinSemilattice,
    VarietyTag,
    VectZ2,
    identity,
    jsl_leq,
)


class DualityTag(str, Enum):
    BA_SET = "BA_SET"
    DL01_POS = "DL01_POS"
    JSL_SELF = "JSL_SELF"
    Z2_SELF = "Z2_SELF"


PAIRINGS: dict[DualityTag, tuple[VarietyTag, VarietyTag]] = {
    DualityTag.BA_SET: (VarietyTag.BA, VarietyTag.SET),
    DualityTag.DL01_POS: (VarietyTag.DL01, VarietyTag.POS),
    DualityTag.JSL_SELF: (VarietyTag.JSL0, VarietyTag.JSL0),
    DualityTag.Z2_SELF: (VarietyTag.Z2VECT, VarietyTag.Z2VECT),
}


def c_tag(d: DualityTag) -> VarietyTag:
    return PAIRINGS[d][0]


def d_tag(d: DualityTag) -> VarietyTag:
    return PAIRINGS[d][1]


def parse_variety_flag(name: str) -> DualityTag:
    aliases = {
        "ba": DualityTag.BA_SET,
        "set": DualityTag.BA_SET,
        "dl": DualityTag.DL01_POS,
        "pos": DualityTag.DL01_POS,
        "jsl": DualityTag.JSL_SELF,
        "z2": DualityTag.Z2_SELF,
        "vect": DualityTag.Z2_SELF,
    }
    try:
        return aliases[name.lower()]
    except KeyError:
        raise ValueError(f"unknown variety pair {name!r}") from None


@dataclass(frozen=True)
class IsoWitness:
    forward: FinMorphism
    backward: FinMorphism


def _check_side(d: DualityTag, alg: FinAlgebra) -> None:
    if alg.tag not in PAIRINGS[d]:
        raise TagMismatchError(f"{alg.tag} does not occur in the pairing {d}")


def dual_object(d: DualityTag, alg: FinAlgebra) -> FinAlgebra:
    _check_side(d, alg)
    match (d, alg):
        case (DualityTag.BA_SET, BoolAlg()):
            return FinSet(alg.atoms)
        case (DualityTag.BA_SET, FinSet()):
            return BoolAlg(alg.size)
        case (DualityTag.DL01_POS, DistLat()):
            return FinPoset(alg.ji_leq)
        case (DualityTag.DL01_POS, FinPoset()):
            return DistLat(alg.leq)
        case (DualityTag.JSL_SELF, JoinSemilattice()):
            return JoinSemilattice(alg.meet_table, alg.top)
        case (DualityTag.Z2_SELF, VectZ2()):
            return VectZ2(alg.dim)
    raise TagMismatchError(f"{alg.tag} does not match the pairing {d}")


def dual_morphism(d: DualityTag, h: FinMorphism) -> FinMorphism:
    """Contravariant action: swaps and dualizes the endpoints."""
    _check_side(d, h.dom)
    if h.dom.tag != h.cod.tag:
        raise TagMismatchError("cannot dualize a cross-variety map")
    dom, cod, g = h.dom, h.cod, h.graph
    new_dom = dual_object(d, cod)
    new_cod = dual_object(d, dom)
    match (d, dom):
        case (DualityTag.BA_SET, BoolAlg()):
            # each codomain atom sits under the image of exactly one atom
            assert isinstance(cod, BoolAlg)
            graph = []
            for j in range(cod.atoms):
                hits = [i for i in range(dom.atoms) if g[1 << i] >> j & 1]
                if len(hits) != 1:
                    raise NonFunctionalError("atom characterization failed; not a BA morphism")
                graph.append(hits[0])
            return FinMorphism(new_dom, new_cod, tuple(graph))
        case (DualityTag.BA_SET, FinSet()):
            # a function dualizes to preimage between powersets
            graph = []
            for mask in range(1 << cod.size):
                graph.append(sum(1 << y for y in range(dom.size) if mask >> g[y] & 1))
            return FinMorphism(new_dom, new_cod, tuple(graph))
        case (DualityTag.DL01_POS, DistLat()):
            assert isinstance(cod, DistLat)
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
            # a monotone map dualizes to preimage between downset lattices
            assert isinstance(new_dom, DistLat) and isinstance(new_cod, DistLat)
            graph = []
            for mask in new_dom.downset_masks:
                pre = sum(1 << x for x in range(dom.size) if mask >> g[x] & 1)
                graph.append(new_cod.downset_index[pre])
            return FinMorphism(new_dom, new_cod, tuple(graph))
        case (DualityTag.JSL_SELF, JoinSemilattice()):
            # upper adjoint: largest element mapping below the argument
            assert isinstance(cod, JoinSemilattice)
            graph = []
            for b in range(cod.size):
                best = dom.zero
                for a in range(dom.size):
                    if jsl_leq(cod, g[a], b):
                        best = dom.join[best][a]
                graph.append(best)
            return FinMorphism(new_dom, new_cod, tuple(graph))
        case (DualityTag.Z2_SELF, VectZ2()):
            assert isinstance(cod, VectZ2)
            graph = []
            for phi in range(1 << cod.dim):
                image = 0
                for i in range(dom.dim):
                    if bin(phi & g[1 << i]).count("1") % 2 == 1:
                        image |= 1 << i
                graph.append(image)
            return FinMorphism(new_dom, new_cod, tuple(graph))
    raise TagMismatchError(f"{dom.tag} does not match the pairing {d}")


def double_dual(d: DualityTag, alg: FinAlgebra) -> IsoWitness:
    """The natural isomorphism between an object and its double dual.

    All four dualities re-interpret stored presentations, so the double dual
    is presentation-equal to the original and the witness is the identity.
    """
    twice = dual_object(d, dual_object(d, alg))
    if twice != alg:
        raise AssertionError(f"double dual changed the presentation: {alg} vs {twice}")
    return IsoWitness(identity(alg), identity(alg))
