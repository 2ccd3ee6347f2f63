"""The four finite dual equivalences between predual variety pairs.

Objects and morphisms dualize contravariantly:

  BA_SET    finite boolean algebras <-> finite sets (atoms / powersets)
  DL01_POS  bounded distributive lattices <-> posets (join-irreducibles /
            downset lattices)
  JSL_SELF  join-semilattices with zero, self-dual by order reversal; a
            morphism dualizes to its upper adjoint read in reversed orders,
            given by its values at the codomain's meet-irreducibles
  Z2_SELF   Z2 vector spaces, self-dual by transposition in coordinate bases:
            the dual map is spanned by the transposed basis columns

Because boolean algebras and distributive lattices are stored by their dual
presentations, dualizing twice lands on a presentation-equal object and the
double-dual witnesses are identities; a DL01, POS or JSL0 object keeps its
dual both ways, so dualizing one twice returns it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import and_

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
    element_of,
    fibres,
    identity,
    is_generator_sums,
    sum_picked,
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
        case (DualityTag.DL01_POS, DistLat() | FinPoset()) | (DualityTag.JSL_SELF, JoinSemilattice()):
            return alg.dual
        case (DualityTag.Z2_SELF, VectZ2()):
            return VectZ2(alg.dim)
    raise TagMismatchError(f"{alg.tag} does not match the pairing {d}")


def dual_morphism(d: DualityTag, h: FinMorphism) -> FinMorphism:
    """Contravariant action: swaps and dualizes the endpoints.  A map out of
    an output-side carrier is read at its domain's generators only, which
    needs no graph of one built on_generators, and the duals of SET, POS,
    JSL0 and Z2VECT maps are built on_generators."""
    _check_side(d, h.dom)
    if h.dom.tag != h.cod.tag:
        raise TagMismatchError("cannot dualize a cross-variety map")
    dom, cod = h.dom, h.cod
    new_dom = dual_object(d, cod)
    new_cod = dual_object(d, dom)
    match (d, dom):
        case (DualityTag.BA_SET, BoolAlg()):
            # each codomain atom sits under the image of exactly one atom
            assert isinstance(cod, BoolAlg)
            images = h.images
            graph = []
            for j in range(cod.atoms):
                hits = [i for i, image in enumerate(images) if image >> j & 1]
                if len(hits) != 1:
                    raise NonFunctionalError("atom characterization failed; not a BA morphism")
                graph.append(hits[0])
            return FinMorphism(new_dom, new_cod, tuple(graph))
        case (DualityTag.BA_SET, FinSet()):
            # a function dualizes to preimage between powersets, spanned by
            # the preimages of the points
            return FinMorphism.on_generators(new_dom, new_cod, fibres(h.graph, cod.size))
        case (DualityTag.DL01_POS, DistLat()):
            # each codomain join-irreducible has a least preimage, the meet of
            # the elements mapping above it, and that is a principal downset.
            # When h sends each x to the union of its principal downsets'
            # images, every x mapping above j holds a principal downset that
            # does, so the meet is that of those principal downsets.  A map
            # built on_generators sends x to the union of the images of the
            # JIs in it, and the least principal downset holding such a JI
            # is its own: its images scan alike
            assert isinstance(cod, DistLat)
            graph = []
            cod_masks = cod.downset_masks
            principal = dom.principal
            image = list(map(cod_masks.__getitem__, h.images))
            if h.presented or is_generator_sums(dom, cod, h.graph, h.images):
                scanned = list(zip(principal, image))
            else:
                scanned = list(zip(dom.downset_masks, map(cod_masks.__getitem__, h.graph)))
            for j in range(cod.n_ji):
                above = [x for x, y in scanned if y >> j & 1]
                if not above:
                    raise NonFunctionalError("no element maps above a join-irreducible")
                meet = reduce(and_, above)
                if meet not in principal:
                    raise NonFunctionalError("least preimage is not join-irreducible")
                graph.append(principal.index(meet))
            return FinMorphism(new_dom, new_cod, tuple(graph))
        case (DualityTag.DL01_POS, FinPoset()):
            # a monotone map dualizes to preimage between downset lattices,
            # spanned by the preimages of the principal downsets
            assert isinstance(new_dom, DistLat) and isinstance(new_cod, DistLat)
            points = fibres(h.graph, cod.size)
            images = [new_cod.downset_index[sum_picked(points, b)] for b in new_dom.principal]
            return FinMorphism.on_generators(new_dom, new_cod, images)
        case (DualityTag.JSL_SELF, JoinSemilattice()):
            # upper adjoint: h*(b) is the join of the irreducibles j_i with
            # h(j_i) <= b, and those are all the irreducibles below it, so
            # bit i of below[h*(b)] says whether below[h(j_i)] is inside below[b]
            # (element_of).  Those masks meet as b does and below masks are
            # closed under intersection, so h* exists everywhere exactly when
            # it does at the meet-irreducibles, the dual's generators, and it
            # keeps meets, the dual's joins
            assert isinstance(cod, JoinSemilattice)
            images = list(map(cod.below.__getitem__, h.on(dom.irreducibles)))
            adjoint = list(map(element_of(dom, images), map(cod.below.__getitem__, cod.meet_irreducibles)))
            if None in adjoint:
                raise NonFunctionalError("no upper adjoint; not a join morphism")
            return FinMorphism.on_generators(new_dom, new_cod, adjoint)
        case (DualityTag.Z2_SELF, VectZ2()):
            # the transpose sends the k-th dual basis vector to the k-th row
            assert isinstance(cod, VectZ2)
            images = h.images
            rows = [sum(1 << i for i, image in enumerate(images) if image >> k & 1) for k in range(cod.dim)]
            return FinMorphism.on_generators(new_dom, new_cod, rows)
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
