"""Deterministic automata over the variety pairs, and derivative closures.

A CCoalgebra is an automaton whose state set carries an output-side algebra:
per-letter transition morphisms and an output morphism into the two-element
algebra.  A DAlgebra is the dual shape: an initial state and per-letter
transitions on an algebra-side carrier, no outputs.

Closure constructions work inside the transition-map automaton of the
generators: the distinct maps gamma_w form a finite deterministic automaton
whose languages are exactly the unions of map-classes, so every language in a
derivative- and operation-closed family is a bitmask over maps.  Left and
right derivatives by a letter are preimages along pre-/postcomposition with
its map, read as unions of the map's fibres from byte tables built once per
automaton, and the variety operations become bitwise operations.

Which states accept one language is read off one refinement of coalgebras
side by side, joint_quotient: the labels, is_rqc_closed and rqc_join here,
and label inclusion and the refused round trip in correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, chain
from typing import Callable, Iterable, Sequence

from .config import DEFAULT_LIMITS, Limits
from .duality import DualityTag, c_tag, d_tag, dual_morphism, dual_object
from .errors import TagMismatchError
from .languages import Dfa, LanguageId, block_language, dot_digraph, language_quotient, language_to_regex
from .varieties import (
    FinAlgebra,
    FinMorphism,
    VarietyTag,
    algebra_to_json,
    cayley_columns,
    constants,
    element_of,
    family_generators,
    fibres,
    free_on_one,
    orbit,
    present_closure,
    two_element_algebra,
    unions,
)

@dataclass(frozen=True)
class CCoalgebra:
    """States with output-side algebra structure, letter actions and outputs.

    Each state accepts a language, read from the transitions and outputs; its
    labels are those state languages, computed on first read and cached."""

    carrier: FinAlgebra
    alphabet: tuple[str, ...]
    gamma: tuple[FinMorphism, ...]
    out: FinMorphism

    @cached_property
    def labels(self) -> tuple[LanguageId, ...]:
        """Every state's language, read off its block of the quotient, one
        language per block."""
        quotient, (block,) = joint_quotient(self)
        languages = [block_language(quotient, b) for b in range(quotient.n_states)]
        return tuple(map(languages.__getitem__, block))

    @property
    def size(self) -> int:
        return self.carrier.size


@dataclass(frozen=True)
class DAlgebra:
    """States with algebra-side structure, letter actions and an initial state."""

    carrier: FinAlgebra
    alphabet: tuple[str, ...]
    alpha: tuple[FinMorphism, ...]
    init: int

    @property
    def size(self) -> int:
        return self.carrier.size


def label_set(q: CCoalgebra) -> frozenset[LanguageId]:
    return frozenset(q.labels)


def joint_quotient(*qs: CCoalgebra) -> tuple[Dfa, list[list[int]]]:
    """The states of qs side by side as one DFA (q's state s at s plus the
    sizes of those before it, outputs as finality), its quotient by language
    from one refinement (language_quotient), and the block of every state of
    each q: two states share a block when they accept one language, and a
    block's language is block_language of the quotient."""
    offsets = list(accumulate((q.size for q in qs), initial=0))
    delta = tuple(
        tuple(t + off for t in row) for q, off in zip(qs, offsets) for row in zip(*(g.graph for g in q.gamma))
    )
    finals = frozenset(s for s, o in enumerate(chain.from_iterable(q.out.graph for q in qs)) if o == 1)
    quotient, block = language_quotient(Dfa(qs[0].alphabet, len(delta), 0, finals, delta))
    return quotient, [block[i:j] for i, j in zip(offsets, offsets[1:])]


def state_language(q: CCoalgebra, state: int) -> LanguageId:
    """The language accepted from a state, reading outputs as finality."""
    return q.labels[state]


# ---------------------------------------------------------------------------
# the finals-shift


def coalg_shift(q: CCoalgebra, word: str) -> CCoalgebra:
    """Replace the output by out after gamma_w, the letter actions composed
    in reading order: state s then accepts L(s)w^-1."""
    out = q.out
    for a in reversed(word):
        out = q.gamma[q.alphabet.index(a)].then(out)
    return replace(q, out=out)


# ---------------------------------------------------------------------------
# the transition-map automaton of a generator family


@dataclass(frozen=True)
class ClassAutomaton:
    """Distinct transition maps of the generators' DFAs, side by side.

    Reading a word u from the identity, map 0, ends in the map gamma_u, so
    the languages over this automaton are exactly the unions of map-classes.
    """

    alphabet: tuple[str, ...]
    maps: tuple[tuple[int, ...], ...]
    post: tuple[tuple[int, ...], ...]  # index of (letter after map): word u -> ua
    pre: tuple[tuple[int, ...], ...]  # index of (map after letter): word u -> au

    @property
    def n_maps(self) -> int:
        return len(self.maps)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_maps) - 1

    @cached_property
    def left_preimage(self) -> tuple[Callable[[int], int], ...]:
        """Per letter a, mask -> the maps whose a·u lies in it: a^-1 L."""
        return tuple(unions(fibres(col, self.n_maps)) for col in self.pre)

    @cached_property
    def right_preimage(self) -> tuple[Callable[[int], int], ...]:
        """Per letter a, mask -> the maps whose u·a lies in it: L a^-1."""
        return tuple(unions(fibres(col, self.n_maps)) for col in self.post)


def class_automaton(gens: Sequence[LanguageId], limits: Limits = DEFAULT_LIMITS) -> tuple[ClassAutomaton, list[int]]:
    """Build the map automaton and the generator languages as masks.

    The maps act on the generators' DFAs side by side: one table in which
    generator i's state q is offset_i + q, so no product of the DFAs is
    built.  Every state of a LanguageId's DFA is reachable, so each is a
    component of some reachable product state; two words therefore act
    alike side by side exactly when they act alike on the reachable product,
    and the maps are the product's classes, found in the same order.
    Generator i's language is the mask of the start offset_i + initial_i.
    """
    if not gens:
        raise ValueError("at least one generator language is required")
    alphabet = gens[0].alphabet
    if any(g.alphabet != alphabet for g in gens):
        raise ValueError("generators must share one alphabet")
    offsets = list(accumulate((g.n_states for g in gens), initial=0))
    delta = tuple(tuple(off + t for t in row) for g, off in zip(gens, offsets) for row in g.dfa.delta)
    finals = frozenset(off + q for g, off in zip(gens, offsets) for q in g.dfa.finals)
    side_by_side = Dfa(alphabet, offsets[-1], 0, finals, delta)
    return _map_automaton(side_by_side, [off + g.dfa.initial for g, off in zip(gens, offsets)], limits)


def _map_automaton(d: Dfa, starts: Iterable[int], limits: Limits) -> tuple[ClassAutomaton, list[int]]:
    """The maps: the orbit of the identity on d's states under "then letter
    ai", with its columns (cayley_columns), word u -> ua as post and word
    u -> au as pre, and the language of each start as a mask, the maps that
    send it into d's finals."""
    steps = [lambda m, col=col: tuple(map(col.__getitem__, m)) for col in zip(*d.delta)]
    maps, post, pre, _ = cayley_columns(tuple(range(d.n_states)), steps, limits.max_carrier, "transition-map closure")
    masks = [sum(1 << j for j, m in enumerate(maps) if m[s] in d.finals) for s in starts]
    return ClassAutomaton(d.alphabet, tuple(maps), post, pre), masks


def _closed_piece(tag: VarietyTag, caut: ClassAutomaton, masks: list[int], right: bool, limits: Limits) -> CCoalgebra:
    """The labeled piece generated by the languages masks over caut under
    left derivatives, right derivatives if asked, and the variety operations."""
    sides = (caut.left_preimage, caut.right_preimage) if right else (caut.left_preimage,)
    steps = [side[ai] for ai in range(len(caut.alphabet)) for side in sides]
    seeds = orbit(masks, steps, limits.max_carrier, "derivative closure")[0]
    what = {VarietyTag.BA: "boolean closure", VarietyTag.Z2VECT: "linear closure"}.get(tag, "operation closure")
    carrier, points = family_generators(tag, seeds, caut.full_mask, limits.max_carrier, what)
    # the letter actions and the output are morphisms, fixed by their images of the
    # generators: each image is the element whose generators' masks sum to its mask,
    # and the output reads whether the identity, map 0, is in a generator's mask
    element = element_of(carrier, points)
    gamma = tuple(
        FinMorphism.on_generators(carrier, carrier, map(element, map(pre, points))) for pre in caut.left_preimage
    )
    out = FinMorphism.on_generators(carrier, two_element_algebra(tag), [p & 1 for p in points])
    return CCoalgebra(carrier, caut.alphabet, gamma, out)


def generate_subcoalgebra(tag: VarietyTag, gens: Iterable[LanguageId], limits: Limits = DEFAULT_LIMITS) -> CCoalgebra:
    """Smallest labeled subautomaton of the language automaton containing gens,
    closed under left derivatives and the variety operations on languages."""
    return _closed_piece(tag, *class_automaton(sorted({*gens}, key=LanguageId.sort_key), limits), False, limits)


def rqc_closure(tag: VarietyTag, gens: Iterable[LanguageId], limits: Limits = DEFAULT_LIMITS) -> CCoalgebra:
    """Like generate_subcoalgebra, but also closed under right derivatives."""
    return _closed_piece(tag, *class_automaton(sorted({*gens}, key=LanguageId.sort_key), limits), True, limits)


def rqc_join(tag: VarietyTag, qs: Sequence[CCoalgebra], limits: Limits = DEFAULT_LIMITS) -> CCoalgebra:
    """rqc_closure of the labels of qs, the same piece with the same refusals,
    from one refinement of qs side by side and with no label computed.

    gamma_a sends a state of language L to one of a^-1 L, so the labels'
    DFAs and the quotient by the refinement, every block a start, both have
    the labels for states.  Words act on both as u^-1 on the labels: one order
    of maps and one set of generator masks, all that generate_family reads."""
    if not (qs := [q for q in qs if q.size]):
        raise ValueError("at least one generator language is required")
    if any(q.alphabet != qs[0].alphabet for q in qs):
        raise ValueError("generators must share one alphabet")
    quotient = joint_quotient(*qs)[0]
    return _closed_piece(tag, *_map_automaton(quotient, range(quotient.n_states), limits), True, limits)


def is_rqc_closed(q: CCoalgebra) -> bool:
    """All right derivatives of the labels stay inside the label set.

    Single letters suffice: L(wa)^-1 = (La^-1)w^-1.  State s of
    coalg_shift(q, a) accepts L(s)a^-1, so this refines q beside its k
    shifts and asks that every block holding a shifted state hold a state
    of q.  The labels are the state languages, so that is exact; no label is
    computed.
    """
    _, (own, *shifted) = joint_quotient(q, *(coalg_shift(q, a) for a in q.alphabet))
    return set(chain.from_iterable(shifted)) <= set(own)


# ---------------------------------------------------------------------------
# duality between coalgebras and algebras


def coalgebra_to_dalgebra(d: DualityTag, q: CCoalgebra) -> DAlgebra:
    """Dualize carrier, letter actions, and output; the initial state is the
    image of the free generator under the dual of the output morphism.

    The free generator of the one-generated algebra sits at index 1 of the
    dual of the two-element algebra for Z2, at index 0 otherwise; for the
    JSL self-duality that is the old bottom, as the identification there is
    the order-reversing swap.
    """
    if q.carrier.tag != c_tag(d):
        raise TagMismatchError(f"coalgebra carrier {q.carrier.tag} does not match {d}")
    alpha = tuple(dual_morphism(d, g) for g in q.gamma)
    init = dual_morphism(d, q.out).graph[1 if d is DualityTag.Z2_SELF else 0]
    return DAlgebra(dual_object(d, q.carrier), q.alphabet, alpha, init)


def _initial_state_morphism(d: DualityTag, a: DAlgebra) -> FinMorphism:
    """The map from the free algebra on one generator that sends its
    constants to the carrier's and the generator to the initial state."""
    return FinMorphism(free_on_one(d_tag(d)), a.carrier, (*constants(a.carrier), a.init))


# Canonical identification of dual(free_on_one) with the two-element algebra,
# per duality: its one generator goes to the top, element 1.  For the JSL
# self-duality that generator is element 0, the old bottom.
_TWO_RELABEL = {
    d: FinMorphism.on_generators(dual_object(d, free_on_one(d_tag(d))), two_element_algebra(c_tag(d)), [1])
    for d in DualityTag
}


def dalgebra_to_coalgebra(d: DualityTag, a: DAlgebra) -> CCoalgebra:
    """Inverse dualization; the output reads the initial state."""
    if a.carrier.tag != d_tag(d):
        raise TagMismatchError(f"algebra carrier {a.carrier.tag} does not match {d}")
    gamma = tuple(dual_morphism(d, al) for al in a.alpha)
    out = dual_morphism(d, _initial_state_morphism(d, a)).then(_TWO_RELABEL[d])
    return CCoalgebra(dual_object(d, a.carrier), a.alphabet, gamma, out)


def reachable_part(a: DAlgebra, limits: Limits = DEFAULT_LIMITS) -> DAlgebra:
    """Restrict to the closure of the initial state under letter actions and
    the carrier operations.

    The letter actions are carrier morphisms, so they map the subalgebra
    generated by a set into the one generated by its image.  The closure is
    therefore the subalgebra generated by the orbit of the initial state
    under the letters, which is taken first.
    """
    cap = limits.max_carrier
    letters = [m.graph.__getitem__ for m in a.alpha]
    reached = orbit([a.init], letters, cap, "reachable closure")[0]
    sub, incl, to_sub = present_closure(a.carrier, reached, cap, "reachable closure")
    if sub.size == a.size:
        return a
    alpha = tuple(
        FinMorphism(sub, sub, tuple(to_sub[m.graph[incl.graph[i]]] for i in range(sub.size)))
        for m in a.alpha
    )
    return DAlgebra(sub, a.alphabet, alpha, to_sub[a.init])


# ---------------------------------------------------------------------------
# JSON and DOT


def dalgebra_to_json(a: DAlgebra) -> dict:
    return {
        "carrier": algebra_to_json(a.carrier),
        "alphabet": list(a.alphabet),
        "alpha": {s: list(a.alpha[ai].graph) for ai, s in enumerate(a.alphabet)},
        "init": a.init,
    }


def coalgebra_to_dot(q: CCoalgebra) -> str:
    shapes = ["doublecircle" if v == 1 else "circle" for v in q.out.graph]
    return dot_digraph(
        "coalgebra",
        [(f"q{s}", shapes[s], language_to_regex(q.labels[s])) for s in range(q.size)],
        [(f"q{s}", f"q{m.graph[s]}", a) for s in range(q.size) for a, m in zip(q.alphabet, q.gamma)],
    )


def dalgebra_to_dot(a: DAlgebra) -> str:
    return dot_digraph(
        "dalgebra",
        [(f"q{s}", "circle", str(s)) for s in range(a.size)],
        [(f"q{s}", f"q{m.graph[s]}", sym) for s in range(a.size) for sym, m in zip(a.alphabet, a.alpha)],
        start=f"q{a.init}",
    )
