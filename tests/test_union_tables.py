"""Unions read from byte tables, against the bit loops they replaced.

`varieties.unions(masks)` reads the union of the masks picked by the bits of
an integer from one 256-entry table per byte; `oracles.bitwise_union_of`
walks the bits.  The class automaton's left and right preimages are unions
of the fibres of its pre and post columns; `oracles.scanned_left_preimage`
and `scanned_right_preimage` test every map.  `_closed_piece` reads every
letter action off the images of the carrier's generators (atoms, a basis or
the join-irreducibles); `oracles.per_element_closed_piece` builds the piece
one element at a time, as before.  Seeded corpora of all four
output-side varieties, and the families of the benchmark's boolean-labels
workload.
"""

import random

import pytest

from langdual.automata import class_automaton, generate_subcoalgebra, rqc_closure
from langdual.config import DEFAULT_LIMITS, Limits
from langdual.errors import LangdualError
from langdual.languages import compile_text
from langdual.varieties import FinMorphism, FinPoset, FinSet, VarietyTag, unions, validate_morphism
from helpers import random_algebra, random_generators
from oracles import bitwise_union_of, per_element_closed_piece, scanned_left_preimage, scanned_right_preimage

AB = ("a", "b")
TAGS = (VarietyTag.BA, VarietyTag.DL01, VarietyTag.JSL0, VarietyTag.Z2VECT)
# the boolean-labels families: four round trips, then two past the default cap
FAMILIES = [
    (VarietyTag.BA, "(aaaa)*b"),
    (VarietyTag.BA, "(ab)*b"),
    (VarietyTag.DL01, "(aa|b)*ab"),
    (VarietyTag.DL01, "(aaaa)*b"),
    (VarietyTag.BA, "(ab|ba)*"),
    (VarietyTag.BA, "a(ab)*b"),
]


def test_unions_match_the_bit_loop_across_the_byte_boundaries():
    rng = random.Random(19)
    for count in range(25):
        for _ in range(8):
            masks = [rng.getrandbits(rng.choice([1, 6, 40])) for _ in range(count)]
            union = unions(masks)
            picks = [0, (1 << count) - 1, *(rng.getrandbits(count) for _ in range(30))]
            for picked in picks:
                assert union(picked) == bitwise_union_of(masks, picked), (count, picked)


def test_bits_past_the_masks_pick_nothing():
    rng = random.Random(23)
    for count in range(25):
        masks = [rng.getrandbits(12) for _ in range(count)]
        union = unions(masks)
        for _ in range(20):
            picked = rng.getrandbits(count)
            extra = rng.getrandbits(40) << count
            assert union(picked | extra) == union(picked) == bitwise_union_of(masks, picked | extra)
    assert unions([])(-1) == unions([])(12345) == 0


def _class_automata():
    """Class automata of seeded generator sets and of the workload
    families, by their number of maps."""
    rng = random.Random(29)
    gen_sets = [random_generators(rng, AB, 6) for _ in range(60)]
    gen_sets += [[compile_text(rx, AB)] for _, rx in FAMILIES]
    gen_sets += [[compile_text("(" + "a" * p + ")*", AB)] for p in (17, 23, 40)]  # (a^p)* cycles
    gen_sets += [[compile_text("(a|b)*a(a|b)(a|b)(a|b)(a|b)", AB)]]
    return [class_automaton(gens)[0] for gens in gen_sets]


def test_preimages_match_the_map_by_map_scan():
    rng = random.Random(31)
    sizes = {"small": 0, "two bytes": 0, "more": 0}
    for caut in _class_automata():
        n = caut.n_maps
        sizes["small" if n <= 8 else "two bytes" if n <= 16 else "more"] += 1
        masks = range(1 << n) if n <= 10 else [0, caut.full_mask, *(rng.getrandbits(n) for _ in range(200))]
        for ai in range(len(caut.alphabet)):
            left, right = caut.left_preimage[ai], caut.right_preimage[ai]
            for mask in masks:
                assert left(mask) == scanned_left_preimage(caut, mask, ai)
                assert right(mask) == scanned_right_preimage(caut, mask, ai)
    assert min(sizes.values()) >= 3, sizes


def _piece_outcome(build, tag, gens, include_right, limits):
    """The piece's carrier, letter-action graphs and output graph, or the
    refusal's class and message."""
    try:
        piece = build(tag, gens, include_right, limits)
    except (LangdualError, ValueError) as err:
        return ("raise", type(err), str(err))
    return ("ok", piece.carrier, [g.graph for g in piece.gamma], piece.out.graph)


def _library_piece(tag, gens, include_right, limits):
    return (rqc_closure if include_right else generate_subcoalgebra)(tag, gens, limits)


def test_pieces_match_the_per_element_letter_actions_at_every_small_cap():
    # the closures only grow with the cap, so past the first cap that builds
    # the piece every cap builds the same one; the default cap is checked too
    rng = random.Random(37)
    seen = {"ok": 0, "raise": 0}
    messages = set()
    for gens in (random_generators(rng, AB) for _ in range(40)):
        for tag in TAGS:
            for include_right in (False, True):
                for limits in [*(Limits(max_carrier=cap) for cap in range(1, 65)), DEFAULT_LIMITS]:
                    new = _piece_outcome(_library_piece, tag, gens, include_right, limits)
                    old = _piece_outcome(per_element_closed_piece, tag, gens, include_right, limits)
                    assert new == old, (tag, include_right, limits.max_carrier)
                    seen[new[0]] += 1
                    if new[0] == "raise":
                        messages.add(new[2])
                    elif limits is not DEFAULT_LIMITS:
                        assert new == _piece_outcome(_library_piece, tag, gens, include_right, DEFAULT_LIMITS)
                        break
    assert seen["ok"] >= 250 and seen["raise"] >= 3000, seen
    assert len(messages) >= 4, messages


@pytest.mark.parametrize("tag, regex", FAMILIES)
def test_workload_families_match_the_per_element_letter_actions(tag, regex):
    gens = [compile_text(regex, AB)]
    for include_right in (False, True):
        new = _piece_outcome(_library_piece, tag, gens, include_right, DEFAULT_LIMITS)
        assert new == _piece_outcome(per_element_closed_piece, tag, gens, include_right, DEFAULT_LIMITS)
    assert new[0] == ("ok" if FAMILIES.index((tag, regex)) < 4 else "raise")


def test_the_range_check_keeps_its_verdict_on_empty_and_out_of_range_graphs():
    rng = random.Random(41)
    assert validate_morphism(FinMorphism(FinSet(0), FinSet(3), ()))
    assert validate_morphism(FinMorphism(FinPoset(()), FinPoset(((True,),)), ()))
    assert not validate_morphism(FinMorphism(FinSet(0), FinSet(3), (0,)))
    for tag in (*TAGS, VarietyTag.SET, VarietyTag.POS):
        for _ in range(20):
            dom, cod = random_algebra(rng, tag), random_algebra(rng, tag)
            graph = [rng.randrange(cod.size) for _ in range(dom.size)]
            x = rng.randrange(dom.size)
            for bad in (-1, cod.size, cod.size + 7):
                graph[x] = bad
                assert not validate_morphism(FinMorphism(dom, cod, tuple(graph))), (tag, bad)
            assert not validate_morphism(FinMorphism(dom, cod, tuple(graph[:-1])))
