"""The generator-wise closures against the pairwise fixpoints they replaced.

Seeded corpora over all four dualities and all six carriers.  Every check
compares outcomes: the closed family, algebra or map, or else the refusal
message, so the caps must trip on the same inputs with the same words.  The
two-sided residual closure alone changed its message, to the shared one.
"""

import random
from dataclasses import replace

import pytest

from langdual.automata import (
    class_automaton,
    coalgebra_to_dalgebra,
    generate_subcoalgebra,
    is_rqc_closed,
    reachable_part,
    rqc_closure,
)
from langdual.cli import random_regex
from langdual.config import DEFAULT_LIMITS, Limits
from langdual.duality import DualityTag, c_tag
from langdual.errors import LangdualError, ResourceExceededError
from langdual.languages import compile_regex, two_sided_residuals
from langdual.monoids import SigmaMonoid, sigma_monoid_iso, transition_monoid
from langdual.varieties import (
    FinPoset,
    JoinSemilattice,
    VarietyTag,
    VectZ2,
    generate_family,
    present_closure,
    present_subset,
)
from helpers import language_dalgebra, random_algebra
from oracles import (
    derivative_mask_closure,
    generated_then_presented,
    mask_lattice_presentation,
    mask_language,
    pairwise_family,
    pairwise_generate_subalgebra,
    pairwise_reachable_part,
    propagated_sigma_monoid_iso,
    queue_two_sided_residuals,
    scanned_mask_lattice,
    scanned_present_subset,
    word_rqc_closed,
)

AB = ("a", "b")
SMALL_CAPS = (1, 2, 3, 4, 8)


def _outcome(build):
    try:
        return build()
    except ResourceExceededError as err:
        return f"refused: {err}"


def _generator_sets(seed, count):
    rng = random.Random(seed)
    return [
        [compile_regex(random_regex(rng, AB), AB) for _ in range(rng.randint(1, 2))]
        for _ in range(count)
    ]


def _old_piece_labels(tag, gens, include_right, limits):
    """The language set of the piece, through the pairwise oracles."""
    gens = sorted(set(gens), key=lambda g: g.sort_key())
    caut, gen_masks = class_automaton(gens, limits)
    seeds = derivative_mask_closure(caut, gen_masks, include_right, limits)
    family = pairwise_family(tag, seeds, caut.full_mask, limits.max_carrier)
    return frozenset(mask_language(caut, m) for m in family)


def test_piece_families_and_refusals_match_the_pairwise_closure():
    refused = compared = 0
    for gens in _generator_sets(seed=3, count=60):
        for tag in (VarietyTag.BA, VarietyTag.DL01, VarietyTag.JSL0, VarietyTag.Z2VECT):
            for include_right, build in ((False, generate_subcoalgebra), (True, rqc_closure)):
                for cap in (*SMALL_CAPS, 64):
                    limits = Limits(max_carrier=cap)
                    new = _outcome(lambda: frozenset(build(tag, gens, limits).labels))
                    old = _outcome(lambda: _old_piece_labels(tag, gens, include_right, limits))
                    assert new == old, (tag, include_right, cap)
                    refused += isinstance(new, str)
                    compared += 1
    assert 100 <= refused <= compared - 100


def _dual_algebras(seed, per_duality):
    rng = random.Random(seed)
    out = []
    for d in DualityTag:
        found = 0
        while found < per_duality:
            langs = [compile_regex(random_regex(rng, AB), AB) for _ in range(rng.randint(1, 2))]
            try:
                piece = rqc_closure(c_tag(d), langs, Limits(max_carrier=128))
            except LangdualError:
                continue
            out.append(coalgebra_to_dalgebra(d, piece))
            found += 1
    return rng, out


def test_reachable_parts_match_the_pairwise_closure():
    rng, algebras = _dual_algebras(seed=7, per_duality=20)
    for lang_gens in _generator_sets(seed=9, count=60):
        algebras.append(language_dalgebra(lang_gens[0]))
    tags = set()
    shrunk = refused = 0
    for a in algebras:
        for init in {a.init, rng.randrange(a.size)}:
            start = replace(a, init=init)
            for cap in (*SMALL_CAPS, a.size // 2 + 1, 4096):
                limits = Limits(max_carrier=cap)
                new = _outcome(lambda: reachable_part(start, limits))
                assert new == _outcome(lambda: pairwise_reachable_part(start, limits)), cap
                refused += isinstance(new, str)
                shrunk += not isinstance(new, str) and new.size < a.size
        tags.add(a.carrier.tag)
    assert tags == {VarietyTag.SET, VarietyTag.POS, VarietyTag.JSL0, VarietyTag.Z2VECT}
    assert shrunk >= 200 and refused >= 200


def test_generated_subalgebras_match_the_pairwise_closure():
    rng = random.Random(11)
    refused = 0
    for tag in VarietyTag:
        for _ in range(80):
            amb = random_algebra(rng, tag, max_size=16)
            gens = [rng.randrange(amb.size) for _ in range(rng.randint(0, 3))]
            for cap in (*SMALL_CAPS, 4096):
                limits = Limits(max_carrier=cap)
                new = _outcome(lambda: present_closure(amb, gens, cap, "subalgebra closure")[:2])
                assert new == _outcome(lambda: pairwise_generate_subalgebra(amb, gens, limits)), (amb, gens, cap)
                refused += isinstance(new, str)
    assert refused >= 100


def _renamed(rng, m):
    """An isomorphic copy of m under a random renaming of its elements that
    the carrier admits: any permutation for SET, POS and JSL0, an invertible
    linear map for Z2VECT."""
    n = m.size
    if isinstance(m.carrier, VectZ2):
        while True:
            images = [rng.randrange(1, n) for _ in range(m.carrier.dim)] if n > 1 else []
            rename = [0] * n
            for x in range(1, n):
                low = (x & -x).bit_length() - 1
                rename[x] = rename[x & (x - 1)] ^ images[low]
            if len(set(rename)) == n:
                break
        carrier = m.carrier
    else:
        rename = list(range(n))
        rng.shuffle(rename)
        match m.carrier:
            case FinPoset():
                order = [[False] * n for _ in range(n)]
                for x in range(n):
                    for y in range(n):
                        order[rename[x]][rename[y]] = m.carrier.leq[x][y]
                carrier = FinPoset(tuple(map(tuple, order)))
            case JoinSemilattice():
                join = [[0] * n for _ in range(n)]
                for x in range(n):
                    for y in range(n):
                        join[rename[x]][rename[y]] = rename[m.carrier.join[x][y]]
                carrier = JoinSemilattice(tuple(map(tuple, join)), rename[m.carrier.zero])
            case _:
                carrier = m.carrier
    mult = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            mult[rename[x]][rename[y]] = rename[m.mult[x][y]]
    return SigmaMonoid(carrier, m.alphabet, rename[m.unit], tuple(map(tuple, mult)), tuple(rename[g] for g in m.gen))


def _corrupted(rng, m):
    n = m.size
    for _ in range(3):
        mult = [list(row) for row in m.mult]
        x, y = rng.randrange(n), rng.randrange(n)
        mult[x][y] = (mult[x][y] + rng.randrange(1, n)) % n
        yield SigmaMonoid(m.carrier, m.alphabet, m.unit, tuple(map(tuple, mult)), m.gen)
    yield SigmaMonoid(m.carrier, m.alphabet, m.unit, m.mult, m.gen[::-1])
    yield SigmaMonoid(m.carrier, m.alphabet, m.unit, m.mult, (m.gen[0],) * len(m.gen))


def test_sigma_monoid_iso_matches_the_propagation_oracle_on_corrupted_tables():
    rng, algebras = _dual_algebras(seed=13, per_duality=16)
    found = missed = 0
    for a in algebras:
        m = transition_monoid(reachable_part(a), reverse_composition=True)
        if m.size < 2 or m.size > 40:
            continue
        twin = _renamed(rng, m)
        pairs = [(m, m), (m, twin), (twin, m)]
        for bad in _corrupted(rng, m):
            pairs += [(m, bad), (bad, m), (twin, bad), (bad, twin)]
        for x, y in pairs:
            new, old = sigma_monoid_iso(x, y), propagated_sigma_monoid_iso(x, y)
            assert (new is None) == (old is None)
            if new is not None:
                assert new.graph == old.graph
            found += new is not None
            missed += new is None
    assert found >= 100 and missed >= 500


def test_is_rqc_closed_matches_word_enumeration():
    verdicts = []
    for gens in _generator_sets(seed=17, count=60):
        for tag in (VarietyTag.BA, VarietyTag.DL01, VarietyTag.JSL0, VarietyTag.Z2VECT):
            for build in (generate_subcoalgebra, rqc_closure):
                try:
                    piece = build(tag, gens, Limits(max_carrier=128))
                except LangdualError:
                    continue
                verdict = is_rqc_closed(piece)
                assert verdict == word_rqc_closed(piece)
                verdicts.append(verdict)
    assert verdicts.count(False) >= 30 and verdicts.count(True) >= 200


def test_two_sided_residuals_match_the_queue_closure():
    """Same closure and the same caps refused; only the message changed, to
    the one every closure shares."""
    refused = compared = 0
    for gens in _generator_sets(seed=19, count=60):
        for cap in (*range(1, 9), DEFAULT_LIMITS.max_carrier):
            limits = Limits(max_carrier=cap)
            new = _outcome(lambda: two_sided_residuals(gens[0], limits))
            old = _outcome(lambda: queue_two_sided_residuals(gens[0], limits))
            if isinstance(old, str):
                assert old == "refused: two-sided residual closure too large"
                assert new == "refused: two-sided residual closure exceeded the carrier cap", cap
                refused += 1
            else:
                assert new == old, cap
            compared += 1
    assert 100 <= refused <= compared - 100


def test_generate_family_presents_what_the_scanned_element_list_gave():
    """The carrier and element masks that generate_family hands back are the
    ones that scanning its ascending element list for atoms, a basis or
    join-irreducibles gave, and both refuse at the same caps."""
    rng = random.Random(13)
    refused = compared = 0
    for tag in (VarietyTag.BA, VarietyTag.DL01, VarietyTag.JSL0, VarietyTag.Z2VECT):
        for _ in range(40):
            full = (1 << rng.randint(1, 7)) - 1
            seeds = [rng.randrange(full + 1) for _ in range(rng.randint(0, 5))]
            for cap in (*range(1, 65), DEFAULT_LIMITS.max_carrier):
                new = _outcome(lambda: generate_family(tag, seeds, full, cap, "family closure"))
                old = _outcome(lambda: generated_then_presented(tag, seeds, full, cap, "family closure"))
                assert new == old, (tag, seeds, full, cap)
                refused += isinstance(new, str)
                compared += 1
    assert 500 <= refused <= compared - 1000


def test_present_subset_accepts_exactly_the_subalgebras():
    """Closed subsets, and only those, are presented, as the scans of the
    element list presented them; every subset the scans refused with
    ValueError is refused with ValueError."""
    rng = random.Random(17)
    accepted = 0
    for tag in VarietyTag:
        for _ in range(60):
            amb = random_algebra(rng, tag, max_size=16)
            generated = pairwise_generate_subalgebra(amb, rng.sample(range(amb.size), rng.randint(0, min(2, amb.size))))[1].graph
            drawn = rng.sample(range(amb.size), rng.randint(0, amb.size))
            for subset in (generated, drawn):
                closed = sorted(pairwise_generate_subalgebra(amb, subset)[1].graph) == sorted(set(subset))
                try:
                    old = scanned_present_subset(amb, subset)
                except (ValueError, KeyError) as err:
                    old = type(err)
                if closed:
                    assert present_subset(amb, subset) == old
                    accepted += 1
                else:
                    with pytest.raises(ValueError):
                        present_subset(amb, subset)
                assert old is not ValueError or not closed
    assert accepted >= 300


def test_mask_lattice_presentation_refuses_all_the_scan_refused():
    rng = random.Random(19)
    families = [[], [0], [1], [0, 3, 5, 7]]
    for _ in range(400):
        family = {rng.randrange(16) for _ in range(rng.randint(0, 8))}
        if rng.random() < 0.5:  # close it under unions, so the scan often accepts
            family = {0} | {x | y for x in family for y in family}
        families.append(family)
    accepted = 0
    for family in families:
        try:
            old = scanned_mask_lattice(family)
        except ValueError:
            old = None
        try:
            new = mask_lattice_presentation(family)
        except ValueError:
            new = None
        assert new is None or new == old, family
        assert old is not None or new is None, family
        accepted += new is not None
    assert accepted >= 100


def test_mask_lattice_presentation_refuses_a_wide_antichain_before_listing_its_downsets():
    # the 60 singletons are all join-irreducible candidates, with 2^60
    # downsets; the family has 61 members, so the count stops past 61
    with pytest.raises(ValueError, match="not a distributive lattice of sets"):
        mask_lattice_presentation([0] + [1 << i for i in range(60)])
    # a chain of 61 has as many downsets as members and is accepted
    lattice, masks = mask_lattice_presentation([(1 << i) - 1 for i in range(61)])
    assert lattice.size == 61 and masks == tuple((1 << i) - 1 for i in range(61))
