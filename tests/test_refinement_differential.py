"""The single partition refinement against one minimization per language.

Seeded corpora over all four dualities: state labels from one refinement of
the whole coalgebra against one minimization per state, the right-derivative
check on k+1 copies of the piece against one right derivative per label and
letter, minimize_dfa against the scanning refinement it replaced, equality
of canonical forms against the union-find bisimulation it replaced, the DL01
morphism check on join-irreducibles against the pairwise one, and the direct
downset enumeration and irreducibility test against the exhaustive scans.
"""

import random
from dataclasses import replace

from langdual.automata import coalg_shift, generate_subcoalgebra, is_rqc_closed, rqc_closure, state_language
from langdual.cli import random_regex
from langdual.config import Limits
from langdual.correspondence import monoid_to_piece, piece_to_monoid
from langdual.duality import DualityTag, c_tag
from langdual.errors import LangdualError
from langdual.languages import (
    Dfa,
    _restrict_reachable,
    canonical_language,
    compile_regex,
    minimize_dfa,
)
from langdual.varieties import (
    FinMorphism,
    VarietyTag,
    generate_family,
    validate_morphism,
)
from helpers import random_algebra, random_morphism
from oracles import (
    bisimulation_equivalent,
    covers_lattice_presentation,
    letterwise_rqc_closed,
    mask_lattice_presentation,
    pairwise_dl_morphism,
    per_state_labels,
    scanning_language,
    scanning_minimize_dfa,
    subset_downset_masks,
)

AB = ("a", "b")


def _pieces(seed, count):
    """(duality, piece, right-closed) for every build that fits the cap."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gens = [compile_regex(random_regex(rng, AB), AB) for _ in range(rng.randint(1, 2))]
        for d in DualityTag:
            for build, right in ((generate_subcoalgebra, False), (rqc_closure, True)):
                try:
                    out.append((d, build(c_tag(d), gens, Limits(max_carrier=128)), right))
                except LangdualError:
                    continue
    return out


def test_labels_match_one_minimization_per_state():
    pieces = _pieces(seed=21, count=40)
    round_trips = merged = 0
    for d, piece, right in pieces:
        assert piece.labels == per_state_labels(piece)
        if right:
            back = monoid_to_piece(d, piece_to_monoid(d, piece))
            assert back.labels == per_state_labels(back)
            round_trips += 1
        if piece.size <= 32:
            # shifting the outputs makes distinct states accept equal languages
            shifted = coalg_shift(piece, "ab")
            labels = per_state_labels(shifted)
            assert tuple(state_language(shifted, s) for s in range(shifted.size)) == labels
            merged += len(set(labels)) < shifted.size
    assert {d for d, _, _ in pieces} == set(DualityTag)
    assert round_trips >= 100 and merged >= 200


def test_is_rqc_closed_matches_one_right_derivative_per_label_and_letter():
    verdicts = []
    for _, piece, right in _pieces(seed=23, count=40):
        verdict = is_rqc_closed(piece)
        assert verdict == letterwise_rqc_closed(piece)
        assert verdict or not right
        verdicts.append(verdict)
    assert verdicts.count(False) >= 30 and verdicts.count(True) >= 200


def _random_dfa(rng):
    """A random DFA padded with copies of its states, which are equivalent
    to them, and with states that nothing reaches."""
    k = rng.randint(1, 3)
    alphabet = "abc"[:k]
    n = rng.randint(1, 8)
    delta = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    finals = {q for q in range(n) if rng.random() < 0.4}
    for _ in range(rng.randint(0, 4)):
        q = rng.randrange(n)
        delta.append(list(delta[q]))
        if q in finals:
            finals.add(len(delta) - 1)
        p, ai = rng.randrange(len(delta)), rng.randrange(k)
        delta[p][ai] = len(delta) - 1
    for _ in range(rng.randint(0, 3)):
        delta.append([rng.randrange(len(delta) + 1) for _ in range(k)])
        if rng.random() < 0.5:
            finals.add(len(delta) - 1)
    order = list(range(len(delta)))
    rng.shuffle(order)
    position = {q: i for i, q in enumerate(order)}
    table = tuple(tuple(position[t] for t in delta[q]) for q in order)
    return Dfa(tuple(alphabet), len(table), position[0], frozenset(position[q] for q in finals), table)


def test_minimize_dfa_is_identical_to_the_scanning_refinement():
    rng = random.Random(29)
    merged = dropped = 0
    for _ in range(600):
        d = _random_dfa(rng)
        m = minimize_dfa(d)
        assert m == scanning_minimize_dfa(d)
        assert canonical_language(d) == scanning_language(d)
        reachable = _restrict_reachable(d).n_states
        merged += m.n_states < reachable
        dropped += reachable < d.n_states
    assert merged >= 300 and dropped >= 300


def test_dfa_equivalent_matches_the_bisimulation():
    """Pairs of a random DFA with another random one, with itself from
    another initial state, with its scanned minimal form, and with itself
    over another alphabet."""
    rng = random.Random(41)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        d1 = _random_dfa(rng)
        others = [
            _random_dfa(rng),
            replace(d1, initial=rng.randrange(d1.n_states)),
            scanning_language(d1).dfa,
            replace(d1, alphabet=tuple("xyz"[: len(d1.alphabet)])),
        ]
        for d2 in others:
            verdict = canonical_language(d1) == canonical_language(d2)
            assert verdict == bisimulation_equivalent(d1, d2)
            verdicts[verdict] += 1
        assert canonical_language(d1) != canonical_language(others[3])
    assert verdicts[True] >= 500 and verdicts[False] >= 600


def _join_morphisms(rng, dom, cod):
    """Maps that send each element to the join of monotone images of its
    join-irreducibles: they preserve 0 and joins, but meets only sometimes."""
    cod_masks = cod.downset_masks
    below = [sum(1 << i for i in range(dom.n_ji) if dom.ji_leq[i][j]) for j in range(dom.n_ji)]
    image = [0] * dom.n_ji
    for j in sorted(range(dom.n_ji), key=lambda j: below[j].bit_count()):
        floor = 0
        for i in range(dom.n_ji):
            if below[j] >> i & 1 and i != j:
                floor |= image[i]
        image[j] = rng.choice([m for m in cod_masks if m & floor == floor])
    graph = []
    for mask in dom.downset_masks:
        joined = 0
        for j in range(dom.n_ji):
            if mask >> j & 1:
                joined |= image[j]
        graph.append(cod_masks.index(joined))
    return FinMorphism(dom, cod, tuple(graph))


def test_dl_morphism_check_matches_the_pairwise_check():
    rng = random.Random(31)
    verdicts = {True: 0, False: 0}
    join_only = 0
    for _ in range(300):
        dom = random_algebra(rng, VarietyTag.DL01)
        cod = random_algebra(rng, VarietyTag.DL01)
        valid = random_morphism(rng, dom, cod)
        joins = _join_morphisms(rng, dom, cod)
        candidates = [valid, joins]
        if cod.size > 1:
            graph = list(valid.graph)
            x = rng.randrange(dom.size)
            graph[x] = (graph[x] + rng.randrange(1, cod.size)) % cod.size
            candidates.append(FinMorphism(dom, cod, tuple(graph)))
        for m in candidates:
            verdict = validate_morphism(m)
            assert verdict == pairwise_dl_morphism(m), m
            verdicts[verdict] += 1
        # the top is the last element: its downset mask is the largest
        join_only += joins.graph[-1] == cod.size - 1 and not validate_morphism(joins)
    assert verdicts[True] >= 300 and verdicts[False] >= 200
    assert join_only >= 20


def test_downsets_and_irreducibles_match_the_exhaustive_scans():
    rng = random.Random(37)
    for _ in range(200):
        lattice = random_algebra(rng, VarietyTag.DL01, max_size=64)
        assert lattice.downset_masks == subset_downset_masks(lattice)
    for _ in range(200):
        seeds = [rng.randrange(256) for _ in range(rng.randint(1, 5))]
        presented = generate_family(VarietyTag.DL01, seeds, 255, 4096, "lattice")
        family = presented[1]
        assert mask_lattice_presentation(family) == covers_lattice_presentation(family) == presented
