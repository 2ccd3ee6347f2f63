"""orbit, the closure that also fills its edge table, and what is built on it.

orbit is checked against its reference, oracles.close, on the same input,
and cayley_columns against maps composed directly.  The class automaton is
checked against the breadth-first worklists it replaced
(oracles.queue_class_automaton, which acts on the generators' product) on
seeded corpora of one to three generators, at every cap from 1 to 64 and at
the default cap.
"""

import random
import tracemalloc
from itertools import accumulate

import pytest

from langdual.automata import DAlgebra, class_automaton
from langdual.cli import main, random_regex
from langdual.config import DEFAULT_LIMITS, Limits
from langdual.errors import ResourceExceededError
from langdual.languages import compile_regex, compile_text
from langdual.monoids import transition_monoid
from langdual.varieties import FinMorphism, JoinSemilattice, cayley_columns, orbit
from oracles import close, cubic_transition_monoid, queue_class_automaton, queue_joint_dfa

AB = ("a", "b")


def _closure_instances(seed, count):
    """Seeds and affine steps on Z/m, as (seeds, steps, size of the closure)."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 60)
        steps = [
            lambda x, a=rng.randrange(m), b=rng.randrange(m): (a * x + b) % m
            for _ in range(rng.randint(0, 3))
        ]
        seeds = [rng.randrange(m) for _ in range(rng.randint(1, 5))]
        yield seeds, steps, len(close(seeds, steps, m + 1, "test closure"))


def _refusal(build, *args):
    try:
        build(*args)
    except ResourceExceededError as err:
        return str(err)
    return None


def test_orbit_elements_are_closes_elements():
    for seeds, steps, size in _closure_instances(seed=1, count=300):
        elements, _, _ = orbit(seeds, steps, size, "test closure")
        assert elements == close(seeds, steps, size, "test closure")


def test_orbit_edges_and_tree_follow_the_steps():
    for seeds, steps, size in _closure_instances(seed=2, count=300):
        elements, edges, tree = orbit(seeds, steps, size, "test closure")
        n_seeds = len(set(seeds))
        assert len(edges) == len(tree) == len(elements) == len(set(elements))
        assert tree[:n_seeds] == [None] * n_seeds
        first = {}
        for i, x in enumerate(elements):
            assert len(edges[i]) == len(steps)
            for s, step in enumerate(steps):
                assert elements[edges[i][s]] == step(x)
                first.setdefault(edges[i][s], (i, s))
        for i in range(n_seeds, len(elements)):
            parent, s = tree[i]
            assert parent < i and steps[s](elements[parent]) == elements[i]
            assert first[i] == tree[i]


def test_orbit_refuses_at_the_same_size_as_close():
    tripped = 0
    for seeds, steps, size in _closure_instances(seed=3, count=150):
        for cap in range(0, size + 2):
            refusal = _refusal(close, seeds, steps, cap, "test closure")
            assert _refusal(orbit, seeds, steps, cap, "test closure") == refusal
            assert refusal in (None, "test closure exceeded the carrier cap")
            assert (refusal is not None) == (cap < size)
            tripped += refusal is not None
    assert tripped >= 200


def test_seeds_above_the_cap_are_refused_by_both_primitives():
    """The cap bounds what the closure holds, seeds included: ten distinct
    seeds are refused under a cap of 9 even with no steps, and a repeated
    seed counts once."""
    seeds = [*range(10), 0, 9]
    for build in (close, orbit):
        for steps in ([], [lambda x: (x + 1) % 10]):
            with pytest.raises(ResourceExceededError, match="^test closure exceeded the carrier cap$"):
                build(seeds, steps, 9, "test closure")
    elements, edges, tree = orbit(seeds, [lambda x: (x + 1) % 10], 10, "test closure")
    assert elements == close(seeds, [], 10, "test closure") == list(range(10)) and tree == [None] * 10
    assert [row[0] for row in edges] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 0]


def _map_families(seed, count):
    """The identity on 2 to 6 points and 1 to 3 random maps as steps "then
    map", as (identity, maps, steps, size of the monoid), the monoids of at
    most 200 maps."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(2, 6)
        maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        steps = [lambda f, g=g: tuple(g[x] for x in f) for g in maps]
        identity = tuple(range(n))
        size = len(close([identity], steps, 10**4, "test closure"))
        if size <= 200:
            count -= 1
            yield identity, maps, steps, size


def test_cayley_columns_compose_the_maps_on_either_side():
    largest = 0
    for identity, maps, steps, size in _map_families(seed=5, count=120):
        elements, right, left, tree = cayley_columns(identity, steps, size, "test closure")
        found, _, found_tree = orbit([identity], steps, size, "test closure")
        assert (elements, tree) == (found, found_tree[1:])
        assert elements[0] == identity and len(right) == len(left) == len(maps)
        index = {f: i for i, f in enumerate(elements)}
        for g, step, right_col, left_col in zip(maps, steps, right, left):
            assert right_col == tuple(index[step(f)] for f in elements)
            assert left_col == tuple(index[tuple(f[x] for x in g)] for f in elements)
        largest = max(largest, size)
    assert largest >= 100


def test_cayley_columns_refuse_as_orbit_does_at_every_cap():
    tripped = 0
    for identity, _, steps, size in _map_families(seed=6, count=40):
        for cap in range(1, size + 2):
            refusal = _refusal(orbit, [identity], steps, cap, "test closure")
            assert _refusal(cayley_columns, identity, steps, cap, "test closure") == refusal
            assert (refusal is not None) == (cap < size)
            tripped += refusal is not None
    assert tripped >= 200


def _class_automaton_outcome(build, gens, limits):
    """Everything but the maps, whose states differ: the library's act on
    the generators' DFAs side by side, the oracle's on their product."""
    try:
        caut, masks = build(gens, limits)
    except (ResourceExceededError, ValueError) as err:
        return type(err).__name__, str(err)
    return caut.alphabet, caut.post, caut.pre, masks


def _side_by_side(gens, product_maps):
    """The oracle's maps read on the generators' DFAs side by side: map j
    sends generator i's state q, at offset_i + q, to the i-th component of
    where the oracle's map j sends a product state with q as its i-th
    component; every state is such a component."""
    _, _, _, states = queue_joint_dfa(gens)
    offsets = list(accumulate((g.n_states for g in gens), initial=0))
    maps = []
    for product_map in product_maps:
        image = {}
        for p, state in enumerate(states):
            for i, q in enumerate(state):
                target = offsets[i] + states[product_map[p]][i]
                assert image.setdefault(offsets[i] + q, target) == target
        assert sorted(image) == list(range(offsets[-1]))
        maps.append(tuple(image[s] for s in range(offsets[-1])))
    return tuple(maps)


def _generator_sets(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield [compile_regex(random_regex(rng, AB), AB) for _ in range(rng.randint(1, 3))]


def test_class_automaton_matches_the_worklist_oracle_at_every_cap():
    caps = [*range(1, 65), DEFAULT_LIMITS.max_carrier]
    refused = largest = 0
    for gens in _generator_sets(seed=4, count=40):
        for cap in caps:
            limits = Limits(max_carrier=cap)
            new = _class_automaton_outcome(class_automaton, gens, limits)
            assert new == _class_automaton_outcome(queue_class_automaton, gens, limits), cap
            if new[0] == "ResourceExceededError":
                assert new[1] == "transition-map closure exceeded the carrier cap"
                refused += 1
            else:
                maps = class_automaton(gens, limits)[0].maps
                assert maps == _side_by_side(gens, queue_class_automaton(gens, limits)[0].maps), cap
                largest = max(largest, len(maps))
    assert refused >= 100 and largest >= 20


def test_class_automaton_refuses_generators_over_different_alphabets_as_before():
    gens = [compile_text("a*", "ab"), compile_text("a*", "a")]
    new = _class_automaton_outcome(class_automaton, gens, DEFAULT_LIMITS)
    assert new == _class_automaton_outcome(queue_class_automaton, gens, DEFAULT_LIMITS)
    assert new == ("ValueError", "generators must share one alphabet")


PRIME_CYCLES = ["(" + "a" * p + ")*" for p in (2, 3, 5, 7, 11, 13, 17)]


def test_the_generators_product_refuses_at_the_carrier_cap_before_it_is_built():
    """The product of these cycles has 2·3·5·7·11·13·17 = 510,510 states, so
    the map closure passes any cap below that; the maps act on the 58 states
    side by side, so it refuses with no product built."""
    gens = [compile_text(text, "a") for text in PRIME_CYCLES]
    tracemalloc.start()
    try:
        with pytest.raises(ResourceExceededError, match="^transition-map closure exceeded the carrier cap$"):
            class_automaton(gens, Limits(max_carrier=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_maps_on_coprime_cycles_take_no_product():
    """The product of these cycles has 2·3·5·7·11 = 2,310 states and as many
    maps; side by side the maps act on 28 states."""
    gens = [compile_text(text, "a") for text in PRIME_CYCLES[:5]]
    tracemalloc.start()
    try:
        caut, masks = class_automaton(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert caut.n_maps == 2310 and len(caut.maps[0]) == 28
    assert [bin(m).count("1") for m in masks] == [2310 // p for p in (2, 3, 5, 7, 11)]
    assert peak < 8 * 2**20


def test_the_product_refusal_reaches_the_command_line(capsys):
    argv = ["closure", "--variety", "ba", "--alphabet", "a", "--max-carrier", "64"]
    for text in PRIME_CYCLES:
        argv += ["--regex", text]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: transition-map closure exceeded the carrier cap\n"


def test_a_zero_that_is_no_word_image_counts_against_the_monoid_cap():
    """On the chain 0 < 1 < 2 < 3, the letters 0,0,1,3 and 0,1,3,3 have five
    word images, closed under joins, and the zero map is none of them: it is
    the sixth element, admitted under the cap like any sum."""
    chain = JoinSemilattice(tuple(tuple(max(x, y) for y in range(4)) for x in range(4)), 0)
    letters = tuple(FinMorphism(chain, chain, graph) for graph in ((0, 0, 1, 3), (0, 1, 3, 3)))
    alg = DAlgebra(chain, AB, letters, 2)
    for build in (transition_monoid, cubic_transition_monoid):
        for reverse in (False, True):
            with pytest.raises(ResourceExceededError, match="^transition monoid exceeded the carrier cap$"):
                build(alg, reverse, Limits(max_carrier=5))
            assert build(alg, reverse, Limits(max_carrier=6)).size == 6
