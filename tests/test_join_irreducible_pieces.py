"""DL01 carriers read off the join-irreducibles of their meets, and the
generator sums computed for every element at once.

generate_family presents a DL01 family by the least meet holding each point,
and counts the downsets of those join-irreducibles to the cap, without
closing the meets under joins.  The oracle is the join closure that it
replaced, presented by the verifying mask_lattice_presentation (in
oracles.py).  generator_sums reads a DL01 element's union of images from one
byte table per 8 join-irreducibles, over all downset masks at once; the
oracles sum each element bit by bit.
"""

import random
from functools import reduce
from operator import or_, xor

from langdual.errors import LangdualError
from langdual.varieties import (
    BoolAlg,
    FinMorphism,
    VarietyTag,
    VectZ2,
    generate_family,
    generator_sums,
    generators,
    validate_morphism,
)
from helpers import random_algebra, random_morphism
from oracles import bitwise_union_of, join_closed_lattice, pairwise_dl_morphism, pairwise_validate_morphism


def _outcome(build):
    try:
        return build()
    except (LangdualError, ValueError) as err:
        return type(err), str(err)


def test_dl01_family_matches_the_join_closure_at_every_cap():
    """The same lattice and element masks, or the same refusal (class and
    message), at every cap from 1 to two past the lattice's size."""
    rng = random.Random(41)
    sizes, refused = set(), 0
    for _ in range(600):
        full = (1 << rng.randint(0, 9)) - 1
        seeds = [rng.randrange(full + 1) for _ in range(rng.randint(0, 6))]
        size = generate_family(VarietyTag.DL01, seeds, full, 1 << 12, "lattice")[0].size
        sizes.add(size)
        for cap in range(1, size + 3):
            new = _outcome(lambda: generate_family(VarietyTag.DL01, seeds, full, cap, "operation closure"))
            old = _outcome(lambda: join_closed_lattice(seeds, full, cap, "operation closure"))
            assert new == old, (seeds, full, cap)
            refused += isinstance(new[0], type)
    assert refused >= 4000 and max(sizes) >= 100 and min(sizes) == 1


def test_dl01_family_refuses_a_wide_antichain_by_its_downset_count():
    # 12 disjoint seeds meet only in 0: 14 meets, 2^12 unions
    seeds = [1 << i for i in range(12)]
    for cap in (14, 4095):
        assert _outcome(lambda: generate_family(VarietyTag.DL01, seeds, 4095, cap, "operation closure")) == _outcome(
            lambda: join_closed_lattice(seeds, 4095, cap, "operation closure")
        )
    lattice, masks = generate_family(VarietyTag.DL01, seeds, 4095, 4096, "operation closure")
    assert lattice.n_ji == 12 and masks == tuple(range(4096))


def test_bulk_generator_sums_match_the_per_element_sums():
    """DL01 lattices of up to 20 join-irreducibles, so up to three byte
    tables, and BA and Z2VECT carriers of up to 10 generators."""
    rng = random.Random(43)
    chunks = set()
    for _ in range(200):
        # prefixes of the 20 points make long chains, hence many JIs
        seeds = [(1 << rng.randint(1, 20)) - 1 for _ in range(rng.randint(0, 20))]
        seeds += [rng.getrandbits(20) for _ in range(rng.randint(1, 3))]
        lattice = generate_family(VarietyTag.DL01, seeds, (1 << 20) - 1, 1 << 14, "lattice")[0]
        images = [rng.getrandbits(12) for _ in range(lattice.n_ji)]
        assert generator_sums(lattice, images) == [bitwise_union_of(images, d) for d in lattice.downset_masks]
        chunks.add(-(-lattice.n_ji // 8))
    assert chunks >= {1, 2, 3}
    for _ in range(100):
        k = rng.randint(0, 10)
        images = [rng.getrandbits(12) for _ in range(k)]
        for alg, op in ((BoolAlg(k), or_), (VectZ2(k), xor)):
            expected = [reduce(op, (images[i] for i in range(k) if x >> i & 1), 0) for x in range(1 << k)]
            assert generator_sums(alg, images) == expected


def test_generator_sums_of_images_that_are_no_morphism_are_still_refused():
    """A graph built as the generator sums of arbitrary images passes the
    sum check, but not the other laws: the BA images must be disjoint and
    cover the top, the DL01 ones keep 1 and the meets of JIs; a Z2VECT graph
    is refused once one of its sums is changed."""
    rng = random.Random(47)
    verdicts = {tag: [0, 0] for tag in (VarietyTag.BA, VarietyTag.DL01, VarietyTag.Z2VECT)}
    for _ in range(300):
        tag = rng.choice(list(verdicts))
        dom, cod = random_algebra(rng, tag, max_size=16), random_algebra(rng, tag, max_size=16)
        images = [rng.randrange(cod.size) for _ in generators(dom)]
        if tag is VarietyTag.DL01:
            # a union of downsets is a downset, so every sum is an element
            masks = generator_sums(dom, [cod.downset_masks[y] for y in images])
            graph = list(map(cod.downset_index.__getitem__, masks))
            oracle = pairwise_dl_morphism
        else:
            graph = generator_sums(dom, images)
            if tag is VarietyTag.Z2VECT and rng.random() < 0.5:
                graph[rng.randrange(1, dom.size)] ^= rng.randrange(1, cod.size)
            oracle = pairwise_validate_morphism
        for m in (FinMorphism(dom, cod, tuple(graph)), random_morphism(rng, dom, cod)):
            verdict = validate_morphism(m)
            assert verdict == oracle(m), m
            verdicts[tag][verdict] += 1
    assert all(refused >= 20 and accepted >= 20 for refused, accepted in verdicts.values()), verdicts
