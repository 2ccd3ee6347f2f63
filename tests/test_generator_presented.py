"""Maps built from their images of the generators, against the tables they
replaced.

The pieces' letter actions and outputs, the duals of SET, POS and Z2VECT
maps and the round trip's witnesses are built on generators
(`FinMorphism.on_generators`): their graphs are built on first read, and
validation, composition and dualization read the images.  The oracles are
the eager builders they replaced: `tabled_closed_piece` and
`tabled_dual_morphism` build every map as a full table, and `summed_graph`
sums a map's images one element at a time.

On seeded generator sets of all four dualities, at every cap from 1 to two
past the piece's size: the same piece with the same graphs, or the same
refusal; the same dual algebra and the same dualized-back automaton.  On
random and corrupted images: the graph is the oracle's, and
`validate_morphism` gives the verdict that the pairwise oracle gives on
that graph.  A 4,096-state boolean round trip builds no table of 4,096
entries until its witness is read.
"""

import random

import pytest

import langdual.varieties as varieties
from langdual.automata import coalgebra_to_dalgebra, dalgebra_to_coalgebra, reachable_part, rqc_closure
from langdual.config import Limits
from langdual.correspondence import correspond, monoid_to_piece, piece_to_monoid
from langdual.duality import DualityTag, c_tag, d_tag
from langdual.errors import LangdualError
from langdual.languages import compile_text
from langdual.monoids import _subdirect_pairs, subdirect_product
from langdual.varieties import FinMorphism, VarietyTag, constants, free_on_one, generate_family, validate_morphism
from helpers import random_algebra, random_generators, random_morphism
from oracles import (
    bytes_signature_pairing,
    pairwise_validate_morphism,
    summed_graph,
    tabled_closed_piece,
    tabled_dual_morphism,
)

AB = ("a", "b")


def _outcome(build):
    try:
        return build()
    except LangdualError as err:
        return type(err), str(err)


def _graphs(q):
    return [m.graph for m in (*q.gamma, q.out)]


def test_pieces_and_their_duals_are_the_tabled_ones_at_every_cap():
    rng = random.Random(61)
    compared = refused = 0
    sizes = {d: set() for d in DualityTag}
    for _ in range(30):
        gens = random_generators(rng, AB, max_states=4)
        for d in DualityTag:
            full = _outcome(lambda: rqc_closure(c_tag(d), gens, Limits(max_carrier=256)))
            if isinstance(full, tuple):
                continue
            sizes[d].add(full.size)
            for cap in range(1, full.size + 3):
                limits = Limits(max_carrier=cap)
                new = _outcome(lambda: rqc_closure(c_tag(d), gens, limits))
                old = _outcome(lambda: tabled_closed_piece(c_tag(d), gens, True, limits))
                compared += 1
                if isinstance(old, tuple):
                    assert new == old, (d, cap)
                    refused += 1
                    continue
                assert new.carrier == old.carrier and _graphs(new) == _graphs(old), (d, cap)
            algebra = coalgebra_to_dalgebra(d, full)
            assert [m.graph for m in algebra.alpha] == [tabled_dual_morphism(d, g).graph for g in full.gamma]
            monoid = piece_to_monoid(d, full)
            back = monoid_to_piece(d, monoid)
            left = reachable_part(algebra)
            tabled = [tabled_dual_morphism(d, m).graph for m in left.alpha]
            returned = dalgebra_to_coalgebra(d, left)
            assert [m.graph for m in returned.gamma] == tabled
            # the output: the dual of the initial state's map, then the table
            # that identified the dual of the one-point algebra with the two-element one
            start = FinMorphism(free_on_one(d_tag(d)), left.carrier, (*constants(left.carrier), left.init))
            relabel = (1, 0) if d is DualityTag.JSL_SELF else (0, 1)
            assert returned.out.graph == tuple(relabel[v] for v in tabled_dual_morphism(d, start).graph)
            assert back.size == full.size and all(len(g) == back.size for g in _graphs(back))
    assert refused >= 100 and compared - refused >= 100, (compared, refused)
    assert all(max(found) >= 16 for found in sizes.values()), sizes


def _presented(dom, cod, images):
    return FinMorphism.on_generators(dom, cod, images)


@pytest.mark.parametrize("tag", [VarietyTag.BA, VarietyTag.DL01, VarietyTag.JSL0, VarietyTag.Z2VECT])
def test_graphs_and_verdicts_of_random_and_corrupted_images(tag):
    rng = random.Random(67)
    verdicts = [0, 0]
    for _ in range(150):
        dom, cod = random_algebra(rng, tag, max_size=16), random_algebra(rng, tag, max_size=16)
        lawful = random_morphism(rng, dom, cod)
        images = list(lawful.images)
        assert _presented(dom, cod, images).graph == lawful.graph
        drawn = [rng.randrange(cod.size) for _ in images]
        corrupted = list(images)
        if corrupted:
            corrupted[rng.randrange(len(corrupted))] = rng.randrange(cod.size)
        for case in (images, drawn, corrupted):
            m = _presented(dom, cod, case)
            verdict = validate_morphism(m)
            graph = summed_graph(dom, cod, case)
            assert m.graph == graph
            assert verdict == pairwise_validate_morphism(FinMorphism(dom, cod, graph)), (dom, cod, case)
            verdicts[verdict] += 1
    # every list of basis images is a linear map; few small JSL0s have an irreducible that is not join-prime
    assert verdicts[1] >= 150 and verdicts[0] >= {VarietyTag.Z2VECT: 0, VarietyTag.JSL0: 10}.get(tag, 150), verdicts


def test_composites_and_calls_read_the_images_as_the_graph_does():
    rng = random.Random(71)
    for tag in (VarietyTag.BA, VarietyTag.DL01, VarietyTag.JSL0, VarietyTag.Z2VECT):
        for _ in range(60):
            a, b, c = (random_algebra(rng, tag, max_size=16) for _ in range(3))
            f, g = random_morphism(rng, a, b), random_morphism(rng, b, c)
            pf, pg = _presented(a, b, f.images), _presented(b, c, g.images)
            assert pf.then(pg).graph == f.then(g).graph
            assert [pf(x) for x in range(a.size)] == list(f.graph)


def test_a_boolean_round_trip_of_4096_states_builds_no_table_of_its_size(monkeypatch):
    longest = [0]
    for name in ("subset_sums", "generator_sums"):
        original = getattr(varieties, name)

        def measured(*args, original=original):
            out = original(*args)
            longest[0] = max(longest[0], len(out))
            return out

        monkeypatch.setattr(varieties, name, measured)
    c = correspond(DualityTag.BA_SET, [compile_text("(aab)*", AB)])
    back = monoid_to_piece(DualityTag.BA_SET, c.monoid)
    maps = (*c.piece.gamma, c.piece.out, *back.gamma, back.out, c.witness.forward, c.witness.backward)
    assert (c.piece.size, c.monoid.size) == (4096, 12)
    assert longest[0] < 4096 and not any("graph" in vars(m) for m in maps)
    paired = bytes_signature_pairing(c.piece, back, c.monoid)
    assert (c.witness.forward.graph, c.witness.backward.graph) == (paired[0].graph, paired[1].graph)


def test_z2vect_families_and_products_are_numbered_in_ascending_order():
    """generate_family hands back a Z2VECT family's masks ascending, so
    transition monoids and subdirect products are numbered by their sorted
    keys and pairs."""
    rng = random.Random(73)
    for _ in range(300):
        seeds = [rng.getrandbits(rng.randint(1, 12)) for _ in range(rng.randint(0, 6))]
        masks = generate_family(VarietyTag.Z2VECT, seeds, 0, 1 << 12, "test closure")[1]
        assert list(masks) == sorted(set(masks)) and len(masks) == len(set(masks))
    products = 0
    for _ in range(40):
        monoids = []
        for _ in range(2):
            gens = random_generators(rng, AB, max_states=4)
            piece = _outcome(lambda: rqc_closure(VarietyTag.Z2VECT, gens, Limits(max_carrier=64)))
            if not isinstance(piece, tuple):
                monoids.append(piece_to_monoid(DualityTag.Z2_SELF, piece))
        if len(monoids) < 2:
            continue
        m1, m2 = monoids
        product = _outcome(lambda: subdirect_product(m1, m2, Limits(max_carrier=256)))
        if isinstance(product, tuple):
            continue
        pairs = _subdirect_pairs(m1, m2, Limits(max_carrier=256))
        index = {p: i for i, p in enumerate(pairs)}
        assert product.unit == index[m1.unit, m2.unit]
        assert product.gen == tuple(index[p] for p in zip(m1.gen, m2.gen))
        products += 1
    assert products >= 10
