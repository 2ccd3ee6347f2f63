"""One cap rule: Limits.max_carrier bounds what a closure holds, seeds
included.

Every call that closes one carrier is run at every cap from 1 to the size it
returns plus 2, on seeded corpora: it must succeed exactly when that size is
at most the cap, and otherwise raise ResourceExceededError.  Calls that build
several carriers must return only carriers within the cap, give the same
result at every cap where they succeed, and, once they succeed at a cap,
succeed at every larger one.
"""

import random
from dataclasses import replace

import pytest

from langdual.automata import (
    DAlgebra,
    coalgebra_to_dalgebra,
    generate_subcoalgebra,
    reachable_part,
    rqc_closure,
    rqc_join,
)
from langdual.cli import random_regex
from langdual.config import DEFAULT_LIMITS, Limits
from langdual.correspondence import correspond, piece_to_monoid
from langdual.duality import DualityTag, c_tag
from langdual.errors import LangdualError, ResourceExceededError
from langdual.languages import compile_regex, compile_text, two_sided_residuals
from langdual.monoids import subdirect_product, transition_monoid
from langdual.varieties import FinMorphism, FinSet, VarietyTag, generate_family, orbit, present_closure
from helpers import C_OPERATION_TAGS, language_dalgebra, random_algebra, random_generators
from oracles import close

AB = ("a", "b")
# languages whose transition monoids outgrow their automata
TEXTS = ("(ab|ba)*a", "(aab)*", "(a|b)*abb", "(aa|b)*ab", "a(a|b)*b")


def _outcome(build):
    try:
        return build()
    except ResourceExceededError as err:
        return err


def _check_single(build, size_of):
    """build(cap) succeeds exactly at the caps of at least the size it
    returns at the default cap, with that size."""
    size = size_of(build(DEFAULT_LIMITS.max_carrier))
    for cap in range(1, size + 3):
        got = _outcome(lambda: build(cap))
        if cap < size:
            assert isinstance(got, ResourceExceededError), (cap, size)
            assert str(got).endswith(" exceeded the carrier cap")
        else:
            assert not isinstance(got, ResourceExceededError), (cap, size, got)
            assert size_of(got) == size
    return size


def _check_composite(build, carriers, key):
    """build(limits) returns carriers within the cap, one result at every
    cap where it succeeds, and refuses only below some cap."""
    full = build(DEFAULT_LIMITS)
    largest = max(c.size for c in carriers(full))
    succeeded = False
    for cap in range(1, largest + 3):
        got = _outcome(lambda: build(Limits(max_carrier=cap)))
        if isinstance(got, ResourceExceededError):
            assert not succeeded, cap
        else:
            succeeded = True
            assert all(c.size <= cap for c in carriers(got)), cap
            assert key(got) == key(full), cap
    assert succeeded
    return largest


def _affine_instances(rng, count):
    for _ in range(count):
        m = rng.randint(1, 40)
        steps = [lambda x, a=rng.randrange(m), b=rng.randrange(m): (a * x + b) % m for _ in range(rng.randint(0, 3))]
        yield [rng.randrange(m) for _ in range(rng.randint(1, 8))], steps


def _languages(rng, count):
    return [compile_regex(random_regex(rng, AB), AB) for _ in range(count)]


def _small_generator_sets(rng, tag, count, cap):
    """Sets of one or two random languages whose closed piece under tag has
    at most cap states, with those pieces."""
    found = []
    while len(found) < count:
        gens = random_generators(rng, AB)
        try:
            found.append((gens, rqc_closure(tag, gens, Limits(max_carrier=cap))))
        except LangdualError:
            continue
    return found


@pytest.fixture(scope="module")
def pieces():
    """Six closed pieces per duality, at most 32 states each."""
    rng = random.Random(8)
    return {d: [piece for _, piece in _small_generator_sets(rng, c_tag(d), 6, 32)] for d in DualityTag}


def test_close_and_orbit_hold_at_most_the_cap():
    rng = random.Random(1)
    grown_from_many = 0
    for seeds, steps in _affine_instances(rng, 60):
        size = _check_single(lambda cap: close(seeds, steps, cap, "test closure"), len)
        assert _check_single(lambda cap: orbit(seeds, steps, cap, "test closure")[0], len) == size
        grown_from_many += len(set(seeds)) > 1 and size > len(set(seeds))
    assert grown_from_many >= 10


def test_generate_family_holds_at_most_the_cap():
    rng = random.Random(2)
    for tag in C_OPERATION_TAGS:
        for _ in range(12):
            full = (1 << rng.randint(1, 5)) - 1
            seeds = [rng.randrange(full + 1) for _ in range(rng.randint(0, 4))]
            _check_single(lambda cap: generate_family(tag, seeds, full, cap, "test closure")[0], lambda a: a.size)


def test_present_closure_holds_at_most_the_cap():
    rng = random.Random(3)
    for tag in VarietyTag:
        for _ in range(12):
            amb = random_algebra(rng, tag, max_size=16)
            gens = [rng.randrange(amb.size) for _ in range(rng.randint(0, 4))]
            _check_single(lambda cap: present_closure(amb, gens, cap, "test closure")[0], lambda a: a.size)


def _generated_algebras(pieces):
    """Reachable parts of the pieces' dual algebras from their initial state
    and from another one, and of plain automata: all six carriers' worth of
    algebra-side tags, each generated by its initial state."""
    rng = random.Random(4)
    algebras = []
    for d, found in pieces.items():
        for piece in found:
            a = coalgebra_to_dalgebra(d, piece)
            algebras += [a, replace(a, init=rng.randrange(a.size))]
    algebras += map(language_dalgebra, _languages(rng, 8) + [compile_text(text, AB) for text in TEXTS])
    return algebras


def test_reachable_part_holds_at_most_the_cap(pieces):
    for a in _generated_algebras(pieces):
        _check_single(lambda cap: reachable_part(a, Limits(max_carrier=cap)), lambda r: r.size)


def test_transition_monoid_holds_at_most_the_cap(pieces):
    for a in _generated_algebras(pieces):
        a = reachable_part(a)
        for reverse in (False, True):
            _check_single(lambda cap: transition_monoid(a, reverse, Limits(max_carrier=cap)), lambda m: m.size)


def test_the_identity_and_the_letters_count_against_the_monoid_cap():
    """Two constant letters on two states: the identity and the letters are
    three maps, so a cap of 2 refuses the monoid, as it does no other."""
    two = FinSet(2)
    a = DAlgebra(two, AB, (FinMorphism(two, two, (1, 1)), FinMorphism(two, two, (0, 0))), 0)
    for reverse in (False, True):
        with pytest.raises(ResourceExceededError, match="^transition monoid exceeded the carrier cap$"):
            transition_monoid(a, reverse, Limits(max_carrier=2))
        assert transition_monoid(a, reverse, Limits(max_carrier=3)).size == 3


def test_subdirect_product_and_two_sided_residuals_hold_at_most_the_cap(pieces):
    for d, found in pieces.items():
        monoids = [piece_to_monoid(d, piece) for piece in found]
        for m1, m2 in zip(monoids, monoids[1:]):
            _check_single(lambda cap: subdirect_product(m1, m2, Limits(max_carrier=cap)), lambda m: m.size)
    for lang in _languages(random.Random(5), 12):
        _check_single(lambda cap: two_sided_residuals(lang, Limits(max_carrier=cap)), len)


def _monoid_key(m):
    return m.carrier, m.unit, m.gen, m.letter_rows, m.letter_cols


def test_pieces_and_joins_build_only_carriers_within_the_cap(pieces):
    rng = random.Random(6)
    for tag in C_OPERATION_TAGS:
        for gens, _ in _small_generator_sets(rng, tag, 3, 64):
            for build in (generate_subcoalgebra, rqc_closure):
                _check_composite(lambda limits: build(tag, gens, limits), lambda q: [q.carrier], lambda q: q)
    for d, found in pieces.items():
        for p1, p2 in zip(found, found[1:]):
            _check_composite(lambda limits: rqc_join(c_tag(d), (p1, p2), limits), lambda q: [q.carrier], lambda q: q)


def test_monoids_and_correspondences_build_only_carriers_within_the_cap(pieces):
    for d, found in pieces.items():
        for piece in found:
            # replace keeps no monoid, so each cap builds its own
            _check_composite(lambda limits: piece_to_monoid(d, replace(piece), limits), lambda m: [m], _monoid_key)
    rng = random.Random(7)
    for d in DualityTag:
        for gens, _ in _small_generator_sets(rng, c_tag(d), 2, 64):
            _check_composite(
                lambda limits: correspond(d, gens, limits),
                lambda c: [c.piece, c.monoid],
                lambda c: (c.piece, _monoid_key(c.monoid), c.witness),
            )


@pytest.mark.parametrize("d", [DualityTag.JSL_SELF, DualityTag.Z2_SELF])
def test_the_two_element_piece_of_a_star_refuses_a_monoid_at_cap_1(d):
    piece = rqc_closure(c_tag(d), [compile_text("a*", "a")])
    assert piece.size == 2
    with pytest.raises(ResourceExceededError, match="exceeded the carrier cap$"):
        piece_to_monoid(d, replace(piece), Limits(max_carrier=1))
    assert piece_to_monoid(d, replace(piece), Limits(max_carrier=2)).size == 2
