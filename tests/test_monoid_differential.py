"""The quadratic monoid construction and checks against the cubic oracles.

Seeded corpora over all four dualities, with families up to 128 elements,
plus free algebras on small DFAs (powerset join-semilattices and Z2 spans of
the states), whose transition monoids outgrow their carriers and so reach the
carrier cap inside transition_monoid itself.
"""

import json
import random

import pytest

from langdual.automata import DAlgebra, coalgebra_to_dalgebra, reachable_part, rqc_closure
from langdual.cli import random_regex
from langdual.config import Limits
from langdual.duality import DualityTag, c_tag
from langdual.errors import LangdualError, NotReachableError, ResourceExceededError
from langdual.languages import compile_regex, compile_text
from langdual.monoids import (
    SigmaMonoid,
    _subdirect_pairs,
    carrier_add,
    monoid_to_json,
    quotient_leq,
    subdirect_product,
    transition_monoid,
    validate_monoid,
)
from langdual.correspondence import monoid_to_piece
from langdual.varieties import (
    FinMorphism,
    FinPoset,
    FinSet,
    JoinSemilattice,
    VarietyTag,
    VectZ2,
    constants,
    gaussian_basis,
    jsl_from_masks,
    leq,
)
from helpers import language_dalgebra, make_jsl, make_poset, random_algebra, random_morphism, scrambled_jsl
from oracles import (
    close,
    cubic_jsl_laws,
    cubic_meet_table,
    cubic_transition_monoid,
    cubic_validate_monoid,
    pairwise_subdirect_size,
    table_jsl_irreducibles,
    translation_validate_monoid,
)

AB = ("a", "b")

# families of 80 to 128 elements, past the random corpus below
LARGE_FAMILIES = [
    (DualityTag.Z2_SELF, "(a|b)*abb"),
    (DualityTag.JSL_SELF, "(aa|b)*ab"),
    (DualityTag.BA_SET, "(a|b)*abb"),
    (DualityTag.DL01_POS, "(a|b)*abb"),
]


# the JSL and Z2 families of the linear-monoids benchmark workload, 8 to 128
# elements, whose monoids are as large as their pieces
LINEAR_FAMILIES = [
    (DualityTag.JSL_SELF, "(aa|b)*ab"),
    (DualityTag.JSL_SELF, "(a|b)*abb"),
    (DualityTag.JSL_SELF, "(a|b)*aba"),
    (DualityTag.JSL_SELF, "(aa)*b"),
    (DualityTag.JSL_SELF, "(ab)*"),
    (DualityTag.JSL_SELF, "(a|b)*ab"),
    (DualityTag.Z2_SELF, "(a|b)*abb"),
    (DualityTag.Z2_SELF, "(aa)*b"),
    (DualityTag.Z2_SELF, "(ab)*"),
    (DualityTag.Z2_SELF, "a*b"),
]


def _dual_algebra(d, langs, cap):
    piece = rqc_closure(c_tag(d), langs, Limits(max_carrier=cap))
    return piece.size, reachable_part(coalgebra_to_dalgebra(d, piece))


def _corpus(seed, per_duality, cap=128):
    """(duality, piece size, reachable dual algebra), seeded."""
    rng = random.Random(seed)
    out = []
    for d in DualityTag:
        found = 0
        while found < per_duality:
            langs = [compile_regex(random_regex(rng, AB), AB) for _ in range(rng.randint(1, 2))]
            try:
                size, alg = _dual_algebra(d, langs, cap)
            except LangdualError:
                continue
            out.append((d, size, alg))
            found += 1
    return out


def _free_algebras(d):
    """The powerset join-semilattice and the Z2 span of a DFA's states, with
    the letters acting by images; both generated from the initial state."""
    n = d.n_states

    def image(ai, mask, combine):
        out = 0
        for q in range(n):
            if mask >> q & 1:
                out = combine(out, 1 << d.delta[q][ai])
        return out

    jsl, masks = jsl_from_masks(range(1 << n))
    index = {m: i for i, m in enumerate(masks)}
    alpha = tuple(
        FinMorphism(jsl, jsl, tuple(index[image(ai, m, int.__or__)] for m in masks))
        for ai in range(len(d.alphabet))
    )
    yield reachable_part(DAlgebra(jsl, d.alphabet, alpha, index[1 << d.initial]))
    z2 = VectZ2(n)
    alpha = tuple(
        FinMorphism(z2, z2, tuple(image(ai, v, int.__xor__) for v in range(1 << n)))
        for ai in range(len(d.alphabet))
    )
    yield reachable_part(DAlgebra(z2, d.alphabet, alpha, 1 << d.initial))


def _small_dfa_algebras(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lang = compile_regex(random_regex(rng, AB), AB)
        if 2 <= lang.n_states <= 5:
            out.append(language_dalgebra(lang))
            out.extend(_free_algebras(lang.dfa))
    return out


def _same(alg, reverse, limits=Limits()):
    """Both constructions' JSON text, or both refusal messages."""
    texts = []
    for build in (transition_monoid, cubic_transition_monoid):
        try:
            texts.append(json.dumps(monoid_to_json(build(alg, reverse, limits))))
        except ResourceExceededError as err:
            texts.append(f"refused: {err}")
    return texts


def test_transition_monoid_is_byte_identical_to_the_cubic_oracle():
    corpus = _corpus(seed=11, per_duality=10)
    for d, text in LARGE_FAMILIES:
        corpus.append((d, *_dual_algebra(d, [compile_text(text, AB)], 4096)))
    assert max(size for _, size, _ in corpus) >= 128
    for d, size, alg in corpus:
        for reverse in (True, False):
            new, old = _same(alg, reverse)
            assert new == old, (d, size, reverse)


def test_transition_monoid_on_free_algebras_and_cap_refusals_match_the_oracle():
    refused = 0
    for alg in _small_dfa_algebras(seed=5, count=60):
        for reverse in (False, True):
            new, old = _same(alg, reverse)
            assert new == old
            size = len(json.loads(new)["mult"])
            for cap in sorted({1, alg.size, (alg.size + size) // 2, size - 1, size}):
                new, old = _same(alg, reverse, Limits(max_carrier=cap))
                assert new == old, cap
                refused += new == "refused: transition monoid exceeded the carrier cap"
    assert refused >= 20


def test_transition_monoid_keyed_by_join_irreducibles_matches_the_oracle():
    """The dual algebras of the JSL linear-monoids families (12 to 80
    elements), whose sums are keyed by their values on the join-irreducibles:
    the same monoid text in both composition orders, and the same refusals at
    every cap up to 64 and at the default cap.  Below an algebra's size both
    refuse in its reachable closure; the free algebras above reach the
    keyed closure's own refusals."""
    for d, text in LINEAR_FAMILIES:
        if d is not DualityTag.JSL_SELF:
            continue
        _, alg = _dual_algebra(d, [compile_text(text, AB)], 4096)
        assert 4 <= len(alg.carrier.irreducibles) <= 8
        for reverse in (True, False):
            built, expected = _same(alg, reverse)
            assert built == expected and len(json.loads(built)["mult"]) == alg.size, (text, reverse)
            for cap in range(1, 65):
                limits = Limits(max_carrier=cap)
                if cap < alg.size:
                    built, refused = _same(alg, reverse, limits)
                    assert built == refused and built.startswith("refused"), (text, reverse, cap)
                else:  # the oracle's closure never reaches a cap past its size
                    built = json.dumps(monoid_to_json(transition_monoid(alg, reverse, limits)))
                    assert built == expected, (text, reverse, cap)


def _corrupt(rng, m):
    """Monoids with one multiplication entry changed or the generators swapped."""
    n = m.size
    for _ in range(4):
        mult = [list(row) for row in m.mult]
        x, y = rng.randrange(n), rng.randrange(n)
        mult[x][y] = (mult[x][y] + rng.randrange(1, n)) % n if n > 1 else 0
        yield SigmaMonoid(m.carrier, m.alphabet, m.unit, tuple(map(tuple, mult)), m.gen)
    yield SigmaMonoid(m.carrier, m.alphabet, m.unit, m.mult, m.gen[::-1])
    yield SigmaMonoid(m.carrier, m.alphabet, m.unit, m.mult, (m.gen[0],) * len(m.gen))
    yield SigmaMonoid(m.carrier, m.alphabet, m.unit, m.mult, (m.unit,) * len(m.gen))


def test_validate_monoid_agrees_with_the_oracle_on_real_and_corrupted_tables():
    rng = random.Random(23)
    algebras = [alg for _, _, alg in _corpus(seed=17, per_duality=8, cap=48)]
    algebras += _small_dfa_algebras(seed=29, count=15)
    rejected = 0
    for alg in algebras:
        m = transition_monoid(alg, reverse_composition=rng.random() < 0.5)
        if m.size > 48:
            continue
        assert validate_monoid(m) and cubic_validate_monoid(m)
        for bad in _corrupt(rng, m):
            verdict = validate_monoid(bad)
            assert verdict == cubic_validate_monoid(bad)
            rejected += not verdict
    assert rejected >= 50


def _aimed_corruptions(rng, m):
    """Monoids with one entry changed where few checks read it: in the row
    of a sum that is no word image and no x·a, at a column y that is no a·y,
    no letter, unit or zero (and the same for columns, mirrored), which
    Light's test on the letters never reads; and the product of the zero
    with itself when the zero is no word image."""
    n = m.size
    mult = m.mult
    zero = constants(m.carrier)[0]
    words = close([m.unit], [lambda x, g=g: mult[x][g] for g in m.gen], n, "word images")
    sums = sorted(set(range(n)) - set(words) - {zero})
    right_images = {mult[x][g] for x in range(n) for g in m.gen}
    left_images = {mult[g][y] for y in range(n) for g in m.gen}
    plain = set(range(n)) - {m.unit, zero, *m.gen}
    rows = [(s, y) for s in sums if s not in right_images for y in sorted(plain - left_images)]
    cols = [(x, s) for s in sums if s not in left_images for x in sorted(plain - right_images)]
    anywhere = [(s, y) for s in sums for y in range(n)] + [(x, s) for s in sums for x in range(n)]
    picks = [rng.choice(entries) for entries in (rows, rows, cols, cols, anywhere, anywhere) if entries]
    if zero not in words:
        picks.append((zero, zero))
    for x, y in picks:
        table = [list(row) for row in mult]
        table[x][y] = (table[x][y] + rng.randrange(1, n)) % n
        yield SigmaMonoid(m.carrier, m.alphabet, m.unit, tuple(map(tuple, table)), m.gen)


def test_validate_monoid_at_workload_size_agrees_with_the_oracles():
    """The JSL and Z2 monoids of the linear-monoids families and seeded
    corruptions of them: the verdict through the generators matches the
    per-translation check everywhere and the triple scan up to 48 elements,
    and on the real monoids both refuse at the same caps."""
    rng = random.Random(47)
    rejected = aimed = 0
    for d, text in LINEAR_FAMILIES:
        _, alg = _dual_algebra(d, [compile_text(text, AB)], 4096)
        m = transition_monoid(alg, reverse_composition=True)
        assert m.size == alg.size
        assert validate_monoid(m) and translation_validate_monoid(m)
        for cap in sorted({1, 2, 4, 8, 16, 64, m.size - 1, m.size}):
            limits = Limits(max_carrier=cap)
            outcomes = []
            for check in (validate_monoid, translation_validate_monoid):
                try:
                    outcomes.append(check(m, limits))
                except ResourceExceededError as err:
                    outcomes.append(str(err))
            assert outcomes[0] == outcomes[1], (d, text, cap)
            assert outcomes[0] is True or outcomes[0] == "generation closure exceeded the carrier cap"
        corrupted = list(_corrupt(rng, m))
        targeted = list(_aimed_corruptions(rng, m))
        aimed += len(targeted)
        for bad in corrupted + targeted:
            verdict = validate_monoid(bad)
            assert verdict == translation_validate_monoid(bad), (d, text)
            if m.size <= 48:
                assert verdict == cubic_validate_monoid(bad), (d, text)
            rejected += not verdict
        assert not any(map(validate_monoid, targeted)), (d, text)
    assert aimed >= 60 and rejected >= 100


def _lattice_on(rng, n, zero):
    """A random n-element union-closed family of 4-bit masks as a join table,
    renumbered at random with its least element at index zero."""
    while True:
        family = {0} | {rng.randrange(1, 16) for _ in range(rng.randint(2, n))}
        while True:
            extra = {x | y for x in family for y in family} - family
            if not extra:
                break
            family |= extra
        if len(family) == n:
            break
    lattice, _ = jsl_from_masks(family)
    others = [x for x in range(n) if x != zero]
    rng.shuffle(others)
    rename = dict(zip([x for x in range(n) if x != lattice.zero], others))
    rename[lattice.zero] = zero
    join = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            join[rename[x]][rename[y]] = rename[lattice.join[x][y]]
    return JoinSemilattice(tuple(map(tuple, join)), zero)


def test_validate_monoid_agrees_with_the_oracle_on_mismatched_carriers():
    # syntactic monoids with a zero, read over random semilattices of their
    # size: mostly not semirings, so the translation checks decide
    rng = random.Random(37)
    monoids = {}
    while len(monoids) < 25:
        m = transition_monoid(language_dalgebra(compile_regex(random_regex(rng, AB), AB)))
        zeros = [z for z in range(m.size) if all(m.mult[z][x] == z == m.mult[x][z] for x in range(m.size))]
        if 4 <= m.size <= 7 and zeros:
            monoids[m.mult, m.gen] = (m, zeros[0])
    verdicts = []
    for m, zero in monoids.values():
        for _ in range(40):
            carrier = _lattice_on(rng, m.size, zero)
            over = SigmaMonoid(carrier, m.alphabet, m.unit, m.mult, m.gen)
            verdict = validate_monoid(over)
            assert verdict == cubic_validate_monoid(over)
            verdicts.append(verdict)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def test_validate_monoid_rejects_a_non_semilattice_jsl_carrier():
    # the two-element field with XOR posing as a join: not idempotent, yet
    # every translation preserves it, so the pairwise check alone accepts
    xor = JoinSemilattice(((0, 1), (1, 0)), 0)
    field = SigmaMonoid(xor, ("a",), 1, ((0, 0), (0, 1)), (1,))
    assert cubic_validate_monoid(field)
    assert not validate_monoid(field)
    with pytest.raises(ValueError, match="does not admit meets"):
        xor.irreducibles
    with pytest.raises(ValueError, match="idempotent"):
        table_jsl_irreducibles(xor.join, xor.zero)


def test_validate_monoid_rejects_pos_carriers_that_are_not_partial_orders():
    # the two-element group under the total relation, which is not
    # antisymmetric, yet every translation preserves it; and a one-element
    # carrier whose only element is not below itself
    group = SigmaMonoid(FinPoset(((True, True), (True, True))), ("a",), 0, ((0, 1), (1, 0)), (1,))
    irreflexive = SigmaMonoid(FinPoset(((False,),)), ("a",), 0, ((0,),), (0,))
    for m in (group, irreflexive):
        assert translation_validate_monoid(m)
        assert not validate_monoid(m)
    with pytest.raises(ValueError, match="not a valid alphabet-generated monoid"):
        monoid_to_piece(DualityTag.DL01_POS, group)


def _relation(rng, n):
    """A random relation on n elements: mostly its reflexive and transitive
    closure, a preorder that is often a partial order, else as drawn."""
    rel = [[rng.random() < 0.3 for _ in range(n)] for _ in range(n)]
    for x in range(n):
        rel[x][x] = rng.random() < 0.9
    if rng.random() < 0.6:
        for x in range(n):
            rel[x][x] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
    return tuple(map(tuple, rel))


def test_validate_monoid_on_random_relations_as_pos_carriers():
    # syntactic monoids of up to 5 elements, read over random relations on
    # their carriers: a relation that is no partial order is refused, and
    # on a partial order the verdict is the per-translation check's
    rng = random.Random(53)
    monoids = {}
    while len(monoids) < 12:
        m = transition_monoid(language_dalgebra(compile_regex(random_regex(rng, AB), AB)))
        if m.size <= 5:
            monoids[m.mult, m.gen] = m
    verdicts = {"not an order": 0, True: 0, False: 0}
    for m in monoids.values():
        for _ in range(60):
            leq = _relation(rng, m.size)
            over = SigmaMonoid(FinPoset(leq), m.alphabet, m.unit, m.mult, m.gen)
            verdict = validate_monoid(over)
            try:
                make_poset(leq)
            except ValueError:
                assert not verdict, leq
                verdicts["not an order"] += 1
            else:
                assert verdict == translation_validate_monoid(over), leq
                verdicts[verdict] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_jsl_table_laws_are_checked_through_the_irreducibles():
    # idempotent and commutative with zero as unit, but not associative:
    # 1 + (2 + 3) = 1 + 3 = 4 while (1 + 2) + 3 = 3 + 3 = 3
    lopsided = JoinSemilattice(
        (
            (0, 1, 2, 3, 4),
            (1, 1, 3, 4, 4),
            (2, 3, 2, 3, 4),
            (3, 4, 3, 3, 4),
            (4, 4, 4, 4, 4),
        ),
        0,
    )
    with pytest.raises(ValueError, match="associative"):
        make_jsl(lopsided.join, 0)
    # a lawful table: the subsets of {0, 1} under union, masks in order
    square, _ = jsl_from_masks(range(4))
    assert list(square.irreducibles) == [1, 2]
    with pytest.raises(ValueError, match="commutative"):
        make_jsl(((0, 1), (0, 1)), 0)


@pytest.mark.parametrize(
    "law, join, zero",
    [
        ("square", ((0, 1, 2), (1, 1, 2), (2, 2, 3)), 0),
        ("idempotent", ((0, 1, 2), (1, 0, 2), (2, 2, 2)), 0),
        ("unit", ((0, 1, 2), (1, 1, 2), (2, 2, 2)), 1),
        ("commutative", ((0, 1, 2), (1, 1, 2), (2, 1, 2)), 0),
        ("associative", ((0, 1, 2), (1, 1, 0), (2, 0, 2)), 0),
    ],
)
def test_validate_monoid_refuses_a_jsl_carrier_breaking_each_law(law, join, zero):
    # min on 0 < 1 < 2 with unit 2 and letter 1 is a lawful monoid over the
    # chain under max; over a table that breaks one law it is refused
    mult = tuple(tuple(min(x, y) for y in range(3)) for x in range(3))
    chain = JoinSemilattice(tuple(tuple(max(x, y) for y in range(3)) for x in range(3)), 0)
    assert validate_monoid(SigmaMonoid(chain, ("a",), 2, mult, (1,)))
    with pytest.raises(ValueError, match=law):
        table_jsl_irreducibles(join, zero)
    assert not validate_monoid(SigmaMonoid(JoinSemilattice(join, zero), ("a",), 2, mult, (1,)))


def _presentation(m):
    """Everything a monoid's numbering fixes: carrier, unit, letters, their
    rows and columns, and the full table."""
    return m.carrier, m.unit, m.gen, m.letter_rows, m.letter_cols, tuple(map(tuple, m.mult))


def _reference_subdirect(m1, m2):
    """The subdirect product's presentation from the paired closure: its
    pairs sorted, or for Z2VECT numbered by their coordinates over the
    reduced echelon basis of the codes p << dim2 | q."""
    pairs = _subdirect_pairs(m1, m2, Limits())
    c1, c2 = m1.carrier, m2.carrier
    if c1.tag is VarietyTag.Z2VECT:
        d2 = c2.dim
        basis = gaussian_basis(p << d2 | q for p, q in pairs)
        codes = [0]
        for b in basis:
            codes += [code ^ b for code in codes]
        pairs = [(code >> d2, code & ((1 << d2) - 1)) for code in codes]
    index = {p: i for i, p in enumerate(pairs)}
    mult = tuple(tuple(index[m1.mult[p][r], m2.mult[q][s]] for r, s in pairs) for p, q in pairs)
    match c1.tag:
        case VarietyTag.SET:
            carrier = FinSet(len(pairs))
        case VarietyTag.POS:
            carrier = FinPoset(tuple(tuple(leq(c1, p, r) and leq(c2, q, s) for r, s in pairs) for p, q in pairs))
        case VarietyTag.JSL0:
            join = tuple(
                tuple(index[carrier_add(c1, p, r), carrier_add(c2, q, s)] for r, s in pairs) for p, q in pairs
            )
            carrier = JoinSemilattice(join, index[c1.zero, c2.zero])
        case VarietyTag.Z2VECT:
            carrier = VectZ2(len(basis))
    gen = tuple(index[p] for p in zip(m1.gen, m2.gen))
    cols = tuple(tuple(row[g] for row in mult) for g in gen)
    return carrier, index[m1.unit, m2.unit], gen, tuple(map(mult.__getitem__, gen)), cols, mult


@pytest.mark.parametrize("d", list(DualityTag))
def test_subdirect_products_match_the_pairwise_closure(d):
    """Size, validity and the quotient order, and the numbering of every
    product, of monoids read off their tables and of lawful ones, whose
    product pairs their letters' rows and columns."""
    rng = random.Random(31)
    monoids = []
    while len(monoids) < 6:
        lang = compile_regex(random_regex(rng, AB), AB)
        try:
            _, alg = _dual_algebra(d, [lang], 32)
        except LangdualError:
            continue
        monoids.append(transition_monoid(alg, reverse_composition=True))
    for m1, m2 in zip(monoids, monoids[1:]):
        product = subdirect_product(m1, m2)
        assert product.size == pairwise_subdirect_size(m1, m2)
        assert validate_monoid(product)
        assert quotient_leq(m1, product) and quotient_leq(m2, product)
        assert _presentation(product) == _reference_subdirect(m1, m2)
    for m in monoids:  # transition monoids of reachable algebras are lawful
        object.__setattr__(m, "lawful", True)
    for m1, m2 in zip(monoids, monoids[1:]):
        product = subdirect_product(m1, m2)
        assert product.lawful and _presentation(product) == _reference_subdirect(m1, m2)


def test_jsl_laws_and_meets_match_the_cubic_scans():
    rng = random.Random(41)
    broken = 0
    for _ in range(120):
        join, zero = scrambled_jsl(rng)
        alg = make_jsl(join, zero)
        assert cubic_jsl_laws(alg.join, zero)
        assert alg.dual.join == cubic_meet_table(alg.join, zero)
        n = len(join)
        if n < 2:
            continue
        # change one entry and its mirror, so commutativity still holds
        x, y = rng.randrange(n), rng.randrange(n)
        join[x][y] = join[y][x] = rng.randrange(n)
        lawful = cubic_jsl_laws(join, zero)
        try:
            make_jsl(join, zero)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == lawful
        broken += not lawful
    assert broken >= 40


def test_transition_monoid_refuses_the_algebras_reachable_part_shrinks():
    """Random letter actions on random carriers, some generated from the
    initial state and some not: the verdict, the monoid or the refusal
    message match the oracle, which runs reachable_part first."""
    rng = random.Random(43)
    verdicts = {"generated": 0, "not generated": 0, "refused": 0}
    for tag in (VarietyTag.SET, VarietyTag.POS, VarietyTag.JSL0, VarietyTag.Z2VECT):
        for _ in range(60):
            carrier = random_algebra(rng, tag, max_size=8 if tag is not VarietyTag.Z2VECT else 4)
            alpha = tuple(random_morphism(rng, carrier, carrier) for _ in AB)
            alg = DAlgebra(carrier, AB, alpha, rng.randrange(carrier.size))
            generated = reachable_part(alg).size == alg.size
            for cap in (1, 2, 4, 8, 64):
                texts = []
                for build in (transition_monoid, cubic_transition_monoid):
                    try:
                        texts.append(json.dumps(monoid_to_json(build(alg, True, Limits(max_carrier=cap)))))
                    except ResourceExceededError as err:
                        texts.append(f"refused: {err}")
                    except NotReachableError:
                        texts.append("not generated")
                assert texts[0] == texts[1], (alg, cap)
                if texts[0].startswith("refused"):
                    verdicts["refused"] += 1
                else:
                    assert (texts[0] == "not generated") == (not generated)
                    verdicts["generated" if generated else "not generated"] += 1
    assert min(verdicts.values()) >= 100
