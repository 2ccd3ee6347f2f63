"""Acceptance criteria, one test per criterion, timed and reported.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Random corpora are seeded, so runs are reproducible; instances
are filtered to joint transition monoids of at most 6 elements (criterion 3:
8) so that every constructed piece stays at or under 64 languages, matching
the library's carrier caps at desk scale.
"""

import random
import time

from langdual.automata import (
    class_automaton,
    coalg_shift,
    label_set,
    rqc_closure,
)
from langdual.cli import random_regex
from langdual.correspondence import (
    monoid_roundtrip_check,
    order_check,
    piece_join,
    piece_to_monoid,
    roundtrip_check,
)
from langdual.duality import DualityTag, c_tag, d_tag, double_dual, dual_morphism
from langdual.languages import (
    Dfa,
    LanguageId,
    brzozowski_dfa,
    canonical_language,
    compile_regex,
    compile_text,
    residuals,
)
from langdual.monoids import (
    FreeElement,
    SigmaMonoid,
    free_language,
    free_mult,
    free_unit,
    free_word,
    sigma_monoid_iso,
    subdirect_product,
    validate_monoid,
)
from langdual.varieties import (
    FinPoset,
    FinSet,
    VarietyTag,
    is_order_reflecting,
)
from helpers import is_injective, is_surjective, random_algebra, random_morphism
from oracles import brute_syntactic_monoid, carrier_map_monoid, nerode_class_count, odd_factorization_product

AB = ("a", "b")
PAIRS = [
    (VarietyTag.BA, DualityTag.BA_SET),
    (VarietyTag.DL01, DualityTag.DL01_POS),
    (VarietyTag.JSL0, DualityTag.JSL_SELF),
    (VarietyTag.Z2VECT, DualityTag.Z2_SELF),
]

# pieces and monoids built in criterion 4 are reused by criteria 5, 6 and 7
_BUILT: dict = {}


def _report(number: int, elapsed: float, budget: float, detail: str) -> None:
    print(f"\n[criterion {number}] PASS in {elapsed:.2f}s (budget {budget:.0f}s): {detail}")


def _random_language(rng: random.Random, max_states: int) -> LanguageId:
    while True:
        lang = compile_regex(random_regex(rng, AB), AB)
        if 1 <= lang.n_states <= max_states:
            return lang


def _monoid_bound(langs) -> int:
    caut, _ = class_automaton(list(langs))
    return caut.n_maps


def _generator_corpus(rng: random.Random, count: int, max_states: int, max_monoid: int):
    corpus = [(compile_text("(ab)*", AB),)]
    while len(corpus) < count:
        size = rng.randint(1, 2)
        langs = tuple(sorted({_random_language(rng, max_states) for _ in range(size)}, key=lambda l: l.sort_key()))
        if _monoid_bound(langs) <= max_monoid:
            corpus.append(langs)
    return corpus


def test_criterion_1_duality_round_trips():
    started = time.perf_counter()
    rng = random.Random(101)
    for dtag in DualityTag:
        for _ in range(200):
            side = rng.choice([c_tag(dtag), d_tag(dtag)])
            dom = random_algebra(rng, side, max_size=16)
            cod = random_algebra(rng, side, max_size=16)
            morphism = random_morphism(rng, dom, cod)
            # double-dual naturality
            twice = dual_morphism(dtag, dual_morphism(dtag, morphism))
            w_dom = double_dual(dtag, dom)
            w_cod = double_dual(dtag, cod)
            assert w_dom.forward.then(twice).then(w_cod.backward).graph == morphism.graph
            # epi/mono exchange
            dual = dual_morphism(dtag, morphism)
            dual_monic = is_injective(dual)
            if dtag is DualityTag.DL01_POS and isinstance(dual.cod, FinPoset):
                dual_monic = dual_monic and is_order_reflecting(dual)
            assert is_surjective(morphism) == dual_monic
            monic = is_injective(morphism)
            if dtag is DualityTag.DL01_POS and isinstance(morphism.cod, FinPoset):
                monic = monic and is_order_reflecting(morphism)
            assert monic == is_surjective(dual)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(1, elapsed, 10, "4 dualities x 200 random algebras: naturality and epi/mono exchange")


def test_criterion_2_myhill_nerode_oracle():
    started = time.perf_counter()
    rng = random.Random(202)
    checked = 0
    while checked < 200:
        tree = random_regex(rng, AB)
        lang = compile_regex(tree, AB)
        if lang.n_states > 8:
            continue
        raw = brzozowski_dfa(tree, AB)
        assert len(residuals(lang)) == lang.n_states == nerode_class_count(raw, 8)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(2, elapsed, 30, "200 regexes: residual count == bounded word-quotient class count")


def test_criterion_3_syntactic_monoid_oracle():
    started = time.perf_counter()
    rng = random.Random(303)
    corpus = [compile_text("(ab)*", AB)]
    while len(corpus) < 50:
        lang = _random_language(rng, 5)
        if _monoid_bound((lang,)) <= 8:
            corpus.append(lang)
    for i, lang in enumerate(corpus):
        piece = rqc_closure(VarietyTag.BA, [lang])
        monoid = piece_to_monoid(DualityTag.BA_SET, piece)
        size, mult, unit, gens, _ = brute_syntactic_monoid(lang)
        brute = SigmaMonoid(FinSet(size), AB, unit, mult, tuple(gens[a] for a in AB))
        assert sigma_monoid_iso(monoid, brute) is not None
        if i == 0:
            assert monoid.size == 6  # anchor: the six-element monoid of (ab)*
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(3, elapsed, 60, "50 languages: dual monoid == brute-force syntactic monoid")


def test_criterion_4_local_eilenberg_round_trip():
    started = time.perf_counter()
    rng = random.Random(404)
    corpus = _generator_corpus(rng, 50, max_states=5, max_monoid=6)
    _BUILT["corpus"] = corpus
    _BUILT["pieces"] = {}
    _BUILT["monoids"] = {}
    for tag, dtag in PAIRS:
        for i, gens in enumerate(corpus):
            piece = rqc_closure(tag, list(gens))
            witness = roundtrip_check(dtag, piece)
            assert witness.forward.then(witness.backward).graph == tuple(range(piece.size))
            monoid = piece_to_monoid(dtag, piece)
            assert monoid_roundtrip_check(dtag, monoid) is not None
            _BUILT["pieces"][(i, dtag)] = piece
            _BUILT["monoids"][(i, dtag)] = monoid
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(4, elapsed, 300, "4 variety pairs x 50 generator sets: both round trips are isomorphisms")


def test_criterion_5_lattice_compatibility():
    started = time.perf_counter()
    corpus = _BUILT["corpus"]
    pieces = _BUILT["pieces"]
    monoids = _BUILT["monoids"]
    rng = random.Random(505)
    for tag, dtag in PAIRS:
        # joins against subdirect products, on the two-generator instances
        joined_checked = 0
        for i, gens in enumerate(corpus):
            if len(gens) != 2 or joined_checked >= 10:
                continue
            part1 = rqc_closure(tag, [gens[0]])
            part2 = rqc_closure(tag, [gens[1]])
            joined = piece_join(dtag, part1, part2)
            assert label_set(joined) == label_set(pieces[(i, dtag)])
            m_join = piece_to_monoid(dtag, joined)
            m_sub = subdirect_product(
                piece_to_monoid(dtag, part1), piece_to_monoid(dtag, part2)
            )
            assert sigma_monoid_iso(m_join, m_sub) is not None
            # inclusions hold in both views
            assert order_check(dtag, part1, joined)
            assert order_check(dtag, part2, joined)
            joined_checked += 1
        # order agreement on random piece pairs
        for _ in range(25):
            i, j = rng.randrange(len(corpus)), rng.randrange(len(corpus))
            assert order_check(dtag, pieces[(i, dtag)], pieces[(j, dtag)])
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(5, elapsed, 300, "joins match subdirect products; inclusion matches the quotient order")


def test_criterion_6_bilinearity_and_axiom_suite():
    started = time.perf_counter()
    monoids = _BUILT["monoids"]
    assert monoids, "criterion 4 must run first"
    for (i, dtag), m in monoids.items():
        assert validate_monoid(m)
        if dtag is DualityTag.JSL_SELF:
            join = m.carrier.join
            for x in range(m.size):
                assert join[x][x] == x
                for y in range(m.size):
                    for z in range(m.size):
                        assert m.mult[x][join[y][z]] == join[m.mult[x][y]][m.mult[x][z]]
                        assert m.mult[join[y][z]][x] == join[m.mult[y][x]][m.mult[z][x]]
        if dtag is DualityTag.Z2_SELF:
            for x in range(m.size):
                for y in range(m.size):
                    for z in range(m.size):
                        assert m.mult[x][y ^ z] == m.mult[x][y] ^ m.mult[x][z]
                        assert m.mult[y ^ z][x] == m.mult[y][x] ^ m.mult[z][x]
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(6, elapsed, 300, f"{len(monoids)} monoids: axioms, bilinearity, semiring and linear laws")


def _moore_partition(n, finals, delta):
    """Independent refinement used to read off state languages in bulk."""
    block = [1 if q in finals else 0 for q in range(n)]
    while True:
        signature = {
            q: (block[q],) + tuple(block[t] for t in delta[q]) for q in range(n)
        }
        relabel = {}
        for q in range(n):
            relabel.setdefault(signature[q], len(relabel))
        new = [relabel[signature[q]] for q in range(n)]
        if new == block:
            return block
        block = new


def test_criterion_7_finals_shift_characterization():
    started = time.perf_counter()
    pieces = _BUILT["pieces"]
    assert pieces, "criterion 4 must run first"
    for (i, dtag), piece in pieces.items():
        labels = label_set(piece)
        k = len(piece.alphabet)
        for word, _ in carrier_map_monoid(piece):
            shifted = coalg_shift(piece, word)
            n = shifted.size
            delta = tuple(
                tuple(shifted.gamma[ai].graph[q] for ai in range(k)) for q in range(n)
            )
            finals = {q for q in range(n) if shifted.out.graph[q] == 1}
            block = _moore_partition(n, finals, delta)
            n_blocks = max(block) + 1
            reps = [block.index(b) for b in range(n_blocks)]
            quotient = Dfa(
                piece.alphabet,
                n_blocks,
                0,
                frozenset(block[q] for q in finals),
                tuple(tuple(block[delta[reps[b]][ai]] for ai in range(k)) for b in range(n_blocks)),
            )
            for b in range(n_blocks):
                shifted_language = canonical_language(
                    Dfa(piece.alphabet, n_blocks, b, quotient.finals, quotient.delta)
                )
                assert shifted_language in labels
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(7, elapsed, 300, "every finals-shift of every piece stays inside the label set")


def test_criterion_8_free_monoid_laws():
    started = time.perf_counter()
    rng = random.Random(808)

    def draw(tag) -> FreeElement:
        if tag in (VarietyTag.SET, VarietyTag.POS):
            length = rng.randrange(5)
            return free_word(tag, "".join(rng.choice(AB) for _ in range(length)))
        words = {
            "".join(rng.choice(AB) for _ in range(rng.randrange(4)))
            for _ in range(rng.randrange(4))
        }
        return free_language(tag, words)

    for tag in (VarietyTag.SET, VarietyTag.POS, VarietyTag.JSL0, VarietyTag.Z2VECT):
        for _ in range(500):
            x, y, z = draw(tag), draw(tag), draw(tag)
            assert free_mult(tag, free_mult(tag, x, y), z) == free_mult(
                tag, x, free_mult(tag, y, z)
            )
            unit = free_unit(tag)
            assert free_mult(tag, unit, x) == x
            assert free_mult(tag, x, unit) == x
            if tag is VarietyTag.Z2VECT:
                assert set(free_mult(tag, x, y).words) == odd_factorization_product(
                    frozenset(x.words), frozenset(y.words)
                )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(8, elapsed, 60, "500 normal forms per variety: associativity, units, parity products")
