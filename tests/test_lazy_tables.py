"""Multiplication tables built on first read, and the checks that read only
the letters' rows and columns.

`transition_monoid` and `subdirect_product` of two lawful monoids hold their
table as a `_Table`, built the first time anything reads it, beside the
letters' rows (y -> ay) and columns (x -> xa).  Checked here, on seeded
corpora over all four dualities:

- the letters' rows and columns of an unread monoid, and its table once
  read, against `cubic_transition_monoid` in both composition orders; `==`,
  `hash` and `repr` against the same monoid read earlier and against a copy
  built from the tuple of its rows;
- `correspond` on the linear-monoids families and the JSL and Z2 cap-size
  families, up to the 4,096-element Z2 family, builds no table at all;
- on lawful monoids, `sigma_monoid_iso` (which then skips its check of every
  product) and `quotient_leq` agree with `propagated_sigma_monoid_iso`, with
  themselves on unmarked copies, which check every product, and with label
  inclusion; a lawful product is equal to the one built from tables, and
  validates; a hand-built table with one product changed where no letter
  reads it is still refused.
"""

import random
from dataclasses import replace

import pytest

from langdual import monoids
from langdual.automata import label_set, rqc_closure
from langdual.config import Limits
from langdual.correspondence import correspond, monoid_to_piece, piece_to_monoid
from langdual.duality import DualityTag, c_tag
from langdual.errors import ResourceExceededError
from langdual.languages import compile_text
from langdual.monoids import (
    SigmaMonoid,
    quotient_leq,
    sigma_monoid_iso,
    subdirect_product,
    transition_monoid,
    validate_monoid,
)
from helpers import random_generators
from oracles import cubic_transition_monoid, propagated_sigma_monoid_iso, translation_validate_monoid
from test_monoid_differential import LINEAR_FAMILIES, _corpus

AB = ("a", "b")
SMALL = Limits(max_carrier=48)
SUFFIX4 = "(a|b)*a(a|b)(a|b)(a|b)(a|b)"

# the JSL and Z2 cap-size families, and the 4,096-element Z2 family of two
# generators
CAP_SIZE = [
    (DualityTag.JSL_SELF, ("(aab)*",), 512),
    (DualityTag.JSL_SELF, ("(ab|ba)*a",), 512),
    (DualityTag.JSL_SELF, (SUFFIX4,), 684),
    (DualityTag.JSL_SELF, ("(a|b)*abbab",), 1066),
    (DualityTag.Z2_SELF, ("(aab)*",), 512),
    (DualityTag.Z2_SELF, (SUFFIX4,), 2048),
    (DualityTag.Z2_SELF, (SUFFIX4, "b*"), 4096),
]


def _read(table):
    return "rows" in vars(table)


def _from_rows(m):
    return SigmaMonoid(m.carrier, m.alphabet, m.unit, tuple(map(tuple, m.mult)), m.gen)


def test_tables_read_on_demand_match_the_cubic_oracle():
    corpus = _corpus(seed=61, per_duality=8, cap=64)
    assert {d for d, _, _ in corpus} == set(DualityTag)
    for d, _, alg in corpus:
        for reverse in (True, False):
            expected = cubic_transition_monoid(alg, reverse)
            unread, read = transition_monoid(alg, reverse), transition_monoid(alg, reverse)
            assert isinstance(unread.mult, monoids._Table)
            rows = tuple(expected.mult[g] for g in expected.gen)
            cols = tuple(tuple(row[g] for row in expected.mult) for g in expected.gen)
            assert (unread.letter_rows, unread.letter_cols) == (rows, cols), (d, reverse)
            assert tuple(read.mult) == expected.mult and _read(read.mult) and not _read(unread.mult), (d, reverse)
            copy = _from_rows(read)
            assert read == copy == expected and hash(read) == hash(copy) == hash(expected)
            # the first hash of an unread monoid reads its table
            assert hash(unread) == hash(copy) and _read(unread.mult)
            assert unread == read and repr(unread) == repr(copy) == repr(expected)
            assert (copy.letter_rows, copy.letter_cols) == (rows, cols)


def _tables_made(monkeypatch):
    made = []
    init = monoids._Table.__init__

    def spy(table, *args):
        made.append(table)
        init(table, *args)

    monkeypatch.setattr(monoids._Table, "__init__", spy)
    return made


@pytest.mark.parametrize(
    "d, texts, size",
    [(d, (text,), None) for d, text in LINEAR_FAMILIES] + CAP_SIZE,
    ids=[f"{d.name}-{text}" for d, text in LINEAR_FAMILIES] + [f"{d.name}-{'-'.join(t)}" for d, t, _ in CAP_SIZE],
)
def test_correspond_builds_no_whole_table(monkeypatch, d, texts, size):
    made = _tables_made(monkeypatch)
    c = correspond(d, [compile_text(text, AB) for text in texts])
    assert size in (None, c.monoid.size)
    assert any(table is c.monoid.mult for table in made)
    assert not any(map(_read, made))


def _pieces(seed, count):
    """(duality, piece) for seeded generator sets whose closures fit SMALL."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gens = random_generators(rng, AB, max_states=4)
        for d in DualityTag:
            try:
                out.append((d, rqc_closure(c_tag(d), gens, SMALL)))
            except ResourceExceededError:
                continue
    return out


def _same_iso(m1, m2):
    """sigma_monoid_iso on lawful m1, m2 against the oracle and against the
    unmarked copies, which check every product; returns the graph or None."""
    assert m1.lawful and m2.lawful
    found = sigma_monoid_iso(m1, m2)
    for other in (propagated_sigma_monoid_iso(m1, m2), sigma_monoid_iso(replace(m1), replace(m2))):
        assert (found is None) == (other is None)
        if found is not None:
            assert found.graph == other.graph
    return None if found is None else found.graph


def test_letter_only_iso_and_order_agree_with_the_product_checks_on_lawful_monoids():
    by_duality = {}
    for d, piece in _pieces(seed=71, count=30):
        by_duality.setdefault(d, []).append((piece, piece_to_monoid(d, piece, SMALL)))
    seen = {"iso": 0, "none": 0, "leq": 0, "not leq": 0}
    for d, found in by_duality.items():
        assert len(found) >= 10, d
        for (p1, m1), (p2, m2) in zip(found, found[1:] + found[:1]):
            again = piece_to_monoid(d, monoid_to_piece(d, m1, SMALL), SMALL)
            assert _same_iso(m1, again) is not None
            seen["iso"] += 1
            seen["none"] += _same_iso(m1, m2) is None
            verdict = quotient_leq(m1, m2)
            assert verdict == quotient_leq(_from_rows(m1), _from_rows(m2)) == (label_set(p1) <= label_set(p2))
            seen["leq" if verdict else "not leq"] += 1
            try:
                product = subdirect_product(m1, m2, SMALL)
                swapped = subdirect_product(m2, m1, SMALL)
            except ResourceExceededError:
                continue
            assert product.lawful and not _read(product.mult)
            from_tables = subdirect_product(replace(m1), replace(m2), SMALL)
            assert not from_tables.lawful
            assert (product.letter_rows, product.letter_cols) == (from_tables.letter_rows, from_tables.letter_cols)
            assert not _read(product.mult)
            assert product == from_tables and hash(product) == hash(from_tables)
            assert validate_monoid(product) and translation_validate_monoid(product)
            assert _same_iso(product, swapped) is not None
            assert _same_iso(m1, subdirect_product(m1, m1, SMALL)) is not None
            seen["iso"] += 2
            assert quotient_leq(m1, product) and quotient_leq(m2, product)
    assert min(seen.values()) >= 10, seen


def test_a_hand_built_table_changed_where_no_letter_reads_it_is_refused():
    rng = random.Random(73)
    refused = 0
    for d, piece in _pieces(seed=79, count=20):
        m = piece_to_monoid(d, piece, SMALL)
        letters = {m.unit, *m.gen}
        entries = [(x, y) for x in range(m.size) for y in range(m.size) if y not in letters and x != m.unit]
        if not entries or m.size < 2:
            continue
        x, y = rng.choice(entries)
        table = [list(row) for row in m.mult]
        table[x][y] = (table[x][y] + rng.randrange(1, m.size)) % m.size
        bad = SigmaMonoid(m.carrier, m.alphabet, m.unit, tuple(map(tuple, table)), m.gen)
        # the letters' columns see no change, so the pairing is the identity
        # and only the check of every product refuses
        assert bad.letter_cols == m.letter_cols
        assert sigma_monoid_iso(m, bad) is None and sigma_monoid_iso(bad, m) is None
        assert propagated_sigma_monoid_iso(m, bad) is None
        assert not validate_monoid(bad) and not translation_validate_monoid(bad)
        refused += 1
    assert refused >= 30
