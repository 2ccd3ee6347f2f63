"""Join-semilattices presented by their irreducibles, against the tables.

A `JoinSemilattice` holds each element by the masks of the join-irreducibles
below it and the meet-irreducibles above it; its join table is built only
when read.  Checked here against the table constructions it replaced
(`oracles.table_from_masks`, `table_dual`, `scanned_irreducibles`,
`scanned_below`), on a seeded corpus: the piece carrier, its dual, the
monoid carrier and its dual of every JSL family of the linear-monoids
workload, of the two 512-element cap-size families, of 40 seeded desk-style
generator sets and of the one- and two-element lattices (`#`, `@`):

- join and meet tables, zeros, irreducibles and below masks; the piece's
  carrier against the op_table of the family of masks it was built from;
- `dual_morphism` graphs of the letter actions and outputs against the
  pairwise scan;
- hand-built tables validate, or are refused, as with the scanned
  irreducibles, and a lawful one gets the masks of the scans;
- `correspond` on the workload and `#`/`@` families reads no join table
  row, while `monoid_to_json` builds the table and gives the same report as
  the table constructions did.
"""

import hashlib
import json
import random
from functools import cache
from unittest import mock

import pytest

from langdual import varieties
from langdual.config import DEFAULT_LIMITS, Limits
from langdual.correspondence import correspond
from langdual.duality import DualityTag, dual_morphism
from langdual.errors import LangdualError
from langdual.languages import compile_text
from langdual.monoids import monoid_to_json
from langdual.varieties import (
    FinMorphism,
    JoinSemilattice,
    _Table,
    jsl_from_masks,
    leq,
)
from helpers import random_generators, scrambled_jsl
from oracles import (
    cubic_jsl_laws,
    scanned_below,
    scanned_irreducibles,
    scanning_dual_morphism,
    table_dual,
    table_from_masks,
    table_jsl_irreducibles,
)

JSL = DualityTag.JSL_SELF
AB = ("a", "b")
DESK = Limits(max_carrier=64)

# the JSL families of the linear-monoids workload, with the monoid reports
# of the table constructions (sha256 of monoid_to_json, sorted keys)
WORKLOAD = [
    ("(aa|b)*ab", "11840ec558bda69c428cd181c08b58a1660882e5c6e3f60a62593b81cbf8cee0"),
    ("(a|b)*abb", "8c42018b6251f5558a474be339c7c1725ffa43df9e0e9e7cdd56f9c797be46b9"),
    ("(a|b)*aba", "3b44dfe726557ae16ec359ed83091544db7d301100cd6b74a3c87898e6f208c0"),
    ("(aa)*b", "f53ada8f87e5034f4720c9179243b2de4a9a6f79b2c8cefc4e2938ee7307fd22"),
    ("(ab)*", "c75a25f8e9a106d4990b876a5fd068446f0928a29aaa948526d137ab3489ec09"),
    ("(a|b)*ab", "8a74559e669c94d68a277ed909c26e792654dc41459963398505bf8417ac894e"),
    ("#", "61b18b2f09e15966c60c585585569825aaef4fee4a23ad07e5132b8b393e9d86"),
    ("@", "25ed0e86c7ca20c5c54843b7278f6b0833706c5fe59b386a4711d5db3b10be52"),
]
CAP_SIZE = ["(aab)*", "(ab|ba)*a"]
DESK_SETS = 40


def _recorded(gens, limits=DEFAULT_LIMITS):
    """correspond(JSL, gens), and the (lattice, masks) of each jsl_from_masks
    call made on the way: the piece's carrier and its family of masks."""
    families = []
    real = varieties.jsl_from_masks

    def recording(family):
        families.append(real(family))
        return families[-1]

    with mock.patch.object(varieties, "jsl_from_masks", recording):
        c = correspond(JSL, gens, limits)
    return c, families


@cache
def _corpus():
    out = [_recorded([compile_text(text, AB)]) for text, _ in WORKLOAD]
    out += [_recorded([compile_text(text, AB)]) for text in CAP_SIZE]
    rng = random.Random(24)
    desk = 0
    while desk < DESK_SETS:
        try:
            out.append(_recorded(random_generators(rng, AB, max_states=5), DESK))
        except LangdualError:
            continue
        desk += 1
    return out


def _carriers(c):
    return [c.piece.carrier, c.piece.carrier.dual, c.monoid.carrier, c.monoid.carrier.dual]


def _check_against_tables(lattice):
    join = tuple(map(tuple, lattice.join))
    zero = lattice.zero
    irreducibles = scanned_irreducibles(join, zero)
    assert lattice.irreducibles == irreducibles
    assert lattice.below == scanned_below(join, irreducibles)
    meet, top = table_dual(join, zero)
    assert (lattice.dual.join, lattice.dual.zero) == (meet, top)
    assert lattice.dual.irreducibles == scanned_irreducibles(meet, top)
    assert lattice.dual.below == scanned_below(meet, lattice.dual.irreducibles)
    # the same table given from outside gets the same masks
    given = JoinSemilattice(join, zero)
    assert given == lattice and given.below == lattice.below and given.dual == lattice.dual
    if lattice.size <= 16:
        assert cubic_jsl_laws(join, zero)
        assert all(leq(lattice, x, y) == (join[x][y] == y) for x in range(lattice.size) for y in range(lattice.size))


def test_the_corpus_reaches_every_kind_of_family():
    sizes = sorted({c.monoid.size for c, _ in _corpus()})
    assert sizes[:2] == [1, 2] and 512 in sizes and len(_corpus()) == len(WORKLOAD) + len(CAP_SIZE) + DESK_SETS


def test_masks_give_the_tables_of_the_scans():
    for c, families in _corpus():
        # the piece's carrier is the op_table of its family of masks
        (lattice, masks), = families
        assert lattice is c.piece.carrier
        join, zero, ordered = table_from_masks(masks)
        assert ordered == masks and (lattice.join, lattice.zero) == (join, zero)
        for carrier in _carriers(c):
            _check_against_tables(carrier)


def test_random_families_match_the_op_table():
    rng = random.Random(25)
    for _ in range(200):
        family = {0, *(rng.getrandbits(6) for _ in range(rng.randint(0, 6)))}
        while extra := {x | y for x in family for y in family} - family:
            family |= extra
        lattice, masks = jsl_from_masks(family)
        join, zero, ordered = table_from_masks(family)
        assert masks == ordered and (lattice.join, lattice.zero) == (join, zero)
        _check_against_tables(lattice)


def test_dual_morphisms_match_the_pairwise_scan():
    checked = 0
    for c, _ in _corpus():
        piece = c.piece
        if piece.size > 128:
            continue
        for h in (*piece.gamma, piece.out):
            assert dual_morphism(JSL, h).graph == scanning_dual_morphism(JSL, h).graph
            checked += 1
        left = [FinMorphism(c.monoid.carrier, c.monoid.carrier, row) for row in c.monoid.letter_rows]
        for h in left:
            assert dual_morphism(JSL, h).graph == scanning_dual_morphism(JSL, h).graph
            checked += 1
    assert checked >= 200


def _verdict(check, join, zero):
    """("ok", the irreducibles) or ("refused", None): the library refuses a
    table as one that does not admit meets, the oracle by the law it breaks."""
    try:
        return ("ok", list(check(join, zero)))
    except ValueError:
        return ("refused", None)


def test_hand_built_tables_validate_or_are_refused_as_with_the_scans():
    rng = random.Random(26)
    seen = {"ok": 0, "refused": 0}
    for _ in range(150):
        join, zero = scrambled_jsl(rng)
        n = len(join)
        if n > 1 and rng.random() < 0.6:
            x, y = rng.randrange(n), rng.randrange(n)
            join[x][y] = rng.randrange(n)
            if rng.random() < 0.5:
                join[y][x] = join[x][y]
        join = tuple(map(tuple, join))
        ours = _verdict(lambda j, z: JoinSemilattice(j, z).irreducibles, join, zero)
        assert ours == _verdict(table_jsl_irreducibles, join, zero)
        seen[ours[0]] += 1
        if ours[0] == "ok":
            _check_against_tables(JoinSemilattice(join, zero))
        else:
            # no masks present a table that is not a semilattice
            with pytest.raises(ValueError, match="does not admit meets"):
                JoinSemilattice(join, zero).below
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("text, digest", WORKLOAD, ids=[text for text, _ in WORKLOAD])
def test_correspond_reads_no_join_table_row(monkeypatch, text, digest):
    made, reads = [], []
    init, rows = JoinSemilattice.__init__, _Table.rows

    def spy(lattice, *args):
        init(lattice, *args)
        made.append(lattice)

    monkeypatch.setattr(JoinSemilattice, "__init__", spy)
    monkeypatch.setattr(_Table, "rows", property(lambda table: reads.append(table) or rows.__get__(table)))
    c = correspond(JSL, [compile_text(text, AB)])
    assert not reads and all(isinstance(lattice.join, _Table) for lattice in made)
    assert any(x is c.monoid.carrier for x in made) and any(x is c.piece.carrier for x in made)
    report = json.dumps(monoid_to_json(c.monoid), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(report.encode()).hexdigest() == digest
    assert any(table is c.monoid.carrier.join for table in reads)
