"""The JSL rows of the cap-size families: correspond on pieces of 512 to 1,066
elements, whose carriers go through the operation tables of the JSL round
trip (the piece's join table, its dual, the reachable part of the dual
algebra and the monoid's join and multiplication tables).  Each monoid is
validated here, as the round trip trusts the monoids piece_to_monoid marks,
and the signature pairing through the join-irreducibles is compared with
`bytes_signature_pairing`, in which every state reads every word.

The four cases take about 6 s together on a 2-core host; the budget for the
tier is 10 s.  The monoid digests were recorded with the pairwise table
constructions that `op_table` replaced, over the JSON of `monoid_to_json`
with sorted keys.
"""

import hashlib
import json

import pytest

from langdual.automata import coalgebra_to_dalgebra, reachable_part
from langdual.correspondence import _signature_pairing, correspond, monoid_to_piece
from langdual.duality import DualityTag, dual_object
from langdual.languages import compile_text
from langdual.monoids import monoid_to_json, validate_monoid
from langdual.varieties import present_closure
from oracles import bytes_signature_pairing, downset_meet_table

JSL = DualityTag.JSL_SELF

FAMILIES = [
    ("(aab)*", 512, "2b93ba62046b9d4650d01ff1b46d575f7905e0d2f3ad9fa2f48d448824d3375f"),
    ("(ab|ba)*a", 512, "06a3993395f11a498c1056003203eea61e18084979a363c24154a08c396ef7d0"),
    ("(a|b)*a(a|b)(a|b)(a|b)(a|b)", 684, "0853b96bbae118822550ef8fa259c3c91f273e6d7489a42ada2d6f1593f28a42"),
    ("(a|b)*abbab", 1066, "8179905e2ec6bc346bfb73b2bfdfa2a0f9bd1b754904caaffed080653648a5b8"),
]


@pytest.mark.parametrize("text, size, digest", FAMILIES, ids=[text for text, _, _ in FAMILIES])
def test_jsl_round_trip_at_cap_size(text, size, digest):
    c = correspond(JSL, [compile_text(text, ("a", "b"))])
    assert c.piece.size == c.monoid.size == size
    assert validate_monoid(c.monoid)
    report = json.dumps(monoid_to_json(c.monoid), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(report.encode()).hexdigest() == digest

    carrier = c.piece.carrier
    assert carrier.dual.join == downset_meet_table(carrier.join)
    assert dual_object(JSL, carrier) is dual_object(JSL, carrier) is carrier.dual

    # the dual algebra is generated, so its reachable part is itself, and a
    # closure that is the whole lattice presents it with no copied table
    algebra = coalgebra_to_dalgebra(JSL, c.piece)
    assert reachable_part(algebra) is algebra
    sub, incl, _ = present_closure(algebra.carrier, algebra.carrier.irreducibles, size, "whole lattice")
    assert sub is algebra.carrier and incl.graph == tuple(range(size))

    back = monoid_to_piece(JSL, c.monoid)
    paired = [m.graph for m in _signature_pairing(c.piece, back, c.monoid)]
    assert paired == [m.graph for m in bytes_signature_pairing(c.piece, back, c.monoid)]
    assert paired == [c.witness.forward.graph, c.witness.backward.graph]
