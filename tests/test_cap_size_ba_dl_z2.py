"""The BA, DL and Z2 rows of the cap-size families: correspond on pieces of
512 to 4,096 states, whose round trip pairs the returned states with the
piece's by word signatures instead of labelling them.

Each row runs `correspond` once, checks the piece and monoid sizes,
validates the monoid (the round trip trusts the monoids piece_to_monoid
marks), pins the sha256 of `monoid_to_json` (sorted keys), and compares the
witness graphs with `labelled_roundtrip_witness`, the label-matching round
trip, and the signature pairing with `bytes_signature_pairing`, in which
every state reads every word.  The digests were recorded with the
label-matching round trip, before it was replaced.  The five cases take about 7 s together on a 2-core host, most of
it the Z2 family of 2,048 elements; the budget for the tier is 10 s.
"""

import hashlib
import json

import pytest

from langdual.config import DEFAULT_LIMITS
from langdual.correspondence import _signature_pairing, correspond, monoid_to_piece
from langdual.duality import DualityTag
from langdual.languages import compile_text
from langdual.monoids import monoid_to_json, validate_monoid
from oracles import bytes_signature_pairing, labelled_roundtrip_witness

FAMILIES = [
    (DualityTag.BA_SET, "(aab)*", 4096, 12, "e74bbac62c5c5ce6f9e851b20504fa82ba172b4a3ae240aac5fabaa1fc6c4cb2"),
    (DualityTag.DL01_POS, "(aab)*", 721, 12, "8048824980a6ac4d44a5176d1ecf802c3cb56ccc4ae67b47c6b0a32a52866af1"),
    (DualityTag.DL01_POS, "(ab|ba)*a", 1401, 15, "9fe388a8843d83ca662449b4efb62d626196256c6947d8c9ac606af682215b0c"),
    (DualityTag.Z2_SELF, "(aab)*", 512, 512, "328eea3b3a59fafdf5f9c7eb1c381e4e2483e513156d643ea6dab8b3c8525e14"),
    (
        DualityTag.Z2_SELF,
        "(a|b)*a(a|b)(a|b)(a|b)(a|b)",
        2048,
        2048,
        "793ad237e112c9de3a850fee696f433895785e58650a8386806cb46ecee72446",
    ),
]


@pytest.mark.parametrize(
    "d, text, piece_size, monoid_size, digest", FAMILIES, ids=[f"{row[0].name}-{row[1]}" for row in FAMILIES]
)
def test_round_trip_at_cap_size(d, text, piece_size, monoid_size, digest):
    c = correspond(d, [compile_text(text, ("a", "b"))])
    assert (c.piece.size, c.monoid.size) == (piece_size, monoid_size)
    assert validate_monoid(c.monoid)
    report = json.dumps(monoid_to_json(c.monoid), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(report.encode()).hexdigest() == digest

    oracle = labelled_roundtrip_witness(d, c.piece, c.monoid, DEFAULT_LIMITS)
    assert c.witness.forward.graph == oracle.forward.graph
    assert c.witness.backward.graph == oracle.backward.graph

    back = monoid_to_piece(d, c.monoid)
    paired = [m.graph for m in _signature_pairing(c.piece, back, c.monoid)]
    assert paired == [m.graph for m in bytes_signature_pairing(c.piece, back, c.monoid)]
    assert paired == [c.witness.forward.graph, c.witness.backward.graph]
