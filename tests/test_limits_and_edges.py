import subprocess
import sys
from pathlib import Path

import pytest

from langdual.automata import (
    CCoalgebra,
    coalgebra_to_dalgebra,
    dalgebra_to_coalgebra,
    rqc_closure,
)
from langdual.cli import main
from langdual.config import Limits
from langdual.duality import DualityTag, dual_object
from langdual.errors import ResourceExceededError
from langdual.languages import compile_text, parse_regex, compile_regex
from langdual.monoids import SigmaMonoid
from langdual.varieties import (
    FinSet,
    JoinSemilattice,
    VarietyTag,
    identity,
    two_element_algebra,
)

AB = ("a", "b")


def test_state_cap_is_an_error_not_truncation():
    tight = Limits(max_states=2, max_carrier=4096)
    with pytest.raises(ResourceExceededError):
        compile_regex(parse_regex("(ab)*", AB), AB, tight)


def test_carrier_cap_on_closures():
    tight = Limits(max_states=10_000, max_carrier=4)
    with pytest.raises(ResourceExceededError):
        rqc_closure(VarietyTag.BA, [compile_text("(ab)*", AB)], tight)


def test_cli_reports_resource_errors_as_exit_2():
    assert main(["min-dfa", "--regex", "(ab)*", "--max-states", "1"]) == 2


def test_cli_max_carrier_is_a_resource_error_without_traceback():
    src = str(Path(__file__).resolve().parents[1] / "src")
    cmd = [sys.executable, "-m", "langdual", "monoid", "--variety", "jsl", "--regex", "(a|b)*abb"]
    r = subprocess.run(
        cmd + ["--max-carrier", "8"],
        capture_output=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src},
    )
    stderr = r.stderr.decode(errors="replace")
    assert r.returncode == 2, stderr
    assert r.stdout == b""
    assert stderr.startswith("error: ") and "exceeded the carrier cap" in stderr
    assert "Traceback" not in stderr
    # the family has 44 languages, and so does its monoid
    assert main(cmd[3:] + ["--max-carrier", "43"]) == 2
    assert main(cmd[3:] + ["--max-carrier", "44"]) == 0


def test_invalid_monoid_reaching_monoid_to_piece_exits_2(monkeypatch, capsys):
    import langdual.correspondence as correspondence

    broken = SigmaMonoid(FinSet(2), ("a",), 0, ((0, 1), (1, 7)), (1,))
    with pytest.raises(ValueError):
        correspondence.monoid_to_piece(DualityTag.BA_SET, broken)
    monkeypatch.setattr(correspondence, "piece_to_monoid", lambda d, piece, limits: broken)
    assert main(["verify-eilenberg", "--variety", "ba", "--alphabet", "a", "--regex", "a*"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input is not a valid")


def test_two_element_carrier_coalgebra_dualizes_onto_the_unit_dual():
    # identity transitions on the two-element algebra, output the identity
    two = two_element_algebra(VarietyTag.BA)
    q = CCoalgebra(two, AB, (identity(two), identity(two)), identity(two))
    alg = coalgebra_to_dalgebra(DualityTag.BA_SET, q)
    assert alg.carrier == FinSet(1)
    assert alg.init == 0


def test_jsl_two_chain_carrier_swaps_roles():
    two = two_element_algebra(VarietyTag.JSL0)
    q = CCoalgebra(two, AB, (identity(two), identity(two)), identity(two))
    alg = coalgebra_to_dalgebra(DualityTag.JSL_SELF, q)
    assert alg.carrier == dual_object(DualityTag.JSL_SELF, two)
    assert isinstance(alg.carrier, JoinSemilattice) and alg.carrier.zero == 1


def test_one_state_dalgebra_round_trips_to_two_element_coalgebra():
    from langdual.automata import DAlgebra

    carrier = FinSet(1)
    alg = DAlgebra(carrier, AB, (identity(carrier), identity(carrier)), 0)
    q = dalgebra_to_coalgebra(DualityTag.BA_SET, alg)
    assert q.carrier == two_element_algebra(VarietyTag.BA)
    assert q.size == 2
