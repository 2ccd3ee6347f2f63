import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from langdual.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_derive_left_example(capsys):
    code, report = run_json(capsys, "derive", "--regex", "(ab)*", "--word", "a", "--side", "left")
    assert code == 0
    # canonical regex of the minimal DFA for b(ab)*
    from langdual.languages import compile_text

    assert compile_text(report["result"], ("a", "b")) == compile_text("b(ab)*", ("a", "b"))


def test_derive_right(capsys):
    code, report = run_json(capsys, "derive", "--regex", "(ab)*", "--word", "b", "--side", "right")
    assert code == 0
    from langdual.languages import compile_text

    assert compile_text(report["result"], ("a", "b")) == compile_text("(ab)*a", ("a", "b"))


def test_min_dfa_shape(capsys):
    code, report = run_json(capsys, "min-dfa", "--regex", "(ab)*")
    assert code == 0
    assert report["states"] == 3
    assert report["alphabet"] == ["a", "b"]
    assert set(report) == {"alphabet", "states", "initial", "finals", "delta"}
    assert len(report["delta"]) == 3 and all(len(row) == 2 for row in report["delta"])


def test_parse_report(capsys):
    code, report = run_json(capsys, "parse", "--regex", "a|@")
    assert code == 0
    assert report["tree"]["kind"] == "union"


def test_residuals(capsys):
    code, report = run_json(capsys, "residuals", "--regex", "(ab)*")
    assert code == 0
    assert report["count"] == 3


def test_closure_modes(capsys):
    code, left = run_json(capsys, "closure", "--variety", "jsl", "--regex", "(ab)*", "--mode", "left")
    assert code == 0 and left["size"] == 4 and not left["rqc_closed"]
    code, rqc = run_json(capsys, "closure", "--variety", "jsl", "--regex", "(ab)*")
    assert code == 0 and rqc["rqc_closed"]


def test_monoid_size(capsys):
    code, report = run_json(capsys, "monoid", "--variety", "set", "--regex", "(ab)*")
    assert code == 0
    assert report["size"] == 6
    assert set(report["gen"]) == {"a", "b"}


def test_subdirect(capsys):
    code, report = run_json(
        capsys,
        "subdirect",
        "--variety",
        "ba",
        "--alphabet",
        "a",
        "--regex",
        "(aa)*",
        "--regex",
        "(aaa)*",
    )
    assert code == 0
    assert report["size"] == 6


def test_leq(capsys):
    code, report = run_json(capsys, "leq", "--regex", "(a|b)*", "--regex", "(ab)*")
    assert code == 0 and report["leq"] is True
    code, report = run_json(capsys, "leq", "--regex", "(ab)*", "--regex", "(a|b)*")
    assert code == 0 and report["leq"] is False


def test_verify_eilenberg(capsys):
    code, report = run_json(capsys, "verify-eilenberg", "--variety", "ba", "--regex", "(ab)*")
    assert code == 0
    assert report["roundtrip"] == "ok"
    assert report["monoid_size"] == 6
    assert report["piece_size"] == 64


def test_verify_eilenberg_random_deterministic(capsys):
    args = ["verify-eilenberg", "--variety", "z2", "--random", "2", "--seed", "7"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_reports_are_byte_identical(capsys):
    for args in [
        ["min-dfa", "--regex", "(ab)*"],
        ["monoid", "--variety", "jsl", "--regex", "a*b"],
        ["closure", "--variety", "dl", "--regex", "(ab)*"],
    ]:
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2


def test_export_dot(capsys):
    code, out = run(capsys, "export-dot", "--regex", "(ab)*")
    assert code == 0
    assert out.startswith("digraph")
    code, out = run(capsys, "export-dot", "--object", "monoid", "--regex", "(ab)*")
    assert code == 0
    assert "cayley" in out


def test_usage_errors_exit_2(capsys):
    assert main(["derive", "--regex", "(ab", "--word", "a"]) == 2
    assert main(["monoid"]) == 2  # no regex
    assert main(["leq", "--regex", "a"]) == 2  # needs two


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["min-dfa", "--regex", "a*", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["states"] == 2


@pytest.mark.parametrize("where", ["missing/dir/report.json", "."])
def test_an_unwritable_out_path_exits_2_without_a_traceback(where, tmp_path, capsys):
    # a missing directory, then a directory where the file should be
    code = main(["min-dfa", "--regex", "ab", "--out", str(tmp_path / where)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err


def test_dl_closure_of_a_long_chain_is_fast(capsys):
    # (a|b)^21 (a|b)*: the languages "length at least i" for i <= 21 and the
    # empty one, a chain of 23; its JI poset has 2^22 subsets but 23 downsets
    started = time.perf_counter()
    code, report = run_json(capsys, "closure", "--variety", "dl", "--regex", "(a|b)" * 21 + "(a|b)*")
    elapsed = time.perf_counter() - started
    assert code == 0 and report["size"] == 23 and report["rqc_closed"]
    assert elapsed < 2.0, elapsed


@pytest.mark.parametrize(
    "argv",
    [
        ["min-dfa", "--regex", "a", "--max-states", "-3"],
        ["min-dfa", "--regex", "a", "--max-states", "0"],
        ["closure", "--regex", "a", "--max-carrier", "-1"],
        ["monoid", "--regex", "a", "--max-carrier", "0"],
        ["verify-eilenberg", "--random", "-1"],
        ["min-dfa", "--regex", "a", "--max-states", "x"],
    ],
)
def test_out_of_range_caps_and_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err


def test_a_closed_pipe_exits_141_without_a_traceback():
    # the report is far larger than a pipe's buffer, so the write fails
    # once the reader has gone
    src = str(Path(__file__).resolve().parents[1] / "src")
    cmd = [sys.executable, "-m", "langdual", "derive", "--word", "ab", "--regex", "(a|b)*a" + "(a|b)" * 4]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode(errors="replace")
    assert proc.wait(timeout=60) == 141, stderr
    assert stderr == ""


def test_left_derivative_report_of_a_32_state_language_is_fast(capsys):
    # state elimination writes 3.6 MB of regex text here; rendering memoized
    # per node and context keeps that linear in the output
    started = time.perf_counter()
    code, report = run_json(
        capsys, "derive", "--word", "ab", "--side", "left", "--regex", "(a|b)*a" + "(a|b)" * 4
    )
    elapsed = time.perf_counter() - started
    assert code == 0 and len(report["result"]) > 3_000_000
    assert elapsed < 3.0, elapsed


@pytest.mark.parametrize(
    "argv, length",
    [
        # a 64-state result
        (["derive", "--word", "ab", "--side", "left", "--regex", "(a|b)*a" + "(a|b)" * 5], 6_484_242_362),
        # the first residual past the bound, in sort-key order whatever the hash seed
        (["residuals", "--regex", "(a|b)*a" + "(a|b)" * 4], 488_869_834),
    ],
)
def test_a_regex_text_past_the_bound_exits_2_before_it_is_built(capsys, argv, length):
    from langdual.languages import MAX_REGEX_TEXT

    start = time.perf_counter()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: regex text would have {length} characters; a report carries at most {MAX_REGEX_TEXT}\n"
    assert time.perf_counter() - start < 30


def test_derive_prints_the_largest_text_in_use_unchanged(capsys):
    import hashlib

    regex = "(a|b)*a" + "(a|b)" * 4
    code, out = run(capsys, "derive", "--word", "ab", "--side", "left", "--regex", regex)
    assert code == 0
    assert len(json.loads(out)["result"]) == 3_640_021
    assert hashlib.sha256(out.encode()).hexdigest() == "9486783c310ef023f76872fcaab42bafa155a7869f2cf9e97c986ae66dfe9162"
