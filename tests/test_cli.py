import json
import time

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


def test_dl_closure_of_a_long_chain_is_fast(capsys):
    # (a|b)^21 (a|b)*: the languages "length at least i" for i <= 21 and the
    # empty one, a chain of 23; its JI poset has 2^22 subsets but 23 downsets
    started = time.perf_counter()
    code, report = run_json(capsys, "closure", "--variety", "dl", "--regex", "(a|b)" * 21 + "(a|b)*")
    elapsed = time.perf_counter() - started
    assert code == 0 and report["size"] == 23 and report["rqc_closed"]
    assert elapsed < 2.0, elapsed
