import json
import re
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


def test_export_dot_of_the_min_dfa_takes_exactly_one_regex(capsys):
    # the default object is the min-dfa, refused on two regexes as min-dfa
    # refuses them; the other objects take several generators
    for argv in (["min-dfa"], ["export-dot"], ["export-dot", "--object", "min-dfa"]):
        assert main([*argv, "--regex", "a", "--regex", "b"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: this verb takes exactly one --regex\n", argv
    code, out = run(capsys, "export-dot", "--object", "coalgebra", "--regex", "a", "--regex", "b")
    assert code == 0 and out.startswith("digraph")


def test_dot_labels_escape_quotes_and_backslashes(capsys):
    """Every label of every DOT object is one well-formed DOT string, which
    unescapes to a symbol (a comma-joined list of them on a DFA edge), a
    number, or for the coalgebra the regex text of a state's language."""
    from langdual.automata import rqc_closure
    from langdual.languages import compile_text, language_to_regex
    from langdual.varieties import VarietyTag

    alphabet, regex = 'a"\\', '("\\)*a'
    piece = rqc_closure(VarietyTag.BA, [compile_text(regex, tuple(alphabet))])
    texts = {language_to_regex(lang) for lang in piece.labels}
    assert any('"' in t and "\\" in t for t in texts)
    label = re.compile(r'label="((?:[^"\\]|\\.)*)"')
    for obj in ("min-dfa", "coalgebra", "dalgebra", "monoid"):
        code, out = run(capsys, "export-dot", "--alphabet", alphabet, "--object", obj, "--regex", regex)
        assert code == 0
        nodes, edges = set(), set()
        for line in out.splitlines():
            assert '"' not in label.sub("", line), (obj, line)
            for body in label.findall(line):
                (edges if "->" in line else nodes).add(re.sub(r"\\(.)", r"\1", body))
        assert {s for e in edges for s in e.split(",")} == set(alphabet), obj
        if obj == "coalgebra":
            assert nodes == texts
        else:
            assert all(n.isdigit() or n == "" for n in nodes), (obj, nodes)


def test_dot_edge_labels_split_back_into_the_transitions_when_comma_is_a_symbol(capsys):
    """A DFA edge's label is its symbols joined by ",", or one edge per
    symbol when "," is one of them, so splitting every label on "," gives
    back delta; with no "," in the alphabet the edges are not split."""
    from langdual.languages import compile_text

    edge = re.compile(r'^  q(\d+) -> q(\d+) \[label="(.*)"\];$')
    for alphabet, regex in (("a,", "a*"), ("a,", "(a,)*a"), (",ab", "(,|a)*b"), ("ab", "(a|b)*a")):
        d = compile_text(regex, tuple(alphabet)).dfa
        code, out = run(capsys, "export-dot", "--alphabet", alphabet, "--regex", regex)
        assert code == 0
        delta, lines = {}, [m.groups() for m in map(edge.match, out.splitlines()) if m]
        for q, t, label in lines:
            for a in [","] if label == "," else label.split(","):
                assert (int(q), a) not in delta, (alphabet, regex, out)
                delta[int(q), a] = int(t)
        assert delta == {(q, a): d.delta[q][ai] for q in range(d.n_states) for ai, a in enumerate(d.alphabet)}
        assert len(lines) == len({(q, t) for q, t, _ in lines}) or "," in alphabet


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


# Each of these caps is below the constants and generators that a closure
# starts from, which count against it like every other element.
@pytest.mark.parametrize(
    "argv, stage",
    [
        ("closure --variety dl --regex a* --max-carrier 2", "operation closure"),
        ("closure --variety jsl --alphabet a --regex a* --max-carrier 1", "operation closure"),
        ("monoid --variety jsl --alphabet a --regex a* --max-carrier 1", "operation closure"),
        ("verify-eilenberg --variety dl --alphabet a --regex (aa)* --max-carrier 3", "operation closure"),
        ("export-dot --variety dl --object dalgebra --regex @ --max-carrier 2", "operation closure"),
        ("subdirect --variety dl --alphabet a --regex a* --regex (aa)* --max-carrier 3", "operation closure"),
        ("leq --variety dl --regex b* --regex a* --max-carrier 2", "operation closure"),
    ],
)
def test_a_cap_below_the_seeds_of_a_closure_exits_2(argv, stage, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {stage} exceeded the carrier cap\n"


@pytest.mark.parametrize(
    "argv, size",
    [
        ("closure --variety dl --regex a*", 3),
        ("closure --variety jsl --alphabet a --regex a*", 2),
        ("closure --variety dl --alphabet a --regex (aa)*", 4),
    ],
)
def test_a_closure_fits_exactly_the_cap_of_its_size(argv, size, capsys):
    for cap in (size - 1, size):
        code = main([*argv.split(), "--max-carrier", str(cap)])
        out = capsys.readouterr().out
        assert code == (0 if cap == size else 2), cap
    assert json.loads(out)["size"] == size


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


EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of no output

# (argv, exit code, sha256 of stdout, sha256 of stderr): every report verb
# over all four dualities on pieces of at most 64 elements, and one carrier
# cap refusal per variety.  A change that moves one byte of a report fails here.
PINNED_REPORTS = [
    ("closure --variety ba --regex (ab)*", 0, "cfba99524de0832d4859bd91842bdd7b405bc860d2459970a5b3e25ac5763b0f", EMPTY),
    ("dualize --variety ba --regex (ab)*", 0, "af6862b0b74c5813e3efe6346d16f3380134efe4af7ecd18c3f37558f91f41da", EMPTY),
    ("dualize --variety ba --format dot --regex (ab)*", 0, "5c1322913f220b79fe31f2df10dc4b2dc778a17902a20a716eecae752405ef27", EMPTY),
    ("monoid --variety ba --regex (ab)*", 0, "8ede8a89ec5eaa09f89f57704aae5d31028aac9260c5445d8e36d2439ddb7c44", EMPTY),
    ("verify-eilenberg --variety ba --regex (ab)*", 0, "9d4f370efe04cf9860a918c9e4518be9044c864fabfbd4e0240aa6d40c18066b", EMPTY),
    ("export-dot --variety ba --object coalgebra --regex (ab)*", 0, "7ce296ea5ee7ecf68e659bdb67903788fadd61f90426a28ff25b53178a7a7bf6", EMPTY),
    ("export-dot --variety ba --object dalgebra --regex (ab)*", 0, "5c1322913f220b79fe31f2df10dc4b2dc778a17902a20a716eecae752405ef27", EMPTY),
    ("export-dot --variety ba --object monoid --regex (ab)*", 0, "1b91c2870164c7e46dd01f7caf64dc14130d1fb7200765a879abd400044f121d", EMPTY),
    ("closure --variety ba --regex a*b", 0, "0e7adaaa8834111a5a7540b4a6b5f8998250b7d9723fb6814f2e9b70642cb934", EMPTY),
    ("dualize --variety ba --regex a*b", 0, "479b7481fbbfb9887c14f0f4823e00843139157996297caa23a4daaddfe0d302", EMPTY),
    ("dualize --variety ba --format dot --regex a*b", 0, "7460b9326d347581a50e32112661aa2cb459cd3d2f3016c60e8e6c6e01dfb8af", EMPTY),
    ("monoid --variety ba --regex a*b", 0, "fd1dbef14109aee7de62c7de909822c093cd47283d7667c8a7cfe55747514dac", EMPTY),
    ("verify-eilenberg --variety ba --regex a*b", 0, "cebe98139cbd1828f174f9e1cfa9ae277a10b917607aa8f024852825d0da6a90", EMPTY),
    ("export-dot --variety ba --object coalgebra --regex a*b", 0, "93e818fb45a79407c4b180a1bb6eb5b0dbb3bf53b58c559196bd2c232ac78e64", EMPTY),
    ("export-dot --variety ba --object dalgebra --regex a*b", 0, "7460b9326d347581a50e32112661aa2cb459cd3d2f3016c60e8e6c6e01dfb8af", EMPTY),
    ("export-dot --variety ba --object monoid --regex a*b", 0, "3ee211675e1d68b1f6a6d0dfb9063c58b702e21c443e6280d98c8b0899b7ab02", EMPTY),
    ("closure --variety ba --regex (a|b)*ab", 0, "7d2182a5a7aa2f6a193eace7e4f8e071abe6c64adf0895823bf4f4831c8e2c57", EMPTY),
    ("dualize --variety ba --regex (a|b)*ab", 0, "abf9a1d4f3dfd02e80b2820c29492e02ea1fe3d8a2c4a0a29ac5e9fb9fbe00c6", EMPTY),
    ("dualize --variety ba --format dot --regex (a|b)*ab", 0, "662eec81684224b8207a90ea3f575528988de8fb1b0a81461b9a4713007bc859", EMPTY),
    ("monoid --variety ba --regex (a|b)*ab", 0, "497fc58da3539af9a3a81de456c699759089f1dcb4de3b0b7b48931680e09bf1", EMPTY),
    ("verify-eilenberg --variety ba --regex (a|b)*ab", 0, "ad87b497e50081c45d5a9692d03997243ca2fa4accec938abac86dd37d0b876f", EMPTY),
    ("export-dot --variety ba --object coalgebra --regex (a|b)*ab", 0, "df67492285f6abb3c77b3b4c8cbe92e997779fab3df252f859573817320b9a4e", EMPTY),
    ("export-dot --variety ba --object dalgebra --regex (a|b)*ab", 0, "662eec81684224b8207a90ea3f575528988de8fb1b0a81461b9a4713007bc859", EMPTY),
    ("export-dot --variety ba --object monoid --regex (a|b)*ab", 0, "14c77941a5c81cd5f955eeae92f0f493bd9b8ad4e3cb6c61c39d5a52cc373c0a", EMPTY),
    ("subdirect --variety ba --regex (ab)* --regex a*b", 0, "a472159d3df2be7ac7615e1852e2be3243cd1309323b9ed2cc76c8c2538a3636", EMPTY),
    ("leq --variety ba --regex (ab)* --regex a*b", 0, "f795cd6e864cfb1b33b50c1f03a0624fda4b3f081df40c990b06b95fea606e7d", EMPTY),
    ("subdirect --variety ba --regex a*b --regex (a|b)*ab", 0, "8fc22b6ed7d4de763f502ed356eee0a9cc88761d78656bad5c360d99d82572a0", EMPTY),
    ("leq --variety ba --regex a*b --regex (a|b)*ab", 0, "f795cd6e864cfb1b33b50c1f03a0624fda4b3f081df40c990b06b95fea606e7d", EMPTY),
    ("closure --variety dl --regex (ab)*", 0, "c1a98028b0baa3a5f61792ae0499e1d17684473802c36ad4527ce3d33ab88597", EMPTY),
    ("dualize --variety dl --regex (ab)*", 0, "ea9ee86fd438e2e28d9db9f2ea169c2a79d1af598445e8fb7fa5c1cbf5d97e39", EMPTY),
    ("dualize --variety dl --format dot --regex (ab)*", 0, "277979e3cf43036b3e297508afc5f777238de4aac1d16e4bf483fd3f22464c07", EMPTY),
    ("monoid --variety dl --regex (ab)*", 0, "e7ba66bb2f15808d966fadd23eefbc04106e59ee3cdeb954fc721251f67ab7d9", EMPTY),
    ("verify-eilenberg --variety dl --regex (ab)*", 0, "bd24eb8396c95528975b47ca5aa34828ebbce7ac224fdd6bcc2f06e4bed45bce", EMPTY),
    ("export-dot --variety dl --object coalgebra --regex (ab)*", 0, "2914f4907e067cd4230e8638a0dfceab37cb7468ea4545abd73293d4507b583a", EMPTY),
    ("export-dot --variety dl --object dalgebra --regex (ab)*", 0, "277979e3cf43036b3e297508afc5f777238de4aac1d16e4bf483fd3f22464c07", EMPTY),
    ("export-dot --variety dl --object monoid --regex (ab)*", 0, "c898c122d92b5ac9c4a7e8838998def53a6f49e83a6ff9502a2ee48a8eeb15a3", EMPTY),
    ("closure --variety dl --regex a*b", 0, "215c37979243de3bec265e592e45c05747b410b788efc252028f1fcebdd73dfd", EMPTY),
    ("dualize --variety dl --regex a*b", 0, "3f8e05da509028728061d757eed0873db17a49536c1d75d00fe1b928840b81ea", EMPTY),
    ("dualize --variety dl --format dot --regex a*b", 0, "7460b9326d347581a50e32112661aa2cb459cd3d2f3016c60e8e6c6e01dfb8af", EMPTY),
    ("monoid --variety dl --regex a*b", 0, "4b9fb59cb5933c31124e802deb759a119614b810b4c95c49fb6d2d34434bec06", EMPTY),
    ("verify-eilenberg --variety dl --regex a*b", 0, "00af58fe4eeb1636efc222fdb17105f733fc183b7b8ba24ea75a1f1baa726b19", EMPTY),
    ("export-dot --variety dl --object coalgebra --regex a*b", 0, "1293600b1648b4aabbe3d58b23ee83cbfff69dd117d8dbe0488e547508c5084f", EMPTY),
    ("export-dot --variety dl --object dalgebra --regex a*b", 0, "7460b9326d347581a50e32112661aa2cb459cd3d2f3016c60e8e6c6e01dfb8af", EMPTY),
    ("export-dot --variety dl --object monoid --regex a*b", 0, "3ee211675e1d68b1f6a6d0dfb9063c58b702e21c443e6280d98c8b0899b7ab02", EMPTY),
    ("closure --variety dl --regex (a|b)*ab", 0, "f8cf92b3ac001daa38063f33b0a984addc306170b7525dcfdaaec20273c175b6", EMPTY),
    ("dualize --variety dl --regex (a|b)*ab", 0, "8e055acf2f6be961bc71f732679ee68f5024b5f68cfe92a7f7319d5b24e428f8", EMPTY),
    ("dualize --variety dl --format dot --regex (a|b)*ab", 0, "bb993692194101c1e996e1fc5d7e64344128256751f5b6c9184d5b03f8895955", EMPTY),
    ("monoid --variety dl --regex (a|b)*ab", 0, "dbca62d1e2d1592332109d7f618c1193e57aba56fc68dbfaca2105c54829abdb", EMPTY),
    ("verify-eilenberg --variety dl --regex (a|b)*ab", 0, "a9314ba526d139d0346ff7258bf6e24abf1f4dd43f478fcc15e0fd446b8f63bc", EMPTY),
    ("export-dot --variety dl --object coalgebra --regex (a|b)*ab", 0, "fc267bb3f2d6b8db1a4eca4e4ae52dca85bc4756a35cebac67042aa3ecb4e195", EMPTY),
    ("export-dot --variety dl --object dalgebra --regex (a|b)*ab", 0, "bb993692194101c1e996e1fc5d7e64344128256751f5b6c9184d5b03f8895955", EMPTY),
    ("export-dot --variety dl --object monoid --regex (a|b)*ab", 0, "7c7a591b8eea404714964e44da350da4a0c7e8e3a1c195936be3e32ed78774eb", EMPTY),
    ("subdirect --variety dl --regex (ab)* --regex a*b", 0, "3872e714823242e4e0852804f70762703905c0d7b99bf3907a79aac797636176", EMPTY),
    ("leq --variety dl --regex (ab)* --regex a*b", 0, "f795cd6e864cfb1b33b50c1f03a0624fda4b3f081df40c990b06b95fea606e7d", EMPTY),
    ("subdirect --variety dl --regex a*b --regex (a|b)*ab", 0, "48bd025519e20e1fe0a02c1519668c49de735f0b3d0e4b1038431df4bea7eeeb", EMPTY),
    ("leq --variety dl --regex a*b --regex (a|b)*ab", 0, "f795cd6e864cfb1b33b50c1f03a0624fda4b3f081df40c990b06b95fea606e7d", EMPTY),
    ("closure --variety jsl --regex (ab)*", 0, "7578e153b661553b73d687fff384adf2ae63bdc2c1c8b1e149f8f0a8e9e7ec34", EMPTY),
    ("dualize --variety jsl --regex (ab)*", 0, "df8d3f29c791ca742a33133cd528a2211bfe90f5c449f029395d5cf3458e1608", EMPTY),
    ("dualize --variety jsl --format dot --regex (ab)*", 0, "d2bbb4b5fb4f307f4908f5a4d6447fc81489d940a5e4d42047f04b2223777377", EMPTY),
    ("monoid --variety jsl --regex (ab)*", 0, "afc191d055534096d43cb98e104745330fcfb889dffd80f21d8d7d5f2de5e348", EMPTY),
    ("verify-eilenberg --variety jsl --regex (ab)*", 0, "7a7f5766a4aeb71bbeb4dfc572257071f30dc784d51ba7aef626c48e32773358", EMPTY),
    ("export-dot --variety jsl --object coalgebra --regex (ab)*", 0, "726ba89d7511139ae4f046a5fe9638b64c07d138a41020632ab5ed9ee601327f", EMPTY),
    ("export-dot --variety jsl --object dalgebra --regex (ab)*", 0, "d2bbb4b5fb4f307f4908f5a4d6447fc81489d940a5e4d42047f04b2223777377", EMPTY),
    ("export-dot --variety jsl --object monoid --regex (ab)*", 0, "f3066d5982e4fe6bee02422f3b6fa7dd52aafc7f784cc4f1a6d9b64f54784082", EMPTY),
    ("closure --variety jsl --regex a*b", 0, "1b91cde4feab216e0b28e7d073bbd08f8b0cae289e30c101bd5065b981ebad67", EMPTY),
    ("dualize --variety jsl --regex a*b", 0, "fcdfd9c1fbacca93e10b7b994d0c36dc66e64a108e67e627ed8444e8a2e44163", EMPTY),
    ("dualize --variety jsl --format dot --regex a*b", 0, "56f33e120a063611e2682e743b0df7eb1bdec3cc51d8e18cc70994b6da5614b3", EMPTY),
    ("monoid --variety jsl --regex a*b", 0, "4793ea8fcaa35a7f239505078b4d666d058c0e4b37bbf3f7916fb250b132aeda", EMPTY),
    ("verify-eilenberg --variety jsl --regex a*b", 0, "ed267837fe57cd6703e671a1eb22cce7cf4b9ebb572a0466b67e981b87622c05", EMPTY),
    ("export-dot --variety jsl --object coalgebra --regex a*b", 0, "f1dd1f6187430b7df85af21a21b555c900187274bfe05a083e7dbfba1f6829a2", EMPTY),
    ("export-dot --variety jsl --object dalgebra --regex a*b", 0, "56f33e120a063611e2682e743b0df7eb1bdec3cc51d8e18cc70994b6da5614b3", EMPTY),
    ("export-dot --variety jsl --object monoid --regex a*b", 0, "027f88aa6ffb5981204d234737a88c49ad1961b4e0af0621cd6ae2692aee3576", EMPTY),
    ("closure --variety jsl --regex (a|b)*ab", 0, "2b818f79e7c8b85f0fb7e53d2f31ce60738a5fb786aa3079e1da2dc5fe1c82e6", EMPTY),
    ("dualize --variety jsl --regex (a|b)*ab", 0, "1565aa801db75d2726d0badf816c3f5f9a759469c61c8bec04e7890334cf6e20", EMPTY),
    ("dualize --variety jsl --format dot --regex (a|b)*ab", 0, "77290293477678f40edc49f014edf2fb5f5c37146bd88c569455dc95c4874c92", EMPTY),
    ("monoid --variety jsl --regex (a|b)*ab", 0, "c8f213d39a23a19c106f4b7b0e56a58831c86711465edc06acdbd736d9358395", EMPTY),
    ("verify-eilenberg --variety jsl --regex (a|b)*ab", 0, "997ebfb0230bbad28d7c361d9aec729bebe2757c12d9324abb11165377f87350", EMPTY),
    ("export-dot --variety jsl --object coalgebra --regex (a|b)*ab", 0, "fec40a55973bcae034e12f16cafeaf4c6d2a4561ebac4f565740ce3510faadce", EMPTY),
    ("export-dot --variety jsl --object dalgebra --regex (a|b)*ab", 0, "77290293477678f40edc49f014edf2fb5f5c37146bd88c569455dc95c4874c92", EMPTY),
    ("export-dot --variety jsl --object monoid --regex (a|b)*ab", 0, "6c391eb9faff1cf4f5d0d3446301d7f6983e9a734cc87597e610580566d0c92c", EMPTY),
    ("subdirect --variety jsl --regex (ab)* --regex a*b", 0, "9ff552f30f6b3e2a578ea356321d2126067b2060bf0406f09583f06687d3c55f", EMPTY),
    ("leq --variety jsl --regex (ab)* --regex a*b", 0, "f795cd6e864cfb1b33b50c1f03a0624fda4b3f081df40c990b06b95fea606e7d", EMPTY),
    ("subdirect --variety jsl --regex a*b --regex (a|b)*ab", 0, "b4756ce54d6649719d53646e4ed12fd33d53f1f17ac3fc12896dcd85cfcb6773", EMPTY),
    ("leq --variety jsl --regex a*b --regex (a|b)*ab", 0, "f795cd6e864cfb1b33b50c1f03a0624fda4b3f081df40c990b06b95fea606e7d", EMPTY),
    ("closure --variety z2 --regex (ab)*", 0, "800650cd1110d0d7b54b8d555a34e272c7dd31f7bebd48ea4e81f826ce88b1fe", EMPTY),
    ("dualize --variety z2 --regex (ab)*", 0, "a91f0e32c8e1782141b77c7f585e4db90970d69312433e850a3eabfbf7e1c615", EMPTY),
    ("dualize --variety z2 --format dot --regex (ab)*", 0, "8f015cf7820152d8d64c5619972ef67597f1b78ee05fb7c670fb9d15a2dd51c2", EMPTY),
    ("monoid --variety z2 --regex (ab)*", 0, "daa4ebd9aad8fb2cae1ba4b06a1d4a90bb7fda48220ebdeed8b8420d0ab23bbb", EMPTY),
    ("verify-eilenberg --variety z2 --regex (ab)*", 0, "97caafdf097c49f9d2182aed43e490877efae1185b0dca459647e72ebe64b41a", EMPTY),
    ("export-dot --variety z2 --object coalgebra --regex (ab)*", 0, "1d37f5624b31cbec0affbe3a18ee6017c4195ad03c27b541fd7398214afbf212", EMPTY),
    ("export-dot --variety z2 --object dalgebra --regex (ab)*", 0, "8f015cf7820152d8d64c5619972ef67597f1b78ee05fb7c670fb9d15a2dd51c2", EMPTY),
    ("export-dot --variety z2 --object monoid --regex (ab)*", 0, "dca837859c5765fef82d0aad2ab57d523f24237ac32fbbad44a3fe383d5db482", EMPTY),
    ("closure --variety z2 --regex a*b", 0, "20cde0055c47ae9b10c9d4c72784f7d4868d08c17782cc2ad67116b64e6329bf", EMPTY),
    ("dualize --variety z2 --regex a*b", 0, "ce0ffd928d5ce020a2a2985509fc72c9e912c5247e6705e49c41434911bc2008", EMPTY),
    ("dualize --variety z2 --format dot --regex a*b", 0, "ef6f99799598f6107870181f6b675f1676f93f41a8e8ab312fdf8a3eaf9d1b9c", EMPTY),
    ("monoid --variety z2 --regex a*b", 0, "8abab17e25f2c9b3871221e3abdde1e67b20f0df76d453518a6d099967e42e3a", EMPTY),
    ("verify-eilenberg --variety z2 --regex a*b", 0, "e8f8c161dce494054065ad4956a66ec1e2238b703e65ca1132ee9929ed5b7514", EMPTY),
    ("export-dot --variety z2 --object coalgebra --regex a*b", 0, "10300eaebbca6d56bb7935f14fe5a120c89209ec00af76cfdfabe0c9cdf2acfe", EMPTY),
    ("export-dot --variety z2 --object dalgebra --regex a*b", 0, "ef6f99799598f6107870181f6b675f1676f93f41a8e8ab312fdf8a3eaf9d1b9c", EMPTY),
    ("export-dot --variety z2 --object monoid --regex a*b", 0, "fa24a4f081119ef758042df8d950958a1fa46956fc767885cba433002e6bf8b3", EMPTY),
    ("closure --variety z2 --regex (a|b)*ab", 0, "181b7e1bff56506a69806d677195be8d255287d13fa8437f2c23842ba6ac6462", EMPTY),
    ("dualize --variety z2 --regex (a|b)*ab", 0, "379b94a553a9592c66a2f9c09ebe830436812fec3ee8fb35d02689c5a716dd8e", EMPTY),
    ("dualize --variety z2 --format dot --regex (a|b)*ab", 0, "a3a21f5b2b7a51b1420024ca2e0e0c3cc075a2f88c379d345fa728c16dc39f4e", EMPTY),
    ("monoid --variety z2 --regex (a|b)*ab", 0, "6219f16aae1cc78dc084bee6e890b33476c4ac90417b51e7e4d1c62886948c0e", EMPTY),
    ("verify-eilenberg --variety z2 --regex (a|b)*ab", 0, "266055d48519107c179531638d8f8a90e358acc9d24dd87a902e1ef7b427130a", EMPTY),
    ("export-dot --variety z2 --object coalgebra --regex (a|b)*ab", 0, "df67492285f6abb3c77b3b4c8cbe92e997779fab3df252f859573817320b9a4e", EMPTY),
    ("export-dot --variety z2 --object dalgebra --regex (a|b)*ab", 0, "a3a21f5b2b7a51b1420024ca2e0e0c3cc075a2f88c379d345fa728c16dc39f4e", EMPTY),
    ("export-dot --variety z2 --object monoid --regex (a|b)*ab", 0, "4ec8659454b1f6f5ac44a07e8a45c7c3c32ea8bafe431197c04482b508fa1dd7", EMPTY),
    ("subdirect --variety z2 --regex (ab)* --regex a*b", 0, "fa7339a0222ea034e5fe360e125642d00529df82c5b7a080417883e16a308c05", EMPTY),
    ("leq --variety z2 --regex (ab)* --regex a*b", 0, "f795cd6e864cfb1b33b50c1f03a0624fda4b3f081df40c990b06b95fea606e7d", EMPTY),
    ("subdirect --variety z2 --regex a*b --regex (a|b)*ab", 0, "1c49dad600f3aecd9a1faad20e79dc3880c285738c99757aa62e0faea9273c22", EMPTY),
    ("leq --variety z2 --regex a*b --regex (a|b)*ab", 0, "f795cd6e864cfb1b33b50c1f03a0624fda4b3f081df40c990b06b95fea606e7d", EMPTY),
    ("closure --variety ba --max-carrier 8 --regex (ab)*", 2, EMPTY, "c2eb5e20e39f6d11835899c1606a012c791cb1cf21fc64d02cda8916f1b7926d"),
    ("dualize --variety dl --max-carrier 8 --regex (ab)*", 2, EMPTY, "50bdcdbb7937a396466f6c650688419800f421af467ed9aafc73ca8de3caa719"),
    ("verify-eilenberg --variety jsl --max-carrier 8 --regex (a|b)*ab", 2, EMPTY, "50bdcdbb7937a396466f6c650688419800f421af467ed9aafc73ca8de3caa719"),
    ("monoid --variety z2 --max-carrier 16 --regex (a|b)*ab", 2, EMPTY, "018566541412347a460d5e2ec8452ef35ee9cea657101f53011d6baaec49920d"),
    ("export-dot --regex (ab)*", 0, "4651c494dbea8be6be80bcbceb5a8c6f3e158f99fd01544ba08577832eb388a9", EMPTY),
    ("export-dot --regex (a|b)*abb", 0, "6630f808de0bf188ad0d0521b641c7668ed6cfdfd780e39e922edabc4df31a70", EMPTY),
    ('export-dot --object min-dfa --alphabet a"\\ --regex ("\\)*a', 0, "48184a4396624321a85bd8e842ba55139b7aba7f44128f605c4045fee5346484", EMPTY),
    ('export-dot --object coalgebra --alphabet a"\\ --regex ("\\)*a', 0, "b099812fee8edb5e219dac49af1a7f0f12d1c5ba3329b55ea6a545f21b9a2c30", EMPTY),
    ('export-dot --object dalgebra --alphabet a"\\ --regex ("\\)*a', 0, "ce76ff06be5a0e780602dedd552e86d590c52062e7ae9971b69817a493293415", EMPTY),
    ('export-dot --object monoid --alphabet a"\\ --regex ("\\)*a', 0, "310e5f446108d79733035f28416e97539a1f902a64d8c72b9288e6320050793d", EMPTY),
    ("export-dot --object min-dfa --alphabet a, --regex (a,)*a", 0, "6323b6964b6d1973a0258114905bfa2223277ad5a0a3b82a357dea96e6460722", EMPTY),
]


def test_reports_of_the_verb_variety_matrix_are_pinned(capsys):
    import hashlib

    started = time.perf_counter()
    for argv, code, out_sha, err_sha in PINNED_REPORTS:
        got = main(argv.split())
        captured = capsys.readouterr()
        assert got == code, argv
        assert hashlib.sha256(captured.out.encode()).hexdigest() == out_sha, argv
        assert hashlib.sha256(captured.err.encode()).hexdigest() == err_sha, argv
    assert time.perf_counter() - started < 5.0
