"""Contract details: canonicity vs membership, CLI determinism and exit codes."""

import json
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from langdual.cli import main, random_regex
from langdual.languages import check_alphabet, compile_regex, parse_regex
from oracles import words_up_to

AB = ("a", "b")


def test_canonical_equality_matches_bounded_membership():
    # two languages with m- and n-state minimal DFAs are equal exactly when
    # they agree on all words of length < m + n
    rng = random.Random(97)
    for _ in range(60):
        l1 = compile_regex(random_regex(rng, AB), AB)
        l2 = compile_regex(random_regex(rng, AB), AB)
        if l1.n_states + l2.n_states > 10:
            continue
        bound = l1.n_states + l2.n_states
        agree = all(
            l1.dfa.accepts_word(w) == l2.dfa.accepts_word(w) for w in words_up_to(AB, bound)
        )
        assert agree == (l1 == l2)


def test_cli_determinism_across_processes():
    cmd = [
        sys.executable,
        "-m",
        "langdual",
        "verify-eilenberg",
        "--variety",
        "dl",
        "--regex",
        "(ab)*",
    ]
    # the scrubbed env keeps the parent's hash seed out of the children; the
    # in-tree src comes first so the code under test runs even if another
    # copy of langdual is installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    seeds = ("0", "31337")
    runs = [
        subprocess.run(
            cmd,
            capture_output=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": src},
        )
        for seed in seeds
    ]
    for seed, r in zip(seeds, runs):
        assert r.returncode == 0, (seed, r.returncode, r.stderr.decode(errors="replace"))
    assert runs[0].stdout == runs[1].stdout


def test_the_eilenberg_tour_script_runs():
    root = Path(__file__).resolve().parents[1]
    r = subprocess.run(
        [sys.executable, str(root / "scripts" / "eilenberg_tour.py"), "(ab)*"],
        capture_output=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(root / "src")},
        timeout=120,
    )
    assert r.returncode == 0, r.stderr.decode(errors="replace")
    assert "two-sided       5 residuals\n" in r.stdout.decode()


def test_verification_failure_exits_1(monkeypatch, capsys):
    import langdual.cli as cli

    def broken(dtag, langs, limits):
        return SimpleNamespace(labels=()), SimpleNamespace(size=1), {"counterexample": "a*"}

    monkeypatch.setattr(cli, "verify_correspondence", broken)
    code = main(["verify-eilenberg", "--variety", "ba", "--regex", "a*"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["roundtrip"] == {"counterexample": "a*"}


def test_alphabet_validation():
    with pytest.raises(ValueError):
        check_alphabet(("ab",))  # multi-character symbol
    with pytest.raises(ValueError):
        check_alphabet(("a", "*"))  # reserved token
    with pytest.raises(ValueError):
        check_alphabet(("a", "\n"))  # unprintable


def test_empty_regex_text_is_a_syntax_error():
    from langdual.errors import RegexSyntaxError

    with pytest.raises(RegexSyntaxError):
        parse_regex("", AB)
    with pytest.raises(RegexSyntaxError):
        parse_regex("a||b", AB)
