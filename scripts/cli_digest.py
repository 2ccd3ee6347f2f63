#!/usr/bin/env python3
"""Run a fixed matrix of CLI cases in process and print a digest of each.

Every verb runs over a fixed list of regex sets, under each variety (for
the verbs that take one) and each --max-carrier value (unset, 1, 2, 3, 8,
64), and verify-eilenberg also runs on seeded --random instances.  Each
case prints one line: its arguments, its exit code, and the sha256 of its
stdout and of its stderr.  Two checkouts whose digests are equal print the
same reports, refusals included.

The script exits 1 if any case raises out of cli.main or returns an exit
code other than 0, 1 or 2, and 0 otherwise.  `scripts/cli_digest.sha256`
holds the sha256 of the whole output as `cli-digest.out`, which CI checks;
a change that alters a report on purpose updates it in the same commit.

Usage: PYTHONPATH=src python scripts/cli_digest.py > cli-digest.out
       sha256sum -c scripts/cli_digest.sha256
"""

import contextlib
import hashlib
import io
import shlex
import sys
import traceback

from langdual.cli import main

VARIETIES = ("ba", "dl", "jsl", "z2")
CAPS = (None, 1, 2, 3, 8, 64)
REGEX_SETS = (
    ("(ab)*",),
    ("(ab|ba)*a",),
    ("(a|b)*abb",),
    ("(aa|b)*ab",),
    ("a*b",),
    ("a*", "(ab)*"),
    ("(aa)*", "(aaa)*"),
    ("(a|b)*abb", "b*"),
)
# verbs that read one language and take no variety
PLAIN_FORMS = (
    ("parse",),
    ("min-dfa",),
    ("derive", "--side", "left", "--word", "ab"),
    ("derive", "--side", "right", "--word", "ab"),
    ("residuals",),
    ("export-dot", "--object", "min-dfa"),
)
VARIETY_FORMS = (
    ("closure", "--mode", "rqc"),
    ("closure", "--mode", "left"),
    ("dualize",),
    ("dualize", "--format", "dot"),
    ("monoid",),
    ("subdirect",),
    ("leq",),
    ("verify-eilenberg",),
    ("export-dot", "--object", "coalgebra"),
    ("export-dot", "--object", "dalgebra"),
    ("export-dot", "--object", "monoid"),
)
RANDOM_SEEDS = (1, 2)


def cases():
    for cap in CAPS:
        capped = () if cap is None else ("--max-carrier", str(cap))
        for regexes in REGEX_SETS:
            given = tuple(arg for text in regexes for arg in ("--regex", text))
            for form in PLAIN_FORMS:
                yield (*form, *given, *capped)
            for variety in VARIETIES:
                for form in VARIETY_FORMS:
                    yield (*form, "--variety", variety, *given, *capped)
        for variety in VARIETIES:
            for seed in RANDOM_SEEDS:
                yield ("verify-eilenberg", "--variety", variety, "--random", "3", "--seed", str(seed), *capped)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv) -> tuple[str, bool]:
    """The digest line of one case, and whether it ended as a CLI run should."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except (Exception, SystemExit) as exc:  # argparse exits by SystemExit
        traceback.print_exc()
        return f"{shlex.join(argv)}\traised {type(exc).__name__}: {exc}", False
    return f"{shlex.join(argv)}\t{code}\t{digest(out.getvalue())}\t{digest(err.getvalue())}", code in (0, 1, 2)


if __name__ == "__main__":
    failed = 0
    for argv in cases():
        line, ok = run(argv)
        print(line, flush=True)
        failed += not ok
    if failed:
        print(f"{failed} case(s) escaped cli.main or exited outside 0, 1, 2", file=sys.stderr)
    sys.exit(1 if failed else 0)
