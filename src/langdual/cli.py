"""Command-line front end: one verb per construction, JSON reports on stdout.

Exit codes: 0 success, 1 verification failure (a counterexample is part of
the report), 2 usage or resource errors or an --out path that cannot be
written, 141 (128 + SIGPIPE) when the reader of stdout closed it before the
report was written, as `langdual ... | head` does; the rest of the report is
then discarded without a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from itertools import islice
from typing import Iterator, Sequence

from .automata import (
    coalgebra_to_dalgebra,
    coalgebra_to_dot,
    dalgebra_to_dot,
    dalgebra_to_json,
    generate_subcoalgebra,
    is_rqc_closed,
    rqc_closure,
)
from .config import DEFAULT_LIMITS, Limits
from .correspondence import (
    piece_to_monoid,
    roundtrip_check,
    verify_correspondence,
)
from .duality import DualityTag, c_tag, parse_variety_flag
from .errors import CorrespondenceError, LangdualError
from .languages import (
    Concat,
    Empty,
    Epsilon,
    LanguageId,
    Literal,
    Regex,
    Star,
    Union,
    check_alphabet,
    compile_regex,
    dfa_to_dot,
    language_to_regex,
    left_derivative,
    normalize,
    parse_regex,
    regex_to_json,
    render_regex,
    residuals,
    right_derivative,
)
from .monoids import monoid_to_dot, monoid_to_json, quotient_leq, subdirect_product


def _int_at_least(low: int):
    """An argparse type: an int no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--regex",
        action="append",
        default=[],
        metavar="STR",
        help="regular expression; repeat the flag for several generators",
    )
    parser.add_argument("--alphabet", default="ab", help="alphabet symbols in order")
    parser.add_argument("--max-states", type=_int_at_least(1), default=None, help="state cap override")
    parser.add_argument("--max-carrier", type=_int_at_least(1), default=None, help="carrier cap override")
    parser.add_argument("--out", default=None, metavar="PATH", help="write the report here")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="langdual")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("parse", help="parse a regular expression")
    _add_common(p)

    p = sub.add_parser("min-dfa", help="canonical minimal DFA of a regex")
    _add_common(p)

    p = sub.add_parser("derive", help="left or right word derivative")
    _add_common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--side", choices=["left", "right"], default="left")

    p = sub.add_parser("residuals", help="all left derivatives of a language")
    _add_common(p)

    p = sub.add_parser("closure", help="derivative-closed language algebra")
    _add_common(p)
    p.add_argument("--variety", default="ba")
    p.add_argument("--mode", choices=["left", "rqc"], default="rqc")

    p = sub.add_parser("dualize", help="dual algebra of the closed piece")
    _add_common(p)
    p.add_argument("--variety", default="ba")
    p.add_argument("--format", choices=["json", "dot"], default="json")

    p = sub.add_parser("monoid", help="syntactic monoid of the closed piece")
    _add_common(p)
    p.add_argument("--variety", default="ba")

    p = sub.add_parser("subdirect", help="subdirect product of the generators' monoids")
    _add_common(p)
    p.add_argument("--variety", default="ba")

    p = sub.add_parser("leq", help="quotient order between two generators' monoids")
    _add_common(p)
    p.add_argument("--variety", default="ba")

    p = sub.add_parser("verify-eilenberg", help="round-trip verification")
    _add_common(p)
    p.add_argument("--variety", default="ba")
    p.add_argument("--random", type=_int_at_least(0), default=0, metavar="N", help="verify N random instances")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export-dot", help="DOT graph of a construction")
    _add_common(p)
    p.add_argument("--variety", default="ba")
    p.add_argument(
        "--object", choices=["min-dfa", "coalgebra", "dalgebra", "monoid"], default="min-dfa"
    )

    return top


def _limits(args) -> Limits:
    return Limits(
        max_states=DEFAULT_LIMITS.max_states if args.max_states is None else args.max_states,
        max_carrier=DEFAULT_LIMITS.max_carrier if args.max_carrier is None else args.max_carrier,
    )


def _languages(args, limits: Limits, at_least: int = 1):
    alphabet = check_alphabet(args.alphabet)
    if len(args.regex) < at_least:
        raise LangdualError(f"need at least {at_least} --regex argument(s)")
    langs = [compile_regex(parse_regex(r, alphabet), alphabet, limits) for r in args.regex]
    return alphabet, langs


def _one_language(args, limits: Limits):
    alphabet, langs = _languages(args, limits, at_least=1)
    if len(langs) != 1:
        raise LangdualError("this verb takes exactly one --regex")
    return alphabet, langs[0]


def _run(args) -> tuple[int, object]:
    limits = _limits(args)
    verb = args.verb

    if verb == "parse":
        alphabet = check_alphabet(args.alphabet)
        if len(args.regex) != 1:
            raise LangdualError("this verb takes exactly one --regex")
        tree = parse_regex(args.regex[0], alphabet)
        return 0, {"tree": regex_to_json(tree), "normalized": render_regex(normalize(tree))}

    if verb == "min-dfa":
        _, language = _one_language(args, limits)
        return 0, language.dfa.to_json()

    if verb == "derive":
        _, language = _one_language(args, limits)
        op = left_derivative if args.side == "left" else right_derivative
        return 0, {"result": language_to_regex(op(language, args.word))}

    if verb == "residuals":
        _, language = _one_language(args, limits)
        # in a fixed order, so that a refused text is the same one in every run
        names = sorted(language_to_regex(r) for r in sorted(residuals(language), key=LanguageId.sort_key))
        return 0, {"residuals": names, "count": len(names)}

    if verb == "closure":
        dtag = parse_variety_flag(args.variety)
        _, langs = _languages(args, limits)
        build = rqc_closure if args.mode == "rqc" else generate_subcoalgebra
        piece = build(c_tag(dtag), langs, limits)
        return 0, {
            "variety": dtag.value,
            "mode": args.mode,
            "size": piece.size,
            "languages": sorted(language_to_regex(l) for l in piece.labels),
            "rqc_closed": is_rqc_closed(piece),
        }

    if verb == "dualize":
        dtag = parse_variety_flag(args.variety)
        _, langs = _languages(args, limits)
        algebra = coalgebra_to_dalgebra(dtag, rqc_closure(c_tag(dtag), langs, limits))
        if args.format == "dot":
            return 0, dalgebra_to_dot(algebra)
        return 0, dalgebra_to_json(algebra)

    if verb == "monoid":
        dtag = parse_variety_flag(args.variety)
        _, langs = _languages(args, limits)
        monoid = piece_to_monoid(dtag, rqc_closure(c_tag(dtag), langs, limits), limits)
        return 0, {"size": monoid.size, **monoid_to_json(monoid)}

    if verb == "subdirect":
        dtag = parse_variety_flag(args.variety)
        _, langs = _languages(args, limits, at_least=2)
        monoids = [
            piece_to_monoid(dtag, rqc_closure(c_tag(dtag), [l], limits), limits) for l in langs
        ]
        product = monoids[0]
        for m in monoids[1:]:
            product = subdirect_product(product, m, limits)
        return 0, {"size": product.size, **monoid_to_json(product)}

    if verb == "leq":
        dtag = parse_variety_flag(args.variety)
        _, langs = _languages(args, limits, at_least=2)
        if len(langs) != 2:
            raise LangdualError("this verb takes exactly two --regex arguments")
        m1 = piece_to_monoid(dtag, rqc_closure(c_tag(dtag), [langs[0]], limits), limits)
        m2 = piece_to_monoid(dtag, rqc_closure(c_tag(dtag), [langs[1]], limits), limits)
        return 0, {"leq": quotient_leq(m1, m2, limits)}

    if verb == "verify-eilenberg":
        dtag = parse_variety_flag(args.variety)
        if args.random:
            return _verify_random(args, dtag, limits)
        alphabet, langs = _languages(args, limits)
        piece, monoid, verdict = verify_correspondence(dtag, langs, limits)
        languages = sorted(language_to_regex(lang) for lang in piece.labels)
        summary = {
            "roundtrip": verdict,
            "piece_size": len(languages),
            "monoid_size": monoid.size,
            "languages": languages,
        }
        return (0 if verdict == "ok" else 1), summary

    if verb == "export-dot":
        dtag = parse_variety_flag(args.variety)
        if args.object == "min-dfa":
            return 0, dfa_to_dot(_one_language(args, limits)[1].dfa)
        _, langs = _languages(args, limits)
        piece = rqc_closure(c_tag(dtag), langs, limits)
        if args.object == "coalgebra":
            return 0, coalgebra_to_dot(piece)
        if args.object == "dalgebra":
            return 0, dalgebra_to_dot(coalgebra_to_dalgebra(dtag, piece))
        return 0, monoid_to_dot(piece_to_monoid(dtag, piece, limits))

    raise LangdualError(f"unknown verb {verb!r}")


def random_regex(rng: random.Random, alphabet, max_depth: int = 4) -> Regex:
    """A seeded random regex tree, so identical seeds give identical runs."""
    if max_depth <= 0:
        roll = rng.random()
        if roll < 0.75:
            return Literal(rng.choice(alphabet))
        if roll < 0.95:
            return Epsilon()
        return Empty()
    roll = rng.random()
    if roll < 0.35:
        return Literal(rng.choice(alphabet))
    if roll < 0.55:
        return Union(random_regex(rng, alphabet, max_depth - 1), random_regex(rng, alphabet, max_depth - 1))
    if roll < 0.80:
        return Concat(random_regex(rng, alphabet, max_depth - 1), random_regex(rng, alphabet, max_depth - 1))
    if roll < 0.95:
        return Star(random_regex(rng, alphabet, max_depth - 1))
    return Epsilon()


def _verify_random(args, dtag: DualityTag, limits: Limits) -> tuple[int, object]:
    alphabet = check_alphabet(args.alphabet)
    rng = random.Random(args.seed)
    instances = []
    failures = 0
    produced = 0
    while produced < args.random:
        texts = [
            render_regex(random_regex(rng, alphabet)) for _ in range(rng.randint(1, 2))
        ]
        langs = [compile_regex(parse_regex(t, alphabet), alphabet, limits) for t in texts]
        if any(l.n_states > 5 for l in langs):
            continue
        try:
            piece = rqc_closure(c_tag(dtag), langs, Limits(limits.max_states, 64))
        except LangdualError:
            continue
        produced += 1
        entry: dict[str, object] = {"generators": sorted(texts), "piece_size": piece.size}
        try:
            roundtrip_check(dtag, piece, limits)
            entry["roundtrip"] = "ok"
        except CorrespondenceError as err:
            entry["roundtrip"] = {"counterexample": err.counterexample}
            failures += 1
        instances.append(entry)
    return (1 if failures else 0), {
        "variety": dtag.value,
        "seed": args.seed,
        "instances": instances,
        "failures": failures,
    }


def _report_text(report: object) -> Iterator[str]:
    """The text of a report: DOT as it is, JSON in batches of encoder chunks,
    so that a large report is never held as one string."""
    if isinstance(report, str):
        return iter([report])
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
    return iter(lambda: "".join(islice(chunks, 1 << 16)), "")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report = _run(args)
    except (LangdualError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    pieces = _report_text(report)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.writelines(pieces)
                if not (isinstance(report, str) and report.endswith("\n")):
                    handle.write("\n")
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    else:
        try:
            sys.stdout.writelines(pieces)
            print()
            sys.stdout.flush()
        except BrokenPipeError:
            # the interpreter flushes stdout again at exit; point it at
            # devnull so that flush cannot fail too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
