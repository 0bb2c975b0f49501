"""Command-line front end: parse a system, analyze it, print a certificate.

Exit codes: 0 for a completed analysis (whatever the verdict), 2 for bad
command-line usage, 1 for I/O, parse or resource failures, each reported
as one line on standard error.  Terms that nest deeper than Python's
recursion limit allows, in the input or in what the analysis builds
from it, are such a failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis import AnalysisConfig, analyze, emit_certificate
from .errors import NontermError, ParseError
from .parsing import parse_program, render_program
from .rewriting import Mode


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nonterm",
        description="Non-termination analysis for rewrite systems and logic programs",
    )
    ap.add_argument("file", help="input file (.trs or .pl)")
    ap.add_argument(
        "--format",
        choices=["trs", "lp"],
        help="input dialect; default inferred from the file extension",
    )
    ap.add_argument(
        "--technique",
        default="loop,recpair",
        help="comma-separated subset of {loop,recpair}",
    )
    ap.add_argument("--depth", type=int, default=None, help="max unfolding depth")
    ap.add_argument(
        "--max-word", type=int, default=None, help="max rule-word length (with --raw)"
    )
    ap.add_argument(
        "--simulate", type=int, default=None, help="simulated prefix length"
    )
    ap.add_argument(
        "--raw",
        action="store_true",
        help="search the input rules directly, without unfolding",
    )
    ap.add_argument(
        "--timeout", type=float, default=None, help="seconds for the whole analysis"
    )
    ap.add_argument("--json", action="store_true", help="emit a JSON certificate")
    ap.add_argument(
        "--emit-unfolded",
        metavar="PATH",
        help="also write the rules the verdict rests on to PATH: the last "
        "unfolded pool searched, or the input rules with --raw",
    )
    return ap


def _infer_mode(path: str, fmt: Optional[str]) -> Mode:
    if fmt == "trs":
        return Mode.TRS
    if fmt == "lp":
        return Mode.LP
    suffix = Path(path).suffix.lower()
    if suffix == ".trs":
        return Mode.TRS
    if suffix == ".pl":
        return Mode.LP
    raise ValueError(
        f"cannot infer format from {path!r}; pass --format trs|lp"
    )


def _config_from_args(args) -> AnalysisConfig:
    """The config of the flags given; ``AnalysisConfig`` checks their
    values, and the defaults stand for the flags left out."""
    given = {
        "unfold_depth": args.depth,
        "max_word_len": args.max_word,
        "simulate_steps": args.simulate,
        "timeout": args.timeout,
    }
    return AnalysisConfig(
        techniques=tuple(t for t in args.technique.split(",") if t),
        raw=args.raw,
        **{name: value for name, value in given.items() if value is not None},
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        mode = _infer_mode(args.file, args.format)
        text = Path(args.file).read_text()
        verdict = analyze(parse_program(text, mode), cfg)
        if args.emit_unfolded:
            if verdict.used_program is None:
                # only the rule cap stops an unfolding before its first pool
                raise NontermError(f"no pool searched: {verdict.stats['resource_limit']}")
            Path(args.emit_unfolded).write_text(render_program(verdict.used_program))
        certificate = emit_certificate(verdict, as_json=args.json)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, NontermError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:
        print(f"error: terms nest too deeply: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(certificate)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
