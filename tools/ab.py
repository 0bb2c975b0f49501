"""A/B comparison of two checkouts on one benchmark workload.

Usage::

    python3 tools/ab.py PARENT CHANGE --workload blowup --seed 1 --seconds 5 --pairs 10 [--out FILE]

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
``bench/run.py --trace 0`` once in each checkout, the parent first in odd
pairs and the change first in even ones, so that a drift in host speed
falls on both sides alike.  Each run's last line of output is its result
JSON.  For each end-to-end metric that ``BENCHMARK.json`` declares, the
report gives the parent's median and quartiles, the change's median and
the number of pairs in which the change did better; ``beyond IQR`` says
whether the medians differ by more than the parent's interquartile range.

The two checkouts must sit at resolved paths of equal length, since the
length of a checkout's path alone moves ``peak_rss_mb`` by more than its
bound.  Exits 1 if a run
fails, if an analysis in it fails or gives a wrong verdict, or if the
checkouts are refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class ABError(Exception):
    """The comparison could not produce valid figures."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, help="write both sides' runs and the summary as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args


def check_paths(parent: Path, change: Path) -> tuple[Path, Path]:
    """The two checkouts' resolved paths, refused unless they are
    checkouts of equal path length."""
    parent, change = parent.resolve(), change.resolve()
    for root in (parent, change):
        if not (root / "bench" / "run.py").is_file():
            raise ABError(f"{root} is not a checkout: bench/run.py is missing")
    if len(str(parent)) != len(str(change)):
        raise ABError(
            f"the checkouts' paths differ in length ({len(str(parent))} and "
            f"{len(str(change))} characters), which moves peak_rss_mb"
        )
    return parent, change


def read_result(stdout: str) -> dict:
    """The result JSON on the last non-empty line of a run's output."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        if result["failed"] or not result["correct"]:
            raise ABError(
                f"{result['failed']} of {result['attempted']} analyses failed"
                + ("" if result["correct"] else ", and a verdict was wrong")
            )
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        raise ABError(f"no result line in the run's output ({exc!r})") from exc
    return metrics


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """Run the benchmark in one checkout and return its metrics."""
    cmd = [
        sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise ABError(f"{root}: run exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        return read_result(proc.stdout)
    except ABError as exc:
        raise ABError(f"{root}: {exc}") from exc


def order(pair: int) -> tuple[str, str]:
    """The sides of pair ``pair`` (from 1) in the order they run."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric named in ``better`` (``"lower"`` or ``"higher"``) and
    measured on both sides: the parent's quartiles, the change's median
    and the pairs the change won."""
    out = {}
    for name, direction in better.items():
        if not all(name in run for run in parent + change):
            continue
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        q1, median, q3 = quartiles(a)
        ours = statistics.median(b)
        sign = 1 if direction == "lower" else -1
        out[name] = {
            "parent_q1": q1,
            "parent_median": median,
            "parent_q3": q3,
            "change_median": ours,
            "relative": (ours - median) / median if median else None,
            "wins": sum(sign * (y - x) < 0 for x, y in zip(a, b)),
            "pairs": len(a),
            "beyond_iqr": abs(ours - median) > q3 - q1,
        }
    return out


def end_to_end(benchmark: Path) -> dict[str, str]:
    """Each end-to-end metric's name and better direction."""
    doc = json.loads(benchmark.read_text())
    return {m["name"]: m["better"] for m in doc["end_to_end"]}


def report(summary: dict) -> str:
    rows = [
        f"{'metric':<16}{'parent median [q1, q3]':<38}{'change median':>14}"
        f"{'change':>9}{'wins':>8}  beyond IQR"
    ]
    for name, s in summary.items():
        spread = f"{s['parent_median']:.6g} [{s['parent_q1']:.6g}, {s['parent_q3']:.6g}]"
        rel = "n/a" if s["relative"] is None else f"{100 * s['relative']:+.1f}%"
        wins = f"{s['wins']}/{s['pairs']}"
        rows.append(
            f"{name:<16}{spread:<38}{s['change_median']:>14.6g}{rel:>9}{wins:>8}"
            f"  {'yes' if s['beyond_iqr'] else 'no'}"
        )
    return "\n".join(rows)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        roots = dict(zip(("parent", "change"), check_paths(args.parent, args.change)))
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(1, args.pairs + 1):
            for side in order(pair):
                runs[side].append(run_side(roots[side], args.workload, args.seed, args.seconds))
            print(
                f"pair {pair}/{args.pairs}: pass_s parent "
                f"{runs['parent'][-1].get('pass_s', float('nan')):.6g}, "
                f"change {runs['change'][-1].get('pass_s', float('nan')):.6g}",
                flush=True,
            )
        summary = summarize(runs["parent"], runs["change"], end_to_end(ROOT / "BENCHMARK.json"))
    except ABError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  {args.pairs} pairs of {args.seconds:g} s runs")
    print(report(summary))
    if args.out:
        doc = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "pairs": args.pairs,
            "parent": {"path": str(roots["parent"]), "runs": runs["parent"]},
            "change": {"path": str(roots["change"]), "runs": runs["change"]},
            "summary": summary,
        }
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
