"""Benchmark of the nonterm analyzer: end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --out bench/BENCH_1.json

Each workload run happens in a fresh worker process (``worker.py``) that
imports the analyzer from ``src`` and drives it through its public API,
one program at a time, for ``--seconds`` seconds.  Before it, a few
workers are started that only import and build their inputs, to time
set-up.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.

End-to-end times are in reference seconds: each wall time is scaled by
host-speed probes taken just before, just after and, for long regions,
inside it (``speed.py``), because this kind of shared host drifts in
speed by a third within a minute.  The wall times are printed beside
them.  Per-layer times are the traced passes' wall seconds; the
per-layer shares are ratios of those and need no scaling.  Traced
passes probe only between programs, so ``trace.overhead`` compares
times scaled from fewer probes.  Every verdict is checked against the
program's hand-written label, every NO prefix is re-verified, and
certificates must be byte-identical across passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name, with its unit and sample count.  ``all``
runs every workload, untraced then traced, one after another, and with
``--out`` writes every figure to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("search", "unfold", "witness", "blowup")
SETUP_STARTS = 9  # set-up is timed over this many worker starts
RUN_TIMEOUT = 170.0  # seconds; a run must end well inside three minutes

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "parsing.s": "s",
    "unfolding.s": "s",
    "loop.s": "s",
    "recpair.s": "s",
    "certificate.s": "s",
    "analysis.self_s": "s",
    "parsing.share": "ratio",
    "unfolding.share": "ratio",
    "loop.share": "ratio",
    "recpair.share": "ratio",
    "prefix.share": "ratio",
    "verify.share": "ratio",
    "certificate.share": "ratio",
    "analysis.share": "ratio",
    "unfolding.d0.share": "ratio",
    "unfolding.d1.share": "ratio",
    "unfolding.d2.share": "ratio",
    "unfolding.d3.share": "ratio",
    "unfolding.d4.share": "ratio",
    "unfolding.rules": "count",
    "unfolding.rebuild_share": "ratio",
    "loop.candidates": "count",
    "loop.recheck_share": "ratio",
    "recpair.pairs": "count",
    "recpair.pairs_per_s": "1/s",
    "recpair.recheck_share": "ratio",
    "recpair.hits": "count",
    "prefix.steps": "count",
    "prefix.peak_nodes": "count",
    "prefix.resource_limits": "count",
    "prefix.power_cache_entries": "count",
    "verify.steps": "count",
    "verify.program_rules": "count",
    "verify.rejects": "count",
    "certificate.bytes": "count",
    "budget.exhausted": "count",
    "trace.overhead": "ratio",
}

# Printed with the per-layer metrics but kept out of the result line: each
# reads exactly 0 on the workloads where its layer never runs.
PER_LAYER_PRINTED = {
    "prefix.s": "s",
    "verify.s": "s",
    "verify.us_per_step": "us",
    "unfolding.d0.s": "s",
    "unfolding.d1.s": "s",
    "unfolding.d2.s": "s",
    "unfolding.d3.s": "s",
    "unfolding.d4.s": "s",
}


class BenchError(Exception):
    """The run could not produce valid figures."""


def _worker(workload: str, seed: int, seconds: float, trace: int, *extra: str) -> tuple[float, dict]:
    """Start a worker, wait for it, and return its start time and report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {RUN_TIMEOUT:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    return started, json.loads(proc.stdout.splitlines()[-1])


def _p90(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups, setups_wall = [], []
    for _ in range(SETUP_STARTS):
        before = speed.probe()
        started, report = _worker(workload, seed, 0, 0, "--setup-only")
        setups_wall.append(report["ready"] - started)
        setups.append(setups_wall[-1] * speed.scale(before, speed.probe()))
    _, report = _worker(workload, seed, seconds, trace)
    if report["exhausted"]:
        raise BenchError(
            "invalid run, not timed: a search budget ran out on "
            + ", ".join(sorted(set(report["exhausted"])))
        )

    untraced = [p for p in report["passes"] if not p["traced"]]
    traced = [p for p in report["passes"] if p["traced"]]
    verdicts = [t for p in untraced for t in p["times"].values()]
    verdicts_wall = [t for p in untraced for t in p["wall"].values()]
    pass_s = statistics.median(p["seconds"] for p in untraced)
    result = {
        "workload": workload,
        "seed": seed,
        "programs": len(untraced[0]["times"]),
        "samples": {
            "setup_s": len(setups),
            "pass_s": len(untraced),
            "verdict_s": len(verdicts),
            "traced_passes": len(traced),
        },
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "pass_s": pass_s,
            "verdict_s.p50": statistics.median(verdicts),
            "verdict_s.p90": _p90(verdicts),
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
        },
        "wall": {
            "setup_s": statistics.median(setups_wall),
            "pass_s": statistics.median(p["wall_seconds"] for p in untraced),
            "verdict_s.p50": statistics.median(verdicts_wall),
            "verdict_s.p90": _p90(verdicts_wall),
        },
        "outcomes": {
            "attempted": report["attempted"],
            "failed": report["failed"],
            "wrong_verdicts": report["wrong_verdicts"],
            "failed_share": report["failed"] / report["attempted"],
            "no_rate": (
                report["no_answers"] / report["nonterminating"]
                if report["nonterminating"] else None
            ),
            "problems": report["problems"],
        },
    }
    if traced:
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        layers["budget.exhausted"] = len(report["exhausted"])
        layers["trace.overhead"] = statistics.median(p["seconds"] for p in traced) / pass_s
        result["per_layer"] = layers
    return result


def _print_report(result: dict, trace: int) -> None:
    n = result["samples"]
    out = result["outcomes"]
    print(
        f"workload {result['workload']}  seed {result['seed']}  "
        f"{result['programs']} programs, {n['pass_s']} untraced and "
        f"{n['traced_passes']} traced passes"
    )
    counts = {
        "setup_s": f"n={n['setup_s']} process starts",
        "pass_s": f"n={n['pass_s']} passes",
        "verdict_s.p50": f"n={n['verdict_s']} analyses",
        "verdict_s.p90": f"n={n['verdict_s']} analyses",
        "peak_rss_mb": "worker process",
    }
    for name, unit in END_TO_END.items():
        wall = result["wall"].get(name)
        wall = "" if wall is None else f", {wall:.6g} {unit} wall"
        print(f"  {name:<28} {result['end_to_end'][name]:>14.6g} {unit:<6} ({counts[name]}{wall})")
    no_rate = "n/a (no non-terminating programs)" if out["no_rate"] is None else f"{out['no_rate']:.6g}"
    print(f"  {'no_rate':<28} {no_rate:>14} ratio")
    print(f"  {'wrong_verdicts':<28} {out['wrong_verdicts']:>14} count")
    print(
        f"  {'failed_share':<28} {out['failed_share']:>14.6g} ratio "
        f"({out['failed']}/{out['attempted']} analyses)"
    )
    for problem in out["problems"]:
        print(f"  problem: {problem}")
    if trace:
        print(f"  per layer (median of {n['traced_passes']} traced passes):")
        for name, unit in {**PER_LAYER, **PER_LAYER_PRINTED}.items():
            print(f"  {name:<28} {result['per_layer'][name]:>14.6g} {unit}")


def _result_line(result: dict, trace: int) -> str:
    out = result["outcomes"]
    units = PER_LAYER if trace else END_TO_END
    figures = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": out["wrong_verdicts"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": figures[name], "unit": unit} for name, unit in units.items()},
    })


def _machine() -> dict:
    return {
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the nonterm analyzer")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: write every figure to this JSON file")
    args = ap.parse_args(argv)

    if not (SRC / "nonterm" / "__init__.py").is_file():
        print(f"error: the analyzer's sources are missing ({SRC / 'nonterm'})", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
            _print_report(result, args.trace)
            print(_result_line(result, args.trace))
            return 0
        results = {}
        for workload in WORKLOADS:
            results[workload] = run_workload(workload, args.seed, args.seconds, 0)
            _print_report(results[workload], 0)
            traced = run_workload(workload, args.seed, args.seconds, 1)
            _print_report(traced, 1)
            results[workload]["per_layer"] = traced["per_layer"]
            results[workload]["samples"]["traced_passes"] = traced["samples"]["traced_passes"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        doc = {
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": _machine(),
            "units": {**END_TO_END, **PER_LAYER, **PER_LAYER_PRINTED},
            "workloads": results,
        }
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
