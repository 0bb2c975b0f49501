"""One workload run in a fresh process; ``run.py`` starts it.

Prints a single JSON object on stdout: the moment the inputs were ready
(``time.monotonic``, comparable with the parent's clock), each pass's
per-program times in reference and in wall seconds (``speed.py``), the
outcome counts and the process's peak RSS.

A pass is a closed loop with one client: each program's text is parsed,
analyzed and rendered as a certificate before the next one starts.
Passes repeat until ``--seconds`` is used up; with ``--trace 1`` they
alternate untraced and traced.  The benchmark's own checks run outside
the timed regions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from nonterm import (  # noqa: E402
    AnalysisConfig,
    analyze,
    emit_certificate,
    parse_certificate,
    parse_lp,
    parse_trs,
    verify_chain,
)

import corpus  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_PASSES = 2


def _config(program: corpus.Program) -> AnalysisConfig:
    return AnalysisConfig(
        timeout=None, unfold_depth=program.depth, simulate_steps=program.simulate
    )


def _parse(inst: corpus.Instance):
    return (parse_trs if inst.program.dialect == "trs" else parse_lp)(inst.text)


def _analyze(inst: corpus.Instance, tracer: Tracer | None):
    """The timed region: input text to emitted certificate."""
    if tracer is None:
        verdict = analyze(_parse(inst), _config(inst.program))
        return verdict, emit_certificate(verdict)
    with tracer.span("parse"):
        program = _parse(inst)
    with tracer.span("analyze"):
        verdict = analyze(program, _config(inst.program))
    with tracer.span("emit"):
        cert = emit_certificate(verdict)
    return verdict, cert


def _check(inst: corpus.Instance, verdict, cert: str) -> list[str]:
    """Reasons this verdict is wrong; empty when it holds."""
    problems = []
    if verdict.answer == "NO":
        if inst.program.label == corpus.TERMINATING:
            problems.append("NO on a terminating program")
        prefix = verdict.simulated_prefix
        if prefix is None or not prefix.steps or not verify_chain(verdict.used_program, prefix):
            problems.append("NO whose prefix does not re-verify")
    text = emit_certificate(verdict, as_json=True)
    data = parse_certificate(text)
    if (
        json.dumps(data, indent=2) + "\n" != text
        or data["answer"] != verdict.answer
        or cert.splitlines()[0] != verdict.answer
    ):
        problems.append("JSON certificate does not round-trip")
    return problems


class Outcomes:
    """Outcome counts over every analysis of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.no_answers = 0
        self.nonterminating = 0
        self.exhausted: list[str] = []
        self.problems: list[str] = []
        # program name -> (digest of its first certificates, their problems)
        self._first: dict[str, tuple[str, list[str]]] = {}

    def record(self, inst: corpus.Instance, verdict, cert: str, error: str | None) -> None:
        name = inst.program.name
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.problems.append(f"{name}: {error}")
            return
        if inst.program.label == corpus.NONTERMINATING:
            self.nonterminating += 1
            self.no_answers += verdict.answer == "NO"
        if verdict.stats.get("exhausted"):
            self.exhausted.append(name)
        digest = hashlib.sha256(
            (cert + emit_certificate(verdict, as_json=True)).encode()
        ).hexdigest()
        if name not in self._first:
            self._first[name] = (digest, _check(inst, verdict, cert))
        first_digest, wrong = self._first[name]
        if digest != first_digest:
            wrong = _check(inst, verdict, cert) + ["certificate differs from the first pass"]
        self.wrong += bool(wrong)
        problems = list(wrong)
        if verdict.stats.get("resource_limit"):
            problems.append(f"resource limit: {verdict.stats['resource_limit']}")
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]


def run_pass(instances, outcomes: Outcomes, tracer: Tracer | None) -> dict:
    """One pass; per-program times in reference seconds (see ``speed``)
    and in wall seconds, both without the time the speed probes took."""
    times, wall = {}, {}
    if tracer is not None:
        tracer.install()
    try:
        for inst in instances:
            error = verdict = cert = None
            if tracer is not None:
                tracer.begin_analysis()
            # Each analysis starts with no collector debt left by the one
            # before, so the seed's program order does not move its time;
            # the probe then runs after the collection, next to the region.
            gc.collect()
            before = speed.probe()
            # Traced passes probe only between programs, so no probe
            # falls inside a span.
            with speed.Meter(sample=tracer is None) as meter:
                try:
                    verdict, cert = _analyze(inst, tracer)
                except Exception as exc:  # an escaping exception is a failed analysis
                    error = f"{type(exc).__name__}: {exc}"
            after = speed.probe()
            wall[inst.program.name] = meter.seconds
            times[inst.program.name] = meter.reference_seconds(before, after)
            if tracer is not None:
                tracer.end_analysis(cert)
            outcomes.record(inst, verdict, cert, error)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "traced": tracer is not None,
        "seconds": sum(times.values()),
        "wall_seconds": sum(wall.values()),
        "times": times,
        "wall": wall,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    instances = corpus.instances(corpus.WORKLOADS[args.workload], args.seed)
    ready = time.monotonic()
    report = {"ready": ready}
    if not args.setup_only:
        outcomes = Outcomes()
        passes = []
        deadline = ready + args.seconds
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            started = time.monotonic()
            passes.append(run_pass(instances, outcomes, Tracer() if traced else None))
            if outcomes.exhausted:
                break
            took = time.monotonic() - started
            enough = len(passes) >= MIN_PASSES and len(passes) % (1 + args.trace) == 0
            if enough and time.monotonic() + took > deadline:
                break
        report.update(
            passes=passes,
            attempted=outcomes.attempted,
            failed=outcomes.failed,
            wrong_verdicts=outcomes.wrong,
            no_answers=outcomes.no_answers,
            nonterminating=outcomes.nonterminating,
            exhausted=outcomes.exhausted,
            problems=outcomes.problems,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
