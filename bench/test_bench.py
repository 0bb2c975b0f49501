"""Self-tests of the benchmark: ``python3 -m pytest bench``.

Each workload runs one tiny untraced-plus-traced run; every metric named
in BENCHMARK.json must be present and every verdict must agree with its
hand-written label.
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import corpus
import run
import speed

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_metric_and_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    for w in BENCHMARK["workloads"]:
        assert w["why"] == corpus.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200


def test_every_program_is_labelled():
    names = [p.name for w in corpus.WORKLOADS.values() for p in w.programs]
    assert len(names) == len(set(names))
    for w in corpus.WORKLOADS.values():
        for p in w.programs:
            assert p.label in (corpus.TERMINATING, corpus.NONTERMINATING)
            assert p.reason and "\n" not in p.reason


def test_renaming_is_consistent_and_seeded():
    text = "(VAR x y)(RULES plus(0,x) -> x plus(s(x),y) -> s(plus(x,y)))"
    a = corpus.rename(text, random.Random(1))
    assert a == corpus.rename(text, random.Random(1))
    assert a != corpus.rename(text, random.Random(2))
    assert len(a) == len(text)
    old_ids, new_ids = corpus._IDENT.findall(text), corpus._IDENT.findall(a)
    pairs = set(zip(old_ids, new_ids))
    assert len(pairs) == len({o for o, _ in pairs}) == len({n for _, n in pairs})
    assert ("VAR", "VAR") in pairs and ("RULES", "RULES") in pairs
    assert all(len(o) == len(n) for o, n in pairs)
    order = [i.program.name for i in corpus.instances(corpus.WITNESS, 5)]
    assert order == [i.program.name for i in corpus.instances(corpus.WITNESS, 5)]
    assert sorted(order) == sorted(p.name for p in corpus.WITNESS.programs)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric_and_holds_every_label(workload):
    result = run.run_workload(workload, seed=3, seconds=0, trace=1)
    assert set(result["end_to_end"]) == set(run.END_TO_END)
    assert set(result["wall"]) < set(run.END_TO_END)
    assert set(run.PER_LAYER) | set(run.PER_LAYER_PRINTED) <= set(result["per_layer"])
    assert result["samples"]["traced_passes"] >= 1
    outcomes = result["outcomes"]
    assert outcomes["problems"] == []
    assert outcomes["wrong_verdicts"] == 0
    assert outcomes["failed"] == 0
    for trace in (0, 1):
        line = json.loads(run._result_line(result, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        names = {m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
        assert set(line["metrics"]) == names


def test_speed_probe_runs_none_of_the_analyzer():
    # The probe must not share code with the analyzer, or a change to the
    # analyzer would move the probe too and cancel out of the scaled times.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, speed; speed.probe(); "
         "sys.exit(any(m.startswith('nonterm') for m in sys.modules))"],
        cwd=run.HERE, timeout=60,
    )
    assert proc.returncode == 0
    assert speed.scale(1.0, 1.0) == pytest.approx(1.0)
    assert speed.scale(2.0, 2.0) == pytest.approx(0.5)


def test_meter_samples_inside_a_region_and_leaves_out_its_probes():
    with speed.Meter() as meter:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(meter.samples) >= 3
    assert meter.seconds < 0.3
    assert meter.reference_seconds(1.0, 1.0) > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    with speed.Meter(sample=False) as quiet:
        time.sleep(0.12)
    assert quiet.samples == []


def test_refuses_to_run_without_the_analyzer(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "blowup", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
