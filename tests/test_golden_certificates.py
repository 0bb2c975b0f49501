"""Golden certificates: every benchmark program at seed 1, pinned by digest.

For each program of the benchmark corpus (``bench/corpus.py``, imported
read-only), renamed as workload seed 1 renames it and analyzed under its
corpus settings, ``golden_certificates.json`` stores the sha256 of the
text and of the JSON certificate, and the ``exhausted``, ``rejected`` and
``resource_limit`` stats.  ``golden_raw_certificates.json`` stores the
same record for each program analyzed with ``raw=True``: the word search
on the input rules, the only caller of ``find_loop`` and of multi-rule
words in ``find_recurrent_pair``.  A change meant to leave every verdict
and certificate byte-identical must leave this test passing.

To regenerate the digests after a deliberate output change, run
``PYTHONPATH=src python3 tests/test_golden_certificates.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from nonterm import AnalysisConfig, analyze, emit_certificate, parse_lp, parse_trs

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = Path(__file__).resolve().parent / "golden_certificates.json"
GOLDEN_RAW = Path(__file__).resolve().parent / "golden_raw_certificates.json"
SEED = 1

sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402

INSTANCES = {
    f"{w.name}/{inst.program.name}": inst
    for w in corpus.WORKLOADS.values()
    for inst in corpus.instances(w, SEED)
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(inst: corpus.Instance, raw: bool = False) -> dict:
    """What the golden file stores for one program; with ``raw``, what
    the raw golden file stores."""
    parse = parse_trs if inst.program.dialect == "trs" else parse_lp
    if raw:
        cfg = AnalysisConfig(timeout=None, raw=True, simulate_steps=inst.program.simulate)
    else:
        cfg = AnalysisConfig(
            timeout=None,
            unfold_depth=inst.program.depth,
            simulate_steps=inst.program.simulate,
        )
    verdict = analyze(parse(inst.text), cfg)
    return {
        "answer": verdict.answer,
        "text_sha256": _digest(emit_certificate(verdict)),
        "json_sha256": _digest(emit_certificate(verdict, as_json=True)),
        "exhausted": verdict.stats.get("exhausted"),
        "rejected": verdict.stats.get("rejected"),
        "resource_limit": verdict.stats.get("resource_limit"),
    }


def _golden(path: Path = GOLDEN) -> dict:
    return json.loads(path.read_text())


def test_golden_file_covers_the_corpus():
    assert len(INSTANCES) == 33
    assert sorted(_golden()) == sorted(INSTANCES)
    assert sorted(_golden(GOLDEN_RAW)) == sorted(INSTANCES)


@pytest.mark.parametrize("key", sorted(INSTANCES))
def test_golden_certificate(key):
    assert record(INSTANCES[key]) == _golden()[key]


@pytest.mark.parametrize("key", sorted(INSTANCES))
def test_golden_raw_certificate(key):
    assert record(INSTANCES[key], raw=True) == _golden(GOLDEN_RAW)[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden_certificates.py --write")
    for path, raw in ((GOLDEN, False), (GOLDEN_RAW, True)):
        table = {key: record(INSTANCES[key], raw) for key in sorted(INSTANCES)}
        path.write_text(json.dumps(table, indent=2) + "\n")
        print(f"wrote {len(table)} records to {path.name}")
