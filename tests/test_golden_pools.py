"""Golden pools: the unfolded rules of every benchmark program at seed 1,
pinned by digest.

For each program of the benchmark corpus (``bench/corpus.py``, imported
read-only), renamed as workload seed 1 renames it, ``golden_pools.json``
stores the sha256 of a dump of its derived-rule pools: one line per rule
with the rule, its depth, and its provenance kind, parents, position and
unifier.  The dump holds:

* the pool of ``unfold_trs`` (TRS) or ``binary_unfold`` (LP) at each depth
  0..min(corpus depth, 3), one ``Unfolding`` resumed from depth to depth
  (``paper-nonloop`` stops at depth 2: its depth-3 pool reaches the rule
  cap);
* for a TRS, the pool of ``overlap_closure`` at each depth 0..2.

A change meant to leave every derived rule as it was (ids, order, depths,
provenance, unifiers) must leave this test passing.

To regenerate the digests after a deliberate change, run
``PYTHONPATH=src python3 tests/test_golden_pools.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from nonterm import parse_lp, parse_trs
from nonterm.unfolding import Unfolding, binary_unfold, overlap_closure, unfold_trs

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = Path(__file__).resolve().parent / "golden_pools.json"
SEED = 1
MAX_DEPTH = 3
OC_DEPTH = 2
# the depth-3 pool of this program reaches the 50,000-rule cap
SHALLOW = {"paper-nonloop": 2}

sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402

INSTANCES = {
    f"{w.name}/{inst.program.name}": inst
    for w in corpus.WORKLOADS.values()
    for inst in corpus.instances(w, SEED)
}


def _lines(tag: str, pool) -> list[str]:
    return [
        f"{tag} {u.rule!r} | {u.depth} | {u.provenance.kind} "
        f"{','.join(u.provenance.parents)} {u.provenance.position} "
        f"{u.provenance.unifier!r}"
        for u in pool
    ]


def dump(inst: corpus.Instance) -> list[str]:
    """The pool lines of one program."""
    trs = inst.program.dialect == "trs"
    program = (parse_trs if trs else parse_lp)(inst.text)
    unfolder = unfold_trs if trs else binary_unfold
    top = SHALLOW.get(inst.program.name, min(inst.program.depth, MAX_DEPTH))
    state = Unfolding()
    lines = []
    for depth in range(top + 1):
        lines += _lines(f"unfold@{depth}", unfolder(program, depth, resume=state))
    if trs:
        for depth in range(OC_DEPTH + 1):
            lines += _lines(f"oc@{depth}", overlap_closure(program, depth))
    return lines


def record(inst: corpus.Instance) -> dict:
    """What the golden file stores for one program."""
    lines = dump(inst)
    text = "\n".join(lines) + "\n"
    return {"lines": len(lines), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_corpus():
    assert len(INSTANCES) == 33
    assert sorted(_golden()) == sorted(INSTANCES)


@pytest.mark.parametrize("key", sorted(INSTANCES))
def test_golden_pool(key):
    assert record(INSTANCES[key]) == _golden()[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden_pools.py --write")
    table = {key: record(INSTANCES[key]) for key in sorted(INSTANCES)}
    GOLDEN.write_text(json.dumps(table, indent=2) + "\n")
    total = sum(r["lines"] for r in table.values())
    print(f"wrote {len(table)} records ({total} pool lines) to {GOLDEN.name}")
