"""``tools/ab.py`` compares two checkouts: its argument and result-line
parsing, its statistics and its refusal of paths of unequal length, all
checked without starting a benchmark."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import ab  # noqa: E402


def result_line(metrics, failed=0, correct=True):
    return json.dumps({
        "correct": correct,
        "attempted": 8,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    })


def checkout(path: Path) -> Path:
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text("")
    return path


def test_arguments_parse():
    args = ab.parse_args(
        ["a", "b", "--workload", "blowup", "--seed", "3", "--seconds", "1.5", "--pairs", "10"]
    )
    assert (args.parent, args.change) == (Path("a"), Path("b"))
    assert (args.workload, args.seed, args.seconds, args.pairs, args.out) == (
        "blowup", 3, 1.5, 10, None
    )
    with pytest.raises(SystemExit):
        ab.parse_args(["a", "b", "--workload", "w", "--seed", "1", "--seconds", "1", "--pairs", "0"])
    with pytest.raises(SystemExit):
        ab.parse_args(["a", "b", "--workload", "w", "--seed", "1", "--seconds", "1"])


def test_the_result_is_the_last_line():
    out = "workload blowup\n  pass_s 0.004 s\n" + result_line({"pass_s": 0.004, "setup_s": 0.1}) + "\n\n"
    assert ab.read_result(out) == {"pass_s": 0.004, "setup_s": 0.1}


@pytest.mark.parametrize(
    "out",
    ["", "no json here\n", result_line({"pass_s": 1}) + "\ntrailing text\n", '{"metrics": {}}'],
)
def test_a_run_without_a_result_line_is_an_error(out):
    with pytest.raises(ab.ABError):
        ab.read_result(out)


def test_a_failed_or_wrong_analysis_is_an_error():
    with pytest.raises(ab.ABError, match="1 of 8 analyses failed"):
        ab.read_result(result_line({"pass_s": 1}, failed=1))
    with pytest.raises(ab.ABError, match="wrong"):
        ab.read_result(result_line({"pass_s": 1}, correct=False))


def test_sides_alternate_parent_first_in_odd_pairs():
    assert [ab.order(p) for p in (1, 2, 3, 4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")
    ]


def test_quartiles():
    assert ab.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)


def test_summary_counts_wins_in_the_better_direction():
    parent = [{"t": t, "hits": h} for t, h in [(1.0, 5), (1.1, 5), (0.9, 5), (1.0, 5)]]
    change = [{"t": t, "hits": h} for t, h in [(0.8, 6), (1.2, 5), (0.85, 4), (0.9, 6)]]
    s = ab.summarize(parent, change, {"t": "lower", "hits": "higher", "absent": "lower"})
    assert set(s) == {"t", "hits"}
    t = s["t"]
    assert (t["parent_q1"], t["parent_median"], t["parent_q3"]) == (0.975, 1.0, 1.025)
    assert t["change_median"] == 0.875 and t["relative"] == pytest.approx(-0.125)
    assert (t["wins"], t["pairs"], t["beyond_iqr"]) == (3, 4, True)
    hits = s["hits"]
    # a tie is not a win
    assert (hits["wins"], hits["change_median"], hits["beyond_iqr"]) == (2, 5.5, True)


def test_a_difference_inside_the_spread_is_not_beyond_it():
    parent = [{"t": t} for t in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [{"t": t} for t in (0.9, 1.9, 2.9, 3.9, 4.9)]
    s = ab.summarize(parent, change, {"t": "lower"})["t"]
    assert s["wins"] == 5 and not s["beyond_iqr"]


def test_the_end_to_end_metrics_are_the_benchmarks():
    better = ab.end_to_end(ab.ROOT / "BENCHMARK.json")
    assert better["pass_s"] == "lower" and "peak_rss_mb" in better
    assert "recpair.pairs" not in better


def test_paths_of_unequal_length_are_refused(tmp_path):
    a = checkout(tmp_path / "aa")
    b = checkout(tmp_path / "bb")
    c = checkout(tmp_path / "ccc")
    assert ab.check_paths(a, b) == (a.resolve(), b.resolve())
    with pytest.raises(ab.ABError, match="differ in length"):
        ab.check_paths(a, c)
    # the resolved path counts, not the spelling given
    assert ab.check_paths(tmp_path / "aa" / ".." / "aa", b)[0] == a.resolve()
    with pytest.raises(ab.ABError, match="not a checkout"):
        ab.check_paths(a, tmp_path)


def test_a_refused_pair_exits_1_before_any_run(tmp_path, monkeypatch, capsys):
    started = []
    monkeypatch.setattr(ab, "run_side", lambda *a: started.append(a))
    a, c = checkout(tmp_path / "aa"), checkout(tmp_path / "ccc")
    argv = [str(a), str(c), "--workload", "blowup", "--seed", "1", "--seconds", "1", "--pairs", "2"]
    assert ab.main(argv) == 1
    assert started == [] and "differ in length" in capsys.readouterr().err


def test_a_failing_run_exits_1(tmp_path, monkeypatch):
    def fail(root, *rest):
        raise ab.ABError(f"{root}: run exited with code 1")

    monkeypatch.setattr(ab, "run_side", fail)
    a, b = checkout(tmp_path / "aa"), checkout(tmp_path / "bb")
    argv = [str(a), str(b), "--workload", "blowup", "--seed", "1", "--seconds", "1", "--pairs", "1"]
    assert ab.main(argv) == 1


def test_runs_alternate_and_the_report_is_written(tmp_path, monkeypatch, capsys):
    a, b = checkout(tmp_path / "aa"), checkout(tmp_path / "bb")
    calls = []

    def run(root, workload, seed, seconds):
        calls.append(root.name)
        return {"pass_s": 1.0 if root.name == "aa" else 0.9, "peak_rss_mb": 20.0}

    monkeypatch.setattr(ab, "run_side", run)
    out = tmp_path / "ab.json"
    argv = [str(a), str(b), "--workload", "blowup", "--seed", "1", "--seconds", "1",
            "--pairs", "3", "--out", str(out)]
    assert ab.main(argv) == 0
    assert calls == ["aa", "bb", "bb", "aa", "aa", "bb"]
    doc = json.loads(out.read_text())
    assert doc["summary"]["pass_s"]["wins"] == 3
    assert doc["summary"]["peak_rss_mb"]["wins"] == 0
    assert len(doc["parent"]["runs"]) == len(doc["change"]["runs"]) == 3
    assert "pass_s" in capsys.readouterr().out
