import inspect
import json
import time
import weakref

import pytest

from conftest import lp, trs
from nonterm import analysis, detection, unfolding
from nonterm.analysis import (
    AnalysisConfig,
    analyze,
    certificate_dict,
    emit_certificate,
    parse_certificate,
)
from nonterm.cli import main
from nonterm.detection import witness_chain
from nonterm.rewriting import verify_chain
from nonterm.terms import hole_positions, subterm_at
from nonterm.unfolding import unfold_trs

EX_TRS = "f(x) -> g(h(x,one),x)  one -> zero  h(x,zero) -> f(f(x))"
EX_LP = "p(f(X,zero)) :- p(X), q(X)."
ZANTEMA = "f(x,s(y)) -> f(s(x),y)  f(x,zero) -> f(s(zero),x)"
TERMINATING = "plus(zero,x) -> x  plus(s(x),y) -> s(plus(x,y))"
# The paper's non-looping system: its recurrent pair has the non-linear
# context c2 = g([],0,[]), so towers double in size at every level.
PAPER_TRS = (
    "f(x,g(y,0,y),x) -> h(x,y)  h(x,y) -> f(g(x,0,x),y,g(x,0,x))"
    "  f(x,0,x) -> f(g(x,0,x),g(x,1,x),g(x,0,x))  1 -> 0"
)


def test_analyze_trs_loop_no():
    v = analyze(trs(EX_TRS))
    assert v.answer == "NO"
    assert v.technique == "loop"
    assert verify_chain(v.used_program, v.simulated_prefix)


def test_analyze_lp_loop_no():
    v = analyze(lp(EX_LP))
    assert v.answer == "NO"
    assert v.technique == "loop"
    assert len(v.witness.word) == 1


def test_analyze_recurrent_pair_no():
    v = analyze(trs(ZANTEMA), AnalysisConfig(techniques=("recpair",)))
    assert v.answer == "NO"
    assert v.technique == "recpair"
    assert verify_chain(v.used_program, v.simulated_prefix)


def test_paper_trs_long_prefix_verifies():
    v = analyze(trs(PAPER_TRS), AnalysisConfig(simulate_steps=4))
    assert v.answer == "NO"
    assert v.technique == "recpair"
    assert verify_chain(v.used_program, v.simulated_prefix)


def test_witness_chain_builds_each_tower_around_the_one_below():
    rp = analyze(trs(PAPER_TRS), AnalysisConfig(simulate_steps=1)).witness
    witness_chain(rp, rp.n2, rp.n2, 3)
    towers = detection._power_cache
    holes = hole_positions(rp.c2)
    assert len(holes) == 2
    assert max(n for _, n in towers) >= 2
    assert towers[(rp.c2, 0)] is rp.s
    for (body, n), tower in towers.items():
        assert body == rp.c2
        for hp in holes if n else ():
            assert subterm_at(tower, hp) is towers[(body, n - 1)]


def test_analyze_anonymous_variables_are_distinct():
    # read as p(X, X), the body atom p(_, _) would not resolve with p(a, b)
    anonymous = analyze(lp("p(a, b).  q(Z) :- p(_, _), q(Z)."))
    named = analyze(lp("p(a, b).  q(Z) :- p(X, Y), q(Z)."))
    assert anonymous.answer == named.answer == "NO"
    assert emit_certificate(anonymous) == emit_certificate(named)


def test_analyze_terminating_maybe():
    cfg = AnalysisConfig(unfold_depth=2, timeout=5)
    v = analyze(trs(TERMINATING), cfg)
    assert v.answer == "MAYBE"
    assert v.witness is None and v.simulated_prefix is None


def test_criterion_10_mutants_plus_and_minus_stats():
    # minus has no first chain that can decompose, so its search ends
    # before the pair cap; plus still reaches it
    minus = analyze(trs("minus(x,0) -> x  minus(s(x),s(y)) -> minus(x,y)"))
    assert minus.answer == "MAYBE"
    assert "exhausted" not in minus.stats
    assert minus.stats["unfold_depth"] == 4
    plus = analyze(trs("plus(0,x) -> x  plus(s(x),y) -> s(plus(x,y))"))
    assert plus.answer == "MAYBE"


def test_analyze_raw_search():
    v = analyze(trs(EX_TRS), AnalysisConfig(raw=True))
    assert v.answer == "NO"
    assert v.witness.word == ("r1", "r2", "r3")


def test_analyze_unknown_technique():
    with pytest.raises(ValueError):
        analyze(trs(EX_TRS), AnalysisConfig(techniques=("magic",)))
    with pytest.raises(ValueError, match="repeated technique"):
        analyze(trs(EX_TRS), AnalysisConfig(techniques=("loop", "loop")))


def test_simulated_prefix_length_floor():
    v = analyze(trs(EX_TRS), AnalysisConfig(simulate_steps=0))
    assert v.answer == "NO"
    assert len(v.simulated_prefix.steps) >= 1


def test_certificate_text_first_line():
    for text, expect in ((EX_TRS, "NO"), (TERMINATING, "MAYBE")):
        v = analyze(trs(text), AnalysisConfig(unfold_depth=2, timeout=5))
        cert = emit_certificate(v)
        assert cert.splitlines()[0] == expect


def test_certificate_reports_unmarked_start():
    v = analyze(trs(EX_TRS))
    d = certificate_dict(v)
    assert d["witness"]["start"].startswith("f#(")
    assert d["witness"]["start_unmarked"].startswith("f(")


def test_certificate_json_roundtrip():
    v = analyze(trs(EX_TRS))
    data = parse_certificate(emit_certificate(v, as_json=True))
    assert data["answer"] == "NO"
    assert data["technique"] == "loop"
    assert data["simulated_prefix"]
    assert data["rules"]


def test_certificate_deterministic():
    a = emit_certificate(analyze(trs(EX_TRS)), as_json=True)
    b = emit_certificate(analyze(trs(EX_TRS)), as_json=True)
    assert a == b


def test_parse_certificate_rejects_garbage():
    with pytest.raises(ValueError):
        parse_certificate(json.dumps({"answer": "YES"}))


# ---------------------------------------------------------------------------
# CLI


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_cli_trs_no(tmp_path, capsys):
    f = write(tmp_path, "ex.trs", "(VAR x)(RULES f(x) -> g(h(x,one),x) one -> zero h(x,zero) -> f(f(x)))")
    assert main([f]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "NO"


def test_cli_lp_json(tmp_path, capsys):
    f = write(tmp_path, "ex.pl", EX_LP)
    assert main([f, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["answer"] == "NO"


def test_cli_maybe_exit_zero(tmp_path, capsys):
    f = write(
        tmp_path,
        "t.trs",
        "(VAR x y)(RULES plus(zero,x) -> x plus(s(x),y) -> s(plus(x,y)))",
    )
    assert main([f, "--depth", "2", "--timeout", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "MAYBE"


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_cli_rejects_a_timeout_that_is_not_finite_and_positive(tmp_path, capsys, value):
    # to the analysis 0 and nan would mean no deadline, -1 one already passed
    f = write(
        tmp_path,
        "t.trs",
        "(VAR x y)(RULES plus(zero,x) -> x plus(s(x),y) -> s(plus(x,y)))",
    )
    assert main([f, "--timeout", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --timeout must be a finite positive number" in captured.err


def test_cli_parse_error(tmp_path, capsys):
    f = write(tmp_path, "bad.trs", "(RULES f( -> g)")
    assert main([f]) == 1
    assert "parse error" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["/no/such/file.trs"]) == 1


def test_cli_unknown_extension(tmp_path, capsys):
    f = write(tmp_path, "prog.txt", "p(a).")
    assert main([f]) == 1
    assert main([f, "--format", "lp"]) == 0


def test_cli_bad_technique(tmp_path):
    f = write(tmp_path, "ex.pl", EX_LP)
    assert main([f, "--technique", "sorcery"]) == 1
    # rejected before the unfolded pool is written
    out = tmp_path / "unfolded.pl"
    assert main([f, "--technique", "loop,loop", "--emit-unfolded", str(out)]) == 1
    assert not out.exists()


def test_cli_max_word_needs_raw(tmp_path, capsys):
    f = write(tmp_path, "ex.pl", EX_LP)
    assert main([f, "--max-word", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --max-word needs --raw" in captured.err


def test_cli_emit_unfolded(tmp_path, capsys):
    f = write(tmp_path, "ex.pl", EX_LP)
    out = tmp_path / "unfolded.pl"
    assert main([f, "--emit-unfolded", str(out), "--depth", "2"]) == 0
    text = out.read_text()
    assert "p(f(" in text


def test_cli_raw_flag(tmp_path, capsys):
    f = write(
        tmp_path,
        "ex.trs",
        "(VAR x)(RULES f(x) -> g(h(x,one),x) one -> zero h(x,zero) -> f(f(x)))",
    )
    assert main([f, "--raw", "--max-word", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "NO"


# The benchmark's tracer (bench/spans.py) swaps these module attributes
# for timing wrappers; a rename would silently drop a layer from its trace.
TRACED_ANALYSIS_NAMES = (
    "unfold_trs",
    "binary_unfold",
    "_rule_loop_witness",
    "find_loop",
    "find_recurrent_pair",
    "infinite_chain_prefix",
    "witness_chain",
    "verify_chain",
)


def test_tracer_hook_names_exist():
    for name in TRACED_ANALYSIS_NAMES:
        assert callable(getattr(analysis, name)), name
    params = inspect.signature(detection.match_recurrent_pattern).parameters
    assert list(params) == ["chain1", "chain2"]
    assert isinstance(detection._power_cache, dict)


def _record(monkeypatch, name):
    """Replace ``analysis.<name>`` with a wrapper that logs its arguments."""
    calls = []
    fn = getattr(analysis, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(analysis, name, wrapper)
    return calls


def test_tracer_hooks_unfolded_driver(monkeypatch):
    unfolds = _record(monkeypatch, "unfold_trs")
    checks = _record(monkeypatch, "_rule_loop_witness")
    pairs = _record(monkeypatch, "find_recurrent_pair")
    cfg = AnalysisConfig(unfold_depth=2, timeout=None, max_word_len=3)
    assert analyze(trs(TERMINATING), cfg).answer == "MAYBE"
    assert [args[1] for args, _ in unfolds] == [0, 1, 2]
    # one context-free loop check per pooled rule at every depth
    pooled = [u.rule.id for d in range(3) for u in unfold_trs(trs(TERMINATING), d)]
    assert [args[0].id for args, _ in checks] == pooled
    # one recurrent-pair search per depth, always over single rules
    assert len(pairs) == 3
    assert all(args[1] == 1 for args, _ in pairs)


def test_tracer_hooks_raw_driver(monkeypatch):
    trs_unfolds = _record(monkeypatch, "unfold_trs")
    lp_unfolds = _record(monkeypatch, "binary_unfold")
    loops = _record(monkeypatch, "find_loop")
    assert analyze(trs(EX_TRS), AnalysisConfig(raw=True)).answer == "NO"
    assert analyze(lp(EX_LP), AnalysisConfig(raw=True)).answer == "NO"
    assert not trs_unfolds and not lp_unfolds
    assert len(loops) == 2
    assert all(args[1] == 3 for args, _ in loops)


def test_timeout_bounds_unfolding():
    # without 1 -> 0, depth 3 of this system's unfolding alone runs for
    # many seconds before it reaches the rule cap
    text = PAPER_TRS.replace("  1 -> 0", "")
    start = time.monotonic()
    v = analyze(trs(text), AnalysisConfig(timeout=2))
    assert time.monotonic() - start < 6
    assert v.answer == "MAYBE"
    assert v.stats["exhausted"] == ["loop", "recpair"]
    assert "resource_limit" not in v.stats


@pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf")])
def test_analyze_rejects_a_timeout_that_is_not_finite_and_positive(monkeypatch, timeout):
    # 0 would mean no deadline and nan one that never passes; the
    # configuration is refused before any unfolding starts
    unfolds = _record(monkeypatch, "unfold_trs")
    with pytest.raises(ValueError, match="timeout must be finite and positive"):
        analyze(trs(EX_TRS), AnalysisConfig(timeout=timeout))
    assert not unfolds


@pytest.mark.parametrize(
    "settings",
    [{"unfold_depth": -1}, {"raw": True, "max_word_len": 0}, {"raw": True, "max_word_len": -1}],
    ids=["depth -1", "raw word 0", "raw word -1"],
)
def test_analyze_rejects_settings_that_search_nothing(monkeypatch, settings):
    # each would answer MAYBE on this looping rule without searching a
    # single word; the configuration is refused before any work starts
    unfolds = _record(monkeypatch, "unfold_trs")
    loops = _record(monkeypatch, "find_loop")
    with pytest.raises(ValueError, match="must be"):
        analyze(trs("f(x) -> f(s(x))"), AnalysisConfig(timeout=None, **settings))
    assert not unfolds and not loops


def test_dependency_pairs_are_built_once_per_analysis(monkeypatch):
    built = []
    real = unfolding.dependency_pairs

    def counting(r):
        built.append(r)
        return real(r)

    monkeypatch.setattr(unfolding, "dependency_pairs", counting)
    v = analyze(trs("f(s(x)) -> g(f(x),f(x))"), AnalysisConfig(timeout=None))
    assert v.answer == "MAYBE" and v.stats["unfold_depth"] == 4
    assert len(built) == 1
    # the stat counts the pairs built, not the one left once its variant
    # is dropped from the pool
    assert v.stats["dependency_pairs"] == 2


def test_the_unfolding_is_freed_before_the_deepest_pool_is_searched(monkeypatch):
    made = []

    class Tracked(unfolding.Unfolding):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(analysis, "Unfolding", Tracked)
    alive = []
    search = analysis.find_recurrent_pair

    def recording(*args, **kwargs):
        alive.append(made[0]() is not None)
        return search(*args, **kwargs)

    monkeypatch.setattr(analysis, "find_recurrent_pair", recording)
    cfg = AnalysisConfig(unfold_depth=2, timeout=None)
    assert analyze(trs(TERMINATING), cfg).answer == "MAYBE"
    # its variant keys and tables are garbage once no deeper pool follows
    assert alive == [True, True, False]


@pytest.mark.parametrize(
    "text, parse, raw, exhausted",
    [
        (EX_TRS, trs, False, ["loop", "recpair"]),
        (EX_TRS, trs, True, ["loop", "recpair"]),
        (EX_LP, lp, False, ["loop", "recpair"]),
    ],
)
def test_budget_exhaustion_reported(text, parse, raw, exhausted):
    v = analyze(parse(text), AnalysisConfig(timeout=1e-9, raw=raw))
    assert v.answer == "MAYBE"
    assert v.stats["exhausted"] == exhausted
    # every budget is out after the first pool, so no deeper pool is built
    assert raw or v.stats["unfold_depth"] == 0
