import gc
import inspect
import json
import threading
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
from nonterm.parsing import parse_lp, parse_program, parse_trs, render_program
from nonterm.rewriting import Mode, verify_chain
from nonterm.terms import hole_positions, subterm_at
from nonterm.unfolding import unfold_trs, unfolded_program

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
    assert max(n for _, n, _ in towers) >= 2
    assert towers[(rp.c2, 0, rp.s)] is rp.s
    for (body, n, base), tower in towers.items():
        assert body == rp.c2
        for hp in holes if n else ():
            assert subterm_at(tower, hp) is towers[(body, n - 1, base)]


# Two analyses in two threads share detection's tower memo.  Keyed
# without the base, it handed one witness the towers of the other; read
# with ``in`` and then ``[]``, a clear between the two raised KeyError.
def test_concurrent_analyses_give_their_single_thread_certificates():
    cfg = AnalysisConfig(timeout=None, simulate_steps=40)
    programs = [trs(f"f(x,s(y)) -> f(s(x),y)  f(x,{c}) -> f(s({c}),x)") for c in "0a"]
    expected = [emit_certificate(analyze(p, cfg)) for p in programs]
    got, errors = ([], []), []

    def run(k):
        try:
            for _ in range(50):
                got[k].append(emit_certificate(analyze(programs[k], cfg)))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert [certs.count(want) for certs, want in zip(got, expected)] == [50, 50]


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
    # the node cap ends its recurrent-pair search, not the clock
    assert "deadline" not in plus.stats


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
    assert "error: timeout must be finite and positive" in captured.err


BAD_SETTINGS = [
    ({"timeout": 0}, ["--timeout", "0"]),
    ({"timeout": -1}, ["--timeout", "-1"]),
    ({"timeout": float("nan")}, ["--timeout", "nan"]),
    ({"timeout": float("inf")}, ["--timeout", "inf"]),
    ({"unfold_depth": -1}, ["--depth", "-1"]),
    ({"raw": True, "max_word_len": 0}, ["--raw", "--max-word", "0"]),
    ({"max_word_len": 2}, ["--max-word", "2"]),
    ({"techniques": ("sorcery",)}, ["--technique", "sorcery"]),
    ({"techniques": ("loop", "loop")}, ["--technique", "loop,loop"]),
    ({"techniques": ()}, ["--technique", ","]),
    ({"simulate_steps": -1}, ["--simulate", "-1"]),
]


@pytest.mark.parametrize(
    "settings, flags", BAD_SETTINGS, ids=[" ".join(flags) for _, flags in BAD_SETTINGS]
)
def test_the_library_refuses_what_the_cli_refuses(tmp_path, capsys, settings, flags):
    # one check, in AnalysisConfig, for both
    with pytest.raises(ValueError):
        AnalysisConfig(**settings)
    f = write(tmp_path, "ex.trs", f"(VAR x)(RULES {EX_TRS})")
    assert main([f, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_cli_drops_empty_technique_items(tmp_path, capsys):
    f = write(tmp_path, "ex.trs", f"(VAR x)(RULES {EX_TRS})")
    assert main([f, "--technique", "loop,"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["NO", "technique: loop"]


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
    assert captured.err == "error: max_word_len needs raw\n"


def test_cli_emit_unfolded(tmp_path, capsys):
    f = write(tmp_path, "ex.pl", EX_LP)
    out = tmp_path / "unfolded.pl"
    assert main([f, "--emit-unfolded", str(out), "--depth", "2"]) == 0
    text = out.read_text()
    assert "p(f(" in text


def test_cli_timeout_bounds_the_emitted_unfolding(tmp_path, capsys):
    # the search of depth 0 ticks past the deadline, which ends the
    # analysis before depth 1 is unfolded: depth 0 is the pool written
    f = write(tmp_path, "ex.trs", f"(VAR x)(RULES {EX_TRS})")
    out = tmp_path / "unfolded.trs"
    assert main([f, "--timeout", "1e-9", "--emit-unfolded", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "MAYBE"
    depth0 = unfolded_program(unfold_trs(trs(EX_TRS), 0), Mode.TRS)
    assert out.read_text() == render_program(depth0)


def test_cli_emits_the_pool_the_verdict_rests_on(tmp_path, capsys, monkeypatch):
    # one unfolding per run: the analysis's, whose last pool is written
    unfolds = _record(monkeypatch, "unfold_trs")
    f = write(tmp_path, "ex.trs", f"(VAR x)(RULES {EX_TRS})")
    out = tmp_path / "unfolded.trs"
    assert main([f, "--json", "--emit-unfolded", str(out)]) == 0
    assert [args[1] for args, _ in unfolds] == [0, 1, 2]
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["unfolded_rules"] == 115
    assert out.read_text().count(" -> ") == stats["unfolded_rules"]


@pytest.mark.parametrize(
    "suffix, text, mode",
    [(".trs", f"(VAR x)(RULES {EX_TRS})", Mode.TRS), (".pl", EX_LP, Mode.LP)],
    ids=["trs", "lp"],
)
def test_cli_raw_emits_the_input_rules(tmp_path, capsys, suffix, text, mode):
    f = write(tmp_path, "ex" + suffix, text)
    out = tmp_path / ("emitted" + suffix)
    assert main([f, "--raw", "--emit-unfolded", str(out)]) == 0
    emitted = parse_program(out.read_text(), mode)
    assert render_program(emitted) == render_program(parse_program(text, mode))


def test_cli_writes_no_pool_when_none_was_searched(tmp_path, capsys, monkeypatch):
    # the rule cap stops depth 0, so the analysis searches no pool
    monkeypatch.setattr(unfolding, "RULE_CAP", 1)
    f = write(tmp_path, "ex.trs", f"(VAR x)(RULES {EX_TRS})")
    out = tmp_path / "unfolded.trs"
    assert main([f, "--emit-unfolded", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert not out.exists()


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
    cfg = AnalysisConfig(unfold_depth=2, timeout=None)
    assert analyze(trs(TERMINATING), cfg).answer == "MAYBE"
    assert [args[1] for args, _ in unfolds] == [0, 1, 2]
    # one context-free loop check per pooled rule, in pool order: each
    # depth checks only the rules its pool gained
    pooled = [u.rule.id for u in unfold_trs(trs(TERMINATING), 2)]
    assert [args[0].id for args, _ in checks] == pooled
    # one recurrent-pair search per depth, always over single rules
    assert len(pairs) == 3
    assert all(args[1] == 1 for args, _ in pairs)


def test_loop_check_resumes_from_the_depth_before(monkeypatch):
    # every prefix fails verification, so every loop witness is rejected
    monkeypatch.setattr(analysis, "verify_chain", lambda program, chain: False)
    tried = _record(monkeypatch, "infinite_chain_prefix")
    cfg = AnalysisConfig(techniques=("loop",), unfold_depth=3, timeout=None)
    v = analyze(trs("f(x) -> f(s(x))"), cfg)
    assert v.answer == "MAYBE" and v.stats["unfold_depth"] == 3
    # each rejected witness once, not once per depth, in pool order
    looping = [
        r.id
        for r in v.used_program.rules
        if analysis._rule_loop_witness(r, detection.EmbeddingKind.INS) is not None
    ]
    assert len(looping) > 1
    assert v.stats["rejected"] == ["loop"] * len(looping)
    assert [args[1].word[0] for args, _ in tried] == looping


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
    assert v.stats["deadline"] == "search passed its deadline"
    # the first search past the deadline ends the analysis, so no deeper
    # pool is built
    assert raw or v.stats["unfold_depth"] == 0


PAPER_CAPPED = {"simulate_steps": 3, "timeout": None}


def test_a_node_cap_ends_one_technique_only(monkeypatch):
    program = trs(PAPER_TRS)
    uncapped = analyze(program, AnalysisConfig(**PAPER_CAPPED))
    # the loop check runs out of steps at depth 0; the recurrent-pair
    # search goes on and finds the uncapped run's pair at depth 1
    monkeypatch.setattr(detection, "NODE_CAP", 20)
    v = analyze(program, AnalysisConfig(**PAPER_CAPPED))
    assert (v.answer, v.technique) == ("NO", "recpair")
    assert v.stats["unfold_depth"] == 1
    assert v.stats["exhausted"] == ["loop"]
    assert emit_certificate(v) == emit_certificate(uncapped)
    # once every technique is out of steps the analysis ends, by no
    # deadline and no other limit
    monkeypatch.setattr(detection, "NODE_CAP", 1)
    v = analyze(program, AnalysisConfig(**PAPER_CAPPED))
    assert v.answer == "MAYBE"
    assert v.stats["exhausted"] == ["loop", "recpair"]
    assert "deadline" not in v.stats and "resource_limit" not in v.stats


GOLDEN_LOOP = "(VAR x)(RULES f(x) -> g(h(x,1),x) 1 -> 0 h(x,0) -> f(f(x)))"
REV = (
    "app(nil,Y,Y).\napp(cons(X,Xs),Y,cons(X,Z)) :- app(Xs,Y,Z).\n"
    "rev(nil,nil).\nrev(cons(X,Xs),R) :- rev(Xs,T), app(T,cons(X,nil),R)."
)


@pytest.mark.parametrize(
    "parse, text, settings, node_cap",
    [
        (parse_trs, GOLDEN_LOOP, {}, None),
        (parse_trs, GOLDEN_LOOP, {"raw": True}, None),
        (parse_trs, "(VAR x y)(RULES f(x,s(y)) -> f(s(x),y) f(x,0) -> f(s(0),x))",
         {"simulate_steps": 40}, None),
        (parse_trs, "(VAR x)(RULES d(0) -> 0 d(s(x)) -> s(s(d(x))) q(0) -> 0 "
         "q(s(x)) -> d(d(q(x))))", {"unfold_depth": 3}, None),
        # MAYBE at a resource limit, and MAYBE at the deadline
        (parse_trs, f"(VAR x y)(RULES {PAPER_TRS})", {}, None),
        (parse_trs, f"(VAR x y)(RULES {PAPER_TRS})", {"timeout": 1e-9}, None),
        (parse_lp, REV, {}, None),
        (parse_lp, "q(s(X)) :- q(s(s(X))).", {}, None),
        # a node cap that ends one technique, and one that ends both
        (parse_trs, f"(VAR x y)(RULES {PAPER_TRS})", PAPER_CAPPED, 20),
        (parse_trs, f"(VAR x y)(RULES {PAPER_TRS})", PAPER_CAPPED, 1),
    ],
    ids=["golden-loop", "golden-loop-raw", "counting", "double-quad", "paper",
         "paper-deadline", "rev", "q-ss", "paper-cap-20", "paper-cap-1"],
)
def test_an_analysis_leaves_no_cyclic_garbage(parse, text, settings, node_cap, monkeypatch):
    # With no reference cycles, refcounting frees every term, key and memo
    # an analysis drops, and the cycle collector has nothing to find.  The
    # JSON certificate is left out: the standard library's json encoder
    # with indent leaves cyclic garbage of its own, 33 objects a call.
    if node_cap is not None:
        monkeypatch.setattr(detection, "NODE_CAP", node_cap)
    gc.collect()
    gc.disable()
    try:
        emit_certificate(analyze(parse(text), AnalysisConfig(**settings)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _tower(n: int, var: str) -> str:
    return "s(" * n + var + ")" * n


@pytest.mark.parametrize(
    "rules",
    ["f({t}) -> f({t})", "f({t}) -> g(x)  g(x) -> f({t})"],
    ids=["self", "through-g"],
)
def test_a_deep_tower_answers_no_and_renders(rules):
    # Each term walk spends a bounded number of frames per level, so a
    # 300-level tower stays under the default recursion limit.
    t = _tower(300, "x")
    v = analyze(parse_trs(f"(VAR x)(RULES {rules.format(t=t)})"))
    assert v.answer == "NO"
    assert emit_certificate(v).startswith("NO\n")
    assert json.loads(emit_certificate(v, as_json=True))["answer"] == "NO"


def test_a_deep_logic_program_tower_answers_as_a_shallow_one_does():
    v = analyze(parse_lp(f"p(X) :- p({_tower(100, 'X')})."))
    assert v.answer == analyze(parse_lp("p(X) :- p(s(X)).")).answer
    emit_certificate(v)
    emit_certificate(v, as_json=True)


@pytest.mark.parametrize(
    "name, text",
    [
        ("tower.trs", "(VAR x)(RULES f({t}) -> f({t}))".format(t=_tower(1200, "x"))),
        # shallow input; each step of the simulated prefix stacks the tower
        ("tower.pl", f"p(X) :- p({_tower(124, 'X')})."),
    ],
    ids=["parse", "analysis"],
)
def test_cli_reports_too_deep_terms_as_one_error_line(tmp_path, capsys, name, text):
    f = tmp_path / name
    f.write_text(text)
    assert main([str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: terms nest too deeply")
