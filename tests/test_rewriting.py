import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GEN_VARS, lp, random_term, term, trs
import nonterm
from nonterm import AnalysisConfig, analyze, parse_lp, parse_trs, rewriting, substitution, terms
from nonterm.errors import ResourceLimitError
from nonterm.rewriting import (
    Chain,
    Mode,
    Program,
    Rule,
    Semantics,
    Step,
    rewrite_at,
    run_word,
    successors,
    verify_chain,
)
from nonterm.substitution import Substitution, apply
from nonterm.terms import (
    App,
    ROOT,
    Symbol,
    Var,
    is_variant,
    iter_positions,
    render,
    replace_at,
    subterm_at,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402


EX_TRS = "f(x) -> g(h(x,one),x)  one -> zero  h(x,zero) -> f(f(x))"


def trs_successors(p, s):
    return successors(p, s, Semantics.TRS)


def lp_successors(p, g):
    return successors(p, g, Semantics.LP_NARROW)


def restricted_successors(p, s):
    return successors(p, s, Semantics.LP_RESTRICTED)


def test_trs_successors_all_positions():
    p = trs(EX_TRS)
    steps = trs_successors(p, term("f(one)"))
    got = {(s.rule_id, s.position, render(s.target)) for s in steps}
    assert got == {
        ("r1", (), "g(h(one,one),one)"),
        ("r2", (1,), "f(zero)"),
    }


def test_trs_successor_order_deterministic():
    p = trs(EX_TRS)
    steps = trs_successors(p, term("f(one)"))
    assert [(s.rule_id, s.position) for s in steps] == [("r1", ()), ("r2", (1,))]


def test_lp_successors_resolution_window():
    p = lp("p(f(X,zero)) :- p(X), q(X).")
    g = (term("p(f(x,zero))"),)
    steps = lp_successors(p, g)
    assert len(steps) == 1
    # the body replaces the selected element; prefix and suffix survive
    assert render(steps[0].target).startswith("<p(")
    assert len(steps[0].target) == 2


def test_lp_successors_instantiate_suffix():
    # narrowing the first element must also instantiate the rest of the goal
    p = lp("p(f(X,zero)) :- p(X), q(X).")
    g = (term("p(x)"), term("q(x)"))
    steps = [s for s in lp_successors(p, g) if s.position == (1,)]
    assert len(steps) == 1
    tgt = steps[0].target
    assert len(tgt) == 3
    # x was unified with f(X1,zero), so the old suffix q(x) is now q(f(X1,zero))
    assert render(tgt[2]).startswith("q(f(")


def test_lp_successors_deterministic():
    p = lp("p(f(X,zero)) :- p(X), q(X).")
    g = (term("p(x)"),)
    assert lp_successors(p, g) == lp_successors(p, g)


def test_restricted_successors_root_only_no_extra_vars():
    p = Program(
        [
            Rule("r1", term("f(x,s(y))"), (term("f(s(x),y)"),)),
            Rule("r2", term("g(x)"), (term("g(f(x,y))"),)),  # extra var: unusable
        ],
        Mode.LP,
    )
    steps = restricted_successors(p, term("f(a,s(b))"))
    assert [(s.rule_id, render(s.target)) for s in steps] == [("r1", "f(s(a),b)")]
    assert restricted_successors(p, term("g(a)")) == []
    # no rewriting below the root
    assert restricted_successors(p, term("h(f(a,s(b)))")) == []


def test_run_word_empty_is_identity():
    p = trs(EX_TRS)
    t = term("f(one)")
    assert run_word(p, t, [], Semantics.TRS) == [t]


def test_run_word_sequence():
    p = trs(EX_TRS)
    out = run_word(p, term("f(x)"), ["r1", "r2", "r3"], Semantics.TRS)
    assert any(is_variant(t, term("g(f(f(x)),x)")) for t in out)


def test_run_word_unknown_rule():
    p = trs(EX_TRS)
    with pytest.raises(KeyError):
        run_word(p, term("f(x)"), ["nope"], Semantics.TRS)


def test_run_word_cap(monkeypatch):
    # d(x) -> d(x) at every position of a deep term explodes politely
    monkeypatch.setattr(rewriting, "RUN_WORD_CAP", 50)
    p = trs("d(x) -> c(d(x),d(x))")
    with pytest.raises(ResourceLimitError):
        run_word(p, term("d(d(d(x)))"), ["r1"] * 10, Semantics.TRS)


def test_verify_chain_roundtrip():
    p = trs(EX_TRS)
    t = term("f(x)")
    s1 = trs_successors(p, t)[0]
    s2 = [s for s in trs_successors(p, s1.target) if s.rule_id == "r2"][0]
    assert verify_chain(p, Chain(t, [s1, s2], Semantics.TRS))


def test_verify_chain_rejects_tampering():
    p = trs(EX_TRS)
    t = term("f(x)")
    s1 = trs_successors(p, t)[0]
    bad = Chain(t, [Step(s1.rule_id, s1.position, term("zero"))], Semantics.TRS)
    assert not verify_chain(p, bad)


def test_verify_chain_rejects_gaps():
    # s2 is a step of f(one), not of the term s1 ends in
    p = trs(EX_TRS)
    s1 = trs_successors(p, term("f(x)"))[0]
    s2 = trs_successors(p, term("f(one)"))[0]
    assert not verify_chain(p, Chain(term("f(x)"), [s1, s2], Semantics.TRS))


def test_chain_instantiate_stays_valid():
    # stability: instances of TRS steps are still steps
    p = trs(EX_TRS)
    t = term("f(x)")
    chain = Chain(t, [trs_successors(p, t)[0]], Semantics.TRS)
    theta = Substitution({term("x"): term("f(zero)")})
    inst = chain.instantiate(theta)
    assert inst.start == apply(theta, t)
    assert verify_chain(p, inst)


def test_successors_dispatch():
    p = trs(EX_TRS)
    assert successors(p, term("one"), Semantics.TRS)[0].rule_id == "r2"
    plp = lp("p(a).")
    assert successors(plp, (term("p(a)"),), Semantics.LP_NARROW)[0].target == ()


# ---------------------------------------------------------------------------
# One-step verify_chain against the enumerate-and-filter verifier it replaced


def one_step(source, rule_id, position, target, semantics):
    return Chain(source, [Step(rule_id, position, target)], semantics)


def oracle_verify_step(p, chain):
    """List every successor of the one step's source and keep the
    claimed one."""
    (step,) = chain.steps
    return step in successors(p, chain.start, chain.semantics)


RESTRICTED = Program(
    [
        Rule("r1", term("f(x,s(y))"), (term("f(s(x),y)"),)),
        Rule("r2", term("g(x)"), (term("g(f(x,y))"),)),  # extra var: unusable
        Rule("r3", term("f(s(x),y)"), (term("g(x)"),)),
    ],
    Mode.LP,
)

ORACLE_CASES = [
    (
        trs(EX_TRS),
        Semantics.TRS,
        [term("f(one)"), term("h(f(one),zero)"), term("g(h(x,one),f(one))")],
    ),
    (
        lp("p(f(X,zero)) :- p(X), q(X).  q(a).  p(a)."),
        Semantics.LP_NARROW,
        [(term("p(x)"), term("q(x)")), (term("q(y)"), term("p(f(x,zero))"), term("p(y)"))],
    ),
    (RESTRICTED, Semantics.LP_RESTRICTED, [term("f(s(a),s(b))"), term("f(s(s(a)),b)")]),
]


def _wrong_positions(source):
    if isinstance(source, tuple):
        return [(i,) for i in range(1, len(source) + 1)]
    return list(iter_positions(source))


@pytest.mark.parametrize("p, semantics, sources", ORACLE_CASES)
def test_verify_step_agrees_with_oracle(p, semantics, sources):
    outside = [(1, 1), (9,), (1, 9), (2, 1, 1)]
    for source in sources:
        steps = successors(p, source, semantics)
        assert steps
        for st in steps:
            chain = Chain(source, [st], semantics)
            assert verify_chain(p, chain) and oracle_verify_step(p, chain)
            mutants = [
                dataclasses.replace(st, position=pos)
                for pos in _wrong_positions(source) + outside
                if pos != st.position
            ]
            mutants += [
                dataclasses.replace(st, rule_id="nope"),
                dataclasses.replace(st, target=source),
            ]
            mutants = [Chain(source, [m], semantics) for m in mutants]
            for m in mutants:
                assert verify_chain(p, m) == oracle_verify_step(p, m), m
            # no program here rewrites one source to one target twice
            for m in mutants[-2:]:
                assert not verify_chain(p, m) and not oracle_verify_step(p, m), m


@pytest.mark.parametrize(
    "p, step",
    [
        # wrong position: one -> zero happens below the root
        (trs(EX_TRS), one_step(term("f(one)"), "r2", ROOT, term("f(zero)"), Semantics.TRS)),
        # position outside the term
        (trs(EX_TRS), one_step(term("f(one)"), "r2", (2,), term("f(zero)"), Semantics.TRS)),
        (trs(EX_TRS), one_step(term("one"), "r2", (1, 1), term("zero"), Semantics.TRS)),
        (lp("q(a)."), one_step((term("q(a)"),), "r1", (2,), (), Semantics.LP_NARROW)),
        (lp("q(a)."), one_step((term("q(a)"),), "r1", ROOT, (), Semantics.LP_NARROW)),
        # wrong rule id
        (trs(EX_TRS), one_step(term("f(one)"), "r1", (1,), term("f(zero)"), Semantics.TRS)),
        # wrong target
        (trs(EX_TRS), one_step(term("f(one)"), "r2", (1,), term("f(one)"), Semantics.TRS)),
        # restricted steps happen at the root only
        (
            RESTRICTED,
            one_step(term("g(f(a,s(b)))"), "r1", (1,), term("g(f(s(a),b))"), Semantics.LP_RESTRICTED),
        ),
        # a rule with a two-atom body is no rewrite rule
        (
            Program([Rule("r1", term("f(x)"), (term("g(x)"), term("g(x)")))], Mode.TRS),
            one_step(term("f(a)"), "r1", ROOT, term("g(a)"), Semantics.TRS),
        ),
    ],
)
def test_verify_step_rejects_like_oracle(p, step):
    assert not oracle_verify_step(p, step)
    assert not verify_chain(p, step)


def test_verify_step_tries_every_rule_with_the_id():
    # only the second rule named r1 rewrites f(x) to c
    p = Program(
        [Rule("r1", term("f(a)"), (term("b"),)), Rule("r1", term("f(x)"), (term("c"),))],
        Mode.TRS,
    )
    step = one_step(term("f(x)"), "r1", ROOT, term("c"), Semantics.TRS)
    assert oracle_verify_step(p, step)
    assert verify_chain(p, step)


# ---------------------------------------------------------------------------
# The checker against the build-and-compare verifier it replaced


def reference_verify_chain(p, c):
    """The verifier before the checker, kept as an oracle: rebuild each
    step with ``rewrite_at`` and compare the result with the claimed
    target."""
    by_id = {}
    for r in p.rules:
        by_id.setdefault(r.id, []).append(r)
    for source, st in zip(c.states(), c.steps):
        rules = by_id.get(st.rule_id, ())
        got = (rewrite_at(r, source, st.position, c.semantics) for r in rules)
        if not any(g is not None and g.target == st.target for g in got):
            return False
    return True


def agree(p, chain):
    """The checker's answer on ``chain``, asserted equal to the oracle's."""
    got = verify_chain(p, chain)
    assert got == reference_verify_chain(p, chain), chain
    return got


# a symbol no program uses, so a mutant it marks differs from what it replaced
MUTANT = App(Symbol("mutant", 0))


def replace_in(x, path, u):
    """``x`` with the subterm at ``path`` replaced by ``u``; in a goal
    the first index picks the atom."""
    if isinstance(x, tuple):
        i = path[0]
        return x[: i - 1] + (replace_at(x[i - 1], path[1:], u),) + x[i:]
    return replace_at(x, path, u)


def subterm_in(x, path):
    return subterm_at(x[path[0] - 1], path[1:]) if isinstance(x, tuple) else subterm_at(x, path)


def var_paths(t, here=ROOT):
    if isinstance(t, Var):
        return [here]
    return [q for i, a in enumerate(t.args, 1) for q in var_paths(a, here + (i,))]


def step_mutants(rule, source, step, semantics):
    """(kind, mutated step) pairs of one step of ``rule``, one per kind
    that applies to it."""
    target, pos = step.target, step.position

    def retarget(new):
        return dataclasses.replace(step, target=new)

    out = []
    goal = isinstance(target, tuple)
    if goal:
        i, body = pos[0], rule.rhs
        window = range(i, i + len(body))  # the resolvent's atoms, 1-based
        off = [(j,) for j in range(1, len(target) + 1) if j not in window]
        on_path = (i,) if body else None
        images = [(i + k,) + q for k, atom in enumerate(body) for q in var_paths(atom)]
    else:
        # the argument paths that leave the step's path, nearest the
        # position first
        off = [
            pos[:d] + (j,)
            for d in reversed(range(len(pos)))
            for j in range(1, len(subterm_at(target, pos[:d]).args) + 1)
            if j != pos[d]
        ]
        on_path = pos[:-1]  # the parent of the position, or the root
        images = [pos + q for q in var_paths(rule.rhs[0])]
    if off:
        out.append(("off-path argument", retarget(replace_in(target, off[0], MUTANT))))
    node = None if on_path is None else subterm_in(target, on_path)
    if isinstance(node, App):
        renamed = App(Symbol("mutant", node.symbol.arity), node.args)
        out.append(("symbol on the path", retarget(replace_in(target, on_path, renamed))))
    if images:
        out.append(("variable image", retarget(replace_in(target, images[0], MUTANT))))
    if goal:
        out.append(("atom added", retarget(target + (MUTANT,))))
        if target:
            out.append(("atom dropped", retarget(target[:-1])))
        wrong = [(j,) for j in (pos[0] + 1, pos[0] - 1) if 1 <= j <= len(source)]
        outside = (len(source) + 1,)
    else:
        if pos:
            wrong = [pos[:-1]]
        else:
            wrong = [(1,)] if isinstance(source, App) and source.args else []
        outside = pos + (len(subterm_at(source, pos).args) + 1,)
    if wrong:
        out.append(("wrong position", dataclasses.replace(step, position=wrong[0])))
    out.append(("position outside", dataclasses.replace(step, position=outside)))
    return out


BENCH_INSTANCES = [
    (f"{w.name}/{inst.program.name}", inst)
    for w in corpus.WORKLOADS.values()
    for inst in corpus.instances(w, 1)
]


def bench_verdict(inst, raw=False):
    """The verdict of one benchmark program at its corpus settings."""
    parse = parse_trs if inst.program.dialect == "trs" else parse_lp
    if raw:
        cfg = AnalysisConfig(timeout=None, raw=True, simulate_steps=inst.program.simulate)
    else:
        cfg = AnalysisConfig(
            timeout=None, unfold_depth=inst.program.depth, simulate_steps=inst.program.simulate
        )
    return analyze(parse(inst.text), cfg)


def test_checker_agrees_with_the_reference_on_bench_prefixes():
    assert len(BENCH_INSTANCES) == 33
    kinds, prefixes = Counter(), 0
    for raw in (False, True):
        for _, inst in BENCH_INSTANCES:
            v = bench_verdict(inst, raw)
            if v.answer != "NO":
                continue
            p, chain = v.used_program, v.simulated_prefix
            prefixes += 1
            assert agree(p, chain)
            for source, step in zip(chain.states(), chain.steps):
                for rule in p.rules:
                    if rule.id != step.rule_id:
                        continue
                    for kind, m in step_mutants(rule, source, step, chain.semantics):
                        kinds[kind] += 1
                        accepted = agree(p, Chain(source, [m], chain.semantics))
                        # d(x) -> d(d(x)) makes one step at two positions;
                        # every other mutant is a step no rule makes
                        assert not accepted or kind == "wrong position", kind
    # 14 NOs unfolded and 14 raw
    assert prefixes == 28
    # every kind of mutant was tried, on many steps
    assert min(kinds.values()) >= 200 and len(kinds) == 7, kinds


@pytest.mark.parametrize("semantics", list(Semantics))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_checker_agrees_with_the_reference_on_random_steps(semantics, seed):
    rng = random.Random(seed)

    def app(depth):
        t = random_term(rng, depth)
        return t if isinstance(t, App) else App(Symbol("g", 1), (t,))

    def instance(t):
        return apply(Substitution({v: random_term(rng, 2) for v in GEN_VARS}), t)

    lhs = app(3)
    if semantics is Semantics.LP_NARROW:
        rule = Rule("r1", lhs, tuple(random_term(rng, 3) for _ in range(rng.randrange(3))))
        source = tuple(random_term(rng, 3) for _ in range(rng.randrange(1, 4)))
        position = (rng.randrange(1, len(source) + 1),)
        source = replace_in(source, position, instance(lhs))
    else:
        rule = Rule("r1", lhs, (random_term(rng, 3),))
        source = random_term(rng)
        spots = [ROOT] if semantics is Semantics.LP_RESTRICTED else list(iter_positions(source))
        position = rng.choice(spots)
        source = replace_at(source, position, instance(lhs))
    # now and then a second rule with the same id, or one that cannot apply
    rules = [rule] + [Rule("r1", app(3), (random_term(rng, 3),))] * rng.randrange(2)
    p = Program(rules, Mode.TRS if semantics is Semantics.TRS else Mode.LP)
    true = rewrite_at(rule, source, position, semantics)
    if semantics is not Semantics.LP_RESTRICTED:
        assert true is not None
    if true is None:
        # an extra variable on the right: no step of this rule at all
        true = Step("r1", position, instance(rule.rhs[0]))
    target = true.target
    targets = []
    if isinstance(target, tuple):
        if target:
            j = rng.randrange(len(target))
            at = (j + 1,) + rng.choice(list(iter_positions(target[j])))
            targets += [replace_in(target, at, random_term(rng, 2)), target[:j] + target[j + 1 :]]
        targets.append(target + (random_term(rng, 2),))
        spots = [(i,) for i in range(len(source) + 2)] + [ROOT]
    else:
        at = rng.choice(list(iter_positions(target)))
        targets.append(replace_at(target, at, random_term(rng, 2)))
        spots = list(iter_positions(source)) + [(1, 1, 1, 1, 1, 1), (3,)]
    steps = [true] + [dataclasses.replace(true, target=t) for t in targets]
    steps.append(dataclasses.replace(true, position=rng.choice(spots)))
    for step in steps:
        agree(p, Chain(source, [step], semantics))


def test_checker_builds_no_term(monkeypatch):
    witnesses = dict(BENCH_INSTANCES)
    prefixes = [bench_verdict(witnesses[f"witness/{name}"]) for name in ("counting", "swapping")]
    prefixes = [(v.used_program, v.simulated_prefix) for v in prefixes]
    source = term("f(s(s(a)),s(s(b)))")
    restricted = [source] + [successors(RESTRICTED, source, Semantics.LP_RESTRICTED)[0].target]
    restricted.append(successors(RESTRICTED, restricted[-1], Semantics.LP_RESTRICTED)[0].target)
    steps = [Step("r1", ROOT, t) for t in restricted[1:]]
    prefixes.append((RESTRICTED, Chain(source, steps, Semantics.LP_RESTRICTED)))
    assert all(c.semantics is not Semantics.LP_NARROW for _, c in prefixes)
    assert sum(len(c.steps) for _, c in prefixes) > 1000

    def builds(*args, **kwargs):
        raise AssertionError("verification built a term")

    for module, name in [
        (rewriting, "rewrite_at"),
        (rewriting, "replace_at"),
        (rewriting, "apply"),
        (terms, "replace_at"),
        (substitution, "apply"),
        (App, "__init__"),
    ]:
        monkeypatch.setattr(module, name, builds)
    for p, chain in prefixes:
        assert verify_chain(p, chain)


# A rule caches its hash on first use, as an App does.  The cache must
# not travel: str hashes differ between processes, and a copy or a
# replaced rule hashes its own fields.
HASHED_RULE = "f(g(x),y) -> f(x,h(y,a))"


@pytest.mark.parametrize(
    "copy_of",
    [
        lambda r: pickle.loads(pickle.dumps(r)),
        copy.copy,
        copy.deepcopy,
        dataclasses.replace,
    ],
    ids=["pickle", "copy", "deepcopy", "replace"],
)
def test_copied_rule_equals_and_hashes_like_a_fresh_one(copy_of):
    rule = trs(HASHED_RULE).rules[0]
    want = hash(rule)
    assert rule._hash == want == hash((rule.id, rule.lhs, rule.rhs))
    other = copy_of(rule)
    assert other == rule and other._hash is None
    assert hash(other) == want and other in {rule}
    assert repr(other) == repr(rule)


def test_replaced_rule_hashes_its_new_fields():
    rule = trs(HASHED_RULE).rules[0]
    hash(rule)
    renamed = dataclasses.replace(rule, id="s1")
    assert renamed != rule and renamed.id == "s1"
    assert hash(renamed) == hash(("s1", rule.lhs, rule.rhs))


def test_rule_hash_leaves_equality_by_value():
    first, second = trs(HASHED_RULE).rules[0], trs(HASHED_RULE).rules[0]
    assert first is not second and first.lhs is not second.lhs
    hash(first)
    assert first == second and second._hash is None
    assert hash(second) == hash(first) and {first: 1}[second] == 1


def test_pickled_rule_hashes_like_a_fresh_one_in_another_process():
    # the hash mixes in the id's and the symbols' str hashes, which
    # differ between processes: a pickled hash would miss the set lookup
    script = (
        "import pickle, sys\n"
        "from nonterm.rewriting import Rule\n"
        "from nonterm.terms import App, Symbol, Var\n"
        "r = Rule('r1', App(Symbol('f', 1), (Var(0, 'x'),)), (App(Symbol('a', 0)),))\n"
        "hash(r)\n"
        "sys.stdout.buffer.write(pickle.dumps(r))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = str(Path(nonterm.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, check=True
    ).stdout
    r = pickle.loads(out)
    fresh = Rule("r1", App(Symbol("f", 1), (Var(0, "x"),)), (App(Symbol("a", 0)),))
    assert r in {fresh} and hash(r) == hash(fresh)
