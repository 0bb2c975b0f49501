"""Acceptance suite: golden results, property suites and budgets.

Each test prints a single pass/fail line for its criterion on the real
stdout (bypassing capture) so the checklist is visible in any run mode.
"""

import itertools
import random
import sys
import time

import numpy as np
import pytest

from conftest import term, trs
from nonterm.analysis import AnalysisConfig, analyze
from nonterm.detection import (
    EmbeddingKind,
    find_embedding,
    find_loop,
    find_recurrent_pair,
    infinite_chain_prefix,
    witness_chain,
)
from nonterm.parsing import parse_lp, parse_trs
from nonterm.rewriting import (
    Chain,
    Mode,
    Program,
    Rule,
    Semantics,
    Step,
    run_word,
    successors,
    verify_chain,
)
from nonterm.substitution import Substitution, apply, match, mgu
from nonterm.terms import (
    App,
    HOLE,
    Symbol,
    Var,
    is_variant,
    iter_positions,
    render,
    replace_at,
    subterm_at,
    term_vars,
)
from nonterm.unfolding import binary_unfold, overlap_closure, unfold_trs


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_report(capfd):
    """Let the criterion checklist bypass output capture."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(num: int, ok: bool, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status}  {text}\n"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)


def check(num: int, ok: bool, text: str) -> None:
    report(num, ok, text)
    assert ok, f"criterion {num} failed: {text}"


LOOPING_TRS = """
(VAR x)
(RULES
  f(x) -> g(h(x,1),x)
  1 -> 0
  h(x,0) -> f(f(x))
)
"""

LOOPING_LP = "p(f(X,0)) :- p(X), q(X)."

COUNTING_TRS = """
(VAR x y)
(RULES
  f(x,s(y)) -> f(s(x),y)
  f(x,0) -> f(s(0),x)
)
"""

SWAPPING_TRS = """
(VAR x y)
(RULES
  f(c,a(x),y) -> f(c,x,a(y))
  f(c,a(x),y) -> f(x,y,a(a(c)))
)
"""


def rule_variant(rule, lhs, rhs):
    return is_variant((rule.lhs,) + rule.rhs, (lhs,) + rhs)


# ---------------------------------------------------------------------------
# 1. Golden loop on the three-rule rewrite system


def test_criterion_01_golden_trs_loop():
    t0 = time.monotonic()
    p = parse_trs(LOOPING_TRS)
    v = analyze(p)
    pool = unfold_trs(p, 3)
    f_mark = Symbol("f#", 1)
    f = Symbol("f", 1)
    x = Var(0, "x")
    want_lhs = App(f_mark, (x,))
    want_rhs = (App(f_mark, (App(f, (x,)),)),)
    derived = any(rule_variant(u.rule, want_lhs, want_rhs) for u in pool)
    elapsed = time.monotonic() - t0
    ok = v.answer == "NO" and derived and elapsed < 2.0
    check(1, ok, f"golden TRS loop: NO + derived self-embedding rule ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. Golden loop on the one-clause logic program


def test_criterion_02_golden_lp_loop():
    t0 = time.monotonic()
    p = parse_lp(LOOPING_LP)
    pool = binary_unfold(p, 2)
    # the golden binary rule: head specialized, body a bare recursive call
    want = parse_lp("p(f(X,0)) :- p(X).").rules[0]
    derived = any(rule_variant(u.rule, want.lhs, want.rhs) for u in pool)
    v = analyze(p)
    elapsed = time.monotonic() - t0
    ok = (
        derived
        and v.answer == "NO"
        and v.technique == "loop"
        and len(v.witness.word) == 1
        and v.witness.embedding.kind is EmbeddingKind.MG
        and elapsed < 2.0
    )
    check(2, ok, f"golden LP loop: binary rule + NO with length-1 mg word ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 3. Golden recurrent-pair decompositions


def test_criterion_03_golden_recurrent_pairs():
    t0 = time.monotonic()
    p1 = parse_trs(COUNTING_TRS)
    rp1 = find_recurrent_pair(p1, 1)
    ok1 = (
        rp1 is not None
        and render(rp1.c1) == "f([],[]')"
        and render(rp1.c2) == "s([])"
        and (rp1.n1, rp1.n2, rp1.n3, rp1.n4) == (1, 0, 1, 0)
        and render(rp1.s) == "0"
        and rp1.t_is_s
    )
    p2 = parse_trs(SWAPPING_TRS)
    rp2 = find_recurrent_pair(p2, 1)
    ok2 = (
        rp2 is not None
        and render(rp2.c1) == "f(c,[]',[])"
        and render(rp2.c2) == "a([])"
        and render(rp2.s) == "a(c)"
        and rp2.t_is_s
    )
    elapsed = time.monotonic() - t0
    ok = ok1 and ok2 and elapsed < 2.0
    check(3, ok, f"golden recurrent pairs: both decompositions exact ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 4. Witness-chain fidelity


def test_criterion_04_witness_chain_fidelity():
    t0 = time.monotonic()
    p = parse_trs(COUNTING_TRS)
    rp = find_recurrent_pair(p, 1)
    chain = witness_chain(rp, 1, 0, 3)
    got = [render(t) for t in chain.states()][:6]
    want = [
        "f(s(0),0)",
        "f(s(0),s(0))",
        "f(s(s(0)),0)",
        "f(s(0),s(s(0)))",
        "f(s(s(0)),s(0))",
        "f(s(s(s(0))),0)",
    ]
    elapsed = time.monotonic() - t0
    ok = got == want and verify_chain(p, chain) and elapsed < 1.0
    check(4, ok, f"witness chain reproduces the first 6 golden terms ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 5. Loop-unrolling fidelity


def test_criterion_05_loop_unrolling_fidelity():
    t0 = time.monotonic()
    p = parse_trs(LOOPING_TRS)
    lw = find_loop(p, 3)
    chain = infinite_chain_prefix(p, lw, 2)
    states = chain.states()
    a3_ok = is_variant(states[3], term("g(f(f(x)),x)"))
    a6_ok = is_variant(states[6], term("g(g(f(f(f(x))),f(x)),x)"))
    elapsed = time.monotonic() - t0
    ok = a3_ok and a6_ok and verify_chain(p, chain) and elapsed < 1.0
    check(5, ok, f"loop unrolling reproduces the golden a3 and a6 ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# Randomized generators for the property suites

F2 = Symbol("f", 2)
G1 = Symbol("g", 1)
A0 = Symbol("a", 0)
B0 = Symbol("b", 0)
PROP_VARS = [Var(i) for i in range(3)]


def rand_term(rng, depth=4, vars_ok=True):
    leaves = (PROP_VARS if vars_ok else []) + [App(A0), App(B0)]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    sym = rng.choice([F2, G1])
    return App(sym, tuple(rand_term(rng, depth - 1, vars_ok) for _ in range(sym.arity)))


def rand_nonvar_term(rng, depth=3, vars_ok=True):
    sym = rng.choice([F2, G1])
    return App(sym, tuple(rand_term(rng, depth - 1, vars_ok) for _ in range(sym.arity)))


def rand_ground_subst(rng, vs, depth=2):
    return Substitution({v: rand_term(rng, depth, vars_ok=False) for v in vs})


def rand_rule(rng, rid="r1", rhs_from_lhs=False):
    lhs = rand_nonvar_term(rng)
    if rhs_from_lhs:
        lhs_vars = sorted(term_vars(lhs), key=lambda v: v.id)

        def build(depth):
            leaves = lhs_vars + [App(A0), App(B0)]
            if depth == 0 or rng.random() < 0.4:
                return rng.choice(leaves)
            sym = rng.choice([F2, G1])
            return App(sym, tuple(build(depth - 1) for _ in range(sym.arity)))

        rhs = build(3)
    else:
        rhs = rand_term(rng, 3)
    return Rule(rid, lhs, (rhs,))


def term_with_redex(rng, u):
    """A random term with an instance of ``u`` planted at some position."""
    host = rand_nonvar_term(rng, 3)
    sigma = rand_ground_subst(rng, term_vars(u))
    spots = list(iter_positions(host))
    pos = rng.choice(spots)
    return replace_at(host, pos, apply(sigma, u))


# ---------------------------------------------------------------------------
# 6. Stability of single steps under instantiation


def test_criterion_06_stability():
    t0 = time.monotonic()
    rng = random.Random(601)
    trs_checked = lp_checked = 0
    for _ in range(1000):
        r = rand_rule(rng, rhs_from_lhs=True)
        p = Program([r], Mode.TRS)
        s = term_with_redex(rng, r.lhs)
        steps = successors(p, s, Semantics.TRS)
        assert steps, "generator must plant a redex"
        step = rng.choice(steps)
        theta = rand_ground_subst(rng, term_vars(s) | term_vars(step.target))
        lifted = Step(r.id, step.position, apply(theta, step.target))
        chain = Chain(apply(theta, s), [lifted], Semantics.TRS)
        assert verify_chain(p, chain), f"TRS stability violated for {r}"
        trs_checked += 1
        g_theta = rand_ground_subst(rng, r.all_vars())
        lp = Program([r], Mode.LP)
        targets = [
            st.target for st in successors(lp, (apply(g_theta, r.lhs),), Semantics.LP_NARROW)
        ]
        assert (apply(g_theta, r.rhs[0]),) in targets, (
            f"narrowing stability violated for {r}"
        )
        lp_checked += 1
    elapsed = time.monotonic() - t0
    ok = trs_checked == 1000 and lp_checked == 1000 and elapsed < 30.0
    check(
        6,
        ok,
        f"stability: {trs_checked} rewrite + {lp_checked} narrowing cases, "
        f"0 violations ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 7. Compatibility of the embedding relations with the step relations


_FRESH_IDS = itertools.count(50)


def generalize(rng, t):
    """Replace a random subterm of ``t`` by a fresh variable."""
    spots = list(iter_positions(t))
    pos = rng.choice(spots)
    n = next(_FRESH_IDS)
    return replace_at(t, pos, Var(n, f"G{n}"))


def test_criterion_07_compatibility():
    t0 = time.monotonic()
    rng = random.Random(701)
    ins_checked = 0
    for _ in range(500):
        r = rand_rule(rng, rhs_from_lhs=True)
        p = Program([r], Mode.TRS)
        a = term_with_redex(rng, r.lhs)
        steps = successors(p, a, Semantics.TRS)
        a1 = rng.choice(steps).target
        # a' = c[a sigma] is in ins(a)
        sigma = rand_ground_subst(rng, term_vars(a))
        wrap = rand_nonvar_term(rng, 2)
        hole_at = rng.choice(list(iter_positions(wrap)))
        c = replace_at(wrap, hole_at, App(HOLE))
        a_pr = replace_at(wrap, hole_at, apply(sigma, a))
        found = any(
            find_embedding(EmbeddingKind.INS, a1, st.target) is not None
            for st in successors(p, a_pr, Semantics.TRS)
        )
        assert found, f"ins-compatibility violated for {r}"
        ins_checked += 1

    mg_checked = 0
    for _ in range(500):
        r = rand_rule(rng)
        p = Program([r], Mode.LP)
        sigma = rand_ground_subst(rng, term_vars(r.lhs))
        a = (apply(sigma, r.lhs), rand_term(rng, 2))
        steps = [st for st in successors(p, a, Semantics.LP_NARROW) if st.position == (1,)]
        assert steps
        a1 = steps[0].target
        # a' embeds a goal more general than a
        b = tuple(generalize(rng, t) for t in a)
        a_pr = (rand_term(rng, 1),) + b
        found = any(
            find_embedding(EmbeddingKind.MG, a1, st.target) is not None
            for st in successors(p, a_pr, Semantics.LP_NARROW)
        )
        assert found, f"mg-compatibility violated for {r}"
        mg_checked += 1
    elapsed = time.monotonic() - t0
    ok = ins_checked == 500 and mg_checked == 500 and elapsed < 60.0
    check(
        7,
        ok,
        f"compatibility: {ins_checked} ins + {mg_checked} mg triples, "
        f"0 violations ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 8. Closure of word rewriting under substitutions


def random_chain(rng, p, start, semantics, max_len=3):
    word, cur = [], start
    for _ in range(rng.randrange(1, max_len + 1)):
        steps = successors(p, cur, semantics)
        if not steps:
            break
        st = rng.choice(steps)
        word.append(st.rule_id)
        cur = st.target
    return word, cur


def test_criterion_08_closure():
    t0 = time.monotonic()
    rng = random.Random(801)
    trs_cases = restricted_cases = lifted_cases = 0
    while trs_cases < 500:
        rules = [rand_rule(rng, f"r{i}", rhs_from_lhs=True) for i in range(1, 3)]
        p = Program(rules, Mode.TRS)
        s = term_with_redex(rng, rules[0].lhs)
        word, t = random_chain(rng, p, s, Semantics.TRS)
        if not word:
            continue
        theta = rand_ground_subst(rng, term_vars(s) | term_vars(t))
        results = run_word(p, apply(theta, s), word, Semantics.TRS)
        assert apply(theta, t) in results, "rewrite words not closed under subst"
        trs_cases += 1
    while restricted_cases < 500:
        rules = [rand_rule(rng, f"r{i}", rhs_from_lhs=True) for i in range(1, 3)]
        p = Program(rules, Mode.LP)
        sigma = rand_ground_subst(rng, term_vars(rules[0].lhs))
        s = apply(sigma, rules[0].lhs)
        word, t = random_chain(rng, p, s, Semantics.LP_RESTRICTED)
        if not word:
            continue
        theta = rand_ground_subst(rng, term_vars(s) | term_vars(t))
        results = run_word(p, apply(theta, s), word, Semantics.LP_RESTRICTED)
        assert apply(theta, t) in results, "restricted words not closed under subst"
        restricted_cases += 1
        # every restricted chain lifts to a narrowing chain on goals
        goals = run_word(p, (s,), word, Semantics.LP_NARROW)
        assert (t,) in goals, "restricted chain failed to lift to narrowing"
        lifted_cases += 1

    # the negative case: narrowing itself is not closed under substitutions
    r = Rule("r1", term("f(x,one)"), (term("f(one,x)"),))
    p = Program([r], Mode.LP)
    s = term("f(zero,y)")
    theta = Substitution({term("x"): term("zero"), term("y"): term("zero")})
    before = successors(p, (s,), Semantics.LP_NARROW)
    after = successors(p, (apply(theta, s),), Semantics.LP_NARROW)
    negative_ok = bool(before) and not after
    elapsed = time.monotonic() - t0
    ok = (
        trs_cases == 500
        and restricted_cases == 500
        and lifted_cases == 500
        and negative_ok
        and elapsed < 60.0
    )
    check(
        8,
        ok,
        f"closure: 500 cases per semantics + exact negative case ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 9. Unification against a brute-force ground oracle


def test_criterion_09_mgu_oracle():
    t0 = time.monotonic()
    f = Symbol("f", 2)
    a = App(Symbol("a", 0))
    x, y = Var(0, "x"), Var(1, "y")

    def build(depth):
        out = [a, x, y]
        if depth > 0:
            inner = build(depth - 1)
            out += [App(f, (l, r)) for l in inner for r in inner]
        return out

    universe = build(2)  # 147 terms of depth <= 2
    assert len(universe) == 147

    def ground(depth):
        out = [a]
        if depth > 0:
            inner = ground(depth - 1)
            out += [App(f, (l, r)) for l in inner for r in inner]
        return out

    grounds = ground(3)  # 26 ground terms of depth <= 3
    assert len(grounds) == 26
    subs = [
        Substitution({x: gx, y: gy}) for gx in grounds for gy in grounds
    ]

    intern: dict = {}
    M = np.empty((len(universe), len(subs)), dtype=np.int32)
    for i, t in enumerate(universe):
        for j, s in enumerate(subs):
            g = apply(s, t)
            M[i, j] = intern.setdefault(g, len(intern))

    # oracle: a pair is unifiable iff some ground assignment equalizes it
    unifiable = (M[:, None, :] == M[None, :, :]).any(axis=-1)

    mismatches = 0
    generality_failures = 0
    bound_violations = 0
    for i, s in enumerate(universe):
        for j, t in enumerate(universe):
            theta = mgu(s, t)
            if (theta is not None) != bool(unifiable[i, j]):
                mismatches += 1
                continue
            if theta is None:
                continue
            # the oracle's ground-depth bound must actually cover theta
            grounded = {
                v: apply(Substitution({x: a, y: a}), theta.get(v)) for v in (x, y)
            }
            if any(g not in intern and g not in grounds for g in grounded.values()):
                if any(gt not in grounds for gt in grounded.values()):
                    bound_violations += 1
            # generality: every ground unifier factors through theta
            witness_cols = np.flatnonzero(M[i] == M[j])[:3]
            for col in witness_cols:
                sg = subs[col]
                if any(
                    apply(sg, theta.get(v)) != apply(sg, v) for v in (x, y)
                ):
                    generality_failures += 1
                    break
    elapsed = time.monotonic() - t0
    ok = (
        mismatches == 0
        and generality_failures == 0
        and bound_violations == 0
        and elapsed < 120.0
    )
    check(
        9,
        ok,
        f"mgu vs ground oracle on {len(universe) ** 2} pairs: "
        f"{mismatches} mismatches, {generality_failures} generality failures "
        f"({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 10. Soundness gate on a mixed corpus


NONTERMINATING_CORPUS = [
    ("trs", LOOPING_TRS),
    ("trs", COUNTING_TRS),
    ("trs", SWAPPING_TRS),
    ("trs", "(VAR x y)(RULES f(s(x),y) -> f(x,s(y)))"),  # terminating, still golden
    ("lp", LOOPING_LP),
    ("lp", "b(c) :- d(c).\nb(d(X)) :- d(b(X)).\na(d(X)) :- a(b(b(X)))."),
    (
        "trs",
        "(VAR x y)(RULES f(x,g(y,0,y),x) -> h(x,y)"
        " h(x,y) -> f(g(x,0,x),y,g(x,0,x))"
        " f(x,0,x) -> f(g(x,0,x),g(x,1,x),g(x,0,x)) 1 -> 0)",
    ),
    ("trs", "(VAR x)(RULES f(x) -> g(f(h(x))))"),
    ("trs", "(VAR x)(RULES f(f(x)) -> x f(x) -> f(f(x)))"),
    ("lp", "q(s(X)) :- q(s(s(X)))."),
]

TERMINATING_MUTANTS = [
    ("trs", "(VAR x y)(RULES plus(0,x) -> x plus(s(x),y) -> s(plus(x,y)))"),
    ("trs", "(VAR x y)(RULES f(x,s(y)) -> f(s(x),y))"),
    ("trs", "(VAR x)(RULES f(x) -> g(h(x,1),x) 1 -> 0)"),
    ("trs", "(VAR x)(RULES f(f(x)) -> x)"),
    ("trs", "(VAR x y)(RULES f(c,a(x),y) -> f(c,x,a(y)))"),
    ("lp", "p(f(X,0)) :- q(X).\nq(a)."),
    ("lp", "r(a) :- s(a).\ns(a)."),
    ("lp", "b(d(X)) :- d(b(X))."),
    ("trs", "(VAR x)(RULES g(s(x)) -> g(x) g(0) -> 0)"),
    ("trs", "(VAR x y)(RULES minus(x,0) -> x minus(s(x),s(y)) -> minus(x,y))"),
]


def test_criterion_10_soundness_gate():
    t0 = time.monotonic()
    bad_no = 0
    mutant_answers = []
    for kind, text in NONTERMINATING_CORPUS + TERMINATING_MUTANTS:
        program = parse_trs(text) if kind == "trs" else parse_lp(text)
        v = analyze(program)
        if v.answer == "NO":
            if not (
                v.simulated_prefix is not None
                and len(v.simulated_prefix.steps) >= 1
                and verify_chain(v.used_program, v.simulated_prefix)
            ):
                bad_no += 1
        if (kind, text) in TERMINATING_MUTANTS:
            mutant_answers.append(v.answer)
    elapsed = time.monotonic() - t0
    ok = bad_no == 0 and all(ans == "MAYBE" for ans in mutant_answers)
    check(
        10,
        ok,
        f"soundness gate: {bad_no} unverified NOs, "
        f"{mutant_answers.count('MAYBE')}/10 mutants MAYBE ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 11. Overlap-closure divergence


def test_criterion_11_overlap_closure_divergence():
    t0 = time.monotonic()
    p = trs("f(s(x),y) -> f(x,s(y))")
    s = Symbol("s", 1)

    def tower(n, base):
        for _ in range(n):
            base = App(s, (base,))
        return base

    x, y = term("x"), term("y")
    f = p.rules[0].lhs.symbol
    ok = True
    for k in range(5):
        oc = overlap_closure(p, k)
        want_lhs = App(f, (tower(k + 1, x), y))
        want_rhs = (App(f, (x, tower(k + 1, y))),)
        if not any(rule_variant(u.rule, want_lhs, want_rhs) for u in oc):
            ok = False
    elapsed = time.monotonic() - t0
    check(11, ok, f"overlap closure contains the k+1 tower for k <= 4 ({elapsed:.1f}s)")
