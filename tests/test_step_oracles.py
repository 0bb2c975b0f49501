"""The parts of one prefix step against the forms they replaced.

``mgu`` instantiates a pending equation when it pops it and skips two
sides that are one object or one variable; ``term_vars`` fills one set;
a rule is renamed apart from the largest variable id in use, found by
``max_var_id``.  Each must give exactly what the earlier form gave: the
same bindings, bound the same way round, the same fresh ids and the same
display names.  The earlier forms are kept here as references.
"""

import random

from hypothesis import given, settings, strategies as st

from conftest import trs
from nonterm import AnalysisConfig, analyze, emit_certificate
from nonterm.rewriting import Rule, _resolution
from nonterm.substitution import Substitution, apply, mgu, renaming_apart
from nonterm.terms import App, Symbol, Var, max_var_id, subterms, term_vars
from nonterm.unfolding import (
    Unfolding,
    _clash,
    _joining,
    _renamed,
    overlap_closure,
    unfold_trs,
)


def reference_mgu(s, t):
    """The eager ``mgu``: each new binding is applied to every solved
    binding and every pending equation, and equal sides are skipped by
    structural comparison."""
    solved = {}
    stack = [(s, t)]

    def bind(v, u):
        if reference_occurs(v, u):
            return False
        one = Substitution({v: u})
        for w in list(solved):
            solved[w] = apply(one, solved[w])
        solved[v] = u
        for i, (a, b) in enumerate(stack):
            stack[i] = (apply(one, a), apply(one, b))
        return True

    while stack:
        a, b = stack.pop()
        if a == b:
            continue
        if isinstance(a, Var) and isinstance(b, Var):
            v, u = (a, b) if a.id < b.id else (b, a)
            if not bind(v, u):
                return None
        elif isinstance(a, Var):
            if not bind(a, b):
                return None
        elif isinstance(b, Var):
            if not bind(b, a):
                return None
        else:
            if a.symbol != b.symbol:
                return None
            stack.extend(zip(a.args, b.args))
    return Substitution(solved)


def reference_occurs(v, t):
    if isinstance(t, Var):
        return t == v
    return any(reference_occurs(v, a) for a in t.args)


def reference_term_vars(t):
    """``term_vars`` as one set per node, joined by union."""
    if isinstance(t, tuple):
        out = set()
        for s in t:
            out |= reference_term_vars(s)
        return out
    if isinstance(t, Var):
        return {t}
    out = set()
    for a in t.args:
        out |= reference_term_vars(a)
    return out


def reference_rename_apart(rule, avoid):
    """``rename_apart`` from the set of variables to avoid: fresh ids
    just above every id of ``avoid`` and of the rule."""
    vs = sorted(reference_term_vars((rule.lhs, *rule.rhs)), key=lambda v: v.id)
    next_id = max({v.id for v in avoid} | {v.id for v in vs}, default=-1) + 1
    out = {}
    for v in vs:
        out[v] = Var(next_id, f"{v.name.rstrip('0123456789_') or '_'}{next_id}")
        next_id += 1
    return rule.rename(Substitution(out))


def rename_apart(rule, avoid):
    """A variant of ``rule`` whose variables are disjoint from ``avoid``:
    ``renaming_apart`` from the largest id in ``avoid``."""
    top = max((v.id for v in avoid), default=-1)
    return rule.rename(renaming_apart(rule.all_vars(), top))


def exact(theta):
    """A substitution as its bindings, every variable and symbol spelt
    out with its id or arity and its display name."""
    if theta is None:
        return None
    return sorted((v.id, v.name, spelt(t)) for v, t in theta._bindings.items())


def spelt(x):
    if isinstance(x, tuple):
        return tuple(map(spelt, x))
    if isinstance(x, Var):
        return ("var", x.id, x.name)
    return (x.symbol.name, x.symbol.arity, tuple(map(spelt, x.args)))


# Random terms over f/2, g/1, h/3, a, b and a few variables, each id
# with one display name, some of them digit- or underscore-suffixed.
F2, G1, H3 = Symbol("f", 2), Symbol("g", 1), Symbol("h", 3)
A0, B0 = Symbol("a", 0), Symbol("b", 0)
NAMES = ["x", "y1", "Z_2", "_", "w", "v12", "u_"]


def var(i):
    return Var(i, NAMES[i % len(NAMES)] if i < len(NAMES) else f"x{i}")


def random_term(rng, depth, nvars):
    if depth == 0 or rng.random() < 0.3:
        leaves = [var(i) for i in range(nvars)] + [App(A0), App(B0)]
        return rng.choice(leaves)
    sym = rng.choice([F2, G1, H3])
    return App(sym, tuple(random_term(rng, depth - 1, nvars) for _ in range(sym.arity)))


def variable_chain(rng, n):
    """Two h-spines of variables whose equations chain variables into
    each other: unified, every binding is variable to variable."""
    ids = list(range(n))
    rng.shuffle(ids)
    left = [var(i) for i in ids]
    right = [var(i) for i in ids[1:] + ids[:1]]
    rng.shuffle(right)
    return spine(left), spine(right)


def spine(xs):
    t = App(A0)
    for x in xs:
        t = App(H3, (x, t, x))
    return t


def occurs_failure(rng, nvars):
    """An equation that fails only at the occurs check: ``x = C[x]``
    reached through an argument after shared bindings."""
    x = var(rng.randrange(nvars))
    body = random_term(rng, 2, nvars)
    return App(F2, (x, body)), App(F2, (App(G1, (x,)), body))


def pair(rng):
    kind = rng.randrange(4)
    nvars = rng.randrange(1, 6)
    if kind == 0:
        return variable_chain(rng, rng.randrange(2, 8))
    if kind == 1:
        return occurs_failure(rng, nvars)
    s = random_term(rng, rng.randrange(0, 5), nvars)
    if kind == 2:
        # an instance of s, so the two often unify
        theta = Substitution({var(i): random_term(rng, 2, nvars) for i in range(nvars)})
        return s, apply(theta, random_term(rng, 1, nvars) if rng.random() < 0.2 else s)
    return s, random_term(rng, rng.randrange(0, 5), nvars)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_mgu_matches_the_eager_reference(seed):
    s, t = pair(random.Random(seed))
    for a, b in ((s, t), (t, s)):
        assert exact(mgu(a, b)) == exact(reference_mgu(a, b))


def test_the_random_pairs_reach_every_outcome():
    # clashes, occurs-check failures, variable-only unifiers and others
    outcomes = set()
    rng = random.Random(7)
    for _ in range(2000):
        s, t = pair(rng)
        theta = reference_mgu(s, t)
        if theta is None:
            outcomes.add("clash" if _clash(s, t) else "occurs")
        elif theta._bindings and all(isinstance(u, Var) for u in theta._bindings.values()):
            outcomes.add("variables")
        else:
            outcomes.add("unifier")
    assert outcomes == {"clash", "occurs", "variables", "unifier"}


def test_mgu_skips_equal_sides_without_comparing_them(monkeypatch):
    # the two sides are one object, or hold one variable, at every level
    x = var(0)
    t = App(F2, (x, App(G1, (var(1),))))
    u = App(F2, (var(2), App(G1, (x,))))
    expected = exact(reference_mgu(t, u))
    compared = []
    monkeypatch.setattr(App, "__eq__", lambda a, b: compared.append((a, b)) or a is b)
    monkeypatch.setattr(Var, "__eq__", lambda a, b: compared.append((a, b)) or a is b)
    assert len(mgu(t, t)) == 0
    assert len(mgu(App(G1, (x,)), App(G1, (Var(0, "other"),)))) == 0
    assert exact(mgu(t, u)) == expected
    assert compared == []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_term_vars_and_max_var_id_match_the_reference(seed):
    rng = random.Random(seed)
    nvars = rng.randrange(0, 8)
    goal = tuple(random_term(rng, rng.randrange(0, 5), nvars) for _ in range(rng.randrange(0, 4)))
    for x in (goal, *goal):
        expected = reference_term_vars(x)
        assert term_vars(x) == expected
        assert {(v.id, v.name) for v in term_vars(x)} == {(v.id, v.name) for v in expected}
        assert max_var_id(x) == max((v.id for v in expected), default=-1)


def random_rule(rng, nvars):
    lhs = random_term(rng, rng.randrange(1, 4), nvars)
    if isinstance(lhs, Var):
        lhs = App(G1, (lhs,))
    rhs = tuple(random_term(rng, rng.randrange(0, 4), nvars) for _ in range(rng.randrange(0, 3)))
    return Rule("r", lhs, rhs)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_renaming_and_resolution_match_the_reference(seed):
    rng = random.Random(seed)
    rule = random_rule(rng, rng.randrange(0, 6))
    # the goal's variables run above the rule's, or below, or overlap
    shift = rng.choice([0, 3, 9])
    goal = tuple(
        apply(Substitution({var(i): var(i + shift) for i in range(6)}), random_term(rng, 3, 6))
        for _ in range(rng.randrange(1, 4))
    )
    expected = reference_rename_apart(rule, reference_term_vars(goal))
    assert spelt(rename_apart(rule, term_vars(goal)).lhs) == spelt(expected.lhs)
    fresh = rule.rename(renaming_apart(rule.all_vars(), max_var_id(goal)))
    assert (spelt(fresh.lhs), spelt(fresh.rhs)) == (spelt(expected.lhs), spelt(expected.rhs))
    for i in range(1, len(goal) + 1):
        theta = reference_mgu(goal[i - 1], expected.lhs)
        resolved = _resolution(rule, goal, i)
        if theta is None:
            assert resolved is None
        else:
            resolvent = goal[: i - 1] + expected.rhs + goal[i:]
            assert exact(resolved[0]) == exact(theta)
            assert spelt(resolved[1]) == spelt(resolvent)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_unfolding_renamings_match_the_reference(seed):
    rng = random.Random(seed)
    rule, host = random_rule(rng, 4), random_rule(rng, 7)
    theta = Substitution({var(i): random_term(rng, 2, 9) for i in range(rng.randrange(0, 4))})
    avoid = reference_term_vars((host.lhs, *host.rhs))
    top = max((v.id for v in avoid), default=-1)
    expected = reference_rename_apart(rule, avoid)
    got = _renamed(rule, top, Unfolding())
    assert (spelt(got.lhs), spelt(got.rhs)) == (spelt(expected.lhs), spelt(expected.rhs))
    in_use = reference_term_vars((host.lhs, *host.rhs, *theta._bindings.values()))
    expected = reference_rename_apart(rule, in_use)
    got = _joining(rule, host, theta, Unfolding())
    assert (spelt(got.lhs), spelt(got.rhs)) == (spelt(expected.lhs), spelt(expected.rhs))


# A renamed variable never takes the name of a symbol of the program.
# Before, ``x`` renamed to id 2 printed as ``x2``, the name of a constant.
X2 = "f(s(x)) -> g(x2, x)  g(y, x) -> f(s(s(x)))"


def names_in(pool):
    """Display names of the variables of every pooled rule and unifier."""
    out = set()
    for u in pool:
        out |= {v.name for v in u.rule.all_vars()}
        for v, t in u.provenance.unifier.bindings.items():
            out |= {v.name} | {w.name for w in term_vars(t)}
    return out


def symbol_names(p):
    return {
        t.symbol.name
        for r in p.rules
        for side in (r.lhs, *r.rhs)
        for _, t in subterms(side)
        if isinstance(t, App)
    }


def test_renamed_variables_take_no_symbol_name():
    p = trs(X2, variables="x y")
    cert = emit_certificate(analyze(p, AnalysisConfig()))
    assert "u1: f#(s(x_2)) -> <f#(s(s(x_2)))>" in cert
    assert "x2" not in cert.replace("g(x2", "")
    for program in (p, trs("f(x2, x) -> f(x3, s(x))  x3 -> x2", variables="x")):
        for pool in (unfold_trs(program, 3), overlap_closure(program, 2)):
            shown = names_in(pool)
            assert shown and not shown & symbol_names(program), shown


def test_a_taken_name_gets_underscores_until_free():
    vs = [Var(0, "x"), Var(1, "y")]
    gamma = renaming_apart(vs, 1, {"x2", "x_2", "y4"})
    assert [gamma.get(v).name for v in vs] == ["x__2", "y3"]
