"""Properties of the term core: ``App`` equality, hash and size caches,
``apply``'s sharing of the subterms a substitution leaves unchanged, the
unfolding's instance and spine walks at arities 0 to 4, the recursion
depth the walks leave to ``analyze``, and the immutable leaf classes
``Var`` and ``Symbol``."""

import copy
import os
import pickle
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nonterm
from conftest import GEN_VARS, random_term, random_wide_term
from nonterm.errors import ResourceLimitError
from nonterm.substitution import Substitution, apply
from nonterm.terms import (
    App,
    HOLE,
    Symbol,
    Var,
    check_size,
    iter_positions,
    replace_at,
    term_size,
    term_vars,
)
from nonterm.unfolding import _instance, _spine


def reference_apply(theta, x):
    """The structural ``apply`` the sharing one replaced: it rebuilds every
    node with arguments."""
    if isinstance(x, tuple):
        return tuple(reference_apply(theta, t) for t in x)
    if isinstance(x, Var):
        return theta.get(x)
    if not x.args:
        return x
    return App(x.symbol, tuple(reference_apply(theta, a) for a in x.args))


@dataclass(frozen=True)
class FrozenApp:
    """The frozen dataclass ``App`` once was, for equality and hash."""

    symbol: Symbol
    args: tuple = ()


def frozen(t):
    if isinstance(t, Var):
        return t
    return FrozenApp(t.symbol, tuple(frozen(a) for a in t.args))


def rebuilt(t):
    """A copy of ``t`` that shares no ``App`` node with it."""
    if isinstance(t, Var):
        return Var(t.id, t.name)
    return App(t.symbol, tuple(rebuilt(a) for a in t.args))


def nodes(t):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from nodes(a)


@st.composite
def terms(draw, depth=4):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_term(random.Random(seed), draw(st.integers(0, depth)))


@st.composite
def substitutions(draw):
    domain = draw(st.lists(st.sampled_from(GEN_VARS), unique=True))
    return Substitution({v: draw(terms(depth=2)) for v in domain})


@given(substitutions(), terms())
@settings(max_examples=300, deadline=None)
def test_apply_equals_the_structural_apply(theta, t):
    got = apply(theta, t)
    assert got == reference_apply(theta, t)
    assert frozen(got) == frozen(reference_apply(theta, t))
    assert repr(got) == repr(reference_apply(theta, t))


@given(substitutions(), st.lists(terms(), max_size=3))
@settings(max_examples=200, deadline=None)
def test_apply_on_goals_and_contexts(theta, goal):
    goal = tuple(goal)
    assert apply(theta, goal) == reference_apply(theta, goal)
    if goal:
        ctx = App(Symbol("k", len(goal) + 1), goal + (App(HOLE),))
        assert apply(theta, ctx) == reference_apply(theta, ctx)


@given(substitutions(), terms())
@settings(max_examples=300, deadline=None)
def test_apply_shares_every_subterm_theta_leaves_unchanged(theta, t):
    domain = theta.domain()
    if not domain & term_vars(t):
        assert apply(theta, t) is t
        assert apply(theta, (t,))[0] is t

    def walk(before, after):
        if not domain & term_vars(before):
            assert after is before
        elif isinstance(before, App):
            for a, b in zip(before.args, after.args):
                walk(a, b)

    walk(t, apply(theta, t))


@given(terms())
@settings(max_examples=100, deadline=None)
def test_empty_substitution_returns_its_input(t):
    assert apply(Substitution(), t) is t
    goal = (t, t)
    assert apply(Substitution(), goal) is goal


# The walks of ``apply``, of the unfolding's instance and of its spine
# spell out arities 1 and 2 and take leaf arguments in line; these draw
# arities 0 to 4, so the general path is walked too.
@st.composite
def wide_terms(draw, depth=4):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_wide_term(random.Random(seed), draw(st.integers(0, depth)))


@st.composite
def wide_substitutions(draw):
    domain = draw(st.lists(st.sampled_from(GEN_VARS), unique=True))
    return Substitution({v: draw(wide_terms(depth=2)) for v in domain})


def assert_shares_what_theta_leaves(theta, before, after):
    """Every subterm of ``before`` with no variable ``theta`` binds is
    the same object at its place in ``after``."""
    if not theta.domain() & term_vars(before):
        assert after is before
    elif isinstance(before, App):
        for a, b in zip(before.args, after.args):
            assert_shares_what_theta_leaves(theta, a, b)


def assert_built_from(table, t, kept):
    """Every node of ``t`` not among the objects ``kept`` is the table's
    node for its symbol and argument objects."""
    if isinstance(t, App) and id(t) not in kept:
        assert table[(id(t.symbol), *map(id, t.args))] is t
        for a in t.args:
            assert_built_from(table, a, kept)


@given(wide_substitutions(), wide_terms())
@settings(max_examples=300, deadline=None)
def test_apply_at_every_arity_equals_the_structural_apply_and_shares(theta, t):
    got = apply(theta, t)
    assert frozen(got) == frozen(reference_apply(theta, t))
    assert_shares_what_theta_leaves(theta, t, got)


@given(wide_substitutions(), wide_terms())
@settings(max_examples=300, deadline=None)
def test_instance_walk_at_every_arity_equals_apply_through_the_table(theta, t):
    table = {}
    got = _instance(t, theta._bindings.get, table)
    assert frozen(got) == frozen(apply(theta, t))
    assert_shares_what_theta_leaves(theta, t, got)
    kept = {id(n) for s in (t, *theta.bindings.values()) for n in nodes(s)}
    assert_built_from(table, got, kept)
    assert all(key == (id(n.symbol), *map(id, n.args)) for key, n in table.items())
    # built again from the same objects, the instance is the same object
    assert _instance(t, theta._bindings.get, table) is got


@given(wide_terms(), wide_terms(depth=2))
@settings(max_examples=300, deadline=None)
def test_spine_at_every_arity_and_position_equals_replace_at(t, u):
    table = {}
    for p in iter_positions(t):
        got = _spine(t, p, u, table)
        assert frozen(got) == frozen(replace_at(t, p, u))
        assert_built_from(table, got, {id(n) for s in (t, u) for n in nodes(s)})
        assert _spine(t, p, u, table) is got


@given(terms(), terms())
@settings(max_examples=300, deadline=None)
def test_app_equality_and_hash_are_structural(s, t):
    assert (s == t) == (frozen(s) == frozen(t))
    assert (s != t) == (frozen(s) != frozen(t))
    assert hash(s) == hash(frozen(s))
    copy_ = rebuilt(s)
    assert copy_ == s and hash(copy_) == hash(s)
    if s == t:
        assert hash(s) == hash(t)


@given(terms())
@settings(max_examples=100, deadline=None)
def test_app_is_never_equal_to_a_var(t):
    for node in nodes(t):
        if isinstance(node, App):
            for v in GEN_VARS:
                assert node != v and v != node
                assert not node == v


@given(st.integers(0, 3), st.integers(0, 4))
def test_wrong_arity_raises(arity, n):
    sym = Symbol("f", arity)
    args = tuple(GEN_VARS[0] for _ in range(n))
    if n == arity:
        assert App(sym, args).args == args
    else:
        with pytest.raises(ValueError):
            App(sym, args)


@given(terms())
@settings(max_examples=100, deadline=None)
def test_copies_and_pickles_are_equal_with_equal_hashes(t):
    hash(t)
    term_size(t)
    for other in (copy.deepcopy(t), copy.copy(t), pickle.loads(pickle.dumps(t))):
        assert other == t and hash(other) == hash(t)
        assert repr(other) == repr(t)
    for node in nodes(pickle.loads(pickle.dumps(t))):
        if isinstance(node, App):
            assert node._hash is None and node._size is None


def test_pickled_term_hashes_like_a_fresh_one_in_another_process():
    # str hashes differ between processes, so a pickled hash would be
    # wrong here and the set lookup would miss
    script = (
        "import pickle, sys\n"
        "from nonterm.terms import App, Symbol\n"
        "t = App(Symbol('f', 1), (App(Symbol('a', 0)),))\n"
        "hash(t)\n"
        "sys.stdout.buffer.write(pickle.dumps(t))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = str(Path(nonterm.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, check=True
    ).stdout
    t = pickle.loads(out)
    assert t in {App(Symbol("f", 1), (App(Symbol("a", 0)),))}


def test_term_size_of_a_shared_tower_is_its_closed_form():
    # c2 = g([],0,[]) doubles the tree at every level: 64 levels over the
    # base 0 hold 3 * 2**64 - 2 nodes, but only 65 distinct App nodes
    g, zero = Symbol("g", 3), App(Symbol("0", 0))
    tower = zero
    for _ in range(64):
        tower = App(g, (tower, zero, tower))
    # a failing assert must not print the tower, so compare plain ints
    size = term_size(tower)
    assert size == 3 * 2**64 - 2
    with pytest.raises(ResourceLimitError, match="term exceeds 1000000 nodes"):
        check_size(tower)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_repr_of_a_shared_tower_names_its_node_count():
    # the tower of the test above: rendering it in full would never
    # finish, so its repr is taken in a child process with a time and
    # memory limit, and a regression fails here instead of exhausting
    # the machine
    script = (
        "from nonterm.terms import App, Symbol\n"
        "g, zero = Symbol('g', 3), App(Symbol('0', 0))\n"
        "tower = zero\n"
        "for _ in range(64):\n"
        "    tower = App(g, (tower, zero, tower))\n"
        "print(repr(tower))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(nonterm.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        check=True,
        timeout=10,
        preexec_fn=_limit_memory,
    ).stdout
    assert out.decode() == f"<g(...): term of {3 * 2**64 - 2} nodes>\n"


def test_deep_towers_leave_analyze_room_to_answer():
    # the largest towers that answer, under Python 3.10 and 3.11, are
    # about 493 levels for this pair of rules and 123 for this clause,
    # over s/1 as over h/3; a walk that took one more frame per level
    # would halve them, and fail here, in a child process with a time
    # and memory limit
    script = (
        "from nonterm import analyze, parse_lp, parse_trs\n"
        "for up, down in (('s(', ')'), ('h(', ',a,a)')):\n"
        "    t = up * 480 + 'x' + down * 480\n"
        "    print(analyze(parse_trs(f'(VAR x)(RULES f({t}) -> g({t}) g(x) -> f(x))')).answer)\n"
        "    a = up * 115 + 'X' + down * 115\n"
        "    print(analyze(parse_lp(f'p(X) :- p({a}).')).answer)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(nonterm.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        timeout=60,
        preexec_fn=_limit_memory,
    )
    assert out.returncode == 0, out.stderr.decode()[-2000:]
    assert out.stdout.decode().split() == ["NO", "MAYBE", "NO", "MAYBE"]


def test_repr_below_the_size_cap_renders_the_term():
    f, a = Symbol("f", 2), App(Symbol("a", 0))
    assert repr(App(f, (a, Var(0, "x")))) == "f(a,x)"


def test_term_size_counts_every_occurrence():
    f, a = Symbol("f", 2), App(Symbol("a", 0))
    x = Var(0)
    t = App(f, (App(f, (x, a)), App(f, (x, a))))
    assert term_size(t) == 7
    assert term_size(t) == 7  # cached


# ---------------------------------------------------------------------------
# The leaf classes: Var and Symbol hash once, as the frozen dataclasses
# they replaced did, and cannot be changed.

names = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=4)


@given(st.integers(-5, 10**6), names, st.integers(0, 5))
def test_leaf_hashes_equal_the_dataclass_hashes(i, name, arity):
    assert hash(Var(i, name)) == hash((i,))
    assert hash(Var(i)) == hash((i,))
    assert hash(Symbol(name, arity)) == hash((name, arity))


@given(st.integers(0, 50), names, names)
def test_var_equality_ignores_names(i, a, b):
    assert Var(i, a) == Var(i, b) and not Var(i, a) != Var(i, b)
    assert Var(i, a) != Var(i + 1, a) and not Var(i, a) == Var(i + 1, a)
    assert len({Var(i, a), Var(i, b)}) == 1
    assert Var(i, a).name == a and Var(i).name == f"x{i}"


@given(names, st.integers(0, 3))
def test_symbol_equality_is_by_name_and_arity(name, arity):
    assert Symbol(name, arity) == Symbol(name, arity)
    assert Symbol(name, arity) != Symbol(name, arity + 1)
    assert Symbol(name, arity) != Symbol(name + "'", arity)


@given(terms())
@settings(max_examples=100, deadline=None)
def test_leaves_are_never_equal_to_an_app_or_to_each_other(t):
    sym = Symbol("a", 0)
    for node in nodes(t):
        if isinstance(node, App):
            for leaf in (*GEN_VARS, node.symbol):
                assert leaf != node and node != leaf
                assert not leaf == node and not node == leaf
    assert Var(0, "a") != sym and sym != Var(0, "a")
    # another class gets NotImplemented, never an answer of its own
    assert Var(0).__eq__(App(sym)) is NotImplemented
    assert sym.__eq__(App(sym)) is NotImplemented
    assert Var(0) != (0,) and sym != ("a", 0)


@pytest.mark.parametrize(
    "leaf, field",
    [(Var(0, "x"), f) for f in ("id", "name", "_hash")]
    + [(Symbol("f", 1), f) for f in ("name", "arity", "_hash")],
)
def test_assigning_to_a_leaf_raises(leaf, field):
    before = (repr(leaf), hash(leaf))
    with pytest.raises(AttributeError):
        setattr(leaf, field, 7)
    with pytest.raises(AttributeError):
        delattr(leaf, field)
    with pytest.raises(AttributeError):
        leaf.other = 7
    assert (repr(leaf), hash(leaf)) == before


def test_invalid_symbols_raise():
    with pytest.raises(ValueError):
        Symbol("", 0)
    with pytest.raises(ValueError):
        Symbol("f", -1)


def test_pickled_leaves_hash_like_fresh_ones_in_another_process():
    # a Symbol's hash mixes in its name's str hash, which differs between
    # processes: an unpickled Symbol must hash its name again
    script = (
        "import pickle, sys\n"
        "from nonterm.terms import Symbol, Var\n"
        "leaves = (Symbol('f', 1), Var(3, 'y'))\n"
        "sys.stdout.buffer.write(pickle.dumps(leaves))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = str(Path(nonterm.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, check=True
    ).stdout
    sym, var = pickle.loads(out)
    assert sym in {Symbol("f", 1)} and hash(sym) == hash(("f", 1))
    assert var in {Var(3)} and var.name == "y" and hash(var) == hash((3,))
