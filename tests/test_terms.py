import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import A0, B0, F2, G1, GEN_VARS, random_term, term
from nonterm.errors import HoleMismatchError, InvalidPositionError
from nonterm.terms import (
    App,
    HOLE,
    HOLE2,
    ROOT,
    Symbol,
    Var,
    canonical,
    hole_positions,
    is_variant,
    iter_positions,
    plug,
    plug2,
    render,
    render_position,
    renderer,
    replace_at,
    subterm_at,
    term_size,
    term_vars,
)


def test_symbol_arity_checked():
    f = Symbol("f", 2)
    with pytest.raises(ValueError):
        App(f, (Var(0),))


def test_var_equality_ignores_name():
    assert Var(3, "x") == Var(3, "y")
    assert Var(3) != Var(4)


def test_positions():
    t = term("f(x,g(a))")
    assert list(iter_positions(t)) == [ROOT, (1,), (2,), (2, 1)]


def test_subterm_and_replace():
    t = term("f(x,g(a))")
    assert render(subterm_at(t, (2, 1))) == "a"
    assert render(replace_at(t, (2,), term("b"))) == "f(x,b)"
    with pytest.raises(InvalidPositionError):
        subterm_at(t, (3,))
    with pytest.raises(InvalidPositionError):
        replace_at(t, (1, 1), t)


def test_term_vars_and_size():
    t = term("f(x,g(y))")
    assert {v.name for v in term_vars(t)} == {"x", "y"}
    assert term_size(t) == 4


def test_plug_and_power():
    s = Symbol("s", 1)
    c = App(s, (App(HOLE),))
    zero = term("a")
    assert render(plug(c, zero)) == "s(a)"
    assert render(plug(App(HOLE), zero)) == "a"


def test_two_hole_context():
    f = Symbol("f", 2)
    c = App(f, (App(HOLE), App(HOLE2)))
    assert hole_positions(c) and hole_positions(c, HOLE2)
    a, b = term("a"), term("b")
    out = plug2(c, a, b)
    assert render(out) == "f(a,b)"
    assert out.args[0] is a and out.args[1] is b  # the plugged terms are not walked
    with pytest.raises(HoleMismatchError, match="two-hole context requires plug2"):
        plug(c, term("a"))
    with pytest.raises(HoleMismatchError, match="plug2 requires a two-hole context"):
        plug2(App(HOLE), term("a"), term("b"))
    with pytest.raises(HoleMismatchError, match="context has no hole"):
        plug(term("a"), term("b"))


def test_hole_positions():
    f = Symbol("f", 2)
    c = App(f, (App(HOLE), App(HOLE2)))
    assert hole_positions(c) == [(1,)]
    assert hole_positions(c, HOLE2) == [(2,)]


def test_canonical_variants():
    s = term("f(x,g(y))")
    t = term("f(y,g(z))")
    assert is_variant(s, t)
    assert canonical(s) == canonical(t)
    assert not is_variant(s, term("f(x,g(x))"))


def test_render_position():
    assert render_position(ROOT) == "eps"
    assert render_position((1, 2, 1)) == "1.2.1"


def naive_render(x):
    """The tree walk the renderer must agree with: every occurrence of a
    subterm rendered anew."""
    if isinstance(x, tuple):
        return "<" + ",".join(map(naive_render, x)) + ">"
    if isinstance(x, Var):
        return x.name
    if not x.args:
        return x.symbol.name
    return x.symbol.name + "(" + ",".join(map(naive_render, x.args)) + ")"


@st.composite
def shared_terms(draw):
    """A term or a goal built bottom up from the objects built before it,
    so subterm objects recur; the leaves include two equal variables with
    different names."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    built = [*GEN_VARS, Var(0, "u"), App(A0), App(B0), random_term(rng, 2)]
    for _ in range(rng.randint(0, 12)):
        sym = rng.choice([F2, G1])
        built.append(App(sym, tuple(rng.choice(built) for _ in range(sym.arity))))
    if draw(st.booleans()):
        return built[-1]
    return tuple(rng.choice(built) for _ in range(rng.randint(0, 3)))


@given(st.lists(shared_terms(), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_render_matches_the_tree_walk(xs):
    want = [naive_render(x) for x in xs]
    assert [render(x) for x in xs] == want
    show = renderer()  # one memo over all of them
    assert [show(x) for x in xs] == want


def test_render_keys_by_identity_not_value():
    x, y = Var(0, "x"), Var(0, "y")
    assert x == y
    assert render(App(F2, (x, y))) == "f(x,y)"
    gx, gy = App(G1, (x,)), App(G1, (y,))
    assert gx == gy
    assert render(App(F2, (gx, gy))) == "f(g(x),g(y))"


def test_one_renderer_over_many_temporaries():
    # each term dies before the next is built, so CPython hands its id to
    # the next one; a memo that did not hold its keys would answer stale
    show = renderer()
    for i in range(2000):
        assert show(App(G1, (App(G1, (Var(i, f"v{i}"),)),))) == f"g(g(v{i}))"


def test_render_shared_tower():
    g = Symbol("g", 2)
    t, want = App(A0), "a"
    for _ in range(20):
        t, want = App(g, (t, t)), f"g({want},{want})"
    assert term_size(t) == 2**21 - 1
    assert render(t) == want
