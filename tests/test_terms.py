import pytest

from conftest import term
from nonterm.errors import HoleMismatchError, InvalidPositionError
from nonterm.terms import (
    App,
    Context,
    HOLE,
    HOLE2,
    ROOT,
    Signature,
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
    replace_at,
    subterm_at,
    term_size,
    term_vars,
)


def test_symbol_arity_checked():
    f = Symbol("f", 2)
    with pytest.raises(ValueError):
        App(f, (Var(0),))


def test_signature_rejects_holes_and_arity_clash():
    sig = Signature()
    sig.add(Symbol("f", 2))
    with pytest.raises(ValueError):
        sig.add(Symbol("f", 1))
    with pytest.raises(ValueError):
        sig.add(HOLE)
    with pytest.raises(ValueError):
        sig.add(HOLE2)


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
    c = Context(App(s, (App(HOLE),)))
    zero = term("a")
    assert render(plug(c, zero)) == "s(a)"
    assert render(plug(Context(App(HOLE)), zero)) == "a"


def test_two_hole_context():
    f = Symbol("f", 2)
    c = Context(App(f, (App(HOLE), App(HOLE2))))
    assert c.is_two_hole
    a, b = term("a"), term("b")
    out = plug2(c, a, b)
    assert render(out) == "f(a,b)"
    assert out.args[0] is a and out.args[1] is b  # the plugged terms are not walked
    with pytest.raises(HoleMismatchError):
        plug(c, term("a"))
    with pytest.raises(HoleMismatchError):
        plug2(Context(App(HOLE)), term("a"), term("b"))


def test_hole_positions():
    f = Symbol("f", 2)
    c = Context(App(f, (App(HOLE), App(HOLE2))))
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
