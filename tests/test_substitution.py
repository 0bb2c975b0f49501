import random

from hypothesis import given, settings, strategies as st

from conftest import random_term, term
from nonterm.substitution import (
    EMPTY_SUBST,
    Substitution,
    apply,
    compose,
    match,
    mgu,
    renaming_apart,
)
from nonterm.terms import App, Var, canonical, render, term_vars


def subst(**kw):
    mapping = {}
    for name, text in kw.items():
        v = term(name)
        assert isinstance(v, Var)
        mapping[v] = term(text)
    return Substitution(mapping)


def test_identity_bindings_dropped():
    x = term("x")
    assert len(Substitution({x: x})) == 0


def test_apply_term_goal_and_repr():
    theta = subst(x="g(a)")
    assert render(apply(theta, term("f(x,y)"))) == "f(g(a),y)"
    assert render(apply(theta, (term("x"), term("b")))) == "<g(a),b>"
    assert repr(theta) == "{x -> g(a)}"


def test_compose():
    theta = subst(x="g(y)")
    sigma = subst(y="a")
    comp = compose(theta, sigma)
    t = term("f(x,y)")
    assert apply(comp, t) == apply(sigma, apply(theta, t))


def test_match_basic():
    theta = match(term("f(x,y)"), term("f(g(a),b)"))
    assert theta is not None
    assert render(theta.get(term("x"))) == "g(a)"
    assert match(term("f(x,x)"), term("f(a,b)")) is None
    assert match(term("a"), term("b")) is None


def test_match_goal_elementwise():
    g1 = (term("x"), term("g(y)"))
    g2 = (term("a"), term("g(b)"))
    assert match(g1, g2) is not None
    assert match(g1, g2[:1]) is None


def test_mgu_simple():
    theta = mgu(term("f(x,a)"), term("f(b,y)"))
    assert render(apply(theta, term("f(x,a)"))) == "f(b,a)"


def test_mgu_occurs_check():
    assert mgu(term("x"), term("g(x)")) is None


def test_mgu_clash():
    assert mgu(term("f(a,x)"), term("f(b,x)")) is None


def test_mgu_variable_orientation():
    # x has a smaller interned id than y, so x is the bound one
    theta = mgu(term("x"), term("y"))
    assert theta.domain() == {term("x")}


def test_mgu_idempotent_solved_form():
    s = term("f(x,g(y))")
    t = term("f(g(y),x)")
    theta = mgu(s, t)
    assert theta is not None
    for v in theta.domain():
        assert not term_vars(theta.get(v)) & theta.domain()
    assert apply(theta, s) == apply(theta, t)


def test_renaming_apart_deterministic():
    vs = term_vars(term("f(x,y)"))
    avoid = term_vars(term("g(z)"))
    top = max(v.id for v in avoid)
    gamma1 = renaming_apart(vs, top)
    gamma2 = renaming_apart(vs, top)
    assert gamma1 == gamma2
    image = {gamma1.get(v) for v in vs}
    assert not image & (vs | avoid)
    assert len(image) == len(vs) and all(isinstance(v, Var) for v in image)


@st.composite
def terms(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    depth = draw(st.integers(0, 3))
    return random_term(random.Random(seed), depth)


@given(terms(), terms())
@settings(max_examples=300, deadline=None)
def test_mgu_is_a_unifier(s, t):
    theta = mgu(s, t)
    if theta is not None:
        assert apply(theta, s) == apply(theta, t)


@given(terms(), terms())
@settings(max_examples=300, deadline=None)
def test_mgu_symmetric_up_to_renaming(s, t):
    left, right = mgu(s, t), mgu(t, s)
    assert (left is None) == (right is None)
    if left is not None:
        assert canonical(apply(left, s)) == canonical(apply(right, s))


@given(terms(), terms())
@settings(max_examples=300, deadline=None)
def test_match_implies_unifiable(s, t):
    theta = match(s, t)
    if theta is not None and not term_vars(t) & term_vars(s):
        assert mgu(s, t) is not None


@given(terms())
@settings(max_examples=100, deadline=None)
def test_empty_subst_is_identity(t):
    assert apply(EMPTY_SUBST, t) == t


def test_renaming_an_anonymous_variable_keeps_a_variable_name():
    gamma = renaming_apart([Var(0, "_"), Var(1, "X_2"), Var(2, "12")], -1)
    assert [gamma.get(Var(i)).name for i in range(3)] == ["_3", "X4", "_5"]
