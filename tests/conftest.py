import random

import pytest

from nonterm.parsing import parse_lp, parse_trs
from nonterm.terms import App, Symbol, Var

DEFAULT_VARS = "x y z u v w"


def _fix_var_ids(t, names):
    """Re-intern variables positionally by declaration order, so equal
    names mean equal variables across separate term() calls."""
    if isinstance(t, Var):
        return Var(names.index(t.name), t.name)
    return App(t.symbol, tuple(_fix_var_ids(a, names) for a in t.args))


def term(text: str, variables: str = DEFAULT_VARS):
    """Parse a single term; x y z u v w are variables by default."""
    p = parse_trs(f"(VAR {variables})(RULES wrap({text}) -> wrap({text}))")
    return _fix_var_ids(p.rules[0].lhs.args[0], variables.split())


def trs(text: str, variables: str = DEFAULT_VARS):
    return parse_trs(f"(VAR {variables})(RULES {text})")


def lp(text: str):
    return parse_lp(text)


# A small fixed signature for randomized term generation: f/2, g/1 and
# two constants.
F2 = Symbol("f", 2)
G1 = Symbol("g", 1)
A0 = Symbol("a", 0)
B0 = Symbol("b", 0)
GEN_SYMBOLS = [F2, G1, A0, B0]
GEN_VARS = [Var(i) for i in range(3)]


def random_term(rng: random.Random, depth: int = 4):
    """A random term over f/2, g/1, a, b and three variables."""
    if depth == 0 or rng.random() < 0.3:
        leaves = GEN_VARS + [App(A0), App(B0)]
        return rng.choice(leaves)
    sym = rng.choice([F2, G1])
    return App(sym, tuple(random_term(rng, depth - 1) for _ in range(sym.arity)))


# A wider signature, for the walks that treat arities 1 and 2 apart from
# the others: f/2, g/1, h/3, k/4 and two constants.  ``random_term``
# stays as it is, so the examples other properties draw do not move.
H3 = Symbol("h", 3)
K4 = Symbol("k", 4)


def random_wide_term(rng: random.Random, depth: int = 4):
    """A random term over f/2, g/1, h/3, k/4, a, b and three variables."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(GEN_VARS + [App(A0), App(B0)])
    sym = rng.choice([F2, G1, H3, K4])
    return App(sym, tuple(random_wide_term(rng, depth - 1) for _ in range(sym.arity)))


@pytest.fixture
def rng():
    return random.Random(20240817)
