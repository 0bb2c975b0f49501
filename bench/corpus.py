"""Benchmark corpus: hand-labelled programs grouped into workloads.

Every program carries its true answer (``terminating`` or
``nonterminating``) with a one-line reason, and the analysis settings it
runs under.  All settings switch the wall-clock budget off
(``timeout=None``) and pick an unfolding depth at which the search ends
below the node cap, so a pass does the same work on any machine.

The workload seed renames every symbol and variable to a fresh name of
the same length (lengths feed the analyzer's canonical orderings, so
equal lengths keep the amount of work equal across seeds) and fixes the
order in which a pass visits the programs.  The analyzer only ever sees
the generated text.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass

TERMINATING = "terminating"
NONTERMINATING = "nonterminating"


@dataclass(frozen=True)
class Program:
    name: str
    dialect: str  # "trs" or "lp"
    text: str
    label: str
    reason: str
    depth: int = 4
    simulate: int = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    programs: tuple[Program, ...]


def _trs(name, rules, label, reason, variables="x y", **settings):
    return Program(name, "trs", f"(VAR {variables})(RULES {rules})", label, reason, **settings)


def _lp(name, clauses, label, reason, **settings):
    return Program(name, "lp", clauses, label, reason, **settings)


T, N = TERMINATING, NONTERMINATING

# The programs of the acceptance suite's soundness gate (criterion 10) are
# copied here rather than imported, so the benchmark does not depend on the
# test tree.  Each is placed in the workload whose layer it exercises.

SEARCH = Workload(
    "search",
    "terminating two-variable systems swept over the whole recurrent-pair space: "
    "time goes to match_recurrent_pattern",
    (
        _trs("plus", "plus(0,x) -> x plus(s(x),y) -> s(plus(x,y))", T,
             "the first argument of plus shrinks at every recursive call", depth=2),
        _trs("minus", "minus(x,0) -> x minus(s(x),s(y)) -> minus(x,y)", T,
             "both arguments of minus shrink at every recursive call", depth=2),
        _trs("plus-wide",
             "plus(0,x) -> x plus(s(x),y) -> s(plus(x,y)) plus(p(x),y) -> p(plus(x,y))", T,
             "the first argument of plus shrinks at every recursive call", depth=1),
        _trs("minus-wide",
             "minus(x,0) -> x minus(s(x),s(y)) -> minus(x,y) minus(p(x),p(y)) -> minus(x,y)", T,
             "both arguments of minus shrink at every recursive call", depth=1),
        _trs("count-down", "f(x,s(y)) -> f(s(x),y)", T,
             "the second argument loses one s per step", depth=3),
        _trs("shift", "f(s(x),y) -> f(x,s(y))", T,
             "the first argument loses one s per step", depth=3),
        _trs("swap-half", "f(c,a(x),y) -> f(c,x,a(y))", T,
             "the second argument loses one a per step", depth=3),
    ),
)

UNFOLD = Workload(
    "unfold",
    "terminating systems with one-argument defined symbols at depth 4: "
    "the recurrent-pair filter leaves no pairs, so time goes to unfold_trs",
    (
        _trs("f-g-h", "f(s(x)) -> g(h(x,1),x) 1 -> 0 h(x,0) -> f(x)", T,
             "every call of f comes from f(s(x)) with the argument one s shorter",
             variables="x"),
        _trs("double-quad",
             "d(0) -> 0 d(s(x)) -> s(s(d(x))) q(0) -> 0 q(s(x)) -> d(d(q(x)))", T,
             "d and q recurse on an argument one s shorter; d never calls q",
             variables="x"),
        _trs("rotate", "a(s(x)) -> b(c(x)) b(c(x)) -> c(a(x))", T,
             "every two steps the argument of a loses one s; c is a constructor",
             variables="x"),
        _trs("rotate3", "a(s(x)) -> b(c(x)) b(c(x)) -> e(a(x)) e(s(x)) -> a(x)", T,
             "a and e strip an s before every recursive call; c is a constructor",
             variables="x"),
        _trs("g-count", "g(s(x)) -> g(x) g(0) -> 0", T,
             "the argument of g loses one s per step", variables="x"),
        _trs("f-g-h-cut", "f(x) -> g(h(x,1),x) 1 -> 0", T,
             "h has no rule, so no step creates a new f redex", variables="x"),
        _trs("f-f-cut", "f(f(x)) -> x", T, "every step removes two symbols", variables="x"),
        _lp("p-q-fact", "p(f(X,0)) :- q(X).\nq(a).", T,
            "q is a fact and p never calls itself"),
        _lp("r-s-fact", "r(a) :- s(a).\ns(a).", T, "s is a fact and r never calls itself"),
        _lp("b-d", "b(d(X)) :- d(b(X)).", T, "d has no clause, so every derivation stops"),
        _lp("b-d-a",
            "b(c) :- d(c).\nb(d(X)) :- d(b(X)).\na(d(X)) :- a(b(b(X))).", T,
            "d has no clause and a(b(b(X))) unifies with no head, so every derivation "
            "has at most one step"),
    ),
)

WITNESS = Workload(
    "witness",
    "known non-terminating programs at --simulate 40: time goes to re-verifying "
    "the simulated prefix against the derived-rule pool",
    (
        _trs("golden-loop", "f(x) -> g(h(x,1),x) 1 -> 0 h(x,0) -> f(f(x))", N,
             "f(x) ->* h(x,0) -> f(f(x)) embeds f(x) under a context",
             variables="x", simulate=40),
        _lp("golden-lp", "p(f(X,0)) :- p(X), q(X).", N,
            "p(X) narrows to p(X'), q(X'), whose first atom is a variant",
            simulate=40),
        _trs("counting", "f(x,s(y)) -> f(s(x),y) f(x,0) -> f(s(0),x)", N,
             "f(x,0) regrows its second argument from x forever", simulate=40),
        _trs("swapping", "f(c,a(x),y) -> f(c,x,a(y)) f(c,a(x),y) -> f(x,y,a(a(c)))", N,
             "the second rule swaps the tower back into the second argument",
             simulate=40),
        _trs("f-g-f-h", "f(x) -> g(f(h(x)))", N,
             "f(x) rewrites to a term containing f(h(x))", variables="x", simulate=40),
        _trs("f-ff", "f(f(x)) -> x f(x) -> f(f(x))", N,
             "f(x) -> f(f(x)) contains an instance of f(x)", variables="x", simulate=40),
        _trs("chain1", "f1(x) -> f1(s(x))", N,
             "f1(x) rewrites to an instance of itself", variables="x", simulate=40),
        _trs("chain2", "f1(x) -> f2(s(x)) f2(x) -> f1(x)", N,
             "f1(x) ->* f1(s(x)), an instance of f1(x)", variables="x", simulate=40),
        _trs("chain3", "f1(x) -> f2(s(x)) f2(x) -> f3(x) f3(x) -> f1(x)", N,
             "f1(x) ->* f1(s(x)), an instance of f1(x)", variables="x", simulate=40),
        _lp("app", "app(nil,Y,Y).\napp(cons(X,Xs),Y,cons(X,Z)) :- app(Xs,Y,Z).", N,
            "app(A,B,C) narrows to app(Xs,Y,Z), a variant", simulate=40),
        _lp("rev",
            "app(nil,Y,Y).\napp(cons(X,Xs),Y,cons(X,Z)) :- app(Xs,Y,Z).\n"
            "rev(nil,nil).\nrev(cons(X,Xs),R) :- rev(Xs,T), app(T,cons(X,nil),R).", N,
            "rev(A,B) narrows to rev(Xs,T), app(...), whose first atom is a variant",
            simulate=40),
        _lp("p-q2", "p(f(X,0)) :- p(X), q1(X), q2(X).", N,
            "p(X) narrows to a goal whose first atom is a variant", simulate=40),
        _lp("p-q3", "p(f(X,0)) :- p(X), q1(X), q2(X), q3(X).", N,
            "p(X) narrows to a goal whose first atom is a variant", simulate=40),
        _lp("q-ss", "q(s(X)) :- q(s(s(X))).", N,
            "q(s(X)) narrows to q(s(s(X))), an instance of the head (known MAYBE)",
            simulate=40),
    ),
)

BLOWUP = Workload(
    "blowup",
    "the paper's non-looping system: its recurrent pair has a non-linear context, "
    "so the simulated prefix holds the largest terms of the corpus",
    (
        _trs("paper-nonloop",
             "f(x,g(y,0,y),x) -> h(x,y) h(x,y) -> f(g(x,0,x),y,g(x,0,x)) "
             "f(x,0,x) -> f(g(x,0,x),g(x,1,x),g(x,0,x)) 1 -> 0", N,
             "a recurrent pair with c1 = f#([],[]',[]) and c2 = g([],0,[])",
             simulate=3),
    ),
)

WORKLOADS = {w.name: w for w in (SEARCH, UNFOLD, WITNESS, BLOWUP)}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = {"VAR", "RULES"}


def _fresh(rng: random.Random, old: str, taken: set[str]) -> str:
    """A fresh name of the same length and case class as ``old``."""
    while True:
        tail = "".join(rng.choice(string.ascii_lowercase) for _ in range(len(old) - 1))
        head = rng.choice(string.ascii_uppercase if old[0].isupper() else string.ascii_lowercase)
        name = head + tail
        if name not in taken and name.lower() not in ("var", "rules"):
            taken.add(name)
            return name


def rename(text: str, rng: random.Random) -> str:
    """Consistently rename every identifier of ``text``; numerals stay."""
    mapping: dict[str, str] = {}
    taken: set[str] = set()
    for old in dict.fromkeys(_IDENT.findall(text)):
        if old not in _KEYWORDS:
            mapping[old] = _fresh(rng, old, taken)
    return _IDENT.sub(lambda m: mapping.get(m.group(), m.group()), text)


@dataclass(frozen=True)
class Instance:
    """One program as the analyzer receives it in a given run."""

    program: Program
    text: str


def instances(workload: Workload, seed: int) -> list[Instance]:
    """The workload's programs, renamed and ordered by ``seed``."""
    rng = random.Random(f"{workload.name}:{seed}")
    out = [Instance(p, rename(p.text, rng)) for p in workload.programs]
    rng.shuffle(out)
    return out
