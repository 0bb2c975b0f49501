"""Substitutions: application, composition, matching and unification.

Unification is a Martelli-Montanari-style solved-form transformation with
occurs check.  Results are normalized to an idempotent solved form in
which binding targets never mention domain variables; when either
orientation of a variable-variable equation is legal, the variable with
the smaller id is bound.  This keeps all outputs deterministic.

Application shares structure: every subterm a substitution leaves
unchanged comes back as the same object, so narrowing and instantiation
allocate only the nodes on the paths to bound variables.

The walks of ``apply`` and ``match`` do not close over themselves (see
``nonterm.terms``), so neither call leaves a reference cycle behind.
"""

from __future__ import annotations

from operator import is_not
from typing import Callable, Iterable, Optional, Union

from .terms import (
    App,
    Goal,
    Term,
    Var,
    renderer,
)


class Substitution:
    """A finite map from variables to terms with x -> x bindings dropped."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[dict[Var, Term]] = None):
        clean = {}
        if bindings:
            for v, t in bindings.items():
                if t != v:
                    clean[v] = t
        self._bindings = clean

    @property
    def bindings(self) -> dict[Var, Term]:
        return dict(self._bindings)

    def domain(self) -> set[Var]:
        return set(self._bindings)

    def get(self, v: Var) -> Term:
        return self._bindings.get(v, v)

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and self._bindings == other._bindings

    def __hash__(self):
        return hash(frozenset(self._bindings.items()))

    def __len__(self):
        return len(self._bindings)

    def text(self, show: Callable[[Term], str]) -> str:
        """The substitution's ``repr``, its terms rendered by ``show``."""
        items = sorted(self._bindings.items(), key=lambda kv: kv[0].name)
        return "{" + ", ".join(f"{v.name} -> {show(t)}" for v, t in items) + "}"

    def __repr__(self):
        return self.text(renderer())

    def _image(self, t: Term) -> Term:
        """``apply``'s walk of one term."""
        if t.__class__ is Var:
            return self._bindings.get(t, t)
        args = t.args
        if not args:
            return t
        new = tuple(map(self._image, args))
        if any(map(is_not, new, args)):
            return App(t.symbol, new)
        return t


EMPTY_SUBST = Substitution()


def apply(theta: Substitution, x: Union[Term, Goal]):
    """Homomorphic extension of ``theta``; holes are fixed points.

    Every subterm that ``theta`` leaves unchanged is returned as the same
    object, so the result shares it with ``x``; an empty ``theta`` returns
    ``x`` itself.
    """
    if not theta._bindings:
        return x
    if isinstance(x, tuple):
        new = tuple(map(theta._image, x))
        return new if any(map(is_not, new, x)) else x
    return theta._image(x)


def compose(sigma: Substitution, theta: Substitution) -> Substitution:
    """The substitution mapping every term s to (s sigma) theta."""
    out: dict[Var, Term] = {}
    for v, t in sigma._bindings.items():
        out[v] = apply(theta, t)
    for v, t in theta._bindings.items():
        if v not in sigma._bindings:
            out[v] = t
    return Substitution(out)


def _occurs(v: Var, t: Term) -> bool:
    if isinstance(t, Var):
        return t == v
    return any(_occurs(v, a) for a in t.args)


def mgu(s: Term, t: Term) -> Optional[Substitution]:
    """Most general unifier of ``s`` and ``t``, or None if none exists."""
    solved: dict[Var, Term] = {}
    stack: list[tuple[Term, Term]] = [(s, t)]

    def bind(v: Var, u: Term) -> bool:
        if _occurs(v, u):
            return False
        one = Substitution({v: u})
        for w in list(solved):
            solved[w] = apply(one, solved[w])
        solved[v] = u
        # keep pending equations in the solved space too
        for i, (a, b) in enumerate(stack):
            stack[i] = (apply(one, a), apply(one, b))
        return True

    while stack:
        a, b = stack.pop()
        if a == b:
            continue
        if isinstance(a, Var) and isinstance(b, Var):
            # deterministic orientation: bind the smaller id
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


def match(s: Union[Term, Goal], t: Union[Term, Goal]) -> Optional[Substitution]:
    """Matcher theta with s theta = t and Dom(theta) within Var(s)."""
    bindings: dict[Var, Term] = {}
    if not _match(s, t, bindings):
        return None
    return Substitution(bindings)


def _match(a, b, bindings: dict[Var, Term]) -> bool:
    """Extend ``bindings`` so that ``a`` matches ``b``, or return False."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        if not (isinstance(a, tuple) and isinstance(b, tuple)) or len(a) != len(b):
            return False
        pairs = zip(a, b)
    elif isinstance(a, Var):
        if a in bindings:
            return bindings[a] == b
        bindings[a] = b
        return True
    elif isinstance(b, Var) or a.symbol != b.symbol:
        return False
    else:
        pairs = zip(a.args, b.args)
    for x, y in pairs:
        if not _match(x, y, bindings):
            return False
    return True


def renaming_apart(vs: Iterable[Var], avoid: Iterable[Var]) -> Substitution:
    """A renaming of ``vs`` whose image avoids ``avoid``.

    Fresh ids are allocated deterministically just above every id in
    sight, so the result is a pure function of its inputs.  A fresh
    variable is named by its id after the stem of the old name, which
    drops trailing digits and underscores; a name with no stem, such as
    ``_``, gets the stem ``_``, so the fresh name still reads as a
    variable.
    """
    vs = sorted(set(vs), key=lambda v: v.id)
    avoid_ids = {v.id for v in avoid} | {v.id for v in vs}
    next_id = max(avoid_ids, default=-1) + 1
    out = {}
    for v in vs:
        out[v] = Var(next_id, f"{v.name.rstrip('0123456789_') or '_'}{next_id}")
        next_id += 1
    return Substitution(out)
