"""Substitutions: application, composition, matching and unification.

Unification is a Martelli-Montanari-style solved-form transformation with
occurs check.  Results are normalized to an idempotent solved form in
which binding targets never mention domain variables; when either
orientation of a variable-variable equation is legal, the variable with
the smaller id is bound.  This keeps all outputs deterministic.  A
pending equation is instantiated by the solved bindings when it is
popped, not each time a binding is added, and two sides that are one
object, or two variables with one id, are dropped without comparing
them; other equal sides simply decompose.  The solved form is the one
an eager instantiation of every pending equation gives.

Renaming apart starts from the largest variable id the fresh variables
must avoid, which ``terms.max_var_id`` finds in one walk.  A fresh name
is the old name's stem followed by the new id, with underscores between
while it is in a given set of taken names (a rewrite system's symbols).

Walks tell a variable from an application by class, compare variables
by id and symbols by identity first, so the common cases of these hot
loops make no Python-level ``__eq__`` call.

Application shares structure: every subterm a substitution leaves
unchanged comes back as the same object, so narrowing and instantiation
allocate only the nodes on the paths to bound variables.  Its walk
spends no call on a leaf argument and spells out arities 1 and 2.

The walks of ``apply`` and ``match`` do not close over themselves (see
``nonterm.terms``), so neither call leaves a reference cycle behind.
"""

from __future__ import annotations

from operator import is_not
from typing import Callable, Container, Iterable, Optional, Union

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
                # an x -> x binding, told by class and id, not by __eq__
                if t.__class__ is not Var or t.id != v.id:
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


EMPTY_SUBST = Substitution()


def _image(t: Term, bound) -> Term:
    """``apply``'s walk of one term, ``bound`` being the ``get`` of a
    substitution's bindings.  A leaf argument costs no call: a variable
    is one lookup in ``bound`` and a constant is kept as it is.  Arities
    1 and 2 are spelt out; other arities take the general path."""
    if t.__class__ is Var:
        return bound(t, t)
    args = t.args
    n = len(args)
    if n == 1:
        a = args[0]
        x = bound(a, a) if a.__class__ is Var else _image(a, bound) if a.args else a
        return t if x is a else App(t.symbol, (x,))
    if n == 2:
        a, b = args
        x = bound(a, a) if a.__class__ is Var else _image(a, bound) if a.args else a
        y = bound(b, b) if b.__class__ is Var else _image(b, bound) if b.args else b
        return t if x is a and y is b else App(t.symbol, (x, y))
    new = []  # a loop, not a comprehension, which would take a frame per level
    for a in args:
        new.append(bound(a, a) if a.__class__ is Var else _image(a, bound) if a.args else a)
    new = tuple(new)
    return App(t.symbol, new) if any(map(is_not, new, args)) else t


def apply(theta: Substitution, x: Union[Term, Goal]):
    """Homomorphic extension of ``theta``; holes are fixed points.

    Every subterm that ``theta`` leaves unchanged is returned as the same
    object, so the result shares it with ``x``; an empty ``theta`` returns
    ``x`` itself.
    """
    if not theta._bindings:
        return x
    bound = theta._bindings.get
    if isinstance(x, tuple):
        new = tuple([_image(t, bound) for t in x])
        return new if any(map(is_not, new, x)) else x
    return _image(x, bound)


def compose(sigma: Substitution, theta: Substitution) -> Substitution:
    """The substitution mapping every term s to (s sigma) theta."""
    out: dict[Var, Term] = {}
    for v, t in sigma._bindings.items():
        out[v] = apply(theta, t)
    for v, t in theta._bindings.items():
        if v not in sigma._bindings:
            out[v] = t
    return Substitution(out)


def _solved(bindings: dict[Var, Term]) -> Substitution:
    """A substitution over ``bindings`` itself, which holds no x -> x
    binding: not copied, so it sees later changes to the dict."""
    theta = Substitution.__new__(Substitution)
    theta._bindings = bindings
    return theta


def _occurs(v: Var, t: Term) -> bool:
    if t.__class__ is Var:
        return t.id == v.id
    for a in t.args:
        if _occurs(v, a):
            return True
    return False


def mgu(s: Term, t: Term) -> Optional[Substitution]:
    """Most general unifier of ``s`` and ``t``, or None if none exists.

    An equation is instantiated by the bindings solved so far when it is
    popped, not each time a binding is added; the solved bindings are
    kept idempotent, so one application suffices.  Two sides that are
    one object, or two variables with one id, are skipped without
    comparing them; other equal sides decompose into such pairs."""
    solved: dict[Var, Term] = {}
    bound = solved.get
    stack: list[tuple[Term, Term]] = [(s, t)]
    while stack:
        a, b = stack.pop()
        if solved:
            a, b = _image(a, bound), _image(b, bound)
        if a is b:
            continue
        if a.__class__ is Var:
            if b.__class__ is Var:
                if a.id == b.id:
                    continue
                # deterministic orientation: bind the smaller id
                v, u = (a, b) if a.id < b.id else (b, a)
            elif _occurs(a, b):
                return None
            else:
                v, u = a, b
        elif b.__class__ is Var:
            if _occurs(b, a):
                return None
            v, u = b, a
        else:
            if a.symbol is not b.symbol and a.symbol != b.symbol:
                return None
            stack.extend(zip(a.args, b.args))
            continue
        if solved:
            one = {v: u}.get
            for w, x in solved.items():
                solved[w] = _image(x, one)
        solved[v] = u
    return _solved(solved)


def match(s: Union[Term, Goal], t: Union[Term, Goal]) -> Optional[Substitution]:
    """Matcher theta with s theta = t and Dom(theta) within Var(s)."""
    bindings: dict[Var, Term] = {}
    if not _match(s, t, bindings):
        return None
    return Substitution(bindings)


def _match(a, b, bindings: dict[Var, Term]) -> bool:
    """Extend ``bindings`` so that ``a`` matches ``b``, or return False."""
    if a.__class__ is App and b.__class__ is App:
        if a.symbol is not b.symbol and a.symbol != b.symbol:
            return False
        pairs = zip(a.args, b.args)
    elif isinstance(a, tuple) or isinstance(b, tuple):
        if not (isinstance(a, tuple) and isinstance(b, tuple)) or len(a) != len(b):
            return False
        pairs = zip(a, b)
    elif a.__class__ is Var:
        bound = bindings.get(a)
        if bound is None:
            bindings[a] = b
            return True
        return bound is b or bound == b
    else:
        return False
    for x, y in pairs:
        if not _match(x, y, bindings):
            return False
    return True


def renaming_apart(
    vs: Iterable[Var], top: int, taken: Container[str] = ()
) -> Substitution:
    """A renaming of ``vs`` onto fresh variables whose ids lie above
    ``top``, the largest id the image must avoid.

    Fresh ids are allocated deterministically just above ``top`` and
    every id of ``vs``, so the result is a pure function of its inputs.
    A fresh variable is named by its id after the stem of the old name,
    which drops trailing digits and underscores; a name with no stem,
    such as ``_``, gets the stem ``_``, so the fresh name still reads as
    a variable.  While the name is in ``taken`` (the names of a
    program's symbols), one more ``_`` goes between stem and id.
    """
    vs = sorted(set(vs), key=lambda v: v.id)
    next_id = max(top, vs[-1].id if vs else -1) + 1
    out = {}
    for v in vs:
        stem = v.name.rstrip("0123456789_") or "_"
        name = f"{stem}{next_id}"
        while name in taken:
            stem += "_"
            name = f"{stem}{next_id}"
        out[v] = Var(next_id, name)
        next_id += 1
    # every fresh id is above every id of vs: no x -> x binding
    return _solved(out)
