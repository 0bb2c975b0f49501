"""First-order terms, goals, positions and contexts.

Terms are immutable: a term is either a variable or an application of a
function symbol to exactly ``arity`` argument terms.  Goals are finite
tuples of terms.  A context is a term or goal like any other, over the
signature extended with the two reserved 0-ary hole symbols ``[]`` and
``[]'``, which never appear in ordinary terms.  A one-hole term context
holds ``[]``, a two-hole one ``[]`` and ``[]'``; a goal context is a
goal with one atom ``[]`` standing for an embedded window.  Only
``plug`` and ``plug2`` check which holes a context holds.

Terms share subterms freely (``substitution.apply`` returns unchanged
subterms as they are), so a term is a DAG whose tree size may be far
larger than its number of objects.  Each ``App`` caches its hash and its
tree size on first use, which makes ``term_size`` and ``check_size``
cost only the nodes not sized before.  A ``Var`` is an ``int`` whose
value is its id, so the many dict and set lookups, comparisons and
sorts of variables in unification, matching and renaming run in C with
no Python-level call.  ``Symbol`` is immutable and computes its hash
once, when built.  Variant keys hold symbol names, not symbols, so they
hash in C (``unfolding``).  Terms are not interned: ``Var`` equality
ignores display names, so a global table would merge ``f(x)`` and
``f(u)`` from two parses and print the wrong names.

Rendering walks each distinct object once per call: ``renderer`` looks
a subterm met before up by identity, so a shared tower renders in time
linear in its objects.  No string is kept on a node; the memo goes when
the call returns (or, for a certificate, with the one renderer it uses).

No walk closes over itself: a recursive walk is a module-level function
that takes its state as arguments, or a method of a small ``__slots__``
object that holds it.  A nested function that calls itself sits in a
cell its own closure holds, a reference cycle that only the cycle
collector frees; without one, reference counting frees a call's garbage
as the call returns.
"""

from __future__ import annotations

from typing import Callable, Iterator, Union

from .errors import HoleMismatchError, InvalidPositionError, ResourceLimitError

#: Hard cap on the node count of any constructed term.
MAX_TERM_SIZE = 10**6

_set = object.__setattr__


def _frozen(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


class Symbol:
    """A function symbol: a non-empty name and an arity.

    Immutable, with its hash ``hash((name, arity))`` computed once.
    """

    __slots__ = ("name", "arity", "_hash")

    def __init__(self, name: str, arity: int):
        if not name:
            raise ValueError("symbol name must be non-empty")
        if arity < 0:
            raise ValueError("arity must be non-negative")
        _set(self, "name", name)
        _set(self, "arity", arity)
        _set(self, "_hash", hash((name, arity)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Symbol:
            return NotImplemented
        return self.name == other.name and self.arity == other.arity

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt, so that an unpickled symbol rehashes its name
        return Symbol, (self.name, self.arity)

    __setattr__ = __delattr__ = _frozen

    def __repr__(self):
        return f"{self.name}/{self.arity}"


# The two reserved hole symbols.  The parsers keep them out of user
# programs.
HOLE = Symbol("[]", 0)
HOLE2 = Symbol("[]'", 0)


class Var(int):
    """A variable: an ``int`` whose value is its id, with a display name.

    Hashing, equality and ordering are ``int``'s, so they run in C and
    ignore the name: variants that differ only in how variables are
    printed still compare different (ids differ) while a renamed copy of
    a variable keeps its identity.  ``Var(0)`` is true, as every term is.
    Immutable; the name sits in the instance dict, since a subclass of
    ``int`` can have no slots.
    """

    def __new__(cls, id: int, name: str = ""):
        self = int.__new__(cls, id)
        self.__dict__["name"] = name or f"x{id}"
        return self

    #: The id as a plain ``int``.
    id = property(int.__int__)

    def __bool__(self):
        return True

    def __reduce__(self):
        return Var, (int(self), self.name)

    __setattr__ = __delattr__ = _frozen

    def __repr__(self):
        return self.name


class App:
    """A function symbol applied to exactly ``arity`` argument terms.

    Never assign to a term's fields: ``apply`` shares unchanged subterms
    between terms, and the hash and node count are cached on each node
    the first time they are asked for.  The hash is ``hash((symbol,
    args))``, the value a frozen dataclass with these two fields has.
    The caches are not pickled or copied, since ``str`` hashes differ
    between processes.
    """

    __slots__ = ("symbol", "args", "_hash", "_size")

    def __init__(self, symbol: Symbol, args: tuple["Term", ...] = ()):
        if len(args) != symbol.arity:
            raise ValueError(
                f"{symbol.name} expects {symbol.arity} arguments, got {len(args)}"
            )
        self.symbol = symbol
        self.args = args
        self._hash = None
        self._size = None

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not App:
            return NotImplemented
        return self.symbol == other.symbol and self.args == other.args

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.symbol, self.args))
        return self._hash

    def __reduce__(self):
        return App, (self.symbol, self.args)

    def __repr__(self):
        # a shared tower can hold far more tree nodes than objects
        size = term_size(self)
        if size > MAX_TERM_SIZE:
            return f"<{self.symbol.name}(...): term of {size} nodes>"
        return render(self)


Term = Union[Var, App]
Goal = tuple[Term, ...]
Position = tuple[int, ...]

#: The root position.
ROOT: Position = ()


def term_size(t: Term) -> int:
    """Node count of ``t`` as a tree; shared subterms count once per
    occurrence.  Cached on each ``App``, so a term built around sized
    subterms costs only its new nodes."""
    if isinstance(t, Var):
        return 1
    if t._size is None:
        t._size = 1 + sum(map(term_size, t.args))
    return t._size


def check_size(t: Term) -> Term:
    if term_size(t) > MAX_TERM_SIZE:
        raise ResourceLimitError(f"term exceeds {MAX_TERM_SIZE} nodes")
    return t


def subterms(t: Term, pos: Position = ROOT) -> Iterator[tuple[Position, Term]]:
    """(position, subterm) pairs of ``t`` in lexicographic (prefix,
    left-to-right) order of positions, ``pos`` prefixed to every one."""
    yield pos, t
    if isinstance(t, App):
        for i, arg in enumerate(t.args, start=1):
            yield from subterms(arg, pos + (i,))


def iter_positions(t: Term) -> Iterator[Position]:
    """Positions of ``t`` in lexicographic (prefix, left-to-right) order."""
    return (p for p, _ in subterms(t))


def subterm_at(t: Term, p: Position) -> Term:
    for i in p:
        if not isinstance(t, App) or not (1 <= i <= len(t.args)):
            raise InvalidPositionError(f"position {render_position(p)} not in term")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, p: Position, u: Term) -> Term:
    if not p:
        return u
    i = p[0]
    if not isinstance(t, App) or not (1 <= i <= len(t.args)):
        raise InvalidPositionError(f"position {render_position(p)} not in term")
    args = list(t.args)
    args[i - 1] = replace_at(args[i - 1], p[1:], u)
    return App(t.symbol, tuple(args))


def term_vars(t: Union[Term, Goal]) -> set[Var]:
    """The variables of a term or of a goal, collected into one set."""
    out: set[Var] = set()
    add = out.add
    for s in t if isinstance(t, tuple) else (t,):
        _add_vars(s, add)
    return out


def _add_vars(t: Term, add) -> None:
    """``term_vars``' walk of one term."""
    if t.__class__ is Var:
        add(t)
    else:
        for a in t.args:
            _add_vars(a, add)


def max_var_id(x: Union[Term, Goal]) -> int:
    """The largest variable id in a term or a goal, -1 if it has no
    variable: one walk that builds no set.  The id may come back as the
    ``Var`` that holds it, which is an ``int``."""
    top = -1
    for t in x if isinstance(x, tuple) else (x,):
        top = _max_id(t, top)
    return top


def _max_id(t: Term, top: int) -> int:
    """``max_var_id``'s walk of one term."""
    if t.__class__ is Var:
        return t if t > top else top
    for a in t.args:
        top = _max_id(a, top)
    return top


# ---------------------------------------------------------------------------
# Contexts


def replace_all(t: Term, repl: dict[Term, Term]) -> Term:
    """``t`` with every occurrence of a subterm that is a key of ``repl``
    replaced by its value; a hole is the subterm ``App(HOLE)``.  The
    values are not walked."""
    out = repl.get(t)
    if out is not None:
        return out
    if isinstance(t, Var):
        return t
    return App(t.symbol, tuple(replace_all(a, repl) for a in t.args))


def hole_positions(c: Term, sym: Symbol = HOLE) -> list[Position]:
    return [p for p, s in subterms(c) if isinstance(s, App) and s.symbol == sym]


def plug(c: Term, t: Term) -> Term:
    """Replace every primary-hole occurrence of the context ``c`` by ``t``."""
    if hole_positions(c, HOLE2):
        raise HoleMismatchError("two-hole context requires plug2")
    if not hole_positions(c):
        raise HoleMismatchError("context has no hole")
    return check_size(replace_all(c, {App(HOLE): t}))


def plug2(c: Term, t: Term, t2: Term) -> Term:
    """Fill both holes of a two-hole context."""
    if not (hole_positions(c) and hole_positions(c, HOLE2)):
        raise HoleMismatchError("plug2 requires a two-hole context")
    return check_size(replace_all(c, {App(HOLE): t, App(HOLE2): t2}))


# ---------------------------------------------------------------------------
# Rendering

class _Renderer:
    """One ``renderer``'s memo, with its walk as a method."""

    __slots__ = ("memo",)

    def __init__(self):
        self.memo: dict[int, tuple[App, str]] = {}

    def term(self, t: Term) -> str:
        if t.__class__ is Var:
            return t.name
        args = t.args
        if not args:
            return t.symbol.name
        hit = self.memo.get(id(t))
        if hit is not None:
            return hit[1]
        text = t.symbol.name + "(" + ",".join(map(self.term, args)) + ")"
        self.memo[id(t)] = (t, text)
        return text

    def show(self, x: Union[Term, Goal]) -> str:
        if isinstance(x, tuple):
            return "<" + ",".join(map(self.term, x)) + ">"
        return self.term(x)


def renderer() -> Callable[[Union[Term, Goal]], str]:
    """A function that renders terms and goals, walking each distinct
    ``App`` object once over all its calls: a subterm met again, in the
    same term or in a later one, is looked up by identity.  A shared DAG
    renders in time linear in its objects, not in its tree size.

    The memo lives as long as the returned function, and no string is
    kept on a node.  It is keyed by ``id``, not by value (``Var``
    equality ignores display names), and holds each keyed term, so no id
    is reused while the function lives.  Variables and constants are not
    memoised."""
    return _Renderer().show


def render(x: Union[Term, Goal]) -> str:
    """``x`` as text, each distinct subterm object rendered once."""
    return renderer()(x)


def render_position(p: Position) -> str:
    return "eps" if not p else ".".join(str(i) for i in p)


# ---------------------------------------------------------------------------
# Canonical variable numbering (variant equivalence)

def canonical(x: Union[Term, Goal]) -> Union[Term, Goal]:
    """Renumber variables left-to-right by first occurrence.

    Two terms (or goals) are variants iff their canonical forms are
    structurally equal.
    """
    walk = _Renumbering().walk
    if isinstance(x, tuple):
        return tuple(map(walk, x))
    return walk(x)


class _Renumbering:
    """The variables one ``canonical`` call has numbered so far, with its
    walk as a method."""

    __slots__ = ("mapping",)

    def __init__(self):
        self.mapping: dict[Var, Var] = {}

    def walk(self, t: Term) -> Term:
        if t.__class__ is Var:
            mapping = self.mapping
            if t not in mapping:
                mapping[t] = Var(len(mapping), f"v{len(mapping)}")
            return mapping[t]
        return App(t.symbol, tuple(map(self.walk, t.args)))


def is_variant(a: Union[Term, Goal], b: Union[Term, Goal]) -> bool:
    return canonical(a) == canonical(b)
