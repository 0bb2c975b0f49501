"""Depth-bounded program transformations.

Three "compression" transformations are provided, each as the depth-k
fragment of an intrinsically infinite closure:

* dependency-pair unfolding for term rewrite systems (marked-symbol
  pairs narrowed forwards and backwards),
* binary unfolding for logic programs under leftmost selection,
* the overlap closure of a term rewrite system.

Every produced rule carries a provenance record; replaying it from the
parent rules reconstructs the rule up to variable renaming.

Dependency-pair and binary unfolding resume depth by depth: given the
same ``Unfolding`` at each call, depth d+1 starts from the pool, frontier
and derivation counter that depth d left, instead of from the dependency
pairs or the program.  A narrowing whose two sides carry different
function symbols at a shared position is skipped before the rule is
renamed apart, since no renaming can make them unify.  A rule is renamed
apart from a parent pair at most once, however many positions of the
pair it narrows: the renaming depends only on the rule and the pair's
variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ResourceLimitError
from .rewriting import Mode, Program, Rule, rename_apart
from .substitution import Substitution, apply, compose, mgu
from .terms import (
    App,
    Position,
    ROOT,
    Symbol,
    Term,
    Var,
    replace_at,
    subterm_at,
    term_vars,
)

MARK_SUFFIX = "#"

#: Default bounds: unfolding depth and global rule cap.
DEFAULT_DEPTH = 4
DEFAULT_RULE_CAP = 50_000


@dataclass(frozen=True)
class ProvenanceStep:
    kind: str  # dp | forward | backward | binunf-A | binunf-B | binunf-C
    #        | oc-forward | oc-backward | base
    parents: tuple[str, ...]
    position: Position
    unifier: Substitution

    def __repr__(self):
        return f"{self.kind}({','.join(self.parents)})"


@dataclass(frozen=True)
class UnfoldedRule:
    rule: Rule
    depth: int
    provenance: ProvenanceStep

    def __repr__(self):
        return f"{self.rule!r}  [depth {self.depth}, {self.provenance!r}]"


class MarkedSignature:
    """Injective association of defined symbols with fresh marked copies."""

    def __init__(self, defined):
        self._marked = {f: Symbol(f.name + MARK_SUFFIX, f.arity) for f in defined}

    def mark(self, sym: Symbol) -> Symbol:
        return self._marked[sym]

    @staticmethod
    def is_marked(sym: Symbol) -> bool:
        return sym.name.endswith(MARK_SUFFIX)

    @staticmethod
    def unmark(sym: Symbol) -> Symbol:
        if not MarkedSignature.is_marked(sym):
            return sym
        return Symbol(sym.name[: -len(MARK_SUFFIX)], sym.arity)


def defined_symbols(r: Program) -> set[Symbol]:
    """Root symbols of left-hand sides."""
    out = set()
    for rule in r.rules:
        if isinstance(rule.lhs, App):
            out.add(rule.lhs.symbol)
    return out


def mark_root(t: Term, marks: MarkedSignature) -> Term:
    if not isinstance(t, App):
        raise ValueError("cannot mark a variable")
    return App(marks.mark(t.symbol), t.args)


def unmark_root(t: Term) -> Term:
    if isinstance(t, App) and MarkedSignature.is_marked(t.symbol):
        return App(MarkedSignature.unmark(t.symbol), t.args)
    return t


def _subterms(t: Term, pos: Position = ROOT):
    """(position, subterm) pairs of ``t`` in the order of ``iter_positions``."""
    yield pos, t
    if isinstance(t, App):
        for i, arg in enumerate(t.args, start=1):
            yield from _subterms(arg, pos + (i,))


def dependency_pairs(r: Program) -> list[UnfoldedRule]:
    """Marked-root pairs extracted from defined-symbol subterms of rhs."""
    defined = defined_symbols(r)
    marks = MarkedSignature(defined)
    out = []
    n = 0
    for rule in r.rules:
        if not isinstance(rule.lhs, App):
            continue
        for t in rule.rhs:
            for pos, sub in _subterms(t):
                if isinstance(sub, App) and sub.symbol in defined:
                    n += 1
                    pair = Rule(
                        f"dp{n}",
                        mark_root(rule.lhs, marks),
                        (mark_root(sub, marks),),
                    )
                    out.append(
                        UnfoldedRule(
                            pair,
                            0,
                            ProvenanceStep("dp", (rule.id,), pos, Substitution()),
                        )
                    )
    return out


def _dedup_key(rule: Rule) -> tuple:
    """A flat variant key: the body length, then the symbols of the head
    and body in preorder, each variable replaced by the number of its
    first occurrence.  Two rules get equal keys exactly when their
    ``canonical`` forms are equal."""
    key = [len(rule.rhs)]
    numbers: dict[Var, int] = {}

    def walk(t: Term) -> None:
        if isinstance(t, Var):
            key.append(numbers.setdefault(t, len(numbers)))
        else:
            key.append(t.symbol)
            for a in t.args:
                walk(a)

    walk(rule.lhs)
    for t in rule.rhs:
        walk(t)
    return tuple(key)


class _Pool:
    """Accumulates unfolded rules with variant deduplication and a cap."""

    def __init__(self, cap: int):
        self.cap = cap
        self.items: list[UnfoldedRule] = []
        self._keys: set = set()
        self._derived = 0

    def add(self, u: UnfoldedRule) -> Optional[UnfoldedRule]:
        key = _dedup_key(u.rule)
        if key in self._keys:
            return None
        if len(self.items) >= self.cap:
            raise ResourceLimitError(f"unfolding exceeded {self.cap} rules")
        self._keys.add(key)
        self.items.append(u)
        return u

    def derive(
        self, prefix: str, lhs: Term, rhs: tuple, depth: int, provenance: ProvenanceStep
    ) -> Optional[UnfoldedRule]:
        """Name a derived rule ``<prefix><n>`` and add it; ``n`` counts
        every derivation, including variants that are dropped."""
        self._derived += 1
        named = Rule(f"{prefix}{self._derived}", lhs, rhs)
        return self.add(UnfoldedRule(named, depth, provenance))


class Unfolding:
    """Where one program's dependency-pair or binary unfolding stopped.

    Pass the same instance to successive ``unfold_trs``/``binary_unfold``
    calls on one program, at depths that do not decrease: each call then
    unfolds only the depths not done yet.  A call cut short by the rule
    cap leaves the instance unusable.
    """

    def __init__(self):
        self.program: Optional[Program] = None
        self.pool: Optional[_Pool] = None
        self.depth = -1  # deepest depth unfolded
        self.frontier: list[UnfoldedRule] = []  # rules new at that depth

    def deepen(
        self,
        program: Program,
        max_depth: int,
        cap: int,
        layer: Callable[[int], list[UnfoldedRule]],
    ) -> list[UnfoldedRule]:
        """Run ``layer(depth)`` for each depth after the last one done, up
        to ``max_depth``, stopping once a depth adds no rule; return the
        pool as a new list."""
        if self.program is None:
            self.program, self.pool = program, _Pool(cap)
        elif self.program is not program:
            raise ValueError("an Unfolding resumes the program it started with")
        if self.depth is None:
            raise ValueError("an unfolding cut short by the rule cap cannot resume")
        if max_depth < self.depth:
            raise ValueError(f"already unfolded to depth {self.depth} > {max_depth}")
        self.pool.cap = cap
        while self.depth < max_depth and (self.depth < 0 or self.frontier):
            depth, self.depth = self.depth + 1, None
            self.frontier = layer(depth)
            self.depth = depth
        return list(self.pool.items)


def _clash(s: Term, t: Term) -> bool:
    """True when ``s`` and ``t`` carry different function symbols at a
    position where both have one; they then have no unifier, under any
    renaming of their variables."""
    if isinstance(s, Var) or isinstance(t, Var):
        return False
    return s.symbol != t.symbol or any(map(_clash, s.args, t.args))


def _narrowable(sub: Term, with_rule: Rule, forward: bool, allow_var: bool) -> bool:
    """Whether ``_narrow_pair`` may unify ``sub`` with ``with_rule``'s
    narrowing side: the rule has one right-hand side, ``sub`` is not a
    variable unless ``allow_var``, and the two do not clash."""
    if len(with_rule.rhs) != 1:
        return False
    if not allow_var and isinstance(sub, Var):
        return False
    return not _clash(sub, with_rule.lhs if forward else with_rule.rhs[0])


def _narrow_pair(
    lhs: Term,
    rhs: Term,
    pos: Position,
    sub: Term,
    fresh: Rule,
    forward: bool,
) -> Optional[tuple[Rule, Substitution]]:
    """Narrow one side of a pair at ``pos`` with ``fresh``.

    ``sub`` is the subterm at ``pos`` of the narrowed side, and ``fresh``
    a rule that ``_narrowable`` admits, renamed apart from the pair.
    Forward narrowing rewrites ``rhs`` with the rule as is; backward
    narrowing rewrites ``lhs`` with the reversed rule.  Returns the new
    (unnamed) pair and the unifier.
    """
    src, dst = (
        (fresh.lhs, fresh.rhs[0]) if forward else (fresh.rhs[0], fresh.lhs)
    )
    theta = mgu(sub, src)
    if theta is None:
        return None
    target = rhs if forward else lhs
    new_target = apply(theta, replace_at(target, pos, dst))
    other = apply(theta, lhs if forward else rhs)
    if forward:
        pair = Rule("", other, (new_target,))
    else:
        pair = Rule("", new_target, (other,))
    return pair, theta


def unfold_trs(
    r: Program,
    max_depth: int = DEFAULT_DEPTH,
    cap: int = DEFAULT_RULE_CAP,
    resume: Optional[Unfolding] = None,
) -> list[UnfoldedRule]:
    """Depth-bounded dependency-pair unfolding of a TRS.

    Depth 0 is the set of dependency pairs.  Each later depth narrows one
    side of a pair new at the depth before: below the root with the base
    rules (variable subterms allowed), at the root with a dependency
    pair.  With ``resume``, only the depths it has not reached are
    unfolded.
    """
    if r.mode is not Mode.TRS:
        raise ValueError("unfold_trs requires a TRS program")
    state = resume if resume is not None else Unfolding()
    dps = dependency_pairs(r)
    dp_rules = [dp.rule for dp in dps]

    def layer(depth: int) -> list[UnfoldedRule]:
        pool = state.pool
        if depth == 0:
            return [u for u in dps if pool.add(u) is not None]
        new = []
        for parent in state.frontier:
            u, v = parent.rule.lhs, parent.rule.rhs[0]
            avoid = term_vars(u) | term_vars(v)
            # each rule renamed apart from this parent, at most once
            renamed: dict[Rule, Rule] = {}
            # forward narrowing rewrites the rhs, backward narrowing the lhs
            # with reversed rules
            for kind, side in (("forward", v), ("backward", u)):
                forward = kind == "forward"
                for pos, sub in _subterms(side):
                    for with_rule in dp_rules if pos == ROOT else r.rules:
                        if not _narrowable(sub, with_rule, forward, True):
                            continue
                        fresh = renamed.get(with_rule)
                        if fresh is None:
                            fresh = renamed[with_rule] = rename_apart(with_rule, avoid)
                        res = _narrow_pair(u, v, pos, sub, fresh, forward)
                        if res is None:
                            continue
                        pair, theta = res
                        step = ProvenanceStep(
                            kind, (parent.rule.id, with_rule.id), pos, theta
                        )
                        added = pool.derive("u", pair.lhs, pair.rhs, depth, step)
                        if added is not None:
                            new.append(added)
        return new

    return state.deepen(r, max_depth, cap, layer)


def overlap_closure(
    r: Program,
    max_depth: int = DEFAULT_DEPTH,
    cap: int = DEFAULT_RULE_CAP,
) -> list[UnfoldedRule]:
    """Depth-bounded overlap closure: depth 0 is the program itself;
    each later depth overlaps two closure elements forwards or backwards
    at a non-variable subterm.
    """
    if r.mode is not Mode.TRS:
        raise ValueError("overlap_closure requires a TRS program")
    pool = _Pool(cap)
    for rule in r.rules:
        if rule.trs_usable:
            pool.add(
                UnfoldedRule(
                    rule, 0, ProvenanceStep("base", (rule.id,), ROOT, Substitution())
                )
            )
    frontier = list(pool.items)
    for depth in range(1, max_depth + 1):
        new_frontier = []
        known = list(pool.items)
        # overlap every known pair in which at least one member is new at
        # the previous depth
        for a in known:
            for b in known:
                if a.depth != depth - 1 and b.depth != depth - 1:
                    continue
                # forward: narrow a non-variable subterm of a's rhs with b;
                # backward: narrow one of b's lhs with the reversal of a
                for kind, host, with_rule in (
                    ("oc-forward", a.rule, b.rule),
                    ("oc-backward", b.rule, a.rule),
                ):
                    forward = kind == "oc-forward"
                    lhs, rhs = host.lhs, host.rhs[0]
                    avoid = term_vars(lhs) | term_vars(rhs)
                    for pos, sub in _subterms(rhs if forward else lhs):
                        if not _narrowable(sub, with_rule, forward, False):
                            continue
                        fresh = rename_apart(with_rule, avoid)
                        res = _narrow_pair(lhs, rhs, pos, sub, fresh, forward)
                        if res is None:
                            continue
                        pair, theta = res
                        step = ProvenanceStep(kind, (a.rule.id, b.rule.id), pos, theta)
                        added = pool.derive("oc", pair.lhs, pair.rhs, depth, step)
                        if added is not None:
                            new_frontier.append(added)
        frontier = new_frontier
        if not frontier:
            break
    return pool.items


def binary_unfold(
    p: Program,
    max_depth: int = DEFAULT_DEPTH,
    cap: int = DEFAULT_RULE_CAP,
    resume: Optional[Unfolding] = None,
) -> list[UnfoldedRule]:
    """Depth-bounded binary unfolding of a logic program.

    Derived rules all have right-hand sides of length at most one.  A
    derivation erases a proven prefix of a rule body with derived unit
    rules, then either keeps the next body atom (A), narrows it with a
    derived binary rule (B), or erases the whole body (C).  With
    ``resume``, only the iterations it has not reached are run.
    """
    if p.mode is not Mode.LP:
        raise ValueError("binary_unfold requires an LP program")
    state = resume if resume is not None else Unfolding()

    def emit(rule_lhs, rule_rhs, depth, kind, parents, pos, theta):
        return state.pool.derive(
            "b", rule_lhs, rule_rhs, depth, ProvenanceStep(kind, parents, pos, theta)
        )

    def erase_prefix(rule: Rule, upto: int, units: list[UnfoldedRule]):
        """All ways of erasing body atoms 1..upto with derived unit rules.

        Yields (accumulated substitution, used unit ids, max unit depth).
        """
        states = [(Substitution(), (), -1)]
        for j in range(upto):
            nxt = []
            for theta, used, dmax in states:
                vj = apply(theta, rule.rhs[j])
                for unit in units:
                    if _clash(vj, unit.rule.lhs):
                        continue
                    fresh = rename_apart(
                        unit.rule, term_vars(rule.lhs) | term_vars(rule.rhs)
                    )
                    sigma = mgu(vj, fresh.lhs)
                    if sigma is None:
                        continue
                    nxt.append(
                        (
                            compose(theta, sigma),
                            used + (unit.rule.id,),
                            max(dmax, unit.depth),
                        )
                    )
            states = nxt
            if not states:
                return []
        return states

    # Iteration j combines only rules of earlier iterations, so every rule
    # it emits has depth at most j.
    def layer(iteration: int) -> list[UnfoldedRule]:
        pool = state.pool
        units = [u for u in pool.items if len(u.rule.rhs) == 0]
        binaries = [u for u in pool.items if len(u.rule.rhs) == 1]
        before = len(pool.items)
        for rule in p.rules:
            n = len(rule.rhs)
            # clause (C): erase the entire body
            for theta, used, dmax in erase_prefix(rule, n, units):
                emit(
                    apply(theta, rule.lhs),
                    (),
                    dmax + 1,
                    "binunf-C",
                    (rule.id,) + used,
                    (n,),
                    theta,
                )
            for i in range(1, n + 1):
                for theta, used, dmax in erase_prefix(rule, i - 1, units):
                    # clause (A): keep body atom i
                    emit(
                        apply(theta, rule.lhs),
                        (apply(theta, rule.rhs[i - 1]),),
                        dmax + 1,
                        "binunf-A",
                        (rule.id,) + used,
                        (i,),
                        theta,
                    )
                    # clause (B): additionally narrow body atom i
                    vi = apply(theta, rule.rhs[i - 1])
                    for binr in binaries:
                        if _clash(vi, binr.rule.lhs):
                            continue
                        fresh = rename_apart(
                            binr.rule, term_vars(rule.lhs) | term_vars(rule.rhs)
                        )
                        sigma = mgu(vi, fresh.lhs)
                        if sigma is None:
                            continue
                        acc = compose(theta, sigma)
                        emit(
                            apply(acc, rule.lhs),
                            (apply(sigma, fresh.rhs[0]),),
                            max(dmax, binr.depth) + 1,
                            "binunf-B",
                            (rule.id,) + used + (binr.rule.id,),
                            (i,),
                            acc,
                        )
        return pool.items[before:]

    return state.deepen(p, max_depth, cap, layer)


def unfolded_program(rules: list[UnfoldedRule], mode: Mode) -> Program:
    """Wrap unfolded rules as a runnable program."""
    plain = [u.rule if isinstance(u, UnfoldedRule) else u for u in rules]
    return Program(plain, mode)


# ---------------------------------------------------------------------------
# Provenance replay

def replay_provenance(
    u: UnfoldedRule,
    base: Program,
    pool: dict[str, UnfoldedRule],
) -> Optional[Rule]:
    """Reconstruct ``u.rule`` from its parents; None if not replayable.

    The reconstruction is deterministic, so callers can compare the result
    with the stored rule up to variant equivalence.
    """
    pv = u.provenance

    def lookup(rule_id: str) -> Optional[Rule]:
        if rule_id in pool:
            return pool[rule_id].rule
        try:
            return base.rule(rule_id)
        except KeyError:
            return None

    if pv.kind == "base":
        return lookup(pv.parents[0])
    if pv.kind == "dp":
        parent = lookup(pv.parents[0])
        if parent is None:
            return None
        marks = MarkedSignature(defined_symbols(base))
        sub = subterm_at(parent.rhs[0], pv.position)
        return Rule(u.rule.id, mark_root(parent.lhs, marks), (mark_root(sub, marks),))
    if pv.kind in ("forward", "backward", "oc-forward", "oc-backward"):
        parent = lookup(pv.parents[0])
        with_rule = lookup(pv.parents[1])
        if parent is None or with_rule is None:
            return None
        lhs, rhs = parent.lhs, parent.rhs[0]
        forward = pv.kind in ("forward", "oc-forward")
        sub = subterm_at(rhs if forward else lhs, pv.position)
        if not _narrowable(sub, with_rule, forward, not pv.kind.startswith("oc")):
            return None
        fresh = rename_apart(with_rule, term_vars(lhs) | term_vars(rhs))
        res = _narrow_pair(lhs, rhs, pv.position, sub, fresh, forward)
        if res is None:
            return None
        pair, _ = res
        return Rule(u.rule.id, pair.lhs, pair.rhs)
    if pv.kind.startswith("binunf"):
        rule = lookup(pv.parents[0])
        if rule is None:
            return None
        used = [lookup(x) for x in pv.parents[1:]]
        if any(x is None for x in used):
            return None
        theta = Substitution()
        if pv.kind == "binunf-B":
            *units, binr = used
        else:
            units, binr = used, None
        for j, unit in enumerate(units):
            fresh = rename_apart(unit, term_vars(rule.lhs) | term_vars(rule.rhs))
            sigma = mgu(apply(theta, rule.rhs[j]), fresh.lhs)
            if sigma is None:
                return None
            theta = compose(theta, sigma)
        if pv.kind == "binunf-C":
            return Rule(u.rule.id, apply(theta, rule.lhs), ())
        i = pv.position[0]
        if pv.kind == "binunf-A":
            return Rule(
                u.rule.id,
                apply(theta, rule.lhs),
                (apply(theta, rule.rhs[i - 1]),),
            )
        fresh = rename_apart(binr, term_vars(rule.lhs) | term_vars(rule.rhs))
        sigma = mgu(apply(theta, rule.rhs[i - 1]), fresh.lhs)
        if sigma is None:
            return None
        acc = compose(theta, sigma)
        return Rule(u.rule.id, apply(acc, rule.lhs), (apply(sigma, fresh.rhs[0]),))
    return None
