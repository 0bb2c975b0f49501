"""Depth-bounded program transformations.

Three "compression" transformations are provided, each as the depth-k
fragment of an intrinsically infinite closure:

* dependency-pair unfolding for term rewrite systems (marked-symbol
  pairs narrowed forwards and backwards),
* binary unfolding for logic programs under leftmost selection,
* the overlap closure of a term rewrite system.

Every produced rule carries a provenance record.  Each kind of derived
rule is computed by one piece of code: ``_narrowings`` narrows a TRS
pair, ``_erase`` and ``_binunf`` take the binary-unfolding steps, and
``replay_provenance`` re-derives a rule from its parents through those
same steps, so a replay reconstructs the rule up to variable renaming.

All three keep their whole state in one ``Unfolding``: the pool, its
variant keys, the derivation counter, the frontier, the renamed rules
and the table of unifiers.  Given the same ``Unfolding`` at each call,
dependency-pair and binary unfolding resume depth by depth from where
the last call stopped.  A narrowing whose two sides carry different function symbols
at a shared position is skipped before the rule is renamed apart, since
no renaming can make them unify.

Each derivation is checked for variants before it is built:
``Unfolding.derive`` computes the variant key of ``apply(theta, lhs) ->
apply(theta, rhs)`` from the uninstantiated pair and its unifier, and
builds the instance, the rule and its provenance only when the key is
new.  About half of all derivations are variants.  Renaming a rule apart
from a pair depends only on the rule and the largest variable id of the
pair, so each such renamed rule is built once per unfolding.

Each unifier of a narrowing is computed once per unfolding too.
``apply`` hands the subterms it leaves unchanged on to the derived
pairs, and many hosts receive the same renamed rule, so the same
subterm object meets the same renamed side again and again (three
``mgu`` calls in four, on the benchmark's ``unfold`` corpus).
``Unfolding.unifiers`` tables the ``mgu`` result of each such pair of
objects, keyed by their identities: ``Var`` equality ignores display
names, so a key by value could hand one renamed copy's names to
another's unifier.  The table lives as long as its ``Unfolding``, which
serves one analysis.  It is read only for pairs that pass the clash
pre-check, so pairs that cannot unify cost it no memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DeadlineError, InvalidPositionError, ResourceLimitError
from .rewriting import Mode, Program, Rule, rename_apart
from .substitution import EMPTY_SUBST, Substitution, apply, compose, mgu
from .terms import (
    App,
    Position,
    ROOT,
    Symbol,
    Term,
    Var,
    replace_at,
    subterm_at,
    subterms,
    term_vars,
)

MARK_SUFFIX = "#"

#: Default bounds: unfolding depth and global rule cap.
DEFAULT_DEPTH = 4
DEFAULT_RULE_CAP = 50_000


@dataclass(frozen=True)
class ProvenanceStep:
    """How one rule was derived.

    ``parents`` holds rule ids, in an order fixed by ``kind``:

    * ``base``: (the program rule,);
    * ``dp``: (the program rule whose right-hand side holds the pair's
      right side at ``position``,);
    * ``forward``/``backward``: (the narrowed pair, the rule narrowing it
      at ``position``);
    * ``oc-forward``: (the narrowed rule a, the rule b narrowing it);
    * ``oc-backward``: (the rule a narrowing, the narrowed rule b), the
      two of ``oc-forward``'s pair (a, b) in the same order;
    * ``binunf-A``/``binunf-C``: (the program clause, then the unit rules
      erasing its body atoms 1, 2, ... in order);
    * ``binunf-B``: as ``binunf-A``, then the binary rule narrowing body
      atom ``position[0]``.
    """

    kind: str
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


def defined_symbols(r: Program) -> set[Symbol]:
    """Root symbols of left-hand sides."""
    return {rule.lhs.symbol for rule in r.rules if isinstance(rule.lhs, App)}


def unmark_root(t: Term) -> Term:
    if isinstance(t, App) and t.symbol.name.endswith(MARK_SUFFIX):
        return App(Symbol(t.symbol.name[: -len(MARK_SUFFIX)], t.symbol.arity), t.args)
    return t


def _marks(r: Program) -> dict[Symbol, Symbol]:
    """Each defined symbol of ``r`` with its marked copy, one object per
    symbol, so marked roots compare by identity in ``mgu`` and ``_clash``."""
    return {f: Symbol(f.name + MARK_SUFFIX, f.arity) for f in defined_symbols(r)}


def _dependency_pair(
    rule_id: str, rule: Rule, sub: Term, marks: dict[Symbol, Symbol]
) -> Optional[Rule]:
    """The pair ``rule_id: l# -> s#`` of ``rule`` (``l -> r``) and a subterm
    ``s`` of ``r``; None unless ``l`` and ``s`` are rooted in symbols that
    ``marks`` marks."""
    lhs = rule.lhs
    if not (isinstance(lhs, App) and isinstance(sub, App)):
        return None
    root, mark = marks.get(lhs.symbol), marks.get(sub.symbol)
    if root is None or mark is None:
        return None
    return Rule(rule_id, App(root, lhs.args), (App(mark, sub.args),))


def dependency_pairs(r: Program) -> list[UnfoldedRule]:
    """Marked-root pairs extracted from defined-symbol subterms of rhs."""
    marks = _marks(r)
    out = []
    for rule in r.rules:
        for t in rule.rhs:
            for pos, sub in subterms(t):
                pair = _dependency_pair(f"dp{len(out) + 1}", rule, sub, marks)
                if pair is not None:
                    step = ProvenanceStep("dp", (rule.id,), pos, Substitution())
                    out.append(UnfoldedRule(pair, 0, step))
    return out


def _variant_key(lhs: Term, body: tuple, theta: Substitution) -> tuple:
    """The flat variant key of the rule ``apply(theta, lhs) -> apply(theta,
    body)``, computed without building it: the body length, then the
    symbols of the head and body in preorder, each variable replaced by
    the number of its first occurrence.  Two rules get equal keys exactly
    when their ``canonical`` forms are equal.

    A bound variable is replaced by its image as the walk meets it;
    ``theta`` is idempotent, so the image holds no bound variable."""
    key = [len(body)]
    push = key.append
    numbers: dict[Var, int] = {}
    bound = theta._bindings.get

    def walk(t: Term) -> None:
        if t.__class__ is Var:
            image = bound(t)
            if image is None:
                push(numbers.setdefault(t, len(numbers)))
            else:
                walk(image)
        else:
            push(t.symbol)
            for a in t.args:
                walk(a)

    walk(lhs)
    for t in body:
        walk(t)
    return tuple(key)


def _dedup_key(rule: Rule) -> tuple:
    """The variant key of a built rule."""
    return _variant_key(rule.lhs, rule.rhs, EMPTY_SUBST)


class Unfolding:
    """One program's dependency-pair or binary unfolding (or one overlap
    closure): the pool of derived rules and where the unfolding stopped.
    ``pool`` holds no two variants and at most ``cap`` rules; only ``add``
    and ``derive`` extend it.

    Pass the same instance to successive ``unfold_trs``/``binary_unfold``
    calls on one program, at depths that do not decrease: each call then
    unfolds only the depths not done yet.  A call cut short by the rule
    cap or by the deadline leaves the instance unusable.

    ``renamed`` memoises the narrowing rules renamed apart, for this
    unfolding only: ``Var`` equality ignores display names, so a memo
    shared between programs would print one program's variable names in
    another's rules.

    ``unifiers`` is the table of unifiers that ``_narrowings`` fills:
    ``(id(sub), id(side))`` maps to ``(sub, side, mgu(sub, side))`` for
    each subterm ``sub`` of a pair unified with the side ``side`` of a
    renamed rule.  Keys are identities, not values, for the reason
    above; each entry holds its two key objects, so neither id can be
    reused while the table lives, and the table lives as long as this
    unfolding.  Only pairs past the clash pre-check are looked up, so
    the table holds no pair that clashes.

    ``dependency_pairs`` holds the pairs that dependency-pair unfolding
    built at depth 0 (before any pair was dropped as a variant); later
    depths narrow with them.

    ``deadline``, when set, is the ``time.monotonic()`` reading past which
    the unfolding raises ``DeadlineError``.  Dependency-pair unfolding
    checks it once per frontier rule, binary unfolding once per clause,
    both from depth 1 on: depth 0 takes time linear in the program, and
    always ends.
    """

    def __init__(self):
        self.program: Optional[Program] = None
        self.pool: list[UnfoldedRule] = []
        self.cap = DEFAULT_RULE_CAP
        self.depth = -1  # deepest depth unfolded
        self.frontier: list[UnfoldedRule] = []  # rules new at that depth
        self.renamed: dict[tuple[Rule, int], Rule] = {}
        self.unifiers: dict[tuple[int, int], tuple] = {}
        self.dependency_pairs: list[UnfoldedRule] = []
        self.deadline: Optional[float] = None
        self._keys: set = set()  # variant keys of the pool
        self._derived = 0

    def check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineError("unfolding passed its deadline")

    def add(self, u: UnfoldedRule) -> Optional[UnfoldedRule]:
        if not self._is_new(_dedup_key(u.rule)):
            return None
        self.pool.append(u)
        return u

    def _is_new(self, key: tuple) -> bool:
        """Record ``key``; False if a variant had it already.  The key is
        hashed once, since each hash calls ``Symbol.__hash__`` per symbol.
        A key recorded just before the cap error stays recorded; that
        error leaves the unfolding unusable anyway."""
        keys = self._keys
        known = len(keys)
        keys.add(key)
        if len(keys) == known:
            return False
        if len(self.pool) >= self.cap:
            raise ResourceLimitError(f"unfolding exceeded {self.cap} rules")
        return True

    def derive(
        self,
        prefix: str,
        lhs: Term,
        rhs: tuple,
        theta: Substitution,
        depth: int,
        step: tuple,
    ) -> Optional[UnfoldedRule]:
        """Name the rule ``apply(theta, lhs) -> apply(theta, rhs)``
        ``<prefix><n>`` and pool it, with ``ProvenanceStep(*step)``; ``n``
        counts every derivation, including variants that are dropped.  A
        variant is dropped before the rule, its instance or its provenance
        is built."""
        self._derived += 1
        if not self._is_new(_variant_key(lhs, rhs, theta)):
            return None
        named = Rule(f"{prefix}{self._derived}", apply(theta, lhs), apply(theta, rhs))
        u = UnfoldedRule(named, depth, ProvenanceStep(*step))
        self.pool.append(u)
        return u

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
            self.program = program
        elif self.program is not program:
            raise ValueError("an Unfolding resumes the program it started with")
        if self.depth is None:
            raise ValueError("an unfolding cut short cannot resume")
        if max_depth < self.depth:
            raise ValueError(f"already unfolded to depth {self.depth} > {max_depth}")
        self.cap = cap
        while self.depth < max_depth and (self.depth < 0 or self.frontier):
            depth, self.depth = self.depth + 1, None
            self.frontier = layer(depth)
            self.depth = depth
        return list(self.pool)


def _clash(s: Term, t: Term) -> bool:
    """True when ``s`` and ``t`` carry different function symbols at a
    position where both have one; they then have no unifier, under any
    renaming of their variables."""
    if isinstance(s, Var) or isinstance(t, Var):
        return False
    return s.symbol != t.symbol or any(map(_clash, s.args, t.args))


def _narrowings(
    host: Rule,
    kinds: tuple[str, ...],
    rules_at: Callable[[Position], list[Rule]],
    allow_var: bool,
    renamed: Optional[dict[tuple[Rule, int], Rule]] = None,
    unifiers: Optional[dict[tuple[int, int], tuple]] = None,
):
    """Every narrowing of the pair ``host``, the one place a pair is
    narrowed.

    For each kind in ``kinds`` in turn (a kind ending in ``forward``
    rewrites the right-hand side with a rule as is, one ending in
    ``backward`` the left-hand side with the reversed rule), each
    position of that side in ``iter_positions`` order (a variable
    subterm only if ``allow_var``) and each rule of ``rules_at(pos)`` with
    one right-hand side, in order: the rule, renamed apart from ``host``,
    is unified with the subterm there.  Yields ``(kind, pos, rule, lhs,
    rhs, unifier)`` for each unifier found, the new (unnamed) pair being
    ``apply(unifier, lhs) -> apply(unifier, rhs)``.

    The renaming of a rule depends only on the rule and the largest
    variable id of ``host``, so it is built once per such key, in
    ``renamed`` if given, else once per call.  Likewise each pair of a
    subterm object and a renamed side object is unified once, in
    ``unifiers`` (an ``Unfolding.unifiers`` table) if given.
    """
    lhs, rhs = host.lhs, host.rhs[0]
    avoid = term_vars(lhs) | term_vars(rhs)
    top = max([v.id for v in avoid], default=-1)
    if renamed is None:
        renamed = {}
    if unifiers is None:
        unifiers = {}
    for kind in kinds:
        forward = kind.endswith("forward")
        side, other = (rhs, lhs) if forward else (lhs, rhs)
        for pos, sub in subterms(side):
            if not allow_var and isinstance(sub, Var):
                continue
            for with_rule in rules_at(pos):
                if len(with_rule.rhs) != 1 or _clash(
                    sub, with_rule.lhs if forward else with_rule.rhs[0]
                ):
                    continue
                fresh = renamed.get((with_rule, top))
                if fresh is None:
                    fresh = renamed[with_rule, top] = rename_apart(with_rule, avoid)
                src, dst = fresh.lhs, fresh.rhs[0]
                target = src if forward else dst
                key = (id(sub), id(target))
                known = unifiers.get(key)
                if known is None:
                    theta = mgu(sub, target)
                    unifiers[key] = (sub, target, theta)
                else:
                    theta = known[2]
                if theta is None:
                    continue
                new = replace_at(side, pos, dst if forward else src)
                pair = (other, new) if forward else (new, other)
                yield kind, pos, with_rule, *pair, theta


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

    def layer(depth: int) -> list[UnfoldedRule]:
        if depth == 0:
            state.dependency_pairs = dependency_pairs(r)
            return [u for u in state.dependency_pairs if state.add(u) is not None]
        dp_rules = [dp.rule for dp in state.dependency_pairs]
        rules_at = lambda pos: dp_rules if pos == ROOT else r.rules  # noqa: E731
        new = []
        for parent in state.frontier:
            state.check_deadline()
            for kind, pos, with_rule, lhs, rhs, theta in _narrowings(
                parent.rule,
                ("forward", "backward"),
                rules_at,
                True,
                state.renamed,
                state.unifiers,
            ):
                step = (kind, (parent.rule.id, with_rule.id), pos, theta)
                added = state.derive("u", lhs, (rhs,), theta, depth, step)
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
    state = Unfolding()

    def layer(depth: int) -> list[UnfoldedRule]:
        if depth == 0:
            base = [
                UnfoldedRule(
                    rule, 0, ProvenanceStep("base", (rule.id,), ROOT, Substitution())
                )
                for rule in r.rules
                if rule.trs_usable
            ]
            return [u for u in base if state.add(u) is not None]
        new = []
        known = list(state.pool)
        # overlap every known pair in which at least one member is new at
        # the previous depth: forward narrows a's rhs with b, backward
        # narrows b's lhs with the reversal of a
        for a in known:
            for b in known:
                if a.depth != depth - 1 and b.depth != depth - 1:
                    continue
                for kinds, host, with_rule in (
                    (("oc-forward",), a.rule, b.rule),
                    (("oc-backward",), b.rule, a.rule),
                ):
                    for kind, pos, _, lhs, rhs, theta in _narrowings(
                        host,
                        kinds,
                        lambda pos: (with_rule,),
                        False,
                        state.renamed,
                        state.unifiers,
                    ):
                        step = (kind, (a.rule.id, b.rule.id), pos, theta)
                        added = state.derive("oc", lhs, (rhs,), theta, depth, step)
                        if added is not None:
                            new.append(added)
        return new

    return state.deepen(r, max_depth, cap, layer)


def _in_use(rule: Rule, theta: Substitution) -> set[Var]:
    """The variables a rule joining the derivation of ``rule`` under
    ``theta`` must be renamed apart from: the clause's own, and those the
    rules joined before brought in through ``theta``."""
    return term_vars((rule.lhs, *rule.rhs, *theta.bindings.values()))


def _erase(rule: Rule, theta: Substitution, j: int, unit: Rule) -> Optional[Substitution]:
    """``theta`` extended to erase body atom ``j`` (0-based) of ``rule``
    with the unit rule ``unit``, renamed apart from ``rule`` and from the
    range of ``theta``; None if the two do not unify."""
    atom = apply(theta, rule.rhs[j])
    if _clash(atom, unit.lhs):
        return None
    fresh = rename_apart(unit, _in_use(rule, theta))
    sigma = mgu(atom, fresh.lhs)
    return None if sigma is None else compose(theta, sigma)


def _binunf(
    kind: str, rule: Rule, theta: Substitution, i: int, binr: Optional[Rule]
) -> Optional[tuple[Term, tuple, Substitution]]:
    """One binary-unfolding clause applied to ``rule`` once ``theta`` has
    erased the body atoms before atom ``i`` (1-based): ``binunf-A`` keeps
    atom ``i``, ``binunf-B`` narrows it with the binary rule ``binr``
    (renamed apart as in ``_erase``), ``binunf-C`` (``theta`` having erased
    the whole body) leaves no body.  Returns the derived head, body and
    unifier, or None if atom ``i`` and ``binr`` do not unify."""
    if kind == "binunf-C":
        return apply(theta, rule.lhs), (), theta
    atom = apply(theta, rule.rhs[i - 1])
    if kind == "binunf-A":
        return apply(theta, rule.lhs), (atom,), theta
    if _clash(atom, binr.lhs):
        return None
    fresh = rename_apart(binr, _in_use(rule, theta))
    sigma = mgu(atom, fresh.lhs)
    if sigma is None:
        return None
    acc = compose(theta, sigma)
    return apply(acc, rule.lhs), (apply(sigma, fresh.rhs[0]),), acc


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

    def erase_prefix(rule: Rule, upto: int, units: list[UnfoldedRule]):
        """All ways of erasing body atoms 1..upto with derived unit rules,
        as (accumulated substitution, used unit ids, max unit depth)."""
        states = [(Substitution(), (), -1)]
        for j in range(upto):
            states = [
                (acc, used + (unit.rule.id,), max(dmax, unit.depth))
                for theta, used, dmax in states
                for unit in units
                if (acc := _erase(rule, theta, j, unit.rule)) is not None
            ]
            if not states:
                break
        return states

    def emit(kind, rule, theta, i, used, dmax, binr=None):
        out = _binunf(kind, rule, theta, i, binr.rule if binr else None)
        if out is None:
            return
        lhs, rhs, unifier = out
        if binr is not None:
            used, dmax = used + (binr.rule.id,), max(dmax, binr.depth)
        step = (kind, (rule.id,) + used, (i,), unifier)
        state.derive("b", lhs, rhs, EMPTY_SUBST, dmax + 1, step)

    # Iteration j combines only rules of earlier iterations, so every rule
    # it emits has depth at most j.
    def layer(iteration: int) -> list[UnfoldedRule]:
        pool = state.pool
        units = [u for u in pool if len(u.rule.rhs) == 0]
        binaries = [u for u in pool if len(u.rule.rhs) == 1]
        before = len(pool)
        for rule in p.rules:
            if iteration:
                state.check_deadline()
            n = len(rule.rhs)
            for theta, used, dmax in erase_prefix(rule, n, units):
                emit("binunf-C", rule, theta, n, used, dmax)
            for i in range(1, n + 1):
                for theta, used, dmax in erase_prefix(rule, i - 1, units):
                    emit("binunf-A", rule, theta, i, used, dmax)
                    for binr in binaries:
                        emit("binunf-B", rule, theta, i, used, dmax, binr)
        return pool[before:]

    return state.deepen(p, max_depth, cap, layer)


def unfolded_program(rules: list[UnfoldedRule], mode: Mode) -> Program:
    """Wrap unfolded rules as a runnable program."""
    return Program([u.rule for u in rules], mode)


# ---------------------------------------------------------------------------
# Provenance replay

def replay_provenance(
    u: UnfoldedRule,
    base: Program,
    pool: dict[str, UnfoldedRule],
) -> Optional[Rule]:
    """Reconstruct ``u.rule`` from its parents; None if not replayable.

    The rule is derived again through the steps the unfolders use
    (``_narrowings``, ``_erase``, ``_binunf``), restricted to the recorded
    parents and position, so callers can compare the result with the
    stored rule up to variant equivalence.
    """
    pv = u.provenance

    def lookup(rule_id: str) -> Optional[Rule]:
        if rule_id in pool:
            return pool[rule_id].rule
        try:
            return base.rule(rule_id)
        except KeyError:
            return None

    parents = [lookup(x) for x in pv.parents]
    if not parents or any(x is None for x in parents):
        return None
    if pv.kind == "base":
        return parents[0]
    if pv.kind == "dp":
        try:
            sub = subterm_at(parents[0].rhs[0], pv.position)
        except InvalidPositionError:
            return None
        return _dependency_pair(u.rule.id, parents[0], sub, _marks(base))
    if pv.kind in ("forward", "backward", "oc-forward", "oc-backward"):
        if len(parents) != 2:
            return None
        host, with_rule = parents[::-1] if pv.kind == "oc-backward" else parents
        at = lambda pos: (with_rule,) if pos == pv.position else ()  # noqa: E731
        allow_var = not pv.kind.startswith("oc")
        for _, _, _, lhs, rhs, theta in _narrowings(host, (pv.kind,), at, allow_var):
            return Rule(u.rule.id, apply(theta, lhs), (apply(theta, rhs),))
        return None
    if pv.kind in ("binunf-A", "binunf-B", "binunf-C"):
        rule, *used = parents
        binr = used.pop() if pv.kind == "binunf-B" and used else None
        # the units erase the body atoms before the one at the position;
        # binunf-C erases the whole body
        n = len(rule.rhs)
        if pv.kind == "binunf-C":
            fits = len(used) == n and pv.position == (n,)
        else:
            fits = len(used) < n and pv.position == (len(used) + 1,)
        if not fits or (pv.kind == "binunf-B" and binr is None):
            return None
        theta = Substitution()
        for j, unit in enumerate(used):
            theta = _erase(rule, theta, j, unit)
            if theta is None:
                return None
        out = _binunf(pv.kind, rule, theta, pv.position[0], binr)
        return None if out is None else Rule(u.rule.id, out[0], out[1])
    return None
