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
variant keys, the derivation counter, the frontier, the renamed rules,
the names a renamed variable may not take, the table of unifiers and
the table of nodes.  Every derivation step takes that ``Unfolding``
whole, and ``replay_provenance`` replays through a fresh one.  Given
the same ``Unfolding`` at each call, dependency-pair and binary
unfolding resume depth by depth from where the last call stopped.  An
unfolding whose pool would grow past ``RULE_CAP`` rules raises
``ResourceLimitError``.  A narrowing whose two sides carry different
function symbols at a shared position is skipped before the rule is
renamed apart, since no renaming can make them unify.

Within one unfolding a symbol's name determines the symbol: the parsers
refuse a name used at two arities, and each unfolder refuses such a
program at depth 0 (``_symbol_names``), its marked copies included.  So
variant keys hold symbol names and ``_clash`` compares names; both then
hash and compare ``str`` objects in C, never calling ``Symbol.__hash__``
or ``Symbol.__eq__``.

Each derivation is checked for variants before it is built:
``Unfolding.derive`` computes the variant key of ``apply(theta, lhs) ->
apply(theta, rhs)`` from the uninstantiated pair and its unifier, and
builds the instance, the rule and its provenance only when the key is
new.  About half of all derivations are variants.  Renaming a rule apart
depends only on the rule and the largest variable id it must avoid (a
pair's, or one in use in a binary-unfolding derivation), so each such
renamed rule is built once per unfolding.

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

The nodes an unfolding builds are hash-consed, per unfolding, never
globally.  ``Unfolding.nodes`` maps the identities of a symbol and of
argument objects to the one ``App`` built with them.  Two walks look a
node up before building it: ``_instance``, which ``Unfolding.derive``
runs for each node of the new rule's instance, and ``_spine``, which
``_narrowings`` runs for each node of the spine that splices the
narrowing rule into its pair.  ``_instance`` spends no call on a leaf
argument (a variable is one lookup among the unifier's bindings, a
constant is kept), ``_spine`` none on the step that puts the rule in
place, and both spell out arities 1 and 2 with the lookup inline, the
arities of nearly every node they build.  A node built again from
the same objects is then the same object wherever it occurs.  So the
pool holds fewer objects for the cycle collector to scan (a sixth of
the ``App`` objects on ``double-quad`` at depth 4), and the table of
unifiers, keyed by those objects, leaves half as many ``mgu`` calls.
The key holds the children's identities, never their values, for the
reason above: two parses, or two renamed copies that differ only in
display names, are never merged.  Each entry's node holds its symbol
and children, so no id in a key is reused while the table lives, and
the table lives as long as its ``Unfolding``.  Every node these two
walks build goes through the table, at every depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import Callable, Optional

from .errors import InvalidPositionError, ResourceLimitError, check_deadline
from .rewriting import Mode, Program, Rule
from .substitution import EMPTY_SUBST, Substitution, apply, compose, mgu, renaming_apart
from .terms import (
    App,
    Position,
    ROOT,
    Symbol,
    Term,
    Var,
    max_var_id,
    subterm_at,
    subterms,
)

MARK_SUFFIX = "#"

#: Default unfolding depth, and the most rules one unfolding may pool.
DEFAULT_DEPTH = 4
RULE_CAP = 50_000


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    symbol, so marked roots compare by identity in ``mgu`` and share the
    node table's entries."""
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
    symbol names of the head and body in preorder, each variable replaced
    by the number of its first occurrence.  Within one unfolding a name
    stands for one symbol, whose arity tells where its arguments end, so
    two rules get equal keys exactly when their ``canonical`` forms are
    equal; the key hashes and compares only ``str`` and ``int`` objects.

    A bound variable is replaced by its image as the walk meets it;
    ``theta`` is idempotent, so the image holds no bound variable."""
    key = [len(body)]
    push = key.append
    numbers: dict[Var, int] = {}
    bound = theta._bindings.get
    _key_walk(lhs, push, numbers, bound)
    for t in body:
        _key_walk(t, push, numbers, bound)
    return tuple(key)


def _key_walk(t: Term, push, numbers: dict[Var, int], bound) -> None:
    """``_variant_key``'s walk of one term, its state passed in rather
    than closed over, so that a key leaves no reference cycle behind."""
    if t.__class__ is Var:
        image = bound(t)
        if image is None:
            push(numbers.setdefault(t, len(numbers)))
        else:
            _key_walk(image, push, numbers, bound)
    else:
        push(t.symbol.name)
        for a in t.args:
            _key_walk(a, push, numbers, bound)


def _dedup_key(rule: Rule) -> tuple:
    """The variant key of a built rule."""
    return _variant_key(rule.lhs, rule.rhs, EMPTY_SUBST)


def _instance(t: Term, bound, nodes: dict) -> Term:
    """``apply(theta, t)``, ``bound`` being ``theta._bindings.get``, that
    takes each node it builds from the node table ``nodes``; the subterms
    ``theta`` leaves unchanged come back as they are, as from ``apply``.

    A leaf argument costs no call: a variable is one lookup in ``bound``
    and a constant is kept as it is.  Arities 1 and 2 are spelt out, with
    the table lookup inline; other arities take the general path."""
    if t.__class__ is Var:
        return bound(t, t)
    args = t.args
    n = len(args)
    if n == 1:
        a = args[0]
        x = bound(a, a) if a.__class__ is Var else _instance(a, bound, nodes) if a.args else a
        if x is a:
            return t
        key, new = (id(t.symbol), id(x)), (x,)
    elif n == 2:
        a, b = args
        x = bound(a, a) if a.__class__ is Var else _instance(a, bound, nodes) if a.args else a
        y = bound(b, b) if b.__class__ is Var else _instance(b, bound, nodes) if b.args else b
        if x is a and y is b:
            return t
        key, new = (id(t.symbol), id(x), id(y)), (x, y)
    else:
        new = []  # a loop, not a comprehension, which would take a frame per level
        for a in args:
            new.append(
                bound(a, a) if a.__class__ is Var else _instance(a, bound, nodes) if a.args else a
            )
        new = tuple(new)
        if not any(map(is_not, new, args)):
            return t
        key = (id(t.symbol), *map(id, new))
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = App(t.symbol, new)
    return node


def _spine(t: Term, p: Position, u: Term, nodes: dict) -> Term:
    """``replace_at(t, p, u)`` for a position ``p`` of ``t``, each node on
    the path to ``p`` taken from the node table ``nodes``.  The last step
    puts ``u`` in place with no call, and arities 1 and 2 are spelt out,
    as in ``_instance``."""
    if not p:
        return u
    args = t.args
    i = p[0] - 1
    new = _spine(args[i], p[1:], u, nodes) if len(p) > 1 else u
    n = len(args)
    if n == 1:
        key, args = (id(t.symbol), id(new)), (new,)
    elif n == 2:
        args = (new, args[1]) if i == 0 else (args[0], new)
        key = (id(t.symbol), id(args[0]), id(args[1]))
    else:
        args = (*args[:i], new, *args[i + 1 :])
        key = (id(t.symbol), *map(id, args))
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = App(t.symbol, args)
    return node


class Unfolding:
    """One program's dependency-pair or binary unfolding (or one overlap
    closure): the pool of derived rules and where the unfolding stopped.
    ``pool`` holds no two variants and at most ``RULE_CAP`` rules; only
    ``add`` and ``derive`` extend it, and raise ``ResourceLimitError``
    past that cap.

    Pass the same instance to successive ``unfold_trs``/``binary_unfold``
    calls on one program, at depths that do not decrease: each call then
    unfolds only the depths not done yet.  A call cut short by
    ``RULE_CAP`` or by the deadline leaves the instance unusable.

    ``renamed`` memoises the rules renamed apart (narrowing rules, and
    the unit and binary rules that join a binary-unfolding derivation),
    keyed by the rule and the largest variable id avoided, for this
    unfolding only: ``Var`` equality ignores display names, so a memo
    shared between programs would print one program's variable names in
    another's rules.

    ``taken`` holds the names of the program's function symbols (for
    dependency-pair unfolding, of their marked copies too), which no
    variable renamed apart may take.  Dependency-pair unfolding and the
    overlap closure set it at depth 0; binary unfolding and replay leave
    it empty, so their renamings keep plain names.

    ``unifiers`` is the table of unifiers that ``_narrowings`` fills:
    ``(id(sub), id(side))`` maps to ``(sub, side, mgu(sub, side))`` for
    each subterm ``sub`` of a pair unified with the side ``side`` of a
    renamed rule.  Keys are identities, not values, for the reason
    above; each entry holds its two key objects, so neither id can be
    reused while the table lives, and the table lives as long as this
    unfolding.  Only pairs past the clash pre-check are looked up, so
    the table holds no pair that clashes.

    ``nodes`` is the table of nodes: ``(id(symbol), id(arg1), ...,
    id(argn))`` maps to the one ``App`` of this unfolding with that
    symbol object and those argument objects.  ``derive`` (through
    ``_instance``) and ``_narrowings`` (through ``_spine``) enter every
    node they build, and both walks look the key up in line.  Keys are
    identities for the reason above, and each node holds the objects of
    its key, so no key id is reused while the table lives.

    ``dependency_pairs`` holds the pairs that dependency-pair unfolding
    built at depth 0 (before any pair was dropped as a variant); later
    depths narrow with them.

    ``deadline``, when set, is the ``time.monotonic()`` reading past which
    the unfolding raises ``DeadlineError``, through the one
    ``errors.check_deadline`` that the searches' ``Budget`` calls too.
    Dependency-pair unfolding checks it once per frontier rule, binary
    unfolding once per clause, both from depth 1 on: depth 0 takes time
    linear in the program, and always ends.
    """

    def __init__(self):
        self.program: Optional[Program] = None
        self.pool: list[UnfoldedRule] = []
        self.depth = -1  # deepest depth unfolded
        self.frontier: list[UnfoldedRule] = []  # rules new at that depth
        self.renamed: dict[tuple[Rule, int], Rule] = {}
        self.taken: frozenset[str] = frozenset()
        self.unifiers: dict[tuple[int, int], tuple] = {}
        self.nodes: dict[tuple[int, ...], App] = {}
        self.dependency_pairs: list[UnfoldedRule] = []
        self.deadline: Optional[float] = None
        self._keys: set = set()  # variant keys of the pool
        self._derived = 0

    def add(self, u: UnfoldedRule) -> None:
        if self._is_new(_dedup_key(u.rule)):
            self.pool.append(u)

    def _is_new(self, key: tuple) -> bool:
        """Record ``key``; False if a variant had it already.  The key is
        hashed once: a tuple does not cache its hash, and a key is as long
        as its rule.
        A key recorded just before the ``RULE_CAP`` error stays recorded;
        that error leaves the unfolding unusable anyway."""
        keys = self._keys
        known = len(keys)
        keys.add(key)
        if len(keys) == known:
            return False
        if len(self.pool) >= RULE_CAP:
            raise ResourceLimitError(f"unfolding exceeded {RULE_CAP} rules")
        return True

    def derive(
        self,
        prefix: str,
        lhs: Term,
        rhs: tuple,
        theta: Substitution,
        depth: int,
        step: tuple,
    ) -> None:
        """Name the rule ``apply(theta, lhs) -> apply(theta, rhs)``
        ``<prefix><n>`` and pool it, with ``ProvenanceStep(*step)``; ``n``
        counts every derivation, including variants that are dropped.  A
        variant is dropped before the rule, its instance or its provenance
        is built."""
        self._derived += 1
        if not self._is_new(_variant_key(lhs, rhs, theta)):
            return
        bound, nodes = theta._bindings.get, self.nodes
        lhs = _instance(lhs, bound, nodes)
        rhs = tuple([_instance(t, bound, nodes) for t in rhs])
        named = Rule(f"{prefix}{self._derived}", lhs, rhs)
        self.pool.append(UnfoldedRule(named, depth, ProvenanceStep(*step)))

    def deepen(
        self,
        program: Program,
        max_depth: int,
        layer: Callable[[int], None],
    ) -> list[UnfoldedRule]:
        """Run ``layer(depth)`` for each depth after the last one done, up
        to ``max_depth``, stopping once a depth adds no rule; return the
        pool as a new list.  The frontier is the rules the last depth
        added to the pool, its tail from where that depth began."""
        if max_depth < 0:
            raise ValueError(f"the depth must be at least 0, not {max_depth!r}")
        if self.program is None:
            self.program = program
        elif self.program is not program:
            raise ValueError("an Unfolding resumes the program it started with")
        if self.depth is None:
            raise ValueError("an unfolding cut short cannot resume")
        if max_depth < self.depth:
            raise ValueError(f"already unfolded to depth {self.depth} > {max_depth}")
        while self.depth < max_depth and (self.depth < 0 or self.frontier):
            depth, self.depth = self.depth + 1, None
            before = len(self.pool)
            layer(depth)
            self.frontier = self.pool[before:]
            self.depth = depth
        return list(self.pool)


def _renamed(rule: Rule, top: int, state: Unfolding) -> Rule:
    """``rule`` renamed apart from the variable ids up to ``top``, no
    fresh name in ``state.taken``.  The memo ``state.renamed`` serves one
    unfolding, whose ``taken`` does not change, so the renaming is built
    once per ``(rule, top)``."""
    renamed = state.renamed
    fresh = renamed.get((rule, top))
    if fresh is None:
        gamma = renaming_apart(rule.all_vars(), top, state.taken)
        fresh = renamed[rule, top] = rule.rename(gamma)
    return fresh


def _symbol_names(rules: list[Rule]) -> frozenset[str]:
    """The names of the function symbols of ``rules``, which no variable
    that renaming makes may take.

    Refuses a name used at two arities: the unfolders check this at depth
    0, over every rule that later depths combine, so that within one
    unfolding a name stands for one symbol, and variant keys and
    ``_clash`` compare names only."""
    arities: dict[str, int] = {}
    for rule in rules:
        for t in (rule.lhs, *rule.rhs):
            for _, f in subterms(t):
                if f.__class__ is App:
                    name, arity = f.symbol.name, f.symbol.arity
                    if arities.setdefault(name, arity) != arity:
                        raise ValueError(
                            f"symbol {name} used with arities {arities[name]} and {arity}"
                        )
    return frozenset(arities)


def _clash(s: Term, t: Term) -> bool:
    """True when ``s`` and ``t`` carry function symbols of different
    names at a position where both have one; they then have no unifier,
    under any renaming of their variables.  Symbols of different names
    differ whatever their arities, so this holds for any two terms."""
    if isinstance(s, Var) or isinstance(t, Var):
        return False
    return s.symbol.name != t.symbol.name or any(map(_clash, s.args, t.args))


def _narrowings(
    host: Rule,
    kinds: tuple[str, ...],
    rules_at: Callable[[Position], list[Rule]],
    allow_var: bool,
    state: Unfolding,
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
    ``state.renamed``.  Likewise each pair of a subterm object and a
    renamed side object is unified once, in ``state.unifiers``.  The
    spine that splices the renamed rule into the pair takes its nodes
    from ``state.nodes``.  No renamed variable takes a name in
    ``state.taken``.
    """
    lhs, rhs = host.lhs, host.rhs[0]
    top = max_var_id((lhs, rhs))
    unifiers, nodes = state.unifiers, state.nodes
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
                fresh = _renamed(with_rule, top, state)
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
                new = _spine(side, pos, dst if forward else src, nodes)
                pair = (other, new) if forward else (new, other)
                yield kind, pos, with_rule, *pair, theta


def unfold_trs(
    r: Program,
    max_depth: int = DEFAULT_DEPTH,
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

    def layer(depth: int) -> None:
        if depth == 0:
            state.dependency_pairs = dependency_pairs(r)
            state.taken = _symbol_names(r.rules + [u.rule for u in state.dependency_pairs])
            for u in state.dependency_pairs:
                state.add(u)
            return
        dp_rules = [dp.rule for dp in state.dependency_pairs]
        rules_at = lambda pos: dp_rules if pos == ROOT else r.rules  # noqa: E731
        for parent in state.frontier:
            check_deadline(state.deadline, "unfolding")
            for kind, pos, with_rule, lhs, rhs, theta in _narrowings(
                parent.rule, ("forward", "backward"), rules_at, True, state
            ):
                step = (kind, (parent.rule.id, with_rule.id), pos, theta)
                state.derive("u", lhs, (rhs,), theta, depth, step)

    return state.deepen(r, max_depth, layer)


def overlap_closure(
    r: Program,
    max_depth: int = DEFAULT_DEPTH,
) -> list[UnfoldedRule]:
    """Depth-bounded overlap closure: depth 0 is the program itself;
    each later depth overlaps two closure elements forwards or backwards
    at a non-variable subterm.
    """
    if r.mode is not Mode.TRS:
        raise ValueError("overlap_closure requires a TRS program")
    state = Unfolding()

    def layer(depth: int) -> None:
        if depth == 0:
            state.taken = _symbol_names(r.rules)
            for rule in r.rules:
                if rule.trs_usable:
                    step = ProvenanceStep("base", (rule.id,), ROOT, Substitution())
                    state.add(UnfoldedRule(rule, 0, step))
            return
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
                        host, kinds, lambda pos: (with_rule,), False, state
                    ):
                        step = (kind, (a.rule.id, b.rule.id), pos, theta)
                        state.derive("oc", lhs, (rhs,), theta, depth, step)

    return state.deepen(r, max_depth, layer)


def _joining(joined: Rule, rule: Rule, theta: Substitution, state: Unfolding) -> Rule:
    """``joined`` renamed apart from the variables in use in the
    derivation of ``rule`` under ``theta``: the clause's own, and those
    the rules joined before brought in through ``theta``."""
    top = max_var_id((rule.lhs, *rule.rhs, *theta._bindings.values()))
    return _renamed(joined, top, state)


def _erase(
    rule: Rule,
    theta: Substitution,
    j: int,
    unit: Rule,
    state: Unfolding,
) -> Optional[Substitution]:
    """``theta`` extended to erase body atom ``j`` (0-based) of ``rule``
    with the unit rule ``unit``, renamed apart from ``rule`` and from the
    range of ``theta`` through the memo ``state.renamed``; None if the
    two do not unify."""
    atom = apply(theta, rule.rhs[j])
    if _clash(atom, unit.lhs):
        return None
    fresh = _joining(unit, rule, theta, state)
    sigma = mgu(atom, fresh.lhs)
    return None if sigma is None else compose(theta, sigma)


def _binunf(
    kind: str,
    rule: Rule,
    theta: Substitution,
    i: int,
    binr: Optional[Rule],
    state: Unfolding,
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
    fresh = _joining(binr, rule, theta, state)
    sigma = mgu(atom, fresh.lhs)
    if sigma is None:
        return None
    acc = compose(theta, sigma)
    return apply(acc, rule.lhs), (apply(sigma, fresh.rhs[0]),), acc


def binary_unfold(
    p: Program,
    max_depth: int = DEFAULT_DEPTH,
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

    def erased_prefixes(rule: Rule, units: list[UnfoldedRule]) -> list[list]:
        """For each i from 0 to the body length, all ways of erasing body
        atoms 1..i with derived unit rules, as (accumulated substitution,
        used unit ids, max unit depth); the ways for i extend those for
        i - 1."""
        states = [(Substitution(), (), -1)]
        prefixes = [states]
        for j in range(len(rule.rhs)):
            states = [
                (acc, used + (unit.rule.id,), max(dmax, unit.depth))
                for theta, used, dmax in states
                for unit in units
                if (acc := _erase(rule, theta, j, unit.rule, state)) is not None
            ]
            prefixes.append(states)
        return prefixes

    def emit(kind, rule, theta, i, used, dmax, binr=None):
        out = _binunf(kind, rule, theta, i, binr.rule if binr else None, state)
        if out is None:
            return
        lhs, rhs, unifier = out
        if binr is not None:
            used, dmax = used + (binr.rule.id,), max(dmax, binr.depth)
        step = (kind, (rule.id,) + used, (i,), unifier)
        state.derive("b", lhs, rhs, EMPTY_SUBST, dmax + 1, step)

    # Iteration j combines only rules of earlier iterations, so every rule
    # it emits has depth at most j.
    def layer(iteration: int) -> None:
        if not iteration:
            _symbol_names(p.rules)  # refuses a name at two arities
        units = [u for u in state.pool if len(u.rule.rhs) == 0]
        binaries = [u for u in state.pool if len(u.rule.rhs) == 1]
        for rule in p.rules:
            if iteration:
                check_deadline(state.deadline, "unfolding")
            *kept, erased = erased_prefixes(rule, units)
            for theta, used, dmax in erased:
                emit("binunf-C", rule, theta, len(kept), used, dmax)
            for i, states in enumerate(kept, 1):
                for theta, used, dmax in states:
                    emit("binunf-A", rule, theta, i, used, dmax)
                    for binr in binaries:
                        emit("binunf-B", rule, theta, i, used, dmax, binr)

    return state.deepen(p, max_depth, layer)


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
    state = Unfolding()

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
        for _, _, _, lhs, rhs, theta in _narrowings(host, (pv.kind,), at, allow_var, state):
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
            theta = _erase(rule, theta, j, unit, state)
            if theta is None:
                return None
        out = _binunf(pv.kind, rule, theta, pv.position[0], binr, state)
        return None if out is None else Rule(u.rule.id, out[0], out[1])
    return None
