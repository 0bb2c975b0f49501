"""Rules, programs and the three rewrite semantics.

Three successor relations are provided:

* term rewriting: match a rule left-hand side against any subterm and
  replace it by the instantiated right-hand side;
* logic-programming narrowing: unify a goal element with a renamed rule
  head and splice in the instantiated body;
* restricted logic programming: instance-based rewriting of a single term
  at the root, limited to rules whose single body atom introduces no new
  variables.

``rewrite_at`` builds the one step of a given rule at a given position;
successor enumeration calls it in a fixed order (rule order, then
position) so that searches and certificates are reproducible.
Verification builds no step: ``_rewrites_to`` checks a claimed step
where it stands.  Under term rewriting and the restricted relation it
walks the source and the claimed target down the step's position
together, matches the rule's left side there, and walks the right side
against the target's subterm.  Under narrowing it unifies as
``rewrite_at`` does and walks each atom of the resolvent against the
target's atom.  Both accept a step exactly when ``rewrite_at`` would
build it; ``_admissible`` holds the guards the two share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .errors import InvalidPositionError, ResourceLimitError
from .substitution import Substitution, _match, apply, match, mgu, renaming_apart
from .terms import (
    App,
    Goal,
    Position,
    ROOT,
    Term,
    Var,
    canonical,
    render,
    render_position,
    renderer,
    replace_at,
    subterm_at,
    iter_positions,
    max_var_id,
    term_vars,
)


class Mode(enum.Enum):
    TRS = "TRS"
    LP = "LP"


class Semantics(enum.Enum):
    TRS = "TRS"
    LP_NARROW = "LP-NARROW"
    LP_RESTRICTED = "LP-RESTRICTED"


@dataclass(frozen=True, slots=True)
class Rule:
    """A rule ``id: lhs -> rhs``, equal to another with the same three
    fields.  Its hash, the value a frozen dataclass of the three has, is
    computed on first use and cached, as on ``App``; ``__reduce__`` drops
    the cache, since ``str`` hashes differ between processes."""

    id: str
    lhs: Term
    rhs: Goal
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.id, self.lhs, self.rhs))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return Rule, (self.id, self.lhs, self.rhs)

    @property
    def trs_usable(self) -> bool:
        return len(self.rhs) == 1

    @property
    def restricted_usable(self) -> bool:
        return len(self.rhs) == 1 and term_vars(self.rhs[0]) <= term_vars(self.lhs)

    def all_vars(self):
        return term_vars((self.lhs, *self.rhs))

    def rename(self, theta: Substitution) -> "Rule":
        return Rule(self.id, apply(theta, self.lhs), apply(theta, self.rhs))

    def text(self, show: Callable[[Union[Term, Goal]], str]) -> str:
        """The rule's ``repr``, its terms rendered by ``show``."""
        return f"{self.id}: {show(self.lhs)} -> {show(self.rhs)}"

    def __repr__(self):
        return self.text(renderer())


@dataclass
class Program:
    rules: list[Rule]
    mode: Mode

    def rule(self, rule_id: str) -> Rule:
        for r in self.rules:
            if r.id == rule_id:
                return r
        raise KeyError(rule_id)

    def __repr__(self):
        return f"Program({self.mode.value}, {len(self.rules)} rules)"


@dataclass(frozen=True)
class Step:
    """One rewrite step: the rule, where it applies, and what it yields;
    its source is the state before it in its chain."""

    rule_id: str
    position: Position
    target: Union[Term, Goal]

    def __repr__(self):
        return f"=[{self.rule_id}@{render_position(self.position)}]=> {render(self.target)}"


@dataclass
class Chain:
    """A start state and one step per rewrite, all under one semantics."""

    start: Union[Term, Goal]
    steps: list[Step]
    semantics: Semantics

    @property
    def end(self) -> Union[Term, Goal]:
        return self.steps[-1].target if self.steps else self.start

    def states(self) -> list[Union[Term, Goal]]:
        return [self.start] + [s.target for s in self.steps]

    def instantiate(self, theta: Substitution) -> "Chain":
        """Pointwise instance of the chain (valid for the stable semantics)."""
        steps = [Step(s.rule_id, s.position, apply(theta, s.target)) for s in self.steps]
        return Chain(apply(theta, self.start), steps, self.semantics)


def _admissible(
    rule: Rule, source: Union[Term, Goal], position: Position, semantics: Semantics
) -> bool:
    """Whether ``rule`` may apply at ``position`` under ``semantics`` at
    all: at one atom of the goal under narrowing, at the root only and
    with no new variable under the restricted relation, and with a
    one-atom right side under term rewriting."""
    if semantics is Semantics.LP_NARROW:
        return len(position) == 1 and 1 <= position[0] <= len(source)
    if semantics is Semantics.LP_RESTRICTED:
        return not position and rule.restricted_usable
    return rule.trs_usable


def _resolution(rule: Rule, goal: Goal, i: int) -> Optional[tuple[Substitution, Goal]]:
    """The unifier of atom ``i`` of ``goal`` with the head of ``rule``
    renamed apart from the goal, and the resolvent before the unifier is
    applied; None if they do not unify.  The renaming takes ids just
    above the largest id in the goal, which makes targets reproducible."""
    gamma = renaming_apart(rule.all_vars(), max_var_id(goal))
    theta = mgu(goal[i - 1], apply(gamma, rule.lhs))
    if theta is None:
        return None
    return theta, goal[: i - 1] + apply(gamma, rule.rhs) + goal[i:]


def rewrite_at(
    rule: Rule, source: Union[Term, Goal], position: Position, semantics: Semantics
) -> Optional[Step]:
    """The step of ``rule`` at ``position`` of ``source``, or None.

    Under narrowing the rule is renamed apart from the goal
    (``_resolution``).
    """
    if not _admissible(rule, source, position, semantics):
        return None
    if semantics is Semantics.LP_NARROW:
        resolved = _resolution(rule, source, position[0])
        if resolved is None:
            return None
        theta, resolvent = resolved
        return Step(rule.id, position, apply(theta, resolvent))
    try:
        theta = match(rule.lhs, subterm_at(source, position))
    except InvalidPositionError:
        return None
    if theta is None:
        return None
    target = replace_at(source, position, apply(theta, rule.rhs[0]))
    return Step(rule.id, position, target)


def _rewrites_to(
    rule: Rule,
    source: Union[Term, Goal],
    position: Position,
    target: Union[Term, Goal],
    semantics: Semantics,
) -> bool:
    """Whether ``rewrite_at(rule, source, position, semantics)`` builds a
    step to ``target``, decided without building it.

    Under term rewriting and the restricted relation, ``source`` and
    ``target`` are walked down ``position`` together: at each level both
    have one symbol and equal arguments off the path.  At the position
    the rule's left side is matched against the source's subterm, and the
    right side is walked against the target's subterm.  Under narrowing
    the rule is renamed apart and unified as ``rewrite_at`` does, and
    each atom of the resolvent is walked against the target's atom.
    """
    if not _admissible(rule, source, position, semantics):
        return False
    if semantics is Semantics.LP_NARROW:
        resolved = _resolution(rule, source, position[0])
        if resolved is None or not isinstance(target, tuple):
            return False
        theta, resolvent = resolved
        if len(resolvent) != len(target):
            return False
        bindings = theta.bindings
        return all(_image_is(a, bindings, t) for a, t in zip(resolvent, target))
    s, t = source, target
    for i in position:
        if s.__class__ is not App or not 1 <= i <= len(s.args):
            return False
        if t.__class__ is not App or (t.symbol is not s.symbol and t.symbol != s.symbol):
            return False
        sa, ta = s.args, t.args
        if sa[: i - 1] != ta[: i - 1] or sa[i:] != ta[i:]:
            return False
        s, t = sa[i - 1], ta[i - 1]
    bindings: dict[Var, Term] = {}
    return _match(rule.lhs, s, bindings) and _image_is(rule.rhs[0], bindings, t)


def _image_is(r: Term, bindings: dict[Var, Term], t: Term) -> bool:
    """Whether ``r`` with its variables mapped by ``bindings`` (the
    others kept) equals ``t``."""
    if r.__class__ is Var:
        image = bindings.get(r, r)
        return image is t or image == t
    if t.__class__ is not App or (t.symbol is not r.symbol and t.symbol != r.symbol):
        return False
    for a, b in zip(r.args, t.args):
        if not _image_is(a, bindings, b):
            return False
    return True


def successors(p: Program, a: Union[Term, Goal], semantics: Semantics) -> list[Step]:
    """Every step of ``a``, rule order first, then position order: at
    every position of a term, at every atom of a goal, or at the root
    only under the restricted relation."""
    if semantics is Semantics.TRS:
        spots = list(iter_positions(a))
    elif semantics is Semantics.LP_NARROW:
        spots = [(i,) for i in range(1, len(a) + 1)]
    else:
        spots = [ROOT]
    steps = (rewrite_at(r, a, pos, semantics) for r in p.rules for pos in spots)
    return [st for st in steps if st is not None]


#: Cap on intermediate result sets in run_word.
RUN_WORD_CAP = 10**4


def run_word(
    p: Program,
    a: Union[Term, Goal],
    word: Sequence[str],
    semantics: Semantics,
) -> list[Union[Term, Goal]]:
    """Everything reachable from ``a`` by applying the rules of ``word``
    in order, at any admissible positions.  The empty word is the identity.
    Raises ``ResourceLimitError`` once one letter reaches more than
    ``RUN_WORD_CAP`` results.
    """
    current: list[Union[Term, Goal]] = [a]
    for rule_id in word:
        p.rule(rule_id)  # raises KeyError if the word mentions unknown rules
        nxt = []
        seen = set()
        for x in current:
            for step in successors(p, x, semantics):
                if step.rule_id != rule_id:
                    continue
                key = canonical(step.target)
                if key in seen:
                    continue
                seen.add(key)
                nxt.append(step.target)
                if len(nxt) > RUN_WORD_CAP:
                    raise ResourceLimitError(
                        f"run_word exceeded {RUN_WORD_CAP} intermediate results"
                    )
        current = nxt
    return current


def verify_chain(p: Program, c: Chain) -> bool:
    """Check every step of ``c`` from the state before it, under the
    chain's semantics; True iff a rule with the step's id rewrites that
    state at the step's position to the step's target.  Each step is
    checked where it stands (``_rewrites_to``): no target is built, so
    this accepts exactly the steps ``rewrite_at`` would build."""
    by_id: dict[str, list[Rule]] = {}
    for r in p.rules:
        by_id.setdefault(r.id, []).append(r)
    semantics = c.semantics
    for source, st in zip(c.states(), c.steps):
        rules = by_id.get(st.rule_id, ())
        if not any(_rewrites_to(r, source, st.position, st.target, semantics) for r in rules):
            return False
    return True
