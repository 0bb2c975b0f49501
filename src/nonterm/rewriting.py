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
position) so that searches and certificates are reproducible, and
verification calls it only at each step's claimed rule and position.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import InvalidPositionError, ResourceLimitError
from .substitution import Substitution, apply, match, mgu, renaming_apart
from .terms import (
    Goal,
    Position,
    ROOT,
    Term,
    canonical,
    render,
    render_position,
    renderer,
    replace_at,
    subterm_at,
    iter_positions,
    term_vars,
)


class Mode(enum.Enum):
    TRS = "TRS"
    LP = "LP"


class Semantics(enum.Enum):
    TRS = "TRS"
    LP_NARROW = "LP-NARROW"
    LP_RESTRICTED = "LP-RESTRICTED"


@dataclass(frozen=True)
class Rule:
    id: str
    lhs: Term
    rhs: Goal

    @property
    def trs_usable(self) -> bool:
        return len(self.rhs) == 1

    @property
    def restricted_usable(self) -> bool:
        return len(self.rhs) == 1 and term_vars(self.rhs[0]) <= term_vars(self.lhs)

    def all_vars(self):
        return term_vars(self.lhs) | term_vars(self.rhs)

    def rename(self, theta: Substitution) -> "Rule":
        return Rule(self.id, apply(theta, self.lhs), apply(theta, self.rhs))

    def text(self, show: Callable[[Union[Term, Goal]], str]) -> str:
        """The rule's ``repr``, its terms rendered by ``show``."""
        return f"{self.id}: {show(self.lhs)} -> {show(self.rhs)}"

    def __repr__(self):
        return self.text(renderer())


def rename_apart(r: Rule, avoid: Iterable) -> Rule:
    """A variant of ``r`` whose variables are disjoint from ``avoid``."""
    gamma = renaming_apart(r.all_vars(), avoid)
    return r.rename(gamma)


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


def rewrite_at(
    rule: Rule, source: Union[Term, Goal], position: Position, semantics: Semantics
) -> Optional[Step]:
    """The step of ``rule`` at ``position`` of ``source``, or None.

    Under narrowing the rule is renamed apart from the goal with ids
    allocated just above the maximum id occurring in it, which makes
    targets reproducible.
    """
    if semantics is Semantics.LP_NARROW:
        if len(position) != 1 or not 1 <= position[0] <= len(source):
            return None
        i = position[0]
        fresh = rename_apart(rule, term_vars(source))
        theta = mgu(source[i - 1], fresh.lhs)
        if theta is None:
            return None
        target = apply(theta, source[: i - 1] + fresh.rhs + source[i:])
        return Step(rule.id, position, target)
    if semantics is Semantics.LP_RESTRICTED:
        if position or not rule.restricted_usable:
            return None
    elif not rule.trs_usable:
        return None
    try:
        theta = match(rule.lhs, subterm_at(source, position))
    except InvalidPositionError:
        return None
    if theta is None:
        return None
    target = replace_at(source, position, apply(theta, rule.rhs[0]))
    return Step(rule.id, position, target)


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
                key = key if isinstance(key, tuple) else (key,)
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
    """Replay every step of ``c`` from the state before it, under the
    chain's semantics; True iff a rule with the step's id rewrites that
    state at the step's position to the step's target."""
    by_id: dict[str, list[Rule]] = {}
    for r in p.rules:
        by_id.setdefault(r.id, []).append(r)
    for source, st in zip(c.states(), c.steps):
        rules = by_id.get(st.rule_id, ())
        got = (rewrite_at(r, source, st.position, c.semantics) for r in rules)
        if not any(g is not None and g.target == st.target for g in got):
            return False
    return True
