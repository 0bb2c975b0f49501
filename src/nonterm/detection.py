"""Non-termination witnesses: loops and recurrent pairs.

A loop is a finite rewrite a =w=> a' where a' embeds an instance of a
(term rewriting) or a more general goal than a (narrowing).  Either
relation is compatible with the respective rewrite relation, so a loop
unrolls into an infinite chain; ``infinite_chain_prefix`` materializes a
finite prefix of that chain, step by step, so it can be re-verified.
It replays the loop's rule word with ``rewrite_at``, each round one
embedding deeper than the round before.

A recurrent pair is a pair of finite chains shaped so that one rule word
peels a tower of contexts while the other rebuilds it, certifying an
infinite chain alternating the two words; ``witness_chain`` materializes
its prefix with exact exponent bookkeeping.  ``find_recurrent_pair``
skips every first chain that fails ``_may_decompose``, a walk over its
two sides that rules out a decomposition without building a context.
For a chain that passes, what the walk found fixes the decompositions:
the variable that differs and the term facing it, and the anchor.  A
partner is matched with one walk over each of its sides, and a tower
layer is peeled with a walk over the context, building no term.  Its
conditions are checked cheapest first: after the walk of its left side,
that side's residue at ``[]`` must be a variable; after the walk of its
right side, no skeleton variable may be bound, the variable at ``[]``
must stay free and every variable of the residue at ``[]'`` must be
bound.  Only then are the residues instantiated and the towers peeled.
Given a ``PairSweep``, it also skips the pairs of two candidates an
earlier search over a shorter pool already swept with no hit
(semi-naive evaluation), which keeps the first hit the same, and does
not precheck a candidate an earlier search prechecked.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from functools import cache
from itertools import islice
from operator import is_
from typing import Optional, Sequence, Union

from .errors import DeadlineError, UnrollError
from .rewriting import (
    Chain,
    Mode,
    Program,
    Rule,
    Semantics,
    Step,
    rewrite_at,
    successors,
)
from .substitution import Substitution, apply, compose, match
from .terms import (
    App,
    Goal,
    HOLE,
    HOLE2,
    ROOT,
    Term,
    Var,
    canonical,
    check_size,
    hole_positions,
    plug,
    plug2,
    replace_all,
    replace_at,
    subterms,
    term_vars,
)


class EmbeddingKind(enum.Enum):
    INS = "ins"  # target embeds an instance of source
    MG = "mg"  # target embeds a goal/term more general than source


@dataclass(frozen=True)
class Embedding:
    """Where ``source`` embeds in ``target``.  ``context`` is ``target``
    with the embedded part replaced by a hole: one ``[]`` at its position
    in a term, or one atom ``[]`` in place of the (possibly empty) window
    of a goal.  ``binder`` relates the two: ``source`` instantiated by it
    is the embedded part (ins), or the embedded part instantiated by it
    is ``source`` (mg)."""

    kind: EmbeddingKind
    context: Union[Term, Goal]
    binder: Substitution


@dataclass
class LoopWitness:
    embedding: Embedding
    chain: Chain

    @property
    def word(self) -> tuple[str, ...]:
        return tuple(st.rule_id for st in self.chain.steps)

    @property
    def start(self) -> Union[Term, Goal]:
        return self.chain.start

    @property
    def end(self) -> Union[Term, Goal]:
        return self.chain.end


@dataclass
class RecurrentPair:
    chain1: Chain
    chain2: Chain
    c1: Term  # two-hole context
    c2: Term  # one-hole context
    n1: int
    n2: int
    n3: int
    n4: int
    s: Term  # ground base of the towers
    t_is_s: bool  # the regrown base: the ground term (True) or x (False)
    x: Var
    y: Var

    @property
    def word1(self) -> tuple[str, ...]:
        return tuple(st.rule_id for st in self.chain1.steps)

    @property
    def word2(self) -> tuple[str, ...]:
        return tuple(st.rule_id for st in self.chain2.steps)


#: Search steps one technique may take in one analysis.
NODE_CAP = 200_000


class Budget:
    """Node budget and deadline of a search; never produces wrong NOs.
    Past ``NODE_CAP`` steps the search is ``exhausted`` and degrades to
    "nothing found", which ends this technique only.  ``deadline`` is
    the ``time.monotonic()`` reading of the whole analysis, or None for
    no time limit; once it has passed, ``tick`` raises
    ``DeadlineError``, which ends the analysis."""

    def __init__(self, deadline: Optional[float] = None):
        self.deadline = deadline
        self.nodes = 0
        self.exhausted = False

    def tick(self) -> bool:
        """Consume one step; True while steps remain."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineError("search passed its deadline")
        self.nodes += 1
        if self.nodes > NODE_CAP:
            self.exhausted = True
        return not self.exhausted


# ---------------------------------------------------------------------------
# Embedding search


def find_embedding(
    kind: EmbeddingKind,
    source: Union[Term, Goal],
    target: Union[Term, Goal],
) -> Optional[Embedding]:
    """Smallest-position embedding witness of ``source`` in ``target``."""
    if isinstance(source, tuple) != isinstance(target, tuple):
        raise ValueError("source and target must both be terms or both goals")
    if isinstance(source, tuple):
        return _find_goal_embedding(kind, source, target)
    return _find_term_embedding(kind, source, target)


def _find_term_embedding(kind, source: Term, target: Term):
    for p, sub in subterms(target):
        theta = (
            match(source, sub) if kind is EmbeddingKind.INS else match(sub, source)
        )
        if theta is None:
            continue
        return Embedding(kind, replace_at(target, p, App(HOLE)), theta)
    return None


def _find_goal_embedding(kind, source: Goal, target: Goal):
    # by start; two goals match only if their lengths are equal, so the
    # window at a start is the one of the source's length
    n = len(source)
    for i in range(len(target) - n + 1):
        j = i + n
        window = target[i:j]
        theta = (
            match(source, window)
            if kind is EmbeddingKind.INS
            else match(window, source)
        )
        if theta is None:
            continue
        return Embedding(kind, (*target[:i], App(HOLE), *target[j:]), theta)
    return None


# ---------------------------------------------------------------------------
# Loop search


def find_loop(
    program: Program, max_word_len: int, budget: Optional[Budget] = None
) -> Optional[LoopWitness]:
    """Iterative-deepening word search for a loop witness, with full
    contexts: an instance embedding under term rewriting, a more general
    goal under narrowing for a logic program.

    Starts from the left-hand side of each rule (wrapped as a singleton
    goal under narrowing) and explores all rule words of length at most
    ``max_word_len``, which must be at least 1.
    """
    if max_word_len < 1:
        raise ValueError(f"max_word_len must be at least 1, not {max_word_len!r}")
    budget = budget or Budget()
    if program.mode is Mode.TRS:
        kind, semantics = EmbeddingKind.INS, Semantics.TRS
    else:
        kind, semantics = EmbeddingKind.MG, Semantics.LP_NARROW
    for cand in program.rules:
        start = cand.lhs if semantics is Semantics.TRS else (cand.lhs,)
        frontier: list[Chain] = [Chain(start, [], semantics)]
        for _ in range(max_word_len):
            nxt: list[Chain] = []
            seen = set()
            for chain in frontier:
                if not budget.tick():
                    return None
                for step in successors(program, chain.end, semantics):
                    extended = Chain(start, chain.steps + [step], semantics)
                    emb = find_embedding(kind, start, step.target)
                    if emb is not None:
                        return LoopWitness(emb, extended)
                    key = canonical(step.target)
                    if key in seen:
                        continue
                    seen.add(key)
                    nxt.append(extended)
            frontier = nxt
    return None


# ---------------------------------------------------------------------------
# Recurrent-pair pattern matching


def _strip_layer(t: Term, c2: Term) -> Optional[Term]:
    """Inner term u with c2[u] = t, or None; builds no term."""
    res: list[Term] = []
    if _walk_template(c2, t, {}, {}, res, [], loose=False) and _all_equal(res):
        return res[0]
    return None


def _peel_stages(t: Term, c2: Term) -> list[Term]:
    """stages[n] is the remainder of ``t`` after peeling n layers of c2,
    for n up to 500."""
    stages = [t]
    while len(stages) <= 500:
        nxt = _strip_layer(stages[-1], c2)
        if nxt is None:
            break
        stages.append(nxt)
    return stages


def _ground_template(c: Term) -> bool:
    if isinstance(c, Var):
        return False
    if c.symbol in (HOLE, HOLE2):
        return False
    return all(_ground_template(a) for a in c.args)


def _walk_template(
    c: Term,
    u: Term,
    var_map: dict[Var, Var],
    bindings: dict[Var, Term],
    res1: list[Term],
    res2: list[Term],
    loose: bool,
) -> bool:
    """Match ``u`` against the two-hole skeleton ``c``.

    Residues at the primary and secondary hole positions are appended to
    ``res1``/``res2``.  Non-hole variables of the skeleton must
    correspond to a consistent, injective variable renaming, recorded in
    ``var_map``.  In loose mode a variable of ``u`` meeting ground
    skeleton content is bound to it instead of failing, recorded in
    ``bindings``; that instantiation keeps the chain valid because the
    underlying semantics are closed under substitution.  ``_strip_layer``
    also uses it, strictly, on the one-hole ``c2``.
    """
    if isinstance(c, App):
        sym = c.symbol
        if not c.args:  # a hole is 0-ary, so its name tells it apart
            if sym.name == HOLE.name:
                res1.append(u)
                return True
            if sym.name == HOLE2.name:
                res2.append(u)
                return True
    if isinstance(u, Var) and u in bindings:
        u = bindings[u]
    if isinstance(c, Var):
        if c in var_map:
            return var_map[c] == u
        if not isinstance(u, Var) or u in var_map.values():
            return False
        var_map[c] = u
        return True
    if isinstance(u, Var):
        if loose and _ground_template(c):
            bindings[u] = c
            return True
        return False
    if u.symbol is not sym and u.symbol != sym:
        return False
    for a, b in zip(c.args, u.args):
        if not _walk_template(a, b, var_map, bindings, res1, res2, loose):
            return False
    return True


def _bound(t: Term, bindings: dict[Var, Term]) -> bool:
    """Whether ``bindings`` binds every variable of ``t``."""
    if isinstance(t, Var):
        return t in bindings
    for a in t.args:
        if not _bound(a, bindings):
            return False
    return True


def _all_equal(items: list) -> bool:
    return all(x == items[0] for x in items[1:])


# The last first chain's decompositions, reused across its partners:
# (chain1.start, chain1.end, decompositions).  The key is identity, not
# value: Var equality ignores display names and every parse restarts
# variable ids at 0, so an equal term from another program would put
# that program's variable names into the witness.
_decomposed: tuple = (None, None, [])


def match_recurrent_pattern(
    chain1: Chain, chain2: Chain
) -> Optional[RecurrentPair]:
    """Decompose two one-word chains into a recurrent pair, if possible.

    Enumeration is canonical: the first chain fixes y and the anchor,
    and x where it differs, else x in order of interned id; tower
    exponents ascending; the first decomposition satisfying all side
    conditions wins.  The first chain's half of the decomposition is
    computed once and reused while consecutive calls share that chain.
    """
    global _decomposed
    u1, v1 = chain1.start, chain1.end
    start, end, decompositions = _decomposed
    if start is not u1 or end is not v1:
        terms = isinstance(u1, (Var, App)) and isinstance(v1, (Var, App))
        decompositions = _first_chain_decompositions(u1, v1) if terms else []
        _decomposed = (u1, v1, decompositions)
    u2, v2 = chain2.start, chain2.end
    if not (isinstance(u2, (Var, App)) and isinstance(v2, (Var, App))):
        return None
    for x, y, c1, c2, n1 in decompositions:
        rp = _match_partner(chain1, chain2, x, y, c1, c2, n1)
        if rp is not None:
            return rp
    return None


def _may_decompose(u1: Term, v1: Term) -> Optional[tuple]:
    """None when no (x, y, c1, c2, n1) has u1 = c1[x, c2[y]] and
    v1 = c1[c2^n1[x], y]; else ``(x, t, d, y)``, what one walk over the
    two terms found where they differ.  Builds nothing.

    Where u1 and v1 differ, they differ below c1's holes: a topmost
    differing position holds x in u1, facing the one term t = c2^n1[x] in
    v1 (n1 > 0), or the anchor d = c2[y] over y alone, facing y; d occurs
    at least once.  x and t are None when no variable differs (n1 = 0).
    Neither x (if it differs at all) nor y occurs where the two terms
    agree, since every occurrence of either is a hole of c1.
    """
    differ: set = set()
    agree: list = []
    stack = [(u1, v1)]
    while stack:
        s, t = stack.pop()
        if s == t:
            agree.append(s)
        elif isinstance(s, App) and isinstance(t, App) and s.symbol == t.symbol:
            stack.extend(zip(s.args, t.args))
        elif isinstance(s, Var) is isinstance(t, Var):
            return None  # a variable facing another, or a symbol clash
        else:
            differ.add((s, t))
            if len(differ) > 2:
                return None
    xs = [(s, t) for s, t in differ if isinstance(s, Var)]
    ds = [(s, t) for s, t in differ if isinstance(t, Var)]
    if len(xs) > 1 or len(ds) != 1:
        return None
    (d, y), = ds
    if term_vars(d) != {y}:
        return None
    # the variables of u1 are y, x if it differs, and those of ``shared``
    shared = term_vars(tuple(agree))
    if y in shared:
        return None
    if xs:
        (x, t), = xs
        return None if x == y or x in shared else (x, t, d, y)
    return (None, None, d, y) if shared else None


def _first_chain_decompositions(u1, v1) -> list[tuple]:
    """Every (x, y, c1, c2, n1) with u1 = c1[x, c2[y]] and
    v1 = c1[c2^n1[x], y], in canonical order, read off the precheck.

    A differing x gives at most one: n1 is the number of c2 layers peeled
    off the term facing x down to x.  Otherwise each other variable of u1
    is an x with n1 = 0, in order of interned id.
    """
    found = _may_decompose(u1, v1)
    if found is None:
        return []
    x, t, d, y = found
    c2 = replace_all(d, {y: App(HOLE)})
    if x is None:
        xs, n1 = sorted(term_vars(u1) - {y}), 0
    else:
        xs = [x]
        n1 = next((n for n, st in enumerate(_peel_stages(t, c2)) if st == x), None)
        if n1 is None:
            return []
    return [
        (x, y, replace_all(u1, {d: App(HOLE2), x: App(HOLE)}), c2, n1)
        for x in xs
    ]


def _match_partner(chain1: Chain, chain2: Chain, x, y, c1, c2, n1):
    """The recurrent pair of ``chain2`` with one decomposition of
    ``chain1``, or None."""
    u2, v2 = chain2.start, chain2.end
    # u2 = c1[x', c2^n2[s]] with x' a variable and s ground, possibly
    # after instantiating some of the second chain's variables with
    # ground content taken from the skeleton.  Each side is walked once,
    # loosely; a strict walk of the instantiated side would succeed
    # unless the instantiation binds a variable that a skeleton variable
    # was renamed to, and would find the instantiated residues.
    var_map: dict[Var, Var] = {}
    bindings: dict[Var, Term] = {}
    res1: list[Term] = []
    res2: list[Term] = []
    r1: list[Term] = []
    r2: list[Term] = []
    if not _walk_template(c1, u2, var_map, bindings, res1, res2, loose=True):
        return None
    # The loose walks bind variables to ground skeleton content only, so
    # sigma maps an application to an application: a residue at [] that
    # is not a variable never becomes one.
    if not isinstance(res1[0], Var):
        return None
    if not _walk_template(c1, v2, var_map, bindings, r1, r2, loose=True):
        return None
    if any(v in bindings for v in var_map.values()):
        return None
    # For the same reason sigma keeps x2 a variable exactly when no walk
    # bound it, and grounds the residue at []' exactly when the walks
    # bound every variable in it.
    x2 = res1[0]
    if x2 in bindings or not _bound(res2[0], bindings):
        return None
    sigma = Substitution(bindings)
    res1, res2, r1, r2 = (apply(sigma, tuple(r)) for r in (res1, res2, r1, r2))
    if not all(map(_all_equal, (res1, res2, r1, r2))):
        return None
    stages4 = _peel_stages(r2[0], c2)
    n4 = next((n for n, st in enumerate(stages4) if st == x2), None)
    if n4 is None:
        return None
    tower2 = _peel_stages(res2[0], c2)
    stages3 = _peel_stages(r1[0], c2)
    for n2, s in enumerate(tower2):
        if n4 < n2:
            break
        for n3, base in enumerate(stages3):
            if base == x2:
                t_is_s = False
            elif base == s:
                t_is_s = True
            else:
                continue
            # carry the second chain over into the first chain's
            # namespace: ground instantiation first, then renaming
            ren = {x2: x}
            for cv, uv in var_map.items():
                if uv != cv:
                    ren[uv] = cv
            chain2r = chain2.instantiate(compose(sigma, Substitution(ren)))
            return RecurrentPair(chain1, chain2r, c1, c2, n1, n2, n3, n4, s, t_is_s, x, y)
    return None


def _one_step_chain(r: Rule, semantics: Semantics) -> Chain:
    return Chain(r.lhs, [Step(r.id, ROOT, r.rhs[0])], semantics)


def _root(t):
    return t.symbol if isinstance(t, App) else None


class PairSweep:
    """What one program's recurrent-pair search has already done.

    Pass the same instance to successive ``find_recurrent_pair`` calls
    on the pools of one program, each pool extending the one before (its
    rules kept, in order).  ``rules`` holds the candidates of the last
    call and ``kinds`` a byte per rule: 0 for no chain, 1 for a chain
    that fails ``_may_decompose``, 2 for one that passes.  A rule's kind
    depends on that rule alone, so the next call prechecks only new
    rules.  ``swept`` is ``rules`` when the last call paired all of them
    with no hit, and empty when it found a pair or ran out of budget; the
    next call pairs only chains of which at least one is past ``swept``.
    """

    def __init__(self):
        self.rules: Sequence[Rule] = ()
        self.kinds = bytearray()
        self.swept: Sequence[Rule] = ()


def find_recurrent_pair(
    program: Program,
    max_word_len: int,
    budget: Optional[Budget] = None,
    resume: Optional[PairSweep] = None,
) -> Optional[RecurrentPair]:
    """First recurrent pair among the chains of the program's rules, in
    canonical order: the one-step chains of the usable rules, then, for
    words of up to ``max_word_len`` rules (at least 1), those chains
    extended step by step, all paired in one sweep.

    Chains use a substitution-closed relation: term rewriting, or the
    restricted relation for a logic program.  A first chain that fails
    ``_may_decompose`` is skipped with no ``match_recurrent_pattern``
    call and no budget tick.  Over one-rule words, a chain is built only
    for a rule that is paired.  With ``resume`` (one-rule words only),
    the rules it prechecked before are not prechecked again, even after a
    hit, and the pairs of two rules it swept with no hit are skipped;
    ``match_recurrent_pattern`` depends only on its two chains, so the
    first hit is the one a full search would return.
    """
    if max_word_len < 1:
        raise ValueError(f"max_word_len must be at least 1, not {max_word_len!r}")
    if resume is not None and max_word_len > 1:
        raise ValueError("only a search over one-rule words can resume")
    budget = budget or Budget()
    candidates = program.rules
    restricted = program.mode is not Mode.TRS
    semantics = Semantics.LP_RESTRICTED if restricted else Semantics.TRS
    resume = resume if resume is not None else PairSweep()
    known, kinds, swept = resume.rules, resume.kinds, resume.swept
    if len(known) > len(candidates) or not all(map(is_, known, candidates)):
        known, kinds, swept = (), bytearray(), ()  # not a prefix of these candidates
    resume.rules, resume.kinds, resume.swept = (), bytearray(), ()
    for r in islice(candidates, len(known), None):
        if not (r.restricted_usable if restricted else r.trs_usable):
            kinds.append(0)
        else:
            kinds.append(2 if _may_decompose(r.lhs, r.rhs[0]) else 1)
    rp, swept_all = None, True
    if 2 in kinds or max_word_len > 1:
        usable = [(r, k) for r, k in zip(candidates, kinds) if k]
        ends = [(r.lhs, r.rhs[0]) for r, _ in usable]
        firsts = [i for i, (_, k) in enumerate(usable) if k == 2]
        old = len(swept) - kinds.count(0, 0, len(swept))  # the swept chains
        chain = cache(lambda i: _one_step_chain(usable[i][0], semantics))
        if max_word_len > 1:  # the one-step chains, then their extensions
            chains = [chain(i) for i in range(len(usable))]
            longer = _extended_chains(program, chains, max_word_len, budget)
            ends += [(c.start, c.end) for c in longer]
            firsts += [i for i in range(len(chains), len(ends)) if _may_decompose(*ends[i])]
            chain = (chains + longer).__getitem__
        rp = _first_pair(ends, firsts, old, chain, budget)
        swept_all = rp is None and not budget.exhausted
    resume.rules, resume.kinds = tuple(candidates), kinds
    if swept_all:
        resume.swept = resume.rules
    return rp


def _first_pair(ends, firsts, old, chain, budget) -> Optional[RecurrentPair]:
    """The first hit, in canonical order, pairing a first chain i in
    ``firsts`` with a chain j whose two sides ``ends[j]`` have the root
    symbol of c1, as every component of a recurrent pair does; if i is
    below ``old``, only with j from ``old`` on.  ``chain(i)`` is chain
    i."""
    roots = [_root(u) if _root(u) == _root(v) else None for u, v in ends]
    for i in firsts:
        r = roots[i]
        for j in range(old if i < old else 0, len(ends)):
            if roots[j] != r:
                continue
            if not budget.tick():
                return None
            rp = match_recurrent_pattern(chain(i), chain(j))
            if rp is not None:
                return rp
    return None


def _extended_chains(program, seeds, max_word_len, budget):
    out = []
    frontier = list(seeds)
    for _ in range(max_word_len - 1):
        nxt = []
        for chain in frontier:
            if not budget.tick():
                return out
            for step in successors(program, chain.end, chain.semantics):
                ext = Chain(chain.start, chain.steps + [step], chain.semantics)
                nxt.append(ext)
                out.append(ext)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# Witness-chain generation


# Towers c2^n[s] of the current witness, keyed (c2, n, s): each one is
# built once, around the tower below it, so towers share structure.
# Towers are ground, so equal keys mean equal towers, and one read per
# lookup leaves no gap: a clear from a concurrent analysis can make a
# tower be built again, but never hand one witness another's towers.
_power_cache: dict[tuple, Term] = {}


def _tower(c2: Term, n: int, base: Term) -> Term:
    key = (c2, n, base)
    tower = _power_cache.get(key)
    if tower is None:
        tower = _power_cache[key] = plug(c2, _tower(c2, n - 1, base)) if n else base
    return tower


def witness_chain(rp: RecurrentPair, m: int, n0: int, k: int) -> Chain:
    """First ``k`` macro-steps of the infinite chain from c1[m, n0].

    Each macro-step peels the secondary tower down to its minimum with the
    first chain's word and then regrows it once with the second chain's
    word; every micro-step is materialized and re-verifiable.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n0 < rp.n2:
        raise ValueError("start exponent must be at least the peel minimum")
    _power_cache.clear()  # hold one witness's towers only

    def c1_at(mm: int, nn: int) -> Term:
        return plug2(rp.c1, _tower(rp.c2, mm, rp.s), _tower(rp.c2, nn, rp.s))

    cur_m, cur_n = m, n0
    prefix = Chain(c1_at(cur_m, cur_n), [], rp.chain1.semantics)

    def replay(chain: Chain, sigma: Substitution) -> None:
        """Append the steps of ``chain`` with targets instantiated by
        ``sigma``."""
        for st in chain.steps:
            prefix.steps.append(Step(st.rule_id, st.position, apply(sigma, st.target)))

    for _ in range(k):
        while cur_n > rp.n2:
            sigma = Substitution(
                {
                    rp.x: _tower(rp.c2, cur_m, rp.s),
                    rp.y: _tower(rp.c2, cur_n - 1, rp.s),
                }
            )
            replay(rp.chain1, sigma)
            cur_m, cur_n = cur_m + rp.n1, cur_n - 1
        replay(rp.chain2, Substitution({rp.x: _tower(rp.c2, cur_m, rp.s)}))
        m_prime = 0 if rp.t_is_s else cur_m
        cur_m, cur_n = m_prime + rp.n3, cur_m + rp.n4
    return prefix


def infinite_chain_prefix(
    program: Program, lw: LoopWitness, k: int
) -> Chain:
    """Unroll a loop witness ``k`` times into a verifiable chain prefix.

    The first round is the witness chain.  Each later round applies the
    word's rules with ``rewrite_at`` to the previous round's end, every
    step at its previous position moved into the embedding's hole: below
    the hole position of a term context, or past the atoms before the
    hole atom of a goal context.  Raises ``UnrollError`` when a step does
    not re-apply.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    ctx = lw.embedding.context
    if isinstance(ctx, tuple):
        offset = ctx.index(App(HOLE))

        def shift(p):
            return (p[0] + offset,)

    else:
        hole = hole_positions(ctx)[0]

        def shift(p):
            return hole + p

    by_id = {rid: [r for r in program.rules if r.id == rid] for rid in set(lw.word)}
    moves = [(st.rule_id, st.position) for st in lw.chain.steps]
    steps = list(lw.chain.steps)
    cur = lw.end
    for _ in range(k - 1):
        moves = [(rid, shift(p)) for rid, p in moves]
        for rid, p in moves:
            found = (rewrite_at(r, cur, p, lw.chain.semantics) for r in by_id[rid])
            step = next((st for st in found if st is not None), None)
            if step is None:
                raise UnrollError(f"rule {rid} does not re-apply in the loop")
            cur = step.target
            if not isinstance(cur, tuple):
                check_size(cur)
            steps.append(step)
    return Chain(lw.chain.start, steps, lw.chain.semantics)
