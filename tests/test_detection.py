import copy
import random
import sys
import time
from operator import is_

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import A0, B0, F2, G1, GEN_VARS, lp, random_term, term, trs
from test_analysis import PAPER_TRS
from nonterm import analysis, detection
from nonterm.analysis import (
    AnalysisConfig,
    _rule_loop_witness,
    analyze,
    emit_certificate,
)
from nonterm.detection import (
    Budget,
    Embedding,
    EmbeddingKind,
    PairSweep,
    RecurrentPair,
    _all_equal,
    _first_chain_decompositions,
    _match_partner,
    _may_decompose,
    _peel_stages,
    _walk_template,
    find_embedding,
    find_loop,
    find_recurrent_pair,
    infinite_chain_prefix,
    match_recurrent_pattern,
    witness_chain,
)
from nonterm.rewriting import (
    Chain,
    Mode,
    Program,
    Rule,
    Semantics,
    Step,
    rewrite_at,
    successors,
    verify_chain,
)
from nonterm.errors import DeadlineError, InvalidPositionError, ResourceLimitError, UnrollError
from nonterm.parsing import parse_trs
from nonterm.substitution import Substitution, apply, compose, match
from nonterm.terms import (
    App,
    HOLE,
    HOLE2,
    hole_positions,
    is_variant,
    plug,
    plug2,
    render,
    replace_all,
    replace_at,
    subterm_at,
    subterms,
    Symbol,
    Var,
    term_vars,
)
from nonterm.unfolding import Unfolding, binary_unfold, unfold_trs, unfolded_program


def one_step_chain(rule, semantics=Semantics.TRS):
    return Chain(rule.lhs, [Step(rule.id, (), rule.rhs[0])], semantics)


# ---------------------------------------------------------------------------
# Embeddings


def test_embedding_ins_reflexive():
    t = term("f(x,y)")
    emb = find_embedding(EmbeddingKind.INS, t, t)
    assert emb is not None
    assert emb.context == App(HOLE)
    assert len(emb.binder) == 0


def test_embedding_ins_instance_below_root():
    src = term("f(x)", "x")
    tgt = term("g(f(f(a)),b)")
    emb = find_embedding(EmbeddingKind.INS, src, tgt)
    assert emb is not None
    # smallest position wins: the f(f(a)) occurrence at position 1
    assert render(emb.context) == "g([],b)"
    assert render(apply(emb.binder, src)) == "f(f(a))"


def test_embedding_ins_position_order():
    src = term("f(x)", "x")
    tgt = term("g(f(a),f(b))")
    emb = find_embedding(EmbeddingKind.INS, src, tgt)
    assert render(emb.context) == "g([],f(b))"


def test_embedding_mg_term():
    src = term("f(a,b)")
    tgt = term("g(f(x,y))")
    emb = find_embedding(EmbeddingKind.MG, src, tgt)
    assert emb is not None
    assert render(emb.context) == "g([])"
    assert render(apply(emb.binder, term("f(x,y)"))) == "f(a,b)"


def test_embedding_simplified_root_only():
    # the unfolded self-loop check embeds at the root only
    below, at_root = trs("f(x) -> g(f(a))  f(x) -> f(a)", "x").rules
    assert _rule_loop_witness(below, EmbeddingKind.INS) is None
    assert find_embedding(EmbeddingKind.INS, below.lhs, below.rhs[0]) is not None
    assert _rule_loop_witness(at_root, EmbeddingKind.INS) is not None


def test_embedding_goal_window():
    src = (term("p(x)"),)
    tgt = (term("q(a)"), term("p(b)"), term("r(c)"))
    emb = find_embedding(EmbeddingKind.INS, src, tgt)
    assert emb is not None
    assert render(emb.context) == "<q(a),[],r(c)>"


def test_embedding_goal_mg():
    src = (term("p(f(a,zero))"),)
    tgt = (term("p(x)"), term("q(x)"))
    emb = find_embedding(EmbeddingKind.MG, src, tgt)
    assert emb is not None
    assert render(emb.context) == "<[],q(x)>"


def reference_goal_embedding(kind, source, target):
    """The goal embedding search over every window, by start, then by
    length."""
    n = len(target)
    for i in range(n + 1):
        for j in range(i, n + 1):
            window = target[i:j]
            theta = match(source, window) if kind is EmbeddingKind.INS else match(window, source)
            if theta is not None:
                return Embedding(kind, (*target[:i], App(HOLE), *target[j:]), theta)
    return None


def test_goal_embedding_tries_the_windows_that_can_match():
    atoms = [term(t, "x y") for t in ("p(x)", "p(a)", "q(x,y)", "q(y,y)", "p(y)")]
    goals = [()] + [(a,) for a in atoms]
    goals += [(a, b) for a in atoms for b in atoms]
    targets = goals + [(a, b, c) for a in atoms[:3] for b in atoms for c in atoms[1:]]
    for kind in EmbeddingKind:
        for source in goals:
            for target in targets:
                want = reference_goal_embedding(kind, source, target)
                assert find_embedding(kind, source, target) == want, (kind, source, target)


def test_embedding_none():
    assert find_embedding(EmbeddingKind.INS, term("f(a)", ""), term("g(b)")) is None


def test_embedding_type_mismatch():
    with pytest.raises(ValueError):
        find_embedding(EmbeddingKind.INS, term("a"), (term("a"),))


# ---------------------------------------------------------------------------
# Loops


def test_find_loop_trs_word3():
    p = trs("f(x) -> g(h(x,one),x)  one -> zero  h(x,zero) -> f(f(x))")
    lw = find_loop(p, 3)
    assert lw is not None
    assert lw.word == ("r1", "r2", "r3")
    assert verify_chain(p, lw.chain)


def test_find_loop_respects_word_bound():
    p = trs("f(x) -> g(h(x,one),x)  one -> zero  h(x,zero) -> f(f(x))")
    assert find_loop(p, 2) is None


def test_find_loop_skips_a_variant_target():
    # both rules rewrite f(a) to g(a); the second chain is not expanded
    p = trs("f(a) -> g(a)  f(x) -> g(x)")
    budget = Budget()
    assert find_loop(p, 2, budget) is None
    assert budget.nodes == 4


def test_find_loop_budget_degrades(monkeypatch):
    monkeypatch.setattr(detection, "NODE_CAP", 1)
    p = trs("f(x) -> g(h(x,one),x)  one -> zero  h(x,zero) -> f(f(x))")
    budget = Budget()
    assert find_loop(p, 3, budget=budget) is None
    assert budget.exhausted


def test_loop_unrolling_matches_by_hand():
    p = trs("f(x) -> g(h(x,one),x)  one -> zero  h(x,zero) -> f(f(x))")
    lw = find_loop(p, 3)
    chain = infinite_chain_prefix(p, lw, 2)
    states = chain.states()
    assert is_variant(states[3], term("g(f(f(x)),x)"))
    assert is_variant(states[6], term("g(g(f(f(f(x))),f(x)),x)"))
    assert verify_chain(p, chain)


def test_find_loop_lp_narrowing():
    p = lp("p(f(X,zero)) :- p(X), q(X).")
    lw = find_loop(p, 1)
    assert lw is not None
    chain = infinite_chain_prefix(p, lw, 3)
    assert verify_chain(p, chain)
    # the goal keeps growing: each unrolling appends one more delayed atom
    assert [len(g) for g in chain.states()] == [1, 2, 3, 4]


def test_loop_with_nontrivial_context_unrolls():
    p = trs("f(x) -> g(f(h(x)))")
    lw = find_loop(p, 1)
    assert lw is not None
    assert render(lw.embedding.context) == "g([])"
    chain = infinite_chain_prefix(p, lw, 3)
    assert is_variant(chain.end, term("g(g(g(f(h(h(h(x)))))))"))
    assert verify_chain(p, chain)


# The two unrollers the word replay replaced, kept as a reference: INS
# instantiates every step with the binder and plugs it into the context,
# MG re-applies each rule at goal indices shifted past the prefix.


def _unroll_ins(lw, k):
    ctx = lw.embedding.context
    theta = lw.embedding.binder
    trivial = ctx == App(HOLE)
    hole_prefix = hole_positions(ctx)[0] if not trivial else ()

    def wrap(chain):
        inst = chain.instantiate(theta)
        if trivial:
            return inst
        steps = [
            Step(st.rule_id, hole_prefix + st.position, plug(ctx, st.target))
            for st in inst.steps
        ]
        return Chain(plug(ctx, inst.start), steps, Semantics.TRS)

    segment = lw.chain
    all_steps = list(segment.steps)
    for _ in range(k - 1):
        segment = wrap(segment)
        all_steps.extend(segment.steps)
    return Chain(lw.chain.start, all_steps, Semantics.TRS)


def _unroll_mg(program, lw, k):
    offset = lw.embedding.context.index(App(HOLE))
    indices = [(st.rule_id, st.position[0]) for st in lw.chain.steps]
    all_steps = list(lw.chain.steps)
    cur = lw.end
    for _ in range(k - 1):
        indices = [(rid, offset + i) for rid, i in indices]
        for rid, i in indices:
            steps = (
                rewrite_at(r, cur, (i,), Semantics.LP_NARROW)
                for r in program.rules
                if r.id == rid
            )
            found = next((st for st in steps if st is not None), None)
            if found is None:
                raise RuntimeError("loop unrolling failed to re-apply a step")
            all_steps.append(found)
            cur = found.target
    return Chain(lw.chain.start, all_steps, Semantics.LP_NARROW)


GOLDEN_TRS = "f(x) -> g(h(x,one),x)  one -> zero  h(x,zero) -> f(f(x))"
NESTED_TRS = "f(x) -> g(f(h(x)))"
GOLDEN_LP = "p(f(X,zero)) :- p(X), q(X)."
APP_LP = "app(nil,Y,Y).  app(cons(X,Xs),Y,cons(X,Z)) :- app(Xs,Y,Z)."
REV_LP = APP_LP + "  rev(nil,nil).  rev(cons(X,Xs),R) :- rev(Xs,T), app(T,cons(X,nil),R)."


def loop_witness_cases():
    """(program, loop witness) pairs: raw word searches and the self-loops
    of unfolded pools, for terms and goals."""
    cases = []
    for text in (GOLDEN_TRS, NESTED_TRS):
        p = trs(text)
        cases.append((p, find_loop(p, 3)))
        cand = unfolded_program(unfold_trs(p, 2), p.mode)
        for r in cand.rules:
            lw = _rule_loop_witness(r, EmbeddingKind.INS)
            if lw is not None:
                cases.append((cand, lw))
    for text in (GOLDEN_LP, APP_LP, REV_LP):
        p = lp(text)
        cases.append((p, find_loop(p, 1)))
        cand = unfolded_program(binary_unfold(p, 2), p.mode)
        for r in cand.rules:
            lw = _rule_loop_witness(r, EmbeddingKind.MG)
            if lw is not None:
                cases.append((cand, lw))
    return cases


def test_unrolling_agrees_with_the_replaced_unrollers():
    kinds = set()
    for program, lw in loop_witness_cases():
        assert lw.word == tuple(st.rule_id for st in lw.chain.steps)
        assert lw.start == lw.chain.start and lw.end == lw.chain.end
        ctx = lw.embedding.context
        if isinstance(ctx, tuple):
            kinds.add("goal, suffix" if ctx[-1] != App(HOLE) else "goal")
        else:
            kinds.add("term" if ctx == App(HOLE) else "term, context")
        for k in range(1, 7):
            got = infinite_chain_prefix(program, lw, k)
            if lw.embedding.kind is EmbeddingKind.INS:
                want = _unroll_ins(lw, k)
            else:
                want = _unroll_mg(program, lw, k)
            assert got.states() == want.states()
            assert [(repr(st), st.rule_id, st.position) for st in got.steps] == [
                (repr(st), st.rule_id, st.position) for st in want.steps
            ]
            assert got.semantics is want.semantics
            assert verify_chain(program, got)
    assert kinds == {"term", "term, context", "goal", "goal, suffix"}


def test_loop_whose_word_does_not_replay_is_rejected():
    # g(z) -> k(z,y) leaves y unbound, so one round later k(s(y),y) no
    # longer matches k(x,x)
    p = parse_trs("(VAR y z x)(RULES f(y) -> g(y) g(z) -> k(z,y) k(x,x) -> f(s(x)))")
    lw = find_loop(p, 3)
    assert lw.word == ("r1", "r2", "r3")
    assert infinite_chain_prefix(p, lw, 1).steps == lw.chain.steps
    with pytest.raises(UnrollError):
        infinite_chain_prefix(p, lw, 2)
    v = analyze(p, AnalysisConfig(raw=True))
    assert v.answer == "MAYBE"
    assert v.stats["rejected"] == ["loop"]


def test_loop_with_extra_rhs_variable_replays():
    # g(x) -> f(x,s(y)) -> g(x) loops; instantiating the word with the
    # binder {y -> s(y)} would also rewrite the y that r2 introduces
    p = parse_trs("(VAR x y)(RULES f(x,y) -> g(x) g(x) -> f(x,s(y)))")
    v = analyze(p, AnalysisConfig(raw=True))
    assert v.answer == "NO" and v.technique == "loop"
    assert verify_chain(v.used_program, v.simulated_prefix)
    assert not verify_chain(p, _unroll_ins(v.witness, 2))


def test_unrolling_tries_every_rule_of_a_step_id():
    # only the second rule named r re-applies inside g([])
    p = Program(
        [
            Rule("r", term("h(x)"), (term("x"),)),
            Rule("r", term("f(x)"), (term("g(f(s(x)))"),)),
        ],
        Mode.TRS,
    )
    lw = find_loop(p, 1)
    chain = infinite_chain_prefix(p, lw, 3)
    assert render(chain.end) == "g(g(g(f(s(s(s(x)))))))"
    assert verify_chain(p, chain)


def test_unrolling_keeps_the_term_size_cap():
    # each round quadruples the term; the replay shares subterms, so only
    # the size check stops it
    p = trs("f(x) -> f(g(x,x,x,x))")
    lw = find_loop(p, 1)
    with pytest.raises(ResourceLimitError):
        infinite_chain_prefix(p, lw, 30)


# ---------------------------------------------------------------------------
# Recurrent pairs


def zantema_rules():
    p = trs("f(x,s(y)) -> f(s(x),y)  f(x,zero) -> f(s(zero),x)")
    return p


def test_recurrent_pair_decomposition():
    p = zantema_rules()
    rp = find_recurrent_pair(p, 1)
    assert rp is not None
    assert render(rp.c1) == "f([],[]')"
    assert render(rp.c2) == "s([])"
    assert (rp.n1, rp.n2, rp.n3, rp.n4) == (1, 0, 1, 0)
    assert render(rp.s) == "zero"
    assert rp.t_is_s


def test_recurrent_pair_swapped_variables():
    # the primary variable appears second in the lhs here
    p = trs("g(a(x),y) -> g(x,a(y))  g(a(x),y) -> g(x,y)")
    # u1 = g(a(x),y): needs x/y roles found by enumeration, not position
    rp = match_recurrent_pattern(
        one_step_chain(p.rules[0]), one_step_chain(p.rules[0])
    )
    # no decomposition here: the towers do not line up with a ground base
    assert rp is None


def test_recurrent_pair_ground_anchor():
    p = trs("f(c,a(x),y) -> f(c,x,a(y))  f(c,a(x),y) -> f(x,y,a(a(c)))")
    c2 = one_step_chain(p.rules[1])
    # specialize the second rule's chain at x = c as the regrow step
    theta = Substitution({term("x"): term("c", "")})
    rp = match_recurrent_pattern(one_step_chain(p.rules[0]), c2.instantiate(theta))
    assert rp is not None
    assert render(rp.c1) == "f(c,[]',[])"
    assert render(rp.c2) == "a([])"
    assert render(rp.s) == "a(c)"
    assert rp.t_is_s


def test_first_chain_decomposition_keeps_y_out_of_c1():
    # u1 = f(x,s(y),y) would give c1 = f([],[]',y), which still holds y
    assert _first_chain_decompositions(term("f(x,s(y),y)"), term("f(s(x),y,y)")) == []
    assert len(_first_chain_decompositions(term("f(x,s(y))"), term("f(s(x),y)"))) == 1


def test_witness_chain_exponent_bookkeeping():
    p = zantema_rules()
    rp = find_recurrent_pair(p, 1)
    chain = witness_chain(rp, 1, 0, 3)
    got = [render(t) for t in chain.states()]
    assert got[:6] == [
        "f(s(zero),zero)",
        "f(s(zero),s(zero))",
        "f(s(s(zero)),zero)",
        "f(s(zero),s(s(zero)))",
        "f(s(s(zero)),s(zero))",
        "f(s(s(s(zero))),zero)",
    ]
    assert verify_chain(p, chain)


def test_witness_chain_rejects_bad_start():
    p = trs("f(x,s(y)) -> f(s(x),y)  f(x,s(zero)) -> f(s(x),s(s(zero)))")
    rp = find_recurrent_pair(p, 1)
    if rp is not None and rp.n2 > 0:
        with pytest.raises(ValueError):
            witness_chain(rp, 0, rp.n2 - 1, 1)
    with pytest.raises(ValueError):
        rp2 = find_recurrent_pair(zantema_rules(), 1)
        witness_chain(rp2, 0, 0, 0)


def test_recurrent_pair_restricted_filters_extra_vars():
    p = Program(
        [
            Rule("r1", term("f(x,s(y))"), (term("f(s(x),y)"),)),
            # z on the right only: unusable for the restricted relation
            Rule("r2", term("f(x,zero)"), (term("f(z,x)"),)),
        ],
        Mode.LP,
    )
    assert find_recurrent_pair(p, 1) is None


def test_recurrent_pair_none_on_terminating():
    p = trs("plus(zero,x) -> x  plus(s(x),y) -> s(plus(x,y))")
    assert find_recurrent_pair(p, 1) is None


# ---------------------------------------------------------------------------
# Recurrent-pair search over unfolded pools

COUNTDOWN = "f(x,s(y)) -> f(s(x),y)"
COUNTING = "f(x,s(y)) -> f(s(x),y)  f(x,zero) -> f(s(zero),x)"


def unfolded_candidates(text, depth):
    p = trs(text)
    return unfolded_program(unfold_trs(p, depth), p.mode)


def root_compatible_pairs(rules):
    """The (first, second) chain pairs find_recurrent_pair hands to
    match_recurrent_pattern, in its order."""
    chains = [one_step_chain(r) for r in rules if r.trs_usable]

    def root(t):
        return t.symbol if isinstance(t, App) else None

    for c1 in chains:
        r = root(c1.start)
        if r is None or root(c1.end) != r or len(term_vars(c1.start)) < 2:
            continue
        for c2 in chains:
            if root(c2.start) == r and root(c2.end) == r:
                yield c1, c2


@pytest.mark.parametrize("text", [COUNTDOWN, COUNTING])
def test_recurrent_pair_reuse_agrees_with_fresh_decomposition(text):
    cand = unfolded_candidates(text, 2)
    pairs = list(root_compatible_pairs(cand.rules))
    reused = [match_recurrent_pattern(c1, c2) for c1, c2 in pairs]
    # a deep copy has new start/end objects, so its decomposition is
    # computed from scratch for every pair
    fresh = [match_recurrent_pattern(copy.deepcopy(c1), c2) for c1, c2 in pairs]
    assert reused == fresh
    first = next((rp for rp in fresh if rp is not None), None)
    assert find_recurrent_pair(cand, 1) == first
    assert (first is None) == (text == COUNTDOWN)


def test_recurrent_pair_reuse_tells_apart_chains_with_one_start():
    u = term("f(x,s(y))")
    partner = one_step_chain(zantema_rules().rules[1])
    for n1, rhs in ((1, "f(s(x),y)"), (2, "f(s(s(x)),y)")):
        chain = Chain(u, [Step("r", (), term(rhs))], Semantics.TRS)
        assert match_recurrent_pattern(chain, partner).n1 == n1


def test_recurrent_pair_certificate_names_its_own_variables():
    # both parses number their variables from 0, and Var equality ignores
    # the display name, so the two systems are equal as values
    for x, y in (("x", "y"), ("u", "v")):
        program = parse_trs(
            f"(VAR {x} {y})(RULES f({x},s({y})) -> f(s({x}),{y})"
            f"  f({x},zero) -> f(s(zero),{x}))"
        )
        v = analyze(program, AnalysisConfig(techniques=("recpair",)))
        lines = emit_certificate(v).splitlines()
        assert v.answer == "NO"
        assert f"x: {x}" in lines and f"y: {y}" in lines


def test_recurrent_pair_budget_ticks_once_per_pair(monkeypatch):
    cand = unfolded_candidates(COUNTDOWN, 2)
    original = detection.match_recurrent_pattern
    calls = []

    def counting(chain1, chain2):
        calls.append((chain1, chain2))
        return original(chain1, chain2)

    monkeypatch.setattr(detection, "match_recurrent_pattern", counting)
    budget = Budget()
    assert find_recurrent_pair(cand, 1, budget) is None
    pairs = list(root_compatible_pairs(cand.rules))
    # a first chain that fails the precheck costs no call and no tick
    expected = [(c1, c2) for c1, c2 in pairs if _may_decompose(c1.start, c1.end)]
    assert 0 < len(expected) < len(pairs)
    assert budget.nodes == len(calls) == len(expected)


def test_a_passed_deadline_ends_the_search():
    # the clock ends the whole analysis, not one technique: the search
    # raises rather than report its budget exhausted
    p = trs("f(x) -> g(h(x,one),x)  one -> zero  h(x,zero) -> f(f(x))")
    pool = unfolded_candidates(COUNTDOWN, 2)
    for search, program in ((find_loop, p), (find_recurrent_pair, pool)):
        budget = Budget(time.monotonic() - 1)
        with pytest.raises(DeadlineError):
            search(program, 1, budget)
        assert not budget.exhausted


# ---------------------------------------------------------------------------
# The divergence precheck and the search that resumes from depth to depth

PLUS = "plus(0,x) -> x  plus(s(x),y) -> s(plus(x,y))"
MINUS = "minus(x,0) -> x  minus(s(x),s(y)) -> minus(x,y)"
# system -> deepest pool searched
SWEEP_SYSTEMS = {COUNTDOWN: 3, COUNTING: 3, PLUS: 3, MINUS: 3, PAPER_TRS: 2}


def unfiltered_decompositions(u1, v1):
    """The enumeration the precheck's findings replaced, kept as an
    oracle: every variable pair (x, y) of u1 in id order and every
    anchor over y alone, smallest first, each checked by a strict walk
    of v1, with no precheck."""
    anchors = {}
    for _, sub in subterms(u1):
        vs = term_vars(sub)
        if isinstance(sub, App) and len(vs) == 1:
            seen = anchors.setdefault(next(iter(vs)), [])
            if sub not in seen:
                seen.append(sub)
    for seen in anchors.values():
        seen.sort(key=lambda t: len(render(t)))
    u1_vars = sorted(term_vars(u1), key=lambda v: v.id)
    out = []
    for x in u1_vars:
        for y in u1_vars:
            for d in anchors.get(y, ()) if x != y else ():
                body = replace_all(replace_all(u1, {d: App(HOLE2)}), {x: App(HOLE)})
                rest = term_vars(body)
                if y in rest:
                    continue
                c1, c2 = body, replace_all(d, {y: App(HOLE)})
                got = strict_residues(c1, v1, {v: v for v in rest})
                if got is None:
                    continue
                res1, res2 = got
                if not (_all_equal(res1) and _all_equal(res2) and res2[0] == y):
                    continue
                n1 = first_stage(reference_peel(res1[0], c2), x)
                if n1 is not None:
                    out.append((x, y, c1, c2, n1))
    return out


def strict_residues(c1, t, var_map):
    res1, res2 = [], []
    if not _walk_template(c1, t, var_map, {}, res1, res2, loose=False):
        return None
    return res1, res2


def reference_peel(t, c2):
    """_peel_stages with each layer peeled by plugging c2 and comparing."""
    stages = [t]
    while len(stages) <= 500:
        try:
            inner = subterm_at(stages[-1], hole_positions(c2)[0])
        except InvalidPositionError:
            break
        if plug(c2, inner) != stages[-1]:
            break
        stages.append(inner)
    return stages


def first_stage(stages, target):
    return next((n for n, st in enumerate(stages) if st == target), None)


def reference_match_partner(chain1, chain2, x, y, c1, c2, n1):
    """_match_partner as four walks, kept as an oracle: both sides
    loosely, then each instantiated side strictly."""
    u2, v2 = chain2.start, chain2.end
    var_map, bindings = {}, {}
    if not _walk_template(c1, u2, var_map, bindings, [], [], loose=True):
        return None
    if not _walk_template(c1, v2, var_map, bindings, [], [], loose=True):
        return None
    sigma = Substitution(bindings)
    got = strict_residues(c1, apply(sigma, u2), var_map)
    if got is None or not (_all_equal(got[0]) and _all_equal(got[1])):
        return None
    x2, s_tower = got[0][0], got[1][0]
    if not isinstance(x2, Var) or term_vars(s_tower):
        return None
    got = strict_residues(c1, apply(sigma, v2), var_map)
    if got is None or not (_all_equal(got[0]) and _all_equal(got[1])):
        return None
    n4 = first_stage(reference_peel(got[1][0], c2), x2)
    if n4 is None:
        return None
    stages3 = reference_peel(got[0][0], c2)
    for n2, s in enumerate(reference_peel(s_tower, c2)[: n4 + 1]):
        for n3, base in enumerate(stages3):
            if base not in (x2, s):
                continue
            ren = {x2: x}
            ren.update((uv, cv) for cv, uv in var_map.items() if uv != cv)
            chain2r = chain2.instantiate(compose(sigma, Substitution(ren)))
            t_is_s = base != x2
            return RecurrentPair(chain1, chain2r, c1, c2, n1, n2, n3, n4, s, t_is_s, x, y)
    return None


def reference_matches(rules):
    """(first, second, decompositions of the first, recurrent pair) for
    every root-compatible pair in canonical order, from the oracles
    above; a first chain with no decomposition has no pair to yield."""
    chains = [one_step_chain(r) for r in rules if r.trs_usable]
    for c1 in chains:
        decompositions = unfiltered_decompositions(c1.start, c1.end)
        if not decompositions:
            continue
        r = c1.start.symbol
        for c2 in chains:
            if all(isinstance(t, App) and t.symbol == r for t in (c2.start, c2.end)):
                yield c1, c2, decompositions, reference_match(c1, c2, decompositions)


def reference_match(chain1, chain2, decompositions):
    hits = (reference_match_partner(chain1, chain2, *dec) for dec in decompositions)
    return next((rp for rp in hits if rp is not None), None)


def unfiltered_first_hit(rules):
    """The search before the precheck and the resume, kept as an oracle:
    every root-compatible pair in canonical order, each decomposed in
    full."""
    hits = (rp for _, _, _, rp in reference_matches(rules))
    return next((rp for rp in hits if rp is not None), None)


def unfolded_pools(text, depth):
    """The pools of depth 0..depth, one unfolding resumed."""
    p, state = trs(text), Unfolding()
    return [unfolded_program(unfold_trs(p, d, resume=state), p.mode) for d in range(depth + 1)]


@pytest.mark.parametrize("text", sorted(SWEEP_SYSTEMS))
def test_recurrent_pair_search_matches_the_unfiltered_sweep(text, monkeypatch):
    monkeypatch.setattr(detection, "NODE_CAP", 10**9)
    # one PairSweep across the depths, as analyze carries it
    resume = PairSweep()
    for cand in unfolded_pools(text, SWEEP_SYSTEMS[text]):
        want = unfiltered_first_hit(cand.rules)
        budget = Budget()
        got = find_recurrent_pair(cand, 1, budget, resume=resume)
        assert got == want
        assert list(resume.swept) == ([] if want is not None else cand.rules)


@pytest.mark.parametrize("text", [COUNTDOWN, PLUS])
def test_resumed_search_pairs_only_new_chains(text, monkeypatch):
    calls = []
    original = detection.match_recurrent_pattern

    def counting(chain1, chain2):
        calls.append((chain1.steps[0].rule_id, chain2.steps[0].rule_id))
        return original(chain1, chain2)

    monkeypatch.setattr(detection, "match_recurrent_pattern", counting)
    old, new = unfolded_pools(text, 2)[1:]
    resume = PairSweep()
    assert find_recurrent_pair(old, 1, resume=resume) is None
    calls.clear()
    assert find_recurrent_pair(new, 1, resume=resume) is None
    old_ids = {r.id for r in old.rules}
    assert calls
    assert not [pair for pair in calls if set(pair) <= old_ids]
    # the pairs left are those of a full search, in the same order
    full = [
        (c1.steps[0].rule_id, c2.steps[0].rule_id)
        for c1, c2 in root_compatible_pairs(new.rules)
        if _may_decompose(c1.start, c1.end)
    ]
    assert calls == [pair for pair in full if not set(pair) <= old_ids]


@pytest.mark.parametrize("text", [COUNTDOWN, PLUS])
def test_precheck_runs_once_per_rule(text, monkeypatch):
    prechecked = []
    precheck = detection._may_decompose

    def counting(u1, v1):
        prechecked.append((u1, v1))
        return precheck(u1, v1)

    monkeypatch.setattr(detection, "_may_decompose", counting)
    # the pair matcher prechecks its first chain too: count the search's
    # own calls only
    monkeypatch.setattr(detection, "match_recurrent_pattern", lambda chain1, chain2: None)
    pools = unfolded_pools(text, 3)
    resume = PairSweep()
    for cand in pools:
        assert find_recurrent_pair(cand, 1, resume=resume) is None
    usable = [r for r in pools[-1].rules if r.trs_usable]
    assert len(usable) > len(pools[0].rules)
    assert len(prechecked) == len(usable)
    assert all(map(is_, (u for u, _ in prechecked), (r.lhs for r in usable)))
    assert resume.kinds.count(2) == sum(
        _may_decompose(r.lhs, r.rhs[0]) is not None for r in usable
    )


@pytest.mark.parametrize("text", [MINUS, PLUS])
def test_chains_are_built_only_for_paired_rules(text, monkeypatch):
    built, paired = [], set()
    make, match = detection.Chain, detection.match_recurrent_pattern

    def building(*args):
        chain = make(*args)
        built.append(chain.steps[0].rule_id)
        return chain

    def pairing(chain1, chain2):
        paired.update(c.steps[0].rule_id for c in (chain1, chain2))
        return match(chain1, chain2)

    monkeypatch.setattr(detection, "Chain", building)
    monkeypatch.setattr(detection, "match_recurrent_pattern", pairing)
    resume = PairSweep()
    for cand in unfolded_pools(text, 2):
        built.clear()
        assert find_recurrent_pair(cand, 1, resume=resume) is None
        # each paired rule's chain once; minus pairs none, since no first
        # chain of it passes the precheck
        assert sorted(built) == sorted(paired)
        paired.clear()


def test_resume_is_ignored_for_another_pool():
    resume = PairSweep()
    plus, minus = unfolded_pools(PLUS, 2)[2], unfolded_pools(MINUS, 2)[2]
    assert find_recurrent_pair(plus, 1, resume=resume) is None
    counting = unfolded_pools(COUNTING, 2)[2]
    # the swept rules are not a prefix of these candidates: a full search
    got = find_recurrent_pair(counting, 1, resume=resume)
    assert got == unfiltered_first_hit(counting.rules) is not None
    assert find_recurrent_pair(minus, 1, resume=resume) is None
    with pytest.raises(ValueError):
        find_recurrent_pair(minus, 2, resume=resume)


def test_rejected_hit_makes_the_next_depth_search_in_full(monkeypatch):
    # every prefix fails verification, so each depth's hit is rejected
    monkeypatch.setattr(analysis, "verify_chain", lambda program, chain: False)
    searches = []
    search = analysis.find_recurrent_pair

    def recording(program, *args, resume=None, **kwargs):
        swept = len(resume.swept)
        rp = search(program, *args, resume=resume, **kwargs)
        searches.append((list(program.rules), swept, rp))
        return rp

    monkeypatch.setattr(analysis, "find_recurrent_pair", recording)
    cfg = AnalysisConfig(techniques=("recpair",), unfold_depth=3, timeout=None)
    v = analyze(trs(COUNTING), cfg)
    assert v.answer == "MAYBE" and v.stats["rejected"] == ["recpair"] * 4
    assert len(searches) == 4
    for (rules, swept, rp), (_, _, before) in zip(searches[1:], searches):
        assert before is not None and swept == 0
        assert rp == unfiltered_first_hit(rules) is not None


def test_rejected_hit_keeps_the_prechecks(monkeypatch):
    # every prefix fails verification, so each depth's hit is rejected
    # and the next depth pairs every chain again; a rule's kind depends
    # on that rule alone, so only the rules new at a depth are prechecked
    monkeypatch.setattr(analysis, "verify_chain", lambda program, chain: False)
    prechecked, pools = [], []
    precheck, search = detection._may_decompose, analysis.find_recurrent_pair

    def counting(u1, v1):
        # the pair matcher prechecks its first chain too: count the
        # search's own calls only
        if sys._getframe(1).f_code.co_name == "find_recurrent_pair":
            prechecked.append(u1)
        return precheck(u1, v1)

    def recording(program, *args, **kwargs):
        pools.append(program)
        return search(program, *args, **kwargs)

    monkeypatch.setattr(detection, "_may_decompose", counting)
    monkeypatch.setattr(analysis, "find_recurrent_pair", recording)
    cfg = AnalysisConfig(techniques=("recpair",), unfold_depth=3, timeout=None)
    v = analyze(trs(COUNTING), cfg)
    assert v.answer == "MAYBE" and v.stats["rejected"] == ["recpair"] * 4
    usable = [r for r in pools[-1].rules if r.trs_usable]
    assert len(usable) > len(pools[0].rules)
    assert len(prechecked) == len(usable)
    assert all(map(is_, prechecked, (r.lhs for r in usable)))


@st.composite
def shaped_chains(draw):
    """(u1, v1, shaped): half the time u1 = c1[x, c2[y]] and
    v1 = c1[c2^n1[x], y] for a random c1, c2 and n1, possibly then
    perturbed (shaped is True when it was not); else a random pair."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    x, y, z = GEN_VARS
    x, y = rng.sample([x, y], 2)  # either order of interned ids
    if draw(st.booleans()):
        return random_term(rng), random_term(rng), False

    def skeleton(depth, leaves):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        sym = rng.choice([F2, G1])
        return App(sym, tuple(skeleton(depth - 1, leaves) for _ in range(sym.arity)))

    hole, hole2 = App(HOLE), App(HOLE2)
    c1 = App(F2, (skeleton(2, [hole, z, App(A0)]), skeleton(2, [hole2, hole, z, App(B0)])))
    if not hole_positions(c1, HOLE2):
        c1 = App(F2, (c1, hole2))
    if not hole_positions(c1):
        c1 = App(F2, (hole, c1))
    if rng.random() < 0.5:
        c2 = App(G1, (hole,))
    else:  # f(s, []) or f([], s), s possibly a second hole
        args = (skeleton(1, [hole, App(A0)]), hole)
        c2 = App(F2, args if rng.random() < 0.5 else args[::-1])
    tower = x
    for _ in range(rng.randint(0, 2)):
        tower = plug(c2, tower)
    u1 = plug2(c1, x, plug(c2, y))
    v1 = plug2(c1, tower, y)
    moves = draw(st.integers(0, 2))
    for _ in range(moves):
        side = rng.randrange(2)
        t = (u1, v1)[side]
        pos, _ = rng.choice(list(subterms(t)))
        t = replace_at(t, pos, random_term(rng, 2))
        u1, v1 = (t, v1) if side == 0 else (u1, t)
    return u1, v1, moves == 0


@pytest.mark.parametrize(
    "u1, v1, passes",
    [
        ("f(x,s(y))", "f(s(x),y)", True),
        ("f(x,s(y))", "f(x,y)", True),  # n1 = 0: x is where the sides agree
        ("f(x,s(y),y)", "f(s(x),y,y)", False),  # y also where they agree
        ("f(x,s(y),x)", "f(s(x),y,x)", False),  # x both differs and agrees
        ("f(x,s(y),x)", "f(s(x),y,s(s(x)))", False),  # x faces two terms
        ("f(x,s(y),s(y))", "f(s(x),y,s(y))", False),
        ("f(x,s(y),g(y))", "f(s(x),y,y)", False),  # two anchors
        ("f(x,s(y,z))", "f(s(x),y)", False),  # the anchor holds z too
        ("f(x,y)", "f(s(x),y)", False),  # no anchor
        ("f(x,s(y))", "g(s(x),y)", False),  # a symbol clash
        ("f(z,s(y))", "f(x,y)", False),  # a variable facing another
    ],
)
def test_precheck_examples(u1, v1, passes):
    assert (_may_decompose(term(u1), term(v1)) is not None) is passes
    if not passes:
        assert unfiltered_decompositions(term(u1), term(v1)) == []


@given(shaped_chains())
@settings(max_examples=500, deadline=None)
def test_precheck_false_means_no_decomposition(pair):
    u1, v1, shaped = pair
    decompositions = unfiltered_decompositions(u1, v1)
    if not _may_decompose(u1, v1):
        assert decompositions == []
    else:  # so find_recurrent_pair needs no filter of its own
        roots = {t.symbol if isinstance(t, App) else None for t in (u1, v1)}
        assert None not in roots and len(roots) == 1 and len(term_vars(u1)) >= 2
    if shaped:
        assert decompositions


@pytest.mark.parametrize("text", sorted(SWEEP_SYSTEMS))
def test_precheck_false_means_no_decomposition_on_pools(text):
    for u in unfold_trs(trs(text), 2):
        r = u.rule
        if not _may_decompose(r.lhs, r.rhs[0]):
            assert unfiltered_decompositions(r.lhs, r.rhs[0]) == []


@pytest.mark.parametrize("text, decomposable", [(PLUS, 97), (MINUS, 0)])
def test_precheck_passes_exactly_the_decomposable_chains(text, decomposable):
    pool = unfold_trs(trs(text), 3)
    passed = [u.rule.id for u in pool if _may_decompose(u.rule.lhs, u.rule.rhs[0])]
    full = [
        u.rule.id for u in pool if unfiltered_decompositions(u.rule.lhs, u.rule.rhs[0])
    ]
    assert passed == full
    assert len(full) == decomposable


@given(shaped_chains())
@settings(max_examples=500, deadline=None)
def test_decompositions_match_the_reference_enumeration(pair):
    u1, v1, _ = pair
    assert _first_chain_decompositions(u1, v1) == unfiltered_decompositions(u1, v1)


@pytest.mark.parametrize("text", sorted(SWEEP_SYSTEMS))
def test_partner_matching_matches_the_four_walk_reference(text):
    cand = unfolded_pools(text, 2)[2]
    for r in cand.rules:
        got = _first_chain_decompositions(r.lhs, r.rhs[0])
        assert got == unfiltered_decompositions(r.lhs, r.rhs[0])
    for c1, c2, decompositions, want in reference_matches(cand.rules):
        for dec in decompositions:
            assert _match_partner(c1, c2, *dec) == reference_match_partner(c1, c2, *dec)
        assert match_recurrent_pattern(c1, c2) == want


def chain_from(u, v):
    return Chain(u, [Step("r", (), v)], Semantics.TRS)


def chain_of(lhs, rhs):
    return chain_from(term(lhs), term(rhs))


def test_partner_binding_a_renamed_variable_is_rejected():
    # c1 = f([],[]',z,0) maps z to the second chain's w; the second
    # side then binds w to the 0 facing it, so z no longer meets a
    # variable once the second chain is instantiated
    first = chain_of("f(x,s(y),z,0)", "f(s(x),y,z,0)")
    assert len(_first_chain_decompositions(first.start, first.end)) == 1
    for rhs, hit in (("f(s(0),x,w,w)", False), ("f(s(0),x,w,0)", True)):
        partner = chain_of("f(x,0,w,0)", rhs)
        rp = match_recurrent_pattern(first, partner)
        assert (rp is not None) is hit
        want = reference_match(first, partner, unfiltered_decompositions(first.start, first.end))
        assert rp == want


def test_partner_variable_bound_loosely_is_read_back():
    # the partner's w meets the skeleton's ground 0 at argument 3 and is
    # bound to it; at argument 4 it meets 0 again, at argument 5 a 1
    first = chain_of("f(x,s(y),0,0,1)", "f(s(x),y,0,0,1)")
    decompositions = _first_chain_decompositions(first.start, first.end)
    assert len(decompositions) == 1
    for lhs, rhs, hit in (
        ("f(x,0,w,w,z)", "f(s(0),x,w,w,z)", True),
        ("f(x,0,w,z,w)", "f(s(0),x,w,z,w)", False),
    ):
        partner = chain_of(lhs, rhs)
        rp = _match_partner(first, partner, *decompositions[0])
        assert (rp is not None) is hit
        assert rp == reference_match_partner(first, partner, *decompositions[0])


def early_reject_partners(c1, c2, ns):
    """(u2, v2, hit) for one decomposition's skeleton c1 = f(c1', a),
    whose a gives the second side's loose walk ground content to bind:
    a partner whose [] residue is an application, one whose []' residue
    holds a variable the second side's walk grounds, and one whose []'
    residue holds a variable no walk binds.  The partners rename c1's
    variables apart."""
    n2, n3, n4 = ns
    x2, w = Var(900, "x2"), Var(901, "w")
    c1 = replace_all(c1, {v: Var(910 + v.id, f"z{v.id}") for v in term_vars(c1)})
    inner, pad = c1.args

    def tower(n, base):
        for _ in range(n):
            base = plug(c2, base)
        return base

    v2 = plug2(c1, tower(n3, x2), tower(n4, x2))
    grounding_v2 = App(F2, (plug2(inner, tower(n3, x2), tower(n4, x2)), w))
    return [
        (plug2(c1, App(G1, (x2,)), tower(n2, pad)), v2, False),
        (plug2(c1, x2, tower(n2, w)), grounding_v2, True),
        (plug2(c1, x2, tower(n2, w)), v2, False),
    ]


@given(shaped_chains(), st.tuples(*[st.integers(0, 2)] * 3))
@settings(max_examples=300, deadline=None)
def test_early_rejects_match_the_four_walk_reference(pair, ns):
    u1, v1, _ = pair
    first = chain_from(App(F2, (u1, App(A0))), App(F2, (v1, App(A0))))
    decompositions = _first_chain_decompositions(first.start, first.end)
    assume(decompositions)
    for dec in decompositions:
        _, _, c1, c2, _ = dec
        assert c1.args[1] == App(A0)
        for u2, v2, hit in early_reject_partners(c1, c2, ns):
            partner = chain_from(u2, v2)
            rp = _match_partner(first, partner, *dec)
            assert (rp is not None) is hit
            assert rp == reference_match_partner(first, partner, *dec)


def test_partner_with_a_non_variable_at_the_hole_walks_one_side(monkeypatch):
    first = chain_of("f(x,s(y))", "f(s(x),y)")
    (dec,) = _first_chain_decompositions(first.start, first.end)
    c1 = dec[2]
    partner = chain_of("f(0,s(0))", "f(s(0),0)")
    walked = []

    def counting(c, u, *args, **kwargs):
        if c is c1:
            walked.append(u)
        return _walk_template(c, u, *args, **kwargs)

    monkeypatch.setattr(detection, "_walk_template", counting)
    assert _match_partner(first, partner, *dec) is None
    assert walked == [partner.start]


def test_peeling_a_shared_tower_builds_no_term():
    # 26 objects but 3 * 2**25 - 2 tree nodes: plugging a layer back in
    # to compare would go over the term size cap
    g, zero = Symbol("g", 3), App(Symbol("0", 0))
    c2 = App(g, (App(HOLE), zero, App(HOLE)))
    towers = [zero]
    for _ in range(25):
        towers.append(App(g, (towers[-1], zero, towers[-1])))
    stages = _peel_stages(towers[-1], c2)
    same = len(stages) == 26 and all(map(is_, stages, reversed(towers)))
    assert same


def test_witness_chain_keeps_one_witness_powers():
    counting = find_recurrent_pair(zantema_rules(), 1)
    p = trs("f(c,a(x),y) -> f(c,x,a(y))  f(c,a(x),y) -> f(x,y,a(a(c)))")
    theta = Substitution({term("x"): term("c", "")})
    swapping = match_recurrent_pattern(
        one_step_chain(p.rules[0]), one_step_chain(p.rules[1]).instantiate(theta)
    )
    witness_chain(counting, 1, 0, 3)
    witness_chain(swapping, 1, 0, 3)
    assert detection._power_cache
    assert {c2 for c2, _, _ in detection._power_cache} == {swapping.c2}


# The parent's witness_chain, kept as an oracle: it instantiated both
# chains in full for every micro-step, sources and start included.
def instantiating_witness_chain(rp, m, n0, k):
    detection._power_cache.clear()

    def tower(n):
        return detection._tower(rp.c2, n, rp.s)

    cur_m, cur_n = m, n0
    steps = []
    start = plug2(rp.c1, tower(cur_m), tower(cur_n))
    for _ in range(k):
        while cur_n > rp.n2:
            sigma = Substitution({rp.x: tower(cur_m), rp.y: tower(cur_n - 1)})
            steps.extend(rp.chain1.instantiate(sigma).steps)
            cur_m, cur_n = cur_m + rp.n1, cur_n - 1
        steps.extend(rp.chain2.instantiate(Substitution({rp.x: tower(cur_m)})).steps)
        m_prime = 0 if rp.t_is_s else cur_m
        cur_m, cur_n = m_prime + rp.n3, cur_m + rp.n4
    return Chain(start, steps, rp.chain1.semantics)


def recurrent_pair_witnesses():
    counting = find_recurrent_pair(zantema_rules(), 1)
    p = trs("f(c,a(x),y) -> f(c,x,a(y))  f(c,a(x),y) -> f(x,y,a(a(c)))")
    theta = Substitution({term("x"): term("c", "")})
    swapping = match_recurrent_pattern(
        one_step_chain(p.rules[0]), one_step_chain(p.rules[1]).instantiate(theta)
    )
    paper = analyze(trs(PAPER_TRS), AnalysisConfig(simulate_steps=1)).witness
    return {"counting": counting, "swapping": swapping, "paper": paper}


@pytest.mark.parametrize("name", ["counting", "swapping", "paper"])
def test_witness_chain_matches_the_instantiating_construction(name):
    rp = recurrent_pair_witnesses()[name]
    assert rp is not None
    for m, n0 in ((rp.n2, rp.n2), (rp.n2 + 1, rp.n2 + 1)):
        for k in range(1, 6):
            try:
                want = instantiating_witness_chain(rp, m, n0, k)
            except ResourceLimitError:
                with pytest.raises(ResourceLimitError):
                    witness_chain(rp, m, n0, k)
                continue
            got = witness_chain(rp, m, n0, k)
            # assert on booleans only: a failing assert must not print
            # the paper's towers, which run to megabytes
            same = got.start == want.start and render(got.start) == render(want.start)
            assert same, f"start of k={k} from ({m}, {n0})"
            assert len(got.steps) == len(want.steps)
            assert got.semantics is want.semantics
            # with equal starts, equal targets make equal states
            for i, (a, b) in enumerate(zip(got.steps, want.steps)):
                same = (
                    (a.target, a.rule_id, a.position) == (b.target, b.rule_id, b.position)
                    and repr(a) == repr(b)
                )
                assert same, f"step {i} of k={k} from ({m}, {n0})"
    # the paper's towers double at every level: its fifth macro-step
    # goes over the term size cap, in both constructions
    if name == "paper":
        with pytest.raises(ResourceLimitError):
            witness_chain(rp, rp.n2, rp.n2, 5)


def test_searches_refuse_a_word_length_below_one():
    counting = trs(COUNTING)
    assert find_recurrent_pair(counting, 1) is not None
    self_loop = trs("f(x) -> f(x)")
    assert find_loop(self_loop, 1) is not None
    for words in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            find_recurrent_pair(counting, words)
        with pytest.raises(ValueError, match="at least 1"):
            find_loop(self_loop, words)


# The raw programs of the benchmark's recurrent-pair workloads, copied.
RAW_PAIR_SYSTEMS = {
    "counting": "f(x,s(y)) -> f(s(x),y) f(x,0) -> f(s(0),x)",
    "swapping": "f(c,a(x),y) -> f(c,x,a(y)) f(c,a(x),y) -> f(x,y,a(a(c)))",
    "paper-nonloop": "f(x,g(y,0,y),x) -> h(x,y) h(x,y) -> f(g(x,0,x),y,g(x,0,x)) "
    "f(x,0,x) -> f(g(x,0,x),g(x,1,x),g(x,0,x)) 1 -> 0",
}


def unfiltered_raw_first_hit(program, max_word_len):
    """The first recurrent pair over words of up to ``max_word_len`` rules,
    with no precheck and no root filter: the one-step chains, then their
    extensions through ``successors``, every ordered pair matched."""
    chains = [one_step_chain(r) for r in program.rules if r.trs_usable]
    layer = chains
    for _ in range(max_word_len - 1):
        layer = [
            Chain(c.start, c.steps + [st], c.semantics)
            for c in layer
            for st in successors(program, c.end, c.semantics)
        ]
        chains = chains + layer
    hits = (match_recurrent_pattern(c1, c2) for c1 in chains for c2 in chains)
    return next((rp for rp in hits if rp is not None), None)


@pytest.mark.parametrize("words", [2, 3])
@pytest.mark.parametrize("name", sorted(RAW_PAIR_SYSTEMS))
def test_longer_word_search_matches_the_unfiltered_sweep(name, words, monkeypatch):
    monkeypatch.setattr(detection, "NODE_CAP", 10**9)
    p = trs(RAW_PAIR_SYSTEMS[name], "x y")
    want = unfiltered_raw_first_hit(p, words)
    assert want is not None
    assert find_recurrent_pair(p, words) == want
    if name == "paper-nonloop":
        # no one-rule word pairs; both words of the hit are extended chains
        assert find_recurrent_pair(p, 1) is None
        assert (want.word1, want.word2) == (("r1", "r2"), ("r3", "r4"))
