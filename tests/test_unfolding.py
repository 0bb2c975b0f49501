import random
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import lp, random_term, term, trs
from test_step_oracles import rename_apart
from test_substitution import terms
from nonterm import parse_trs, unfolding
from nonterm.errors import DeadlineError, ResourceLimitError
from nonterm.parsing import render_program
from nonterm.rewriting import Mode, Rule, Semantics, run_word, successors
from nonterm.substitution import Substitution, apply, mgu, renaming_apart
from nonterm.terms import App, Symbol, Var, canonical, is_variant, render, term_vars
from nonterm.unfolding import (
    UnfoldedRule,
    Unfolding,
    _clash,
    _dedup_key,
    _narrowings,
    _variant_key,
    binary_unfold,
    defined_symbols,
    dependency_pairs,
    overlap_closure,
    replay_provenance,
    unfold_trs,
    unfolded_program,
    unmark_root,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import corpus  # noqa: E402

EX_TRS = "f(x) -> g(h(x,one),x)  one -> zero  h(x,zero) -> f(f(x))"


def rule_variant(u, lhs, rhs):
    return is_variant((u.rule.lhs,) + u.rule.rhs, (lhs,) + rhs)


def test_mark_unmark_roundtrip():
    p = trs("f(g(x),y) -> f(x,y)")
    t = p.rules[0].lhs
    m = dependency_pairs(p)[0].rule.lhs
    assert m.symbol.name == "f#"
    assert m.args == t.args
    assert unmark_root(m) == t
    assert unmark_root(t) == t


def test_defined_symbols():
    p = trs(EX_TRS)
    assert {s.name for s in defined_symbols(p)} == {"f", "one", "h"}


def test_dependency_pairs():
    p = trs(EX_TRS)
    dps = [u.rule for u in dependency_pairs(p)]
    rendered = {f"{render(r.lhs)} -> {render(r.rhs[0])}" for r in dps}
    assert rendered == {
        "f#(x) -> h#(x,one)",
        "f#(x) -> one#",
        "h#(x,zero) -> f#(f(x))",
        "h#(x,zero) -> f#(x)",
    }
    assert all(u.depth == 0 for u in dependency_pairs(p))


def test_unfold_derives_self_loop_rule():
    p = trs(EX_TRS)
    pool = unfold_trs(p, 2)
    f_mark = term("fmark(fun(x))")  # shape only; build the real one below
    marked_f = Symbol("f#", 1)
    f = Symbol("f", 1)
    x = term("x")
    want_lhs = App(marked_f, (x,))
    want_rhs = (App(marked_f, (App(f, (x,)),)),)
    hits = [u for u in pool if rule_variant(u, want_lhs, want_rhs)]
    assert hits, "expected a marked self-embedding rule at depth <= 2"
    assert min(u.depth for u in hits) == 2


def test_unfold_depth_zero_is_dependency_pairs():
    p = trs(EX_TRS)
    assert [u.rule for u in unfold_trs(p, 0)] == [
        u.rule for u in dependency_pairs(p)
    ]


def test_unfold_variant_dedup():
    p = trs("f(x) -> f(x)")
    pool = unfold_trs(p, 3)
    # the pool never contains two variant-equal rules
    from nonterm.terms import canonical

    keys = [canonical((u.rule.lhs,) + u.rule.rhs) for u in pool]
    assert len(keys) == len(set(keys))


def test_unfold_rule_cap(monkeypatch):
    monkeypatch.setattr(unfolding, "RULE_CAP", 10)
    p = trs(EX_TRS)
    with pytest.raises(ResourceLimitError):
        unfold_trs(p, 4)


# f(a) -> f(b) overlaps b -> a backwards: on it every oc-backward rule
# is narrowed in its second parent, not its first
OC_BACKWARD = "f(a) -> f(b)  b -> a"


def test_unfold_provenance_replays():
    # every rule of every unfolder, the depth-0 ones included, replays
    # from its parents to a variant of itself
    cases = []
    for text in (EX_TRS, COUNTING, OC_BACKWARD):
        p = trs(text)
        cases += [(p, unfold_trs(p, 2)), (p, overlap_closure(p, 2))]
    p = lp(REV_LP)
    cases.append((p, binary_unfold(p, 3)))
    kinds = set()
    for p, pool in cases:
        by_id = {u.rule.id: u for u in pool}
        for u in pool:
            replayed = replay_provenance(u, p, by_id)
            assert replayed is not None, repr(u)
            assert is_variant(
                (replayed.lhs,) + replayed.rhs, (u.rule.lhs,) + u.rule.rhs
            ), repr(u)
            kinds.add(u.provenance.kind)
    assert kinds == {
        "dp", "forward", "backward", "base", "oc-forward", "oc-backward",
        "binunf-A", "binunf-B", "binunf-C",
    }


def test_replay_rejects_a_wrong_position():
    one_clause = "p(f(X)) :- p(X)."
    cases = [
        # a position outside the term
        (trs, OC_BACKWARD, overlap_closure, "oc-backward", {"position": (7,)}),
        (trs, OC_BACKWARD, unfold_trs, "dp", {"position": (7,)}),
        # a dependency pair's right side at a constructor or a variable
        (trs, EX_TRS, unfold_trs, "dp", {"position": ()}),
        (trs, EX_TRS, unfold_trs, "dp", {"position": (2,)}),
        # a narrowing with one parent
        (trs, EX_TRS, unfold_trs, "forward", {"parents": ("dp1",)}),
        # an atom past the body, with or without a unit erasing the body,
        # position 0, and binunf-B with no binary rule
        (lp, one_clause, binary_unfold, "binunf-A", {"position": (2,)}),
        (lp, one_clause, binary_unfold, "binunf-A", {"parents": ("c1", "c1"), "position": (2,)}),
        (lp, one_clause, binary_unfold, "binunf-A", {"position": (0,)}),
        (lp, one_clause, binary_unfold, "binunf-A", {"kind": "binunf-B"}),
    ]
    for parse, text, unfolder, kind, change in cases:
        p = parse(text)
        pool = unfolder(p, 1)
        by_id = {u.rule.id: u for u in pool}
        u = next(u for u in pool if u.provenance.kind == kind)
        moved = UnfoldedRule(u.rule, u.depth, replace(u.provenance, **change))
        assert replay_provenance(moved, p, by_id) is None, (text, kind, change)


def test_binary_unfold_example():
    p = lp("p(f(X,zero)) :- p(X), q(X).")
    pool = binary_unfold(p, 2)
    want_lhs = term("p(f(x,zero))")
    want_rhs = (term("p(x)"),)
    assert any(rule_variant(u, want_lhs, want_rhs) for u in pool)
    assert all(len(u.rule.rhs) <= 1 for u in pool)


def test_binary_unfold_unit_rules_erase_prefix():
    p = lp(
        """
        p(X) :- q(X), p(f(X)).
        q(a).
        """
    )
    pool = binary_unfold(p, 2)
    # erasing q(a) with the unit clause specializes the recursive clause
    want_lhs = term("p(a)")
    want_rhs = (term("p(f(a))"),)
    assert any(rule_variant(u, want_lhs, want_rhs) for u in pool)


@pytest.mark.parametrize(
    "text, want",
    [
        # two erased units
        ("p(X, Y) :- q(X), r(Y).  q(f(Z)).  r(g(W)).", ("p(f(x),g(y))", ())),
        # an erased unit, then a binary rule narrowing the next atom
        ("p(X, Y) :- q(X), r(Y).  q(f(Z)).  r(g(W)) :- s(W).", ("p(f(x),g(y))", ("s(y)",))),
    ],
)
def test_binary_unfold_renames_apart_from_earlier_erasures(text, want):
    # each joined rule is renamed apart from the variables the rules
    # joined before it brought in, so their variables stay distinct
    p = lp(text)
    pool = binary_unfold(p, 2)
    lhs, rhs = term(want[0]), tuple(term(a) for a in want[1])
    derived = [u for u in pool if rule_variant(u, lhs, rhs)]
    assert len(derived) == 1
    assert len(term_vars(derived[0].rule.lhs)) == 2
    by_id = {u.rule.id: u for u in pool}
    replayed = replay_provenance(derived[0], p, by_id)
    assert is_variant((replayed.lhs,) + replayed.rhs, (lhs,) + rhs)


def test_binary_unfold_soundness_via_narrowing():
    # every derived binary rule is realizable: <u> reaches a goal whose
    # first element is an instance-variant of v under narrowing
    p = lp("p(f(X,zero)) :- p(X), q(X).")
    pool = binary_unfold(p, 2)
    prog = unfolded_program([], Mode.LP)
    for u in pool:
        if not u.rule.rhs:
            continue
        goals = [(u.rule.lhs,)]
        reached = False
        for _ in range(u.depth + 1):
            nxt = []
            for g in goals:
                for st in successors(p, g, Semantics.LP_NARROW):
                    if st.target and is_variant(st.target[0], u.rule.rhs[0]):
                        reached = True
                    nxt.append(st.target)
            goals = nxt
        assert reached, f"binary rule {u.rule} not realizable"


def test_overlap_closure_base():
    p = trs("f(s(x),y) -> f(x,s(y))")
    oc = overlap_closure(p, 0)
    assert len(oc) == 1
    assert oc[0].rule.lhs == p.rules[0].lhs


def test_overlap_closure_growth():
    p = trs("f(s(x),y) -> f(x,s(y))")
    oc1 = overlap_closure(p, 1)
    want_lhs = term("f(s(s(x)),y)")
    want_rhs = (term("f(x,s(s(y)))"),)
    assert any(rule_variant(u, want_lhs, want_rhs) for u in oc1)


def test_overlap_closure_backward_composition():
    # f(f(x)) -> x arises by composing the collapsing rule with itself
    p = trs("f(x) -> x")
    oc = overlap_closure(p, 1)
    assert any(
        rule_variant(u, term("f(f(x))"), (term("x"),)) for u in oc
    )
    # narrowing never happens at a variable position, so nothing pairs
    # the plain variable right-hand side at the root
    assert all(not isinstance(u.rule.lhs, type(term("x"))) for u in oc)


def test_unfolded_program_wraps_rules():
    p = trs(EX_TRS)
    pool = unfold_trs(p, 1)
    prog = unfolded_program(pool, Mode.TRS)
    assert len(prog.rules) == len(pool)
    assert prog.rule(pool[0].rule.id) == pool[0].rule


REV_LP = """
rev(nil,nil).
rev(cons(X,Xs),Ys) :- rev(Xs,Zs), app(Zs,cons(X,nil),Ys).
app(nil,Y,Y).
app(cons(X,Xs),Y,cons(X,Z)) :- app(Xs,Y,Z).
"""


def _ids(pool):
    return [u.rule.id for u in pool]


@pytest.mark.parametrize("depth", range(4))
def test_binary_unfold_depth_bound_and_prefix(depth):
    # iteration j only combines rules of earlier iterations, so no rule
    # is deeper than the bound and deepening only appends rules
    p = lp(REV_LP)
    pool, deeper = binary_unfold(p, depth), binary_unfold(p, depth + 1)
    assert all(u.depth <= depth for u in pool)
    assert _ids(deeper)[: len(pool)] == _ids(pool)
    assert [u.depth for u in deeper[: len(pool)]] == [u.depth for u in pool]


COUNTING = "f(x,s(y)) -> f(s(x),y)  f(x,zero) -> f(s(zero),x)"


@pytest.mark.parametrize("text", [EX_TRS, COUNTING])
@pytest.mark.parametrize("depth", range(3))
def test_unfold_trs_deepening_is_prefix(text, depth):
    p = trs(text)
    pool, deeper = unfold_trs(p, depth), unfold_trs(p, depth + 1)
    assert all(u.depth <= depth for u in pool)
    assert _ids(deeper)[: len(pool)] == _ids(pool)
    assert len(deeper) > len(pool)


GOLDEN_LP = "p(f(X,0)) :- p(X), q(X)."

RESUME_CASES = [
    (trs, unfold_trs, EX_TRS),
    (trs, unfold_trs, COUNTING),
    (lp, binary_unfold, GOLDEN_LP),
    (lp, binary_unfold, REV_LP),
]


def _signature(pool):
    return [
        (
            u.rule.id,
            repr(u.rule),
            u.depth,
            u.provenance.kind,
            u.provenance.parents,
            u.provenance.position,
            u.provenance.unifier,
        )
        for u in pool
    ]


@pytest.mark.parametrize("parse, unfolder, text", RESUME_CASES)
def test_resumed_unfolding_matches_fresh(parse, unfolder, text):
    p = parse(text)
    state = Unfolding()
    returned = []
    for depth in range(5):
        pool = unfolder(p, depth, resume=state)
        assert _signature(pool) == _signature(unfolder(p, depth))
        returned.append((pool, _signature(pool)))
    # deepening leaves every list handed out earlier as it was
    for pool, sig in returned:
        assert _signature(pool) == sig
    assert len({id(pool) for pool, _ in returned}) == len(returned)


@pytest.mark.parametrize("parse, unfolder, text", RESUME_CASES[1:])
def test_resumed_unfolding_may_skip_depths(parse, unfolder, text):
    p = parse(text)
    state = Unfolding()
    for depth in (0, 2, 2, 3):
        assert _signature(unfolder(p, depth, resume=state)) == _signature(
            unfolder(p, depth)
        )


def test_resumed_unfolding_rule_cap(monkeypatch):
    monkeypatch.setattr(unfolding, "RULE_CAP", 10)
    p = trs(EX_TRS)
    state = Unfolding()
    unfold_trs(p, 0, resume=state)
    with pytest.raises(ResourceLimitError):
        unfold_trs(p, 4, resume=state)
    # a depth cut short cannot be finished later
    with pytest.raises(ValueError):
        unfold_trs(p, 4, resume=state)


@pytest.mark.parametrize("parse, unfolder, text", RESUME_CASES)
def test_unfolding_stops_at_its_deadline(parse, unfolder, text):
    p = parse(text)
    state = Unfolding()
    unfolder(p, 0, resume=state)
    state.deadline = time.monotonic() - 1
    with pytest.raises(DeadlineError):
        unfolder(p, 1, resume=state)
    with pytest.raises(ValueError):
        unfolder(p, 1, resume=state)


def test_resumed_unfolding_rejects_misuse():
    p = trs(EX_TRS)
    state = Unfolding()
    unfold_trs(p, 2, resume=state)
    with pytest.raises(ValueError):
        unfold_trs(p, 1, resume=state)
    with pytest.raises(ValueError):
        unfold_trs(trs(COUNTING), 3, resume=state)


@given(terms(), terms())
@settings(max_examples=300, deadline=None)
def test_clash_means_no_unifier(s, t):
    # renaming changes no symbol, so a clash survives renaming apart
    fresh = rename_apart(Rule("r", t, ()), term_vars(s)).lhs
    if _clash(s, t):
        assert mgu(s, fresh) is None


def test_clash_examples():
    assert _clash(term("f(a,x)"), term("f(b,y)"))
    assert _clash(term("g(f(a,x))"), term("g(g(y))"))
    assert not _clash(term("f(x,a)"), term("f(g(x),y)"))
    # an occurs-check failure is no clash: only mgu can tell
    assert not _clash(term("x"), term("g(x)"))


@st.composite
def rules(draw):
    """A random rule; half the time, paired with a renamed variant."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    body = draw(st.integers(0, 2))
    a = Rule("a", random_term(rng, 3), tuple(random_term(rng, 2) for _ in range(body)))
    if draw(st.booleans()):
        ids = list(range(3))
        rng.shuffle(ids)
        b = a.rename(Substitution({Var(i): Var(10 + ids[i]) for i in range(3)}))
    else:
        body = draw(st.integers(0, 2))
        b = Rule("b", random_term(rng, 3), tuple(random_term(rng, 2) for _ in range(body)))
    return a, b


def _old_key(rule):
    return canonical((rule.lhs,) + rule.rhs)


@given(rules())
@settings(max_examples=500, deadline=None)
def test_dedup_key_equal_exactly_when_canonical_equal(pair):
    a, b = pair
    assert (_dedup_key(a) == _dedup_key(b)) == (_old_key(a) == _old_key(b))


@pytest.mark.parametrize(
    "a, b",
    [
        # unit versus binary: same head, bodies of different lengths
        ("p(f(X,0)).", "p(f(X,0)) :- p(X)."),
        ("p(X) :- q(X).", "p(X) :- q(X), q(X)."),
        ("p(X) :- q(X, Y).", "p(Y) :- q(Y, X)."),
        ("p(X) :- q(X, Y).", "p(X) :- q(Y, X)."),
    ],
)
def test_dedup_key_lp_rules(a, b):
    ra, rb = lp(a).rules[0], lp(b).rules[0]
    assert (_dedup_key(ra) == _dedup_key(rb)) == (_old_key(ra) == _old_key(rb))


@st.composite
def instantiated_rules(draw):
    """Two (lhs, body, theta) triples, theta the mgu of two random terms
    (or empty if they have none); half the time the second is the first
    renamed, so that the two instances are variants."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def triple():
        lhs = random_term(rng, 3)
        body = tuple(random_term(rng, 2) for _ in range(rng.randint(0, 2)))
        theta = mgu(random_term(rng, 2), random_term(rng, 2)) or Substitution()
        return lhs, body, theta

    a = triple()
    if not draw(st.booleans()):
        return a, triple()
    ids = list(range(3))
    rng.shuffle(ids)
    gamma = Substitution({Var(i): Var(10 + ids[i]) for i in range(3)})
    lhs, body, theta = a
    renamed = {apply(gamma, v): apply(gamma, t) for v, t in theta.bindings.items()}
    return a, (apply(gamma, lhs), apply(gamma, body), Substitution(renamed))


def _instance(lhs, body, theta):
    """The built rule as one goal: its head, then its body."""
    return (apply(theta, lhs),) + apply(theta, body)


@given(instantiated_rules())
@settings(max_examples=500, deadline=None)
def test_variant_key_is_the_key_of_the_built_instance(pair):
    for lhs, body, theta in pair:
        head, *built = _instance(lhs, body, theta)
        key = _variant_key(lhs, body, theta)
        assert key == _variant_key(head, tuple(built), Substitution())
        assert key == _dedup_key(Rule("r", head, tuple(built)))
    a, b = pair
    same_key = _variant_key(*a) == _variant_key(*b)
    assert same_key == (canonical(_instance(*a)) == canonical(_instance(*b)))


def test_each_unfolding_prints_only_its_own_variable_names():
    # the two parses are equal up to display names, which Var equality
    # ignores: a renaming memo shared between them would print one
    # parse's names in the other's pool
    for name in ("x", "u"):
        pool = unfold_trs(trs(f"f(s({name})) -> f({name})", variables=name), 3)
        assert any(u.provenance.kind != "dp" for u in pool)
        for u in pool:
            shown = {v.name for v in u.rule.all_vars()}
            for v, t in u.provenance.unifier.bindings.items():
                shown |= {v.name} | {w.name for w in term_vars(t)}
            assert shown and all(n.rstrip("0123456789") == name for n in shown), repr(u)


# The table of unifiers.  Pairs derived from one parent share the
# subterms that ``apply`` left unchanged, and hosts with the same largest
# variable id share one renamed rule, so the same two objects meet again.
DOUBLE_QUAD = "d(0) -> 0  d(s(x)) -> s(s(d(x)))  q(0) -> 0  q(s(x)) -> d(d(q(x)))"


def _narrowed(r, hosts, renamed, unifiers):
    """Every narrowing of ``hosts`` as ``unfold_trs`` makes it, as text."""
    dp_rules = [u.rule for u in dependency_pairs(r)]
    at = lambda pos: dp_rules if pos == () else r.rules  # noqa: E731
    out = []
    for host in hosts:
        for kind, pos, rule, lhs, rhs, theta in _narrowings(
            host, ("forward", "backward"), at, True, renamed, unifiers
        ):
            out.append((host.id, kind, pos, rule.id, render(lhs), render(rhs), theta.text(render)))
    return out


def test_unifier_table_is_transparent():
    # one table shared by every host of two parses gives what each host
    # narrowed on its own gives.  The parses differ only in display names,
    # which Var equality ignores: a table keyed by value would print one
    # parse's names in the other's unifiers
    programs = [trs(DOUBLE_QUAD.replace("x", name), variables=name) for name in ("x", "u")]
    hosts = [[u.rule for u in unfold_trs(r, 2)] for r in programs]
    unifiers: dict = {}
    renamed = [{} for _ in programs]
    for r, rules, memo in zip(programs, hosts, renamed):
        _narrowed(r, rules, memo, unifiers)
    warm = len(unifiers)
    for r, rules, memo in zip(programs, hosts, renamed):
        plain = _narrowed(r, rules, None, None)
        assert plain and _narrowed(r, rules, memo, unifiers) == plain
    # the second pass found every pair in the table
    assert len(unifiers) == warm


def test_narrowing_unifies_each_pair_of_objects_once(monkeypatch):
    calls = []

    def counting(s, t):
        calls.append((s, t))
        return mgu(s, t)

    monkeypatch.setattr(unfolding, "mgu", counting)
    unfold_trs(trs(DOUBLE_QUAD), 3)
    # ``calls`` keeps every argument alive, so no two of them share an id
    assert len(calls) > 100
    assert len({(id(s), id(t)) for s, t in calls}) == len(calls)


def test_unifier_table_holds_its_key_objects():
    state = Unfolding()
    unfold_trs(trs(DOUBLE_QUAD), 3, resume=state)
    assert state.unifiers
    for key, (sub, side, theta) in state.unifiers.items():
        assert key == (id(sub), id(side))
        # looked up only after the clash pre-check
        assert not _clash(sub, side)
        assert theta == mgu(sub, side)


def test_each_unfolding_has_its_own_unifier_table():
    p = trs(DOUBLE_QUAD)
    first = Unfolding()
    unfold_trs(p, 3, resume=first)
    second = Unfolding()
    assert first.unifiers and second.unifiers == {}
    unfold_trs(p, 3, resume=second)
    assert second.unifiers is not first.unifiers
    assert len(second.unifiers) == len(first.unifiers)


# The table of nodes.  Each node an unfolding builds is looked up by the
# identities of its symbol and children first, so equal nodes built from
# the same objects are one object.
UNFOLD_CORPUS = {i.program.name: i for i in corpus.instances(corpus.UNFOLD, 1)}


class _NeverHits(dict):
    """A node table in which no lookup finds a node, so every node is
    built anew, as without a table."""

    def get(self, key, default=None):
        return None


def _pool_text(pool):
    """Ids, rules, depths and provenance of ``pool``, names and all."""
    return [
        (u.rule.id, repr(u.rule), u.depth, u.provenance.kind, u.provenance.parents,
         u.provenance.position, repr(u.provenance.unifier))
        for u in pool
    ]


def _deepened(p, state, top=4):
    return [_pool_text(unfold_trs(p, depth, resume=state)) for depth in range(top + 1)]


def _apps(terms):
    """The distinct ``App`` objects reachable from ``terms``, by id."""
    seen, stack = {}, list(terms)
    while stack:
        t = stack.pop()
        if t.__class__ is App and id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t.args)
    return seen


@pytest.mark.parametrize("name", ["double-quad", "f-g-h", "rotate3"])
def test_node_table_is_exact(name):
    # the golden pools stop at depth 3; this goes to depth 4
    p = parse_trs(UNFOLD_CORPUS[name].text)
    state, plain = Unfolding(), Unfolding()
    plain.nodes = _NeverHits()
    assert _deepened(p, state) == _deepened(p, plain)
    assert state.nodes and len(state.nodes) < len(plain.nodes)


def test_node_table_keeps_display_names_apart():
    # the two parses are equal up to display names, and their variables
    # have the same ids: one table shared by both must not merge them
    first, second = (trs(DOUBLE_QUAD.replace("x", v), variables=v) for v in "xu")
    ids = [sorted(v.id for r in p.rules for v in r.all_vars()) for p in (first, second)]
    assert ids[0] == ids[1]
    shared = Unfolding()
    unfold_trs(first, 4, resume=shared)
    again = Unfolding()
    again.nodes = shared.nodes
    pool = unfold_trs(second, 4, resume=again)
    assert _pool_text(pool) == _pool_text(unfold_trs(second, 4))
    for u in pool:
        shown = {v.name for v in u.rule.all_vars()}
        assert all(n.rstrip("0123456789") == "u" for n in shown), repr(u)


def test_node_table_holds_its_key_objects():
    state = Unfolding()
    unfold_trs(trs(DOUBLE_QUAD), 4, resume=state)
    assert state.nodes
    for key, node in state.nodes.items():
        # the node holds every object whose id its key holds
        assert key == (id(node.symbol), *map(id, node.args))


def test_node_table_holds_each_node_once():
    state = Unfolding()
    unfold_trs(trs(DOUBLE_QUAD), 4, resume=state)
    nodes = list(state.nodes.values())
    assert len({id(n) for n in nodes}) == len(nodes)
    assert len({(id(n.symbol), *map(id, n.args)) for n in nodes}) == len(nodes)
    # the pool's derived rules are built from the table's nodes
    deep = [t for u in state.pool if u.depth >= 1 for t in (u.rule.lhs, *u.rule.rhs)]
    assert len(set(_apps(deep)) & {id(n) for n in nodes}) > len(nodes) // 2


def test_each_unfolding_has_its_own_node_table():
    p = trs(DOUBLE_QUAD)
    first = Unfolding()
    unfold_trs(p, 3, resume=first)
    second = Unfolding()
    assert first.nodes and second.nodes == {}
    unfold_trs(p, 3, resume=second)
    assert second.nodes is not first.nodes
    assert len(second.nodes) == len(first.nodes)
    ids = [{id(n) for n in state.nodes.values()} for state in (first, second)]
    assert not ids[0] & ids[1]


# Counts that do not depend on machine speed.  Without the table of
# nodes the depth-4 pool of ``double-quad`` held about 44,000 ``App``
# objects and the corpus took 4,590 ``mgu`` calls.
def test_double_quad_pool_holds_few_app_objects():
    pool = unfold_trs(parse_trs(UNFOLD_CORPUS["double-quad"].text), 4)
    assert len(pool) == 4198
    assert len(_apps(t for u in pool for t in (u.rule.lhs, *u.rule.rhs))) <= 8000


def test_unfold_corpus_takes_few_unifications(monkeypatch):
    calls = []

    def counting(s, t):
        calls.append(None)
        return mgu(s, t)

    monkeypatch.setattr(unfolding, "mgu", counting)
    programs = [w for w in corpus.UNFOLD.programs if w.dialect == "trs"]
    assert len(programs) == 7
    for w in programs:
        unfold_trs(parse_trs(UNFOLD_CORPUS[w.name].text), w.depth)
    assert len(calls) <= 2300


def test_binary_unfolding_renames_each_rule_once_per_key(monkeypatch):
    # the renaming of a unit or binary rule depends only on the rule and
    # the largest variable id in use, so it is built once per such key
    calls = []

    def counting(vs, top, taken=()):
        calls.append(top)
        return renaming_apart(vs, top, taken)

    monkeypatch.setattr(unfolding, "renaming_apart", counting)
    state = Unfolding()
    binary_unfold(lp(REV_LP), 4, resume=state)
    # one renaming per (rule, largest id) key of the memo
    assert len(calls) == len(state.renamed) == 35


# Anonymous variables and no numeric constant: a unit rule renamed apart
# must not turn ``_`` into a name that parses as a constant.
ANON_LP = "a(X, X).\nb(Z) :- a(_, Z), c(Z).\nc(W) :- b(W).\nd(_) :- e(_, _).\ne(U, U)."


def assert_pool_parses_back(text):
    pool = unfolded_program(binary_unfold(lp(text), 2), Mode.LP)
    again = lp(render_program(pool))
    assert len(again.rules) == len(pool.rules)
    for rule, back in zip(pool.rules, again.rules):
        assert is_variant((rule.lhs, *rule.rhs), (back.lhs, *back.rhs)), (rule, back)


def test_rendered_pool_with_anonymous_variables_parses_back():
    assert_pool_parses_back(ANON_LP)


def test_rendered_pool_names_a_repeated_anonymous_variable():
    # unification makes the two body ``_`` of ``b6`` one variable
    assert_pool_parses_back("q(Z,f(_)) :- q(Z,Z). r(_) :- q(f(_),_).")
