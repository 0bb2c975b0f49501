import pytest

from conftest import lp, term, trs
from nonterm.errors import ResourceLimitError
from nonterm.rewriting import Mode, Semantics, run_word
from nonterm.terms import App, Symbol, is_variant, render
from nonterm.unfolding import (
    MarkedSignature,
    binary_unfold,
    defined_symbols,
    dependency_pairs,
    mark_root,
    overlap_closure,
    replay_provenance,
    unfold_trs,
    unfolded_program,
    unmark_root,
)

EX_TRS = "f(x) -> g(h(x,one),x)  one -> zero  h(x,zero) -> f(f(x))"


def rule_variant(u, lhs, rhs):
    return is_variant((u.rule.lhs,) + u.rule.rhs, (lhs,) + rhs)


def test_mark_unmark_roundtrip():
    t = term("f(g(x),y)")
    marks = MarkedSignature({t.symbol})
    m = mark_root(t, marks)
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


def test_unfold_rule_cap():
    p = trs(EX_TRS)
    with pytest.raises(ResourceLimitError):
        unfold_trs(p, 4, cap=10)


def test_unfold_provenance_replays():
    p = trs(EX_TRS)
    pool = unfold_trs(p, 2)
    by_id = {u.rule.id: u for u in pool}
    for u in pool:
        if u.depth == 0:
            continue
        replayed = replay_provenance(u, p, by_id)
        assert is_variant(
            (replayed.lhs,) + replayed.rhs, (u.rule.lhs,) + u.rule.rhs
        )


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
                from nonterm.rewriting import lp_successors

                for st in lp_successors(p, g):
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
