import dataclasses

import pytest

from conftest import lp, term, trs
from nonterm import rewriting
from nonterm.errors import ResourceLimitError
from nonterm.rewriting import (
    Chain,
    Mode,
    Program,
    Rule,
    Semantics,
    Step,
    run_word,
    successors,
    verify_chain,
)
from nonterm.substitution import Substitution, apply
from nonterm.terms import ROOT, is_variant, iter_positions, render


EX_TRS = "f(x) -> g(h(x,one),x)  one -> zero  h(x,zero) -> f(f(x))"


def trs_successors(p, s):
    return successors(p, s, Semantics.TRS)


def lp_successors(p, g):
    return successors(p, g, Semantics.LP_NARROW)


def restricted_successors(p, s):
    return successors(p, s, Semantics.LP_RESTRICTED)


def test_trs_successors_all_positions():
    p = trs(EX_TRS)
    steps = trs_successors(p, term("f(one)"))
    got = {(s.rule_id, s.position, render(s.target)) for s in steps}
    assert got == {
        ("r1", (), "g(h(one,one),one)"),
        ("r2", (1,), "f(zero)"),
    }


def test_trs_successor_order_deterministic():
    p = trs(EX_TRS)
    steps = trs_successors(p, term("f(one)"))
    assert [(s.rule_id, s.position) for s in steps] == [("r1", ()), ("r2", (1,))]


def test_lp_successors_resolution_window():
    p = lp("p(f(X,zero)) :- p(X), q(X).")
    g = (term("p(f(x,zero))"),)
    steps = lp_successors(p, g)
    assert len(steps) == 1
    # the body replaces the selected element; prefix and suffix survive
    assert render(steps[0].target).startswith("<p(")
    assert len(steps[0].target) == 2


def test_lp_successors_instantiate_suffix():
    # narrowing the first element must also instantiate the rest of the goal
    p = lp("p(f(X,zero)) :- p(X), q(X).")
    g = (term("p(x)"), term("q(x)"))
    steps = [s for s in lp_successors(p, g) if s.position == (1,)]
    assert len(steps) == 1
    tgt = steps[0].target
    assert len(tgt) == 3
    # x was unified with f(X1,zero), so the old suffix q(x) is now q(f(X1,zero))
    assert render(tgt[2]).startswith("q(f(")


def test_lp_successors_deterministic():
    p = lp("p(f(X,zero)) :- p(X), q(X).")
    g = (term("p(x)"),)
    assert lp_successors(p, g) == lp_successors(p, g)


def test_restricted_successors_root_only_no_extra_vars():
    p = Program(
        [
            Rule("r1", term("f(x,s(y))"), (term("f(s(x),y)"),)),
            Rule("r2", term("g(x)"), (term("g(f(x,y))"),)),  # extra var: unusable
        ],
        Mode.LP,
    )
    steps = restricted_successors(p, term("f(a,s(b))"))
    assert [(s.rule_id, render(s.target)) for s in steps] == [("r1", "f(s(a),b)")]
    assert restricted_successors(p, term("g(a)")) == []
    # no rewriting below the root
    assert restricted_successors(p, term("h(f(a,s(b)))")) == []


def test_run_word_empty_is_identity():
    p = trs(EX_TRS)
    t = term("f(one)")
    assert run_word(p, t, [], Semantics.TRS) == [t]


def test_run_word_sequence():
    p = trs(EX_TRS)
    out = run_word(p, term("f(x)"), ["r1", "r2", "r3"], Semantics.TRS)
    assert any(is_variant(t, term("g(f(f(x)),x)")) for t in out)


def test_run_word_unknown_rule():
    p = trs(EX_TRS)
    with pytest.raises(KeyError):
        run_word(p, term("f(x)"), ["nope"], Semantics.TRS)


def test_run_word_cap(monkeypatch):
    # d(x) -> d(x) at every position of a deep term explodes politely
    monkeypatch.setattr(rewriting, "RUN_WORD_CAP", 50)
    p = trs("d(x) -> c(d(x),d(x))")
    with pytest.raises(ResourceLimitError):
        run_word(p, term("d(d(d(x)))"), ["r1"] * 10, Semantics.TRS)


def test_verify_chain_roundtrip():
    p = trs(EX_TRS)
    t = term("f(x)")
    s1 = trs_successors(p, t)[0]
    s2 = [s for s in trs_successors(p, s1.target) if s.rule_id == "r2"][0]
    assert verify_chain(p, Chain(t, [s1, s2], Semantics.TRS))


def test_verify_chain_rejects_tampering():
    p = trs(EX_TRS)
    t = term("f(x)")
    s1 = trs_successors(p, t)[0]
    bad = Chain(t, [Step(s1.rule_id, s1.position, term("zero"))], Semantics.TRS)
    assert not verify_chain(p, bad)


def test_verify_chain_rejects_gaps():
    # s2 is a step of f(one), not of the term s1 ends in
    p = trs(EX_TRS)
    s1 = trs_successors(p, term("f(x)"))[0]
    s2 = trs_successors(p, term("f(one)"))[0]
    assert not verify_chain(p, Chain(term("f(x)"), [s1, s2], Semantics.TRS))


def test_chain_instantiate_stays_valid():
    # stability: instances of TRS steps are still steps
    p = trs(EX_TRS)
    t = term("f(x)")
    chain = Chain(t, [trs_successors(p, t)[0]], Semantics.TRS)
    theta = Substitution({term("x"): term("f(zero)")})
    inst = chain.instantiate(theta)
    assert inst.start == apply(theta, t)
    assert verify_chain(p, inst)


def test_successors_dispatch():
    p = trs(EX_TRS)
    assert successors(p, term("one"), Semantics.TRS)[0].rule_id == "r2"
    plp = lp("p(a).")
    assert successors(plp, (term("p(a)"),), Semantics.LP_NARROW)[0].target == ()


# ---------------------------------------------------------------------------
# One-step verify_chain against the enumerate-and-filter verifier it replaced


def one_step(source, rule_id, position, target, semantics):
    return Chain(source, [Step(rule_id, position, target)], semantics)


def oracle_verify_step(p, chain):
    """List every successor of the one step's source and keep the
    claimed one."""
    (step,) = chain.steps
    return step in successors(p, chain.start, chain.semantics)


RESTRICTED = Program(
    [
        Rule("r1", term("f(x,s(y))"), (term("f(s(x),y)"),)),
        Rule("r2", term("g(x)"), (term("g(f(x,y))"),)),  # extra var: unusable
        Rule("r3", term("f(s(x),y)"), (term("g(x)"),)),
    ],
    Mode.LP,
)

ORACLE_CASES = [
    (
        trs(EX_TRS),
        Semantics.TRS,
        [term("f(one)"), term("h(f(one),zero)"), term("g(h(x,one),f(one))")],
    ),
    (
        lp("p(f(X,zero)) :- p(X), q(X).  q(a).  p(a)."),
        Semantics.LP_NARROW,
        [(term("p(x)"), term("q(x)")), (term("q(y)"), term("p(f(x,zero))"), term("p(y)"))],
    ),
    (RESTRICTED, Semantics.LP_RESTRICTED, [term("f(s(a),s(b))"), term("f(s(s(a)),b)")]),
]


def _wrong_positions(source):
    if isinstance(source, tuple):
        return [(i,) for i in range(1, len(source) + 1)]
    return list(iter_positions(source))


@pytest.mark.parametrize("p, semantics, sources", ORACLE_CASES)
def test_verify_step_agrees_with_oracle(p, semantics, sources):
    outside = [(1, 1), (9,), (1, 9), (2, 1, 1)]
    for source in sources:
        steps = successors(p, source, semantics)
        assert steps
        for st in steps:
            chain = Chain(source, [st], semantics)
            assert verify_chain(p, chain) and oracle_verify_step(p, chain)
            mutants = [
                dataclasses.replace(st, position=pos)
                for pos in _wrong_positions(source) + outside
                if pos != st.position
            ]
            mutants += [
                dataclasses.replace(st, rule_id="nope"),
                dataclasses.replace(st, target=source),
            ]
            mutants = [Chain(source, [m], semantics) for m in mutants]
            for m in mutants:
                assert verify_chain(p, m) == oracle_verify_step(p, m), m
            # no program here rewrites one source to one target twice
            for m in mutants[-2:]:
                assert not verify_chain(p, m) and not oracle_verify_step(p, m), m


@pytest.mark.parametrize(
    "p, step",
    [
        # wrong position: one -> zero happens below the root
        (trs(EX_TRS), one_step(term("f(one)"), "r2", ROOT, term("f(zero)"), Semantics.TRS)),
        # position outside the term
        (trs(EX_TRS), one_step(term("f(one)"), "r2", (2,), term("f(zero)"), Semantics.TRS)),
        (trs(EX_TRS), one_step(term("one"), "r2", (1, 1), term("zero"), Semantics.TRS)),
        (lp("q(a)."), one_step((term("q(a)"),), "r1", (2,), (), Semantics.LP_NARROW)),
        (lp("q(a)."), one_step((term("q(a)"),), "r1", ROOT, (), Semantics.LP_NARROW)),
        # wrong rule id
        (trs(EX_TRS), one_step(term("f(one)"), "r1", (1,), term("f(zero)"), Semantics.TRS)),
        # wrong target
        (trs(EX_TRS), one_step(term("f(one)"), "r2", (1,), term("f(one)"), Semantics.TRS)),
        # restricted steps happen at the root only
        (
            RESTRICTED,
            one_step(term("g(f(a,s(b)))"), "r1", (1,), term("g(f(s(a),b))"), Semantics.LP_RESTRICTED),
        ),
        # a rule with a two-atom body is no rewrite rule
        (
            Program([Rule("r1", term("f(x)"), (term("g(x)"), term("g(x)")))], Mode.TRS),
            one_step(term("f(a)"), "r1", ROOT, term("g(a)"), Semantics.TRS),
        ),
    ],
)
def test_verify_step_rejects_like_oracle(p, step):
    assert not oracle_verify_step(p, step)
    assert not verify_chain(p, step)


def test_verify_step_tries_every_rule_with_the_id():
    # only the second rule named r1 rewrites f(x) to c
    p = Program(
        [Rule("r1", term("f(a)"), (term("b"),)), Rule("r1", term("f(x)"), (term("c"),))],
        Mode.TRS,
    )
    step = one_step(term("f(x)"), "r1", ROOT, term("c"), Semantics.TRS)
    assert oracle_verify_step(p, step)
    assert verify_chain(p, step)
