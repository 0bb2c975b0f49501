import pytest

from nonterm.errors import ParseError
from nonterm.parsing import parse_lp, parse_program, parse_trs, render_program
from nonterm.rewriting import Mode, Program, Rule
from nonterm.terms import App, Symbol, Var, is_variant, render


def test_parse_trs_basic():
    p = parse_trs(
        """
        (VAR x y)
        (RULES
          f(x,s(y)) -> f(s(x),y)
          f(x,0) -> f(s(0),x)
        )
        """
    )
    assert p.mode is Mode.TRS
    assert [r.id for r in p.rules] == ["r1", "r2"]
    assert render(p.rules[0].lhs) == "f(x,s(y))"
    assert len(p.rules[0].rhs) == 1


def test_parse_trs_arity_inference_and_clash():
    with pytest.raises(ParseError) as ei:
        parse_trs("(VAR x)(RULES f(x) -> f(x,x))")
    assert "arities" in str(ei.value)


def test_parse_trs_variable_lhs_rejected():
    with pytest.raises(ParseError):
        parse_trs("(VAR x)(RULES x -> f(x))")


def test_parse_trs_marker_rejected():
    with pytest.raises(ParseError):
        parse_trs("(VAR x)(RULES f#(x) -> f#(x))")


@pytest.mark.parametrize("name", ["[]", "[]'"], ids=["hole", "hole2"])
@pytest.mark.parametrize(
    "parse, template",
    [
        (parse_trs, "(VAR x)(RULES f(x) -> g({}))"),
        (parse_trs, "(RULES {} -> a)"),
        (parse_lp, "p({})."),
        (parse_lp, "{} :- p."),
    ],
    ids=["trs-argument", "trs-root", "lp-argument", "lp-head"],
)
def test_hole_names_are_reserved_in_both_dialects(parse, template, name):
    with pytest.raises(ParseError, match="is reserved"):
        parse(template.format(name))


@pytest.mark.parametrize(
    "parse, text",
    [(parse_trs, "(VAR x)(RULES f(x,x) -> f(x))"), (parse_lp, "p(f(X,X)) :- p(f(X)).")],
    ids=["trs", "lp"],
)
def test_symbol_arity_clash_in_both_dialects(parse, text):
    with pytest.raises(ParseError, match="symbol f used with arities 2 and 1"):
        parse(text)


def test_parse_trs_error_position():
    try:
        parse_trs("(VAR x)\n(RULES f(x -> g)\n)")
    except ParseError as exc:
        assert exc.line == 2
    else:
        pytest.fail("expected a parse error")


def test_parse_trs_no_rules():
    with pytest.raises(ParseError):
        parse_trs("(VAR x)")


def test_parse_trs_unknown_section():
    with pytest.raises(ParseError):
        parse_trs("(THEORY foo)(RULES a -> a)")


def test_parse_lp_clauses_and_facts():
    p = parse_lp(
        """
        % comment
        p(f(X,0)) :- p(X), q(X).
        q(a).
        """
    )
    assert p.mode is Mode.LP
    assert [r.id for r in p.rules] == ["c1", "c2"]
    assert len(p.rules[0].rhs) == 2
    assert p.rules[1].rhs == ()


def test_parse_lp_variables_clause_local():
    p = parse_lp("p(X) :- q(X).\nr(X).")
    v1 = p.rules[0].lhs.args[0]
    v2 = p.rules[1].lhs.args[0]
    assert isinstance(v1, Var) and isinstance(v2, Var)
    # same spelling in different clauses is still the same interned slot,
    # but the clauses never share a derivation so this is safe
    assert p.rules[0].rhs[0].args[0] == v1


def test_parse_lp_each_underscore_is_a_fresh_variable():
    p = parse_lp("q(Z) :- p(_, _, _Y, _Y), q(Z).")
    atom = p.rules[0].rhs[0]
    a, b, c, d = atom.args
    assert len({a, b, c}) == 3 and c == d
    assert render(atom) == "p(_,_,_Y,_Y)"
    # ids count every variable of the clause, each _ included
    assert sorted(v.id for v in p.rules[0].all_vars()) == [0, 1, 2, 3]


def test_parse_trs_underscore_is_a_declared_name():
    p = parse_trs("(VAR _)(RULES f(_,_) -> _)")
    lhs = p.rules[0].lhs
    assert lhs.args[0] == lhs.args[1] == p.rules[0].rhs[0]


def test_parse_lp_head_variable_rejected():
    with pytest.raises(ParseError):
        parse_lp("X :- p(X).")


def test_parse_lp_missing_period():
    with pytest.raises(ParseError):
        parse_lp("p(a) :- q(a)")


def test_parse_program_dispatch():
    assert parse_program("(VAR x)(RULES f(x) -> x)", Mode.TRS).mode is Mode.TRS
    assert parse_program("p(a).", Mode.LP).mode is Mode.LP


def test_render_roundtrip_trs():
    text = "(VAR x y)(RULES f(x,s(y)) -> f(s(x),y) f(x,0) -> f(s(0),x))"
    p = parse_trs(text)
    again = parse_trs(render_program(p))
    assert again.rules == p.rules


def test_render_roundtrip_lp():
    p = parse_lp("p(f(X,0)) :- p(X), q(X).\nq(a).")
    again = parse_lp(render_program(p))
    assert again.rules == p.rules


def test_repeated_anonymous_variable_takes_a_name_no_other_variable_has():
    r, q = Symbol("r", 2), Symbol("q", 2)
    named, anon = Var(0, "_1"), Var(1, "_")
    rule = Rule("c1", App(r, (named, anon)), (App(q, (anon, Var(2, "_"))),))
    text = render_program(Program([rule], Mode.LP))
    assert text == "r(_1,_1_) :- q(_1_,_).\n"
    back = parse_lp(text).rules[0]
    assert is_variant((rule.lhs, *rule.rhs), (back.lhs, *back.rhs))
