"""Parsers for rewrite systems and logic programs.

Two input dialects are supported:

* a rule-system format: ``(VAR x y) (RULES lhs -> rhs ...)`` with
  function application written ``f(t1,...,tn)``;
* Prolog-style clauses: ``h :- b1, ..., bn.`` where identifiers starting
  with an uppercase letter or underscore are variables, each ``_`` is a
  variable of its own, and facts are clauses with an empty body.

Arities are inferred from use and must be consistent across the file.
Symbol names may not contain the marker suffix ``#`` and may not be one
of the reserved hole names, so marked symbols and contexts can never be
forged from the outside.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .errors import ParseError
from .rewriting import Mode, Program, Rule
from .terms import App, Symbol, Term, Var, renderer, replace_all, subterms

_RESERVED_NAMES = {"[]", "[]'"}


def _check_symbol_name(name: str, line: int, col: int) -> None:
    if "#" in name:
        raise ParseError(f"symbol name {name!r} contains reserved marker '#'", line, col)
    if name in _RESERVED_NAMES:
        raise ParseError(f"symbol name {name!r} is reserved", line, col)


@dataclass
class _Token:
    kind: str  # name, punct, arrow
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*|%[^\n]*)
      | (?P<arrow>->|:-)
      | (?P<punct>[(),.])
      | (?P<name>[^\s(),.\#%:>-]+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str, allow_hash_comment: bool = True) -> list[_Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "comment" and tok.startswith("#") and not allow_hash_comment:
            raise ParseError("'#' is reserved", line, col)
        if kind not in ("ws", "comment"):
            out.append(_Token(kind, tok, line, col))
        nl = tok.count("\n")
        if nl:
            line += nl
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        i = m.end()
    return out


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        t = self.peek()
        if t is None:
            last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t


class _TermReader:
    """Reads terms, interning variables and inferring symbol arities:
    ``symbols`` maps each name read so far to its one symbol, ``variables``
    each variable name to its one ``Var``, so that lookups keyed by a
    variable find it by identity.  With ``anonymous``, every ``_`` is a
    fresh variable."""

    def __init__(
        self,
        symbols: dict[str, Symbol],
        is_var,
        variables: dict[str, Var],
        anonymous: bool = False,
    ):
        self.symbols = symbols
        self.is_var = is_var
        self.variables = variables
        self.anonymous = anonymous
        self.fresh = 0  # anonymous variables read so far

    def variable(self, name: str) -> Var:
        if self.anonymous and name == "_":
            self.fresh += 1
            return Var(len(self.variables) + self.fresh - 1, name)
        v = self.variables.get(name)
        if v is None:
            v = self.variables[name] = Var(len(self.variables) + self.fresh, name)
        return v

    def term(self, cur: _Cursor) -> Term:
        t = cur.next()
        if t.kind != "name":
            raise ParseError(f"expected a term, found {t.text!r}", t.line, t.col)
        if self.is_var(t.text):
            return self.variable(t.text)
        _check_symbol_name(t.text, t.line, t.col)
        args: list[Term] = []
        nxt = cur.peek()
        if nxt is not None and nxt.text == "(":
            cur.next()
            args.append(self.term(cur))
            while cur.peek() is not None and cur.peek().text == ",":
                cur.next()
                args.append(self.term(cur))
            cur.expect(")")
        sym = self.symbols.get(t.text)
        if sym is None:
            sym = self.symbols[t.text] = Symbol(t.text, len(args))
        elif sym.arity != len(args):
            clash = f"symbol {t.text} used with arities {sym.arity} and {len(args)}"
            raise ParseError(clash, t.line, t.col)
        return App(sym, tuple(args))


def parse_trs(text: str) -> Program:
    """Parse a ``(VAR ...)(RULES ...)`` rule system into a program."""
    tokens = _tokenize(text, allow_hash_comment=False)
    cur = _Cursor(tokens)
    variables: list[str] = []
    symbols: dict[str, Symbol] = {}
    named: dict[str, Var] = {}
    rules: list[Rule] = []

    while cur.peek() is not None:
        open_tok = cur.expect("(")
        head = cur.next()
        if head.text == "VAR":
            while cur.peek() is not None and cur.peek().text != ")":
                v = cur.next()
                if v.kind != "name":
                    raise ParseError(
                        f"expected a variable name, found {v.text!r}", v.line, v.col
                    )
                variables.append(v.text)
            cur.expect(")")
        elif head.text == "RULES":
            reader = _TermReader(symbols, lambda n: n in variables, named)
            while cur.peek() is not None and cur.peek().text != ")":
                lhs = reader.term(cur)
                if isinstance(lhs, Var):
                    t = cur.peek() or head
                    raise ParseError(
                        "rule left-hand side must not be a variable", t.line, t.col
                    )
                cur.expect("->")
                rhs = reader.term(cur)
                rules.append(Rule(f"r{len(rules) + 1}", lhs, (rhs,)))
            cur.expect(")")
        else:
            raise ParseError(
                f"unknown section {head.text!r}", open_tok.line, open_tok.col
            )
    if not rules:
        raise ParseError("input contains no rules", 1, 1)
    return Program(rules, Mode.TRS)


def _is_prolog_var(name: str) -> bool:
    return bool(name) and (name[0].isupper() or name[0] == "_")


def parse_lp(text: str) -> Program:
    """Parse Prolog-style clauses into a logic program."""
    tokens = _tokenize(text, allow_hash_comment=True)
    cur = _Cursor(tokens)
    symbols: dict[str, Symbol] = {}
    rules: list[Rule] = []

    while cur.peek() is not None:
        named: dict[str, Var] = {}  # variables are clause-local
        reader = _TermReader(symbols, _is_prolog_var, named, anonymous=True)
        head = reader.term(cur)
        if isinstance(head, Var):
            t = cur.peek()
            raise ParseError(
                "clause head must not be a variable",
                t.line if t else 1,
                t.col if t else 1,
            )
        body: list[Term] = []
        nxt = cur.next()
        if nxt.text == ":-":
            body.append(reader.term(cur))
            while True:
                sep = cur.next()
                if sep.text == ".":
                    break
                if sep.text != ",":
                    raise ParseError(
                        f"expected ',' or '.', found {sep.text!r}", sep.line, sep.col
                    )
                body.append(reader.term(cur))
        elif nxt.text != ".":
            raise ParseError(
                f"expected ':-' or '.', found {nxt.text!r}", nxt.line, nxt.col
            )
        rules.append(Rule(f"c{len(rules) + 1}", head, tuple(body)))
    if not rules:
        raise ParseError("input contains no clauses", 1, 1)
    return Program(rules, Mode.LP)


def parse_program(text: str, mode: Mode) -> Program:
    return parse_trs(text) if mode is Mode.TRS else parse_lp(text)


def _anonymous_apart(rule: Rule) -> Rule:
    """``rule`` with each ``_`` variable that occurs in it more than once
    named ``_<id>`` (with ``_`` appended until no other variable of the
    rule has that name), since each ``_`` parses as a fresh variable."""
    occurs = Counter(
        v for t in (rule.lhs, *rule.rhs) for _, v in subterms(t) if v.__class__ is Var
    )
    taken = {v.name for v in occurs}
    names: dict[Term, Term] = {}
    for v, n in occurs.items():
        if v.name == "_" and n > 1:
            name = f"_{v.id}"
            while name in taken:
                name += "_"
            taken.add(name)
            names[v] = Var(v.id, name)
    if not names:
        return rule
    body = tuple(replace_all(t, names) for t in rule.rhs)
    return Rule(rule.id, replace_all(rule.lhs, names), body)


def render_program(p: Program) -> str:
    """Textual form of a program in its dialect.  A logic program parses
    again, each rule into a variant of itself; an unfolded rewrite system
    does not, since its marked symbols such as ``f#`` are reserved to the
    parser."""
    show = renderer()
    if p.mode is Mode.TRS:
        names = sorted(
            {v.name for r in p.rules for v in r.all_vars()}
        )
        lines = ["(VAR " + " ".join(names) + ")", "(RULES"]
        for r in p.rules:
            lines.append(f"  {show(r.lhs)} -> {show(r.rhs[0])}")
        lines.append(")")
        return "\n".join(lines) + "\n"
    lines = []
    for r in map(_anonymous_apart, p.rules):
        head = show(r.lhs)
        if r.rhs:
            lines.append(head + " :- " + ", ".join(map(show, r.rhs)) + ".")
        else:
            lines.append(head + ".")
    return "\n".join(lines) + "\n"
