"""Recursive-descent parser for the expression DSL.

Grammar (whitespace-insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ['^' ['-'] number]
    atom    := number | name primes '(' expr [',' expr] ')' | name | '(' expr ')'

Exponents are numeric literals only.  Prime notation alpha''(t) denotes
the second derivative of a registered one-variable function.  The parser
builds raw nodes (no constant folding except the normalization of
power exponents and of negated literals), so printed text re-parses to a
structurally identical tree.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ParseError
from .expr import (
    BUILTINS,
    VARS4,
    Add,
    Atan2,
    Call,
    Const,
    Div,
    Expr,
    FnApp,
    FnContext,
    Mul,
    ParamFn,
    Sub,
    Var,
    pow_node,
    substitute,
)

_NUM_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
MAX_PRIMES = 6


@dataclass
class _Tok:
    kind: str  # 'num', 'ident', 'op', 'eof'
    text: str
    pos: int
    primes: int = 0


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or c == ".":
            m = _NUM_RE.match(src, i)
            if not m:
                raise ParseError("malformed number", i, src)
            if math.isinf(float(m.group(0))):
                raise ParseError(f"number {m.group(0)} is not finite", i, src)
            toks.append(_Tok("num", m.group(0), i))
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            m = _IDENT_RE.match(src, i)
            start = i
            i = m.end()
            primes = 0
            while i < n and src[i] == "'":
                primes += 1
                i += 1
            if primes > MAX_PRIMES:
                raise ParseError(
                    f"at most {MAX_PRIMES} derivative primes are supported", start, src
                )
            toks.append(_Tok("ident", m.group(0), start, primes))
            continue
        if c in "+-*/^(),":
            toks.append(_Tok("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i, src)
    toks.append(_Tok("eof", "", n))
    return toks


class _Parser:
    def __init__(self, src: str, fns, allowed: tuple[str, ...]):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.fns = fns
        self.allowed = tuple(allowed)
        self.last_pos = 0

    def _peek(self) -> _Tok:
        return self.toks[self.i]

    def _next(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        if tok.kind != "eof":
            self.last_pos = tok.pos
        return tok

    def _fail(self, msg: str, tok: _Tok):
        pos = self.last_pos if tok.kind == "eof" else tok.pos
        raise ParseError(msg, pos, self.src)

    def _expect_op(self, op: str):
        tok = self._next()
        if tok.kind != "op" or tok.text != op:
            self._fail(f"expected {op!r}", tok)

    def parse(self) -> Expr:
        e = self.expr()
        tok = self._peek()
        if tok.kind != "eof":
            self._fail("unexpected trailing input", tok)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.text in "+-":
                self._next()
                rhs = self.term()
                e = Add(e, rhs) if tok.text == "+" else Sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.text in "*/":
                self._next()
                rhs = self.factor()
                e = Mul(e, rhs) if tok.text == "*" else Div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        tok = self._peek()
        if tok.kind == "op" and tok.text == "-":
            self._next()
            inner = self.factor()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Mul(Const(-1.0), inner)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self._peek()
        if tok.kind == "op" and tok.text == "^":
            self._next()
            sign = 1.0
            tok = self._peek()
            if tok.kind == "op" and tok.text == "-":
                self._next()
                sign = -1.0
            tok = self._next()
            if tok.kind != "num":
                self._fail("exponent must be a numeric literal", tok)
            return pow_node(base, sign * float(tok.text))
        return base

    def atom(self) -> Expr:
        tok = self._next()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "op" and tok.text == "(":
            e = self.expr()
            self._expect_op(")")
            return e
        if tok.kind == "ident":
            name, primes = tok.text, tok.primes
            nxt = self._peek()
            if nxt.kind == "op" and nxt.text == "(":
                return self.call(name, primes, tok)
            if primes:
                self._fail("prime notation requires a function application", tok)
            if name in self.allowed:
                return Var(name)
            if name in VARS4 + ("s",):
                self._fail(f"variable {name!r} is not allowed here", tok)
            self._fail(f"unknown identifier {name!r}", tok)
        self._fail("expected expression", tok)

    def call(self, name: str, primes: int, tok: _Tok) -> Expr:
        self._expect_op("(")
        args = [self.expr()]
        while True:
            nxt = self._peek()
            if nxt.kind == "op" and nxt.text == ",":
                self._next()
                args.append(self.expr())
            else:
                break
        self._expect_op(")")
        if name == "atan2":
            if primes:
                self._fail("prime notation is not allowed on builtins", tok)
            if len(args) != 2:
                self._fail("atan2 takes exactly two arguments", tok)
            return Atan2(args[0], args[1])
        if name in BUILTINS:
            if primes:
                self._fail("prime notation is not allowed on builtins", tok)
            if len(args) != 1:
                self._fail(f"{name} takes exactly one argument", tok)
            return Call(name, args[0])
        fn = self.fns.get(name)
        if fn is None:
            self._fail(f"unknown function {name!r}", tok)
        if len(args) != 1:
            self._fail(f"{name} takes exactly one argument", tok)
        return FnApp(fn, primes, args[0])


def parse_expr(src: str, fns: FnContext | dict | None = None,
               allowed: tuple[str, ...] = VARS4) -> Expr:
    """Parse DSL text into an Expr.

    fns supplies the registered ParamFns callable from the text; allowed
    lists the variable names that may appear free.
    """
    if isinstance(fns, FnContext):
        fns = fns.fns
    return _Parser(src, fns or {}, allowed).parse()


def parse_paramfn(name: str, var: str, src: str,
                  fns: FnContext | dict | None = None) -> ParamFn:
    """Parse the body of a one-variable function definition and normalize
    its bound variable to s."""
    body = parse_expr(src, fns, allowed=(var,))
    if var != "s":
        body = substitute(body, {var: Var("s")})
    return ParamFn(name, body, display_var=var)
