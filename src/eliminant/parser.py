"""Expression and ideal-file parsing.

Expression grammar (no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := NUMBER | NAME | '(' expr ')'

NUMBER is an integer or, over Q, a rational written NUM '/' NUM with no other
use of '/'.  An exponent, and the degree a power reaches in any one
variable, may not exceed MAX_EXPONENT, expanding an expression may build
at most MAX_TERMS terms, and over Q no power may produce a coefficient
above MAX_COEFF_BITS.  Ideal files are line oriented:

    field Q            (or: field GF <p>)
    vars z < y < x     (first name is the variable eliminated to)
    order lex          (optional; lex or grevlex)
    ideal:
    <one expression per line>

Blank lines and '#' comments are skipped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from math import lcm as int_lcm
from operator import add

from .fields import GF, QQ
from .multipoly import MultiPoly, VarContext, base_context
from .unipoly import UniPoly


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)


# NUMBER (with an optional '/' tail), NAME, an operator, or any other
# non-space character, which is an error; whitespace falls between matches.
_TOKEN = re.compile(r"(\d+(?:/\d*)?)|([^\W\d]\w*)|([-+*^()])|(\S)")


def _tokenize(text: str, line_no: int | None = None):
    tokens = []
    for m in _TOKEN.finditer(text):
        num, name, op, bad = m.groups()
        col = m.start()
        if num is not None:
            if num[-1] == "/":
                raise ParseError("expected digits after '/'", line_no, col + len(num))
            tokens.append(("num", num, col))
        elif name is not None:
            tokens.append(("name", name, col))
        elif op is not None:
            tokens.append((op, op, col))
        else:
            raise ParseError(f"unexpected character {bad!r}", line_no, col + 1)
    tokens.append(("end", "", len(text)))
    return tokens


MAX_EXPONENT = 1000
"""Largest exponent after `^`, and largest degree in one variable a power may produce."""

MAX_TERMS = 100_000
"""Most terms one expression may build while it is expanded.

A product of an m-term and an n-term factor builds m*n terms before like
terms are collected, and a power counts every multiplication of its
square-and-multiply; the count is checked before each multiplication.
"""


MAX_COEFF_BITS = 10_000
"""Largest bit length of a numerator or denominator a power over Q may produce.

Judged before the power is expanded, by an upper bound: with base =
(1/D) * sum(a_i * m_i) for integers a_i, every coefficient of base^n is an
integer of size at most (sum |a_i|)^n over D^n.
"""


def _power_bits(base: dict, n: int) -> int:
    """Upper bound on the bit lengths of the coefficients of base^n over Q."""
    den = int_lcm(*(c.denominator for c in base.values()))
    size = sum(abs(c.numerator) * (den // c.denominator) for c in base.values())
    # k <= 2^(k-1).bit_length() for k >= 1, and a value <= 2^e has e + 1 bits
    return n * max((size - 1).bit_length(), (den - 1).bit_length()) + 1


def _term_add(a: dict, b: dict, sign: int, p: int) -> dict:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + sign * c
        if p:
            v %= p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _term_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    if p:
        return {m: v for m, c in out.items() if (v := c % p)}
    return {m: c for m, c in out.items() if c}


class _ExprParser:
    """Evaluates an expression into one term dict {(e_x1, e_tail...): scalar}.

    Scalars are ints or Fractions over Q and residues over GF(p).  The
    MultiPoly is built once from the final dict, so its terms are sorted once.
    """

    def __init__(self, tokens, ctx: VarContext, line_no: int | None):
        self.tokens = tokens
        self.pos = 0
        self.built = 0
        self.ctx = ctx
        self.line = line_no
        self.p = ctx.field.char
        names = (ctx.x1, *ctx.tilde)
        self.unit = (0,) * len(names)
        self.var_keys = {
            name: tuple(1 if j == i else 0 for j in range(len(names)))
            for i, name in enumerate(names)
        }

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", self.line, tok[2] + 1)
        self.pos += 1
        return tok

    def parse(self) -> MultiPoly:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", self.line, tok[2] + 1)
        return self._build(value)

    def _build(self, value: dict) -> MultiPoly:
        ctx = self.ctx
        by_tail: dict = {}
        for (e1, *tail), c in value.items():
            row = by_tail.setdefault(tuple(tail), {})
            row[e1] = c
        elem = ctx.ring.elem
        term_map = {}
        for mon, row in by_tail.items():
            dense = [0] * (max(row) + 1)
            for e1, c in row.items():
                dense[e1] = c
            term_map[mon] = elem(UniPoly(ctx.field, dense))
        return MultiPoly(ctx, term_map)

    def _mul(self, a: dict, b: dict, col: int) -> dict:
        self.built += len(a) * len(b)
        if self.built > MAX_TERMS:
            raise ParseError(
                f"expression expands to more than {MAX_TERMS} terms", self.line, col + 1
            )
        return _term_mul(a, b, self.p)

    def expr(self) -> dict:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = _term_add(value, rhs, 1 if op == "+" else -1, self.p)
        return value

    def term(self) -> dict:
        value = self.unary()
        while self.peek()[0] == "*":
            col = self.take()[2]
            value = self._mul(value, self.unary(), col)
        return value

    def unary(self) -> dict:
        if self.peek()[0] == "-":
            self.take()
            return _term_add({}, self.unary(), -1, self.p)
        if self.peek()[0] == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> dict:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.take()
        tok = self.take("num")
        if "/" in tok[1]:
            raise ParseError("exponent must be an integer", self.line, tok[2] + 1)
        n = int(tok[1])
        top = max((max(m) for m in base), default=0)
        if n > MAX_EXPONENT or top * n > MAX_EXPONENT:
            raise ParseError(
                f"power exceeds the exponent limit {MAX_EXPONENT}", self.line, tok[2] + 1
            )
        if not self.p and base and _power_bits(base, n) > MAX_COEFF_BITS:
            raise ParseError(
                f"power may exceed the coefficient limit of {MAX_COEFF_BITS} bits",
                self.line,
                tok[2] + 1,
            )
        # square-and-multiply
        value = {self.unit: 1}
        while n:
            if n & 1:
                value = self._mul(value, base, tok[2])
            n >>= 1
            if n:
                base = self._mul(base, base, tok[2])
        return value

    def atom(self) -> dict:
        kind, text, col = self.peek()
        if kind == "num":
            self.take()
            if "/" in text:
                if self.p:
                    raise ParseError("rational literal in a prime field", self.line, col + 1)
                scalar = self.ctx.field.parse(text)
            else:
                scalar = int(text) % self.p if self.p else int(text)
            return {self.unit: scalar} if scalar else {}
        if kind == "name":
            self.take()
            key = self.var_keys.get(text)
            if key is None:
                raise ParseError(f"unknown variable {text!r}", self.line, col + 1)
            return {key: 1}
        if kind == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        raise ParseError(f"unexpected token {text!r}", self.line, col + 1)


def parse_poly(text: str, ctx: VarContext, line_no: int | None = None) -> MultiPoly:
    return _ExprParser(_tokenize(text, line_no), ctx, line_no).parse()


@dataclass
class IdealFile:
    field: object
    x1: str
    tilde: tuple[str, ...]
    order: str
    generators: list = dc_field(default_factory=list)
    generator_texts: list = dc_field(default_factory=list)

    @property
    def ctx(self) -> VarContext:
        return base_context(self.field, self.x1, self.tilde, self.order)


def parse_ideal_file(text: str) -> IdealFile:
    field = None
    names: list[str] | None = None
    order = "lex"
    gen_lines: list[tuple[int, str]] = []
    in_ideal = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_ideal:
            gen_lines.append((line_no, line))
            continue
        head, _, rest = line.partition(" ")
        head = head.lower()
        if head == "field":
            spec = rest.split()
            if spec and spec[0].upper() == "Q" and len(spec) == 1:
                field = QQ
            elif len(spec) == 2 and spec[0].upper() == "GF" and spec[1].isdigit():
                try:
                    field = GF(int(spec[1]))
                except ValueError as exc:
                    raise ParseError(str(exc), line_no) from exc
            else:
                raise ParseError(f"bad field spec {rest!r}", line_no)
        elif head == "vars":
            names = [v.strip() for v in rest.split("<")]
            if len(names) < 2 or any(not v.isidentifier() for v in names):
                raise ParseError(f"bad variable declaration {rest!r}", line_no)
            if len(set(names)) != len(names):
                raise ParseError("duplicate variable name", line_no)
        elif head == "order":
            order = rest.strip().lower()
            if order not in ("lex", "grevlex"):
                raise ParseError(f"unknown order {rest!r}", line_no)
        elif line.lower().rstrip(":") == "ideal":
            in_ideal = True
        else:
            raise ParseError(f"unexpected directive {line!r}", line_no)
    if field is None:
        raise ParseError("missing 'field' line")
    if names is None:
        raise ParseError("missing 'vars' line")
    if not gen_lines:
        raise ParseError("no generators after 'ideal:'")
    out = IdealFile(field=field, x1=names[0], tilde=tuple(names[1:]), order=order)
    ctx = out.ctx
    for line_no, line in gen_lines:
        out.generators.append(parse_poly(line, ctx, line_no))
        out.generator_texts.append(line)
    return out


def parse_probe_file(text: str, ctx: VarContext) -> list[tuple[str, MultiPoly]]:
    probes = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        probes.append((line, parse_poly(line, ctx, line_no)))
    return probes
