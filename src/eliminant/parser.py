"""Expression and ideal-file parsing.

Expression grammar (no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := ('-' | '+') unary | power
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

Blank lines and '#' comments are skipped.  A line is tokenized by one regex
scan; the column of an error is found by a second scan, only when it is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import islice
from math import lcm as int_lcm
from operator import add

from .fields import GF, QQ
from .multipoly import MultiPoly, VarContext, base_context
from .unipoly import _gf_make, _q_make


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
# The tokens of a well-formed line.  findall skips a character no token starts with
# and the '/' of a NUMBER with no digits after it, which _TOKEN reports.
_TOKENS = re.compile(r"[-+*^()]|\d+(?:/\d+)?|[^\W\d]\w*")


def _tokenize(text: str, line_no: int | None = None) -> list[str]:
    """The tokens of a line as strings, then "" for its end; columns are found only for an error."""
    tokens = _TOKENS.findall(text)
    if "".join(tokens) != "".join(text.split()):    # a character was skipped
        for m in _TOKEN.finditer(text):
            if m[4]:
                raise ParseError(f"unexpected character {m[4]!r}", line_no, m.start() + 1)
            if m[1] and m[1][-1] == "/":
                raise ParseError("expected digits after '/'", line_no, m.end())
    tokens.append("")
    return tokens


MAX_EXPONENT = 1000
"""Largest exponent after `^`, and largest degree in one variable a power may produce."""

MAX_TERMS = 100_000
"""Most terms one expression may build while it is expanded.

A product of an m-term and an n-term factor is charged m*n, the terms it
builds before like terms are collected, and a power is charged each
multiplication of its square-and-multiply, also when a variable's power is
folded into its term directly.  The count is checked as each charge is
made, and a product or power of several terms is expanded only after its
charge passes.
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
    """Evaluates an expression into one term dict {(e_x1, e_tail...): scalar} in one pass.

    Scalars are ints or Fractions over Q and residues over GF(p).  Each term
    is added into the sum's one dict, and the MultiPoly is built once from
    the final dict.  `built` is what MAX_TERMS caps: the terms the products
    would build if every factor were expanded into a dict.
    """

    def __init__(self, text: str, ctx: VarContext, line_no: int | None):
        self.text = text
        self.tokens = _tokenize(text, line_no)
        self.pos = 0
        self.built = 0
        self.ctx = ctx
        self.line = line_no
        self.p = ctx.field.char
        self.var_index = {name: i for i, name in enumerate((ctx.x1, *ctx.tilde))}
        self.unit = (0,) * len(self.var_index)

    def _error(self, message: str, k: int) -> ParseError:
        """The error at the k-th token, whose column a second scan of the line finds."""
        m = next(islice(_TOKEN.finditer(self.text), k, None), None)
        return ParseError(message, self.line, (len(self.text) if m is None else m.start()) + 1)

    def parse(self) -> MultiPoly:
        value = self.expr()
        text = self.tokens[self.pos]
        if text:
            raise self._error(f"trailing input {text!r}", self.pos)
        return self._build(value)

    def _build(self, value: dict) -> MultiPoly:
        """The MultiPoly of a term dict, each coefficient made on the integer kernel.

        Every scalar is nonzero, so each row's top entry is too.  Over GF(p)
        the scalars are residues already; over Q a row's numerators are put
        over the row's common denominator.
        """
        ctx = self.ctx
        field, elem, p = ctx.field, ctx.ring.elem, self.p
        by_tail: dict = {}
        for mon, c in value.items():
            by_tail.setdefault(mon[1:], {})[mon[0]] = c
        term_map = {}
        for mon, row in by_tail.items():
            dense = [0] * (max(row) + 1)
            if p:
                for e1, c in row.items():
                    dense[e1] = c
                coeff = _gf_make(field, dense)
            else:
                den = int_lcm(*[c.denominator for c in row.values()])
                for e1, c in row.items():
                    dense[e1] = c.numerator * (den // c.denominator)
                coeff = _q_make(field, dense, den)
            term_map[mon] = elem(coeff)
        return MultiPoly(ctx, term_map)

    def _charge(self, terms: int, k: int) -> None:
        self.built += terms
        if self.built > MAX_TERMS:
            raise self._error(f"expression expands to more than {MAX_TERMS} terms", k)

    def expr(self) -> dict:
        """A sum of terms, each added into one dict."""
        tokens, p = self.tokens, self.p
        out: dict = {}
        sign = "+"
        while True:
            value = self.term()
            if value is not None:
                for m, c in (value,) if type(value) is tuple else value.items():
                    c = out.get(m, 0) + c if sign == "+" else out.get(m, 0) - c
                    if p:
                        c %= p
                    if c:
                        out[m] = c
                    else:
                        del out[m]
            sign = tokens[self.pos]
            if sign != "+" and sign != "-":
                return out
            self.pos += 1

    def term(self):
        """A product: None when it is zero, (monomial, scalar) when it is one term, else a dict.

        Factors of one term fold into `exps` and `c`; `poly` is the product
        of the factors of two or more terms.  `size` is the number of terms
        of the product so far, and a '*' (token `star`) is charged it times
        the factor's.  A variable's power is charged in line, as MAX_TERMS says.
        """
        tokens, p, pos, var_index = self.tokens, self.p, self.pos, self.var_index
        exps = list(self.unit)
        c, poly, size, negative, star = 1, None, 1, False, None
        while True:
            text = tokens[pos]
            while text == "-" or text == "+":
                negative ^= text == "-"
                pos += 1
                text = tokens[pos]
            pos += 1
            width = 1
            i = var_index.get(text)
            if i is not None:
                n = 1
                if tokens[pos] == "^":
                    pos += 2
                    n = int(tokens[pos - 1]) if tokens[pos - 1].isdecimal() else MAX_EXPONENT + 1
                    if n > MAX_EXPONENT:
                        self._exponent(pos - 1, 1)    # raises the exponent's error
                    self.built += n and n.bit_count() + n.bit_length() - 1
                    if self.built > MAX_TERMS:
                        self._charge(0, pos - 1)    # raises the term cap's error
                exps[i] += n
            elif text[:1].isdecimal():
                if "/" not in text:
                    f = int(text) % p if p else int(text)
                elif p:
                    raise self._error("rational literal in a prime field", pos - 1)
                else:
                    f = self.ctx.field.parse(text)
                if tokens[pos] == "^":
                    f = self._power({self.unit: f} if f else {}, pos + 1).get(self.unit, 0)
                    pos += 2
                c = c * f % p if p else c * f
                width = 1 if f else 0
            elif text == "(":
                self.pos = pos
                value = self.expr()
                text = tokens[self.pos]
                if text != ")":
                    raise self._error(f"expected ), found {text!r}", self.pos)
                pos = self.pos + 1
                if tokens[pos] == "^":
                    value = self._power(value, pos + 1)
                    pos += 2
                width = len(value)
                if width == 1:
                    ((mon, f),) = value.items()
                    exps = list(map(add, exps, mon))
                    c = c * f % p if p else c * f
            elif text in ("", "*", "^", ")"):
                raise self._error(f"unexpected token {text!r}", pos - 1)
            else:
                raise self._error(f"unknown variable {text!r}", pos - 1)
            if star is not None:
                self._charge(size * width, star)
            if width > 1 and size:
                poly = value if poly is None else _term_mul(poly, value, p)
                size = len(poly)
            elif not width:
                size = 0
            if tokens[pos] != "*":
                break
            star = pos
            pos += 1
        self.pos = pos
        if not size:
            return None
        if negative:
            c = -c % p if p else -c
        mon = tuple(exps)
        if poly is None:
            return mon, c
        return {tuple(map(add, m, mon)): v * c % p if p else v * c for m, v in poly.items()}

    def _exponent(self, k: int, top: int) -> int:
        """The exponent n at token k, checked for a base of degree `top`."""
        text = self.tokens[k]
        if not text[:1].isdecimal():
            raise self._error(f"expected num, found {text!r}", k)
        if "/" in text:
            raise self._error("exponent must be an integer", k)
        n = int(text)
        if n > MAX_EXPONENT or top * n > MAX_EXPONENT:
            raise self._error(f"power exceeds the exponent limit {MAX_EXPONENT}", k)
        return n

    def _power(self, base: dict, k: int) -> dict:
        """base^n for the exponent n at token k.

        The power is built by square-and-multiply, and each of its
        multiplications is charged to MAX_TERMS before it is made.  Over Q
        the base is raised as integer numerators over their common
        denominator D, and the result is divided by D^n once.
        """
        p = self.p
        n = self._exponent(k, max((max(m) for m in base), default=0))
        if not p and base and _power_bits(base, n) > MAX_COEFF_BITS:
            bound = f"power may exceed the coefficient limit of {MAX_COEFF_BITS} bits"
            raise self._error(bound, k)
        den = int_lcm(*(c.denominator for c in base.values()))
        base = {m: c.numerator * (den // c.denominator) for m, c in base.items()}
        value = {self.unit: 1}
        for bit in range(n.bit_length()):    # square-and-multiply, low bits first
            if bit:
                self._charge(len(base) ** 2, k)
                base = _term_mul(base, base, p)
            if n >> bit & 1:
                self._charge(len(value) * len(base), k)
                value = _term_mul(value, base, p)
        if den == 1:
            return value
        den **= n
        return {m: Fraction(c, den) for m, c in value.items()}


def parse_poly(text: str, ctx: VarContext, line_no: int | None = None) -> MultiPoly:
    return _ExprParser(text, ctx, line_no).parse()


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
    lines = ((n, raw.split("#", 1)[0].strip()) for n, raw in enumerate(text.splitlines(), start=1))
    for line_no, line in lines:
        if not line:
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
            break    # every later line is a generator
        else:
            raise ParseError(f"unexpected directive {line!r}", line_no)
    gen_lines = [(n, line) for n, line in lines if line]
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
    lines = ((n, raw.split("#", 1)[0].strip()) for n, raw in enumerate(text.splitlines(), start=1))
    return [(line, parse_poly(line, ctx, n)) for n, line in lines if line]
