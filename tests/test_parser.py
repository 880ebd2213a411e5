import random
from fractions import Fraction

import pytest

from eliminant import parser as parser_module
from eliminant.fields import GF, QQ
from eliminant.multipoly import MultiPoly, base_context
from eliminant.parser import (
    MAX_COEFF_BITS,
    MAX_EXPONENT,
    MAX_TERMS,
    ParseError,
    _ExprParser,
    _power_bits,
    _tokenize,
    parse_poly,
)
from eliminant.pqr import residue_context
from eliminant.unipoly import UniPoly

import util
from util import ReferenceExprParser, reference_tokenize


class _MultiPolyEvaluator:
    """Reference: evaluate the grammar with full MultiPoly arithmetic per operator."""

    def __init__(self, text, ctx):
        self.tokens = reference_tokenize(text)
        self.pos = 0
        self.ctx = ctx

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek() == "*":
            self.take()
            value = value * self.unary()
        return value

    def unary(self):
        if self.peek() == "-":
            self.take()
            return -self.unary()
        if self.peek() == "+":
            self.take()
            return self.unary()
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        value = MultiPoly.from_coeff(self.ctx, self.ctx.ring_one())
        for _ in range(int(self.take()[1])):
            value = value * base
        return value

    def atom(self):
        kind, text, _ = self.take()
        if kind == "num":
            c = UniPoly.constant(self.ctx.field, self.ctx.field.parse(text))
            ring = self.ctx.ring
            return MultiPoly.from_coeff(self.ctx, ring.elem(c) if hasattr(ring, "elem") else c)
        if kind == "name":
            return MultiPoly.var(self.ctx, text)
        value = self.expr()
        self.take()
        return value


def _random_expr(rng, names, rational, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        if rng.random() < 0.5:
            return rng.choice(names)
        n = rng.randint(0, 12)
        if rational and rng.random() < 0.4:
            return f"{n}/{rng.randint(1, 9)}"
        return str(n)
    if roll < 0.45:
        return "-" + _random_expr(rng, names, rational, depth + 1)
    if roll < 0.6:
        return f"({_random_expr(rng, names, rational, depth + 1)})^{rng.randint(0, 4)}"
    op = rng.choice((" + ", " - ", "*"))
    left = _random_expr(rng, names, rational, depth + 1)
    right = _random_expr(rng, names, rational, depth + 1)
    return f"({left}{op}{right})" if rng.random() < 0.5 else f"{left}{op}{right}"


def _contexts():
    for field in (QQ, GF(5), GF(2)):
        base = base_context(field, "z", ("y", "x"))
        yield base
        q = UniPoly(field, [field.from_int(c) for c in (1, 0, 1, 1)])   # z^3 + z^2 + 1
        yield residue_context(base, q)
    yield base_context(QQ, "z", ("y", "x"), "grevlex")


@pytest.mark.parametrize("ctx", list(_contexts()), ids=repr)
def test_parser_matches_multipoly_evaluation(ctx):
    rng = random.Random(repr(ctx))
    rational = ctx.field.char == 0
    for _ in range(150):
        text = _random_expr(rng, ("z", "y", "x"), rational)
        ref = _MultiPolyEvaluator(text, ctx).expr()
        assert parse_poly(text, ctx) == ref, text


def test_parser_examples():
    ctx = base_context(QQ, "z", ("y", "x"))
    f = parse_poly("-(1/2*z - y)^2*x + 3", ctx)
    assert f.fmt() == "-x*y^2 + z*x*y - 1/4*z^2*x + 3"
    assert parse_poly("(x - x)^3 + 0*y", ctx).is_zero
    assert parse_poly("2^3*z^0", ctx).as_coeff() == UniPoly.constant(QQ, Fraction(8))
    gf = base_context(GF(3), "z", ("y",))
    assert parse_poly("(z + 1)^3", gf).as_coeff() == UniPoly(GF(3), (1, 0, 0, 1))


@pytest.mark.parametrize(
    "text",
    [
        f"x^{MAX_EXPONENT + 1}",
        f"z^{MAX_EXPONENT + 1}",
        "z^100000000",
        "(z^100)^11",
        "(y*z^2 + x)^501",
    ],
)
def test_exponent_cap(text):
    ctx = base_context(QQ, "z", ("y", "x"))
    with pytest.raises(ParseError):
        parse_poly(text, ctx)


def test_exponent_cap_admits_the_limit():
    ctx = base_context(QQ, "z", ("y", "x"))
    assert parse_poly(f"z^{MAX_EXPONENT}", ctx).as_coeff().degree == MAX_EXPONENT
    assert parse_poly("(z^100*y)^10", ctx).lm == (10, 0)


@pytest.mark.parametrize(
    "text",
    ["(x+y+z+1)^1000", "(x+1)^1000", "(x+y+1)^40*(x+y+1)^40*(x+y+1)^40"],
)
def test_term_cap(text):
    ctx = base_context(QQ, "z", ("y", "x"))
    with pytest.raises(ParseError, match=f"more than {MAX_TERMS} terms"):
        parse_poly(text, ctx)


def test_term_cap_admits_moderate_expansions():
    ctx = base_context(QQ, "z", ("y", "x"))
    assert len(parse_poly("(x+1)^400", ctx).terms) == 401
    assert len(parse_poly("(x+y+1)^40", ctx).terms) == 861


def _coeff_bits(f: MultiPoly) -> int:
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length())
         for _, p in f.terms for c in p.coeffs),
        default=0,
    )


@pytest.mark.parametrize(
    "text",
    ["((2^1000)^1000)^8*x", "(2^1000*x)^1000", "(2^1000)^10", "(x + 2^1000)^10", "(1/2^1000*y)^10"],
)
def test_coefficient_cap(text):
    ctx = base_context(QQ, "z", ("y", "x"))
    with pytest.raises(ParseError, match=f"coefficient limit of {MAX_COEFF_BITS} bits"):
        parse_poly(text, ctx)


def test_coefficient_cap_admits_the_limit_and_prime_fields():
    ctx = base_context(QQ, "z", ("y", "x"))
    # 2^9000 has 9001 bits; (2^1000)^10 would have 10001
    assert _coeff_bits(parse_poly("(2^1000)^9*x", ctx)) == 9001
    assert _coeff_bits(parse_poly("3^1000", ctx)) == 1585
    gf = base_context(GF(5), "z", ("y", "x"))
    assert parse_poly("((2^1000)^1000)^8*x", gf) == parse_poly("x", gf)


def test_power_bits_bounds_the_expansion():
    ctx = base_context(QQ, "z", ("y", "x"))
    rng = random.Random(504)
    for _ in range(60):
        terms = []
        for _ in range(rng.randint(1, 3)):
            c = rng.choice((str(rng.randint(1, 2**rng.randint(1, 40))),
                            f"{rng.randint(1, 99)}/{rng.randint(1, 99)}"))
            terms.append(f"{rng.choice('+-')}{c}*{rng.choice(('1', 'x', 'y', 'z', 'x*y'))}")
        n = rng.randint(1, 12)
        base = f"({' '.join(terms)})"
        value = parse_poly(f"{base}^{n}", ctx)
        parser = _ExprParser(base, ctx, None)
        assert _coeff_bits(value) <= _power_bits(parser.expr(), n)


# -- against the evaluator the one-pass parser replaced ---------------------------------


def _random_factor(rng, rational, depth):
    roll = rng.random()
    if depth < 2 and roll < 0.2:
        body = f"({_random_sum(rng, rational, depth + 1)})"
    elif roll < 0.55:
        body = rng.choice(("z", "y", "x"))
    elif rational and roll < 0.7:
        body = f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"
    else:
        body = str(rng.choice((0, 1, 2, 3, 4, 5, 7, 10, 12)))
    if rng.random() < 0.4:
        body += f"^{rng.randint(0, 3 if body[0] == '(' else 12)}"
    return rng.choice(("", "", "", "-", "--", "-+-", "+")) + body


def _random_sum(rng, rational, depth=0):
    """Sums of plain products, with unary-minus chains, powers and parenthesised sums."""
    out = ""
    for k in range(rng.randint(1, 4)):
        product = "*".join(_random_factor(rng, rational, depth) for _ in range(rng.randint(1, 4)))
        out = product if not k else out + rng.choice((" + ", " - ")) + product
    return out


def _outcome(parser_class, text, ctx):
    """The polynomial and the term charge, or the error with its line and column."""
    try:
        parser = parser_class(text, ctx, 7)
        return "ok", parser.parse(), parser.built
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("ctx", list(_contexts()), ids=repr)
def test_parser_matches_reference_parser(ctx):
    rng = random.Random("reference:" + repr(ctx))
    alphabet = "xyzw0123456789+-*^()/ $"
    for _ in range(300):
        text = _random_sum(rng, ctx.field.char == 0)
        ok = _outcome(ReferenceExprParser, text, ctx)
        assert ok[0] == "ok" and _outcome(_ExprParser, text, ctx) == ok, text
        # one edit away from a valid expression, most texts are malformed
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(alphabet) + text[i + rng.randint(0, 1):]
        assert _outcome(_ExprParser, text, ctx) == _outcome(ReferenceExprParser, text, ctx), text


@pytest.mark.parametrize(
    "text",
    [
        "", "x +", "x*", "*x", "-", "x^", "x^y", "x^-1", "x^1/2", "x^(2)", "(x", "x)",
        "(x))", "()", "x y", "2x", "x^2^3", "x**2", "w", "w^1001", "(w)^x", "2/0*x",
        "3/", "x $ y", "x^1001", "(x+1)^1001", "(z^500)^3", "x + (y*(z -", "x - -(y + w)",
        "(x+y+z+1)^1000 + w", "0*(x+1)^1000*w", "(2^1000)^11*w",
        "x*(y+1)^1000", "-(x + 1)^1000", f"(x+y+1)^40*(x+y+1)^40*(x+y+1)^{MAX_EXPONENT + 1}",
        "1/2*x - y^1000*(z^400)^3",
        # where another split of the line, or another notion of a digit or a
        # space, would disagree with the reference tokenizer
        "x1/2", "1/2/3", "12/ x", "x²", "١٢*x^١٠٠١", "x\t+\tw",
    ],
)
def test_malformed_inputs_fail_as_the_reference_parser_does(text):
    ctx = base_context(QQ, "z", ("y", "x"))
    outcome = _outcome(_ExprParser, text, ctx)
    assert outcome[0] != "ok"
    assert outcome == _outcome(ReferenceExprParser, text, ctx)
    gf = base_context(GF(5), "z", ("y", "x"))
    assert _outcome(_ExprParser, text, gf) == _outcome(ReferenceExprParser, text, gf)


@pytest.mark.parametrize(
    "text",
    ["3/4*x", "١٢*x", "x^١٢ - ٣", "\tx\t*\ty\t", "x\u00a0+\u2003y", "(1/2*x)^3*(7/5)^2", "x+-+y"],
)
def test_unusual_texts_parse_as_the_reference_parser_does(text):
    # Arabic-Indic digits are digits to the tokenizer and to int, and Unicode
    # spaces are spaces; a rational is refused only in a prime field
    for field in (QQ, GF(5)):
        ctx = base_context(field, "z", ("y", "x"))
        outcome = _outcome(_ExprParser, text, ctx)
        assert outcome == _outcome(ReferenceExprParser, text, ctx)
        assert outcome[0] == ("error" if field.char and "/" in text else "ok"), outcome


def _token_outcome(tokenize, text):
    try:
        return "ok", [token if type(token) is str else token[1] for token in tokenize(text, 3)]
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col


def test_tokenizer_matches_reference_tokenizer():
    """Tokens or the first error, and the column the parser finds for each token on demand."""
    ctx = base_context(QQ, "z", ("y", "x"))
    pieces = ["x", "y1", "z", "_", "0", "7", "12", "٣", "/", "/", " ", "\t", "\u00a0",
              "+", "-", "*", "^", "(", ")", "$", ".", "²"]
    rng = random.Random(1616)
    errors = 0
    for _ in range(4000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 10)))
        outcome = _token_outcome(reference_tokenize, text)
        assert _token_outcome(_tokenize, text) == outcome, repr(text)
        if outcome[0] == "error":
            errors += 1
            continue
        parser = _ExprParser(text, ctx, 3)
        for k, (_, _, col) in enumerate(reference_tokenize(text)):
            assert parser._error("", k).col == col + 1, (repr(text), k)
    assert 1000 < errors < 3000, errors


def test_limits_refuse_alike_at_the_boundary(monkeypatch):
    ctx = base_context(QQ, "z", ("y", "x"))
    head = "(x+y+1)^8 + (1/3*x+1/2)^30"
    spare = 40
    # a cap just above the head's charge keeps the boundary cheap to reach
    limit = _outcome(ReferenceExprParser, head, ctx)[2] + spare
    for module in (parser_module, util):
        monkeypatch.setattr(module, "MAX_TERMS", limit)

    def product(n_names, last=""):
        return head + " - " + "*".join(["y"] * n_names) + last

    # each '*' between single terms is charged 1, and a single-term ^9 is
    # charged 5, the multiplications its square-and-multiply makes
    accepted = [
        product(spare + 1),
        product(spare - 6, "*(2*y)^9"),
        product(spare - 5, "*x^9"),
        product(spare - 5, "*(1/2)^9"),
    ]
    # the last '*', the power, the power, the last '*', the power
    refused = [
        product(spare + 2),
        product(spare - 4, "*(2*y)^9"),
        product(spare - 3, "*x^9"),
        product(spare - 4, "*x^9"),
        head + " - (1/3*x+1/2)^1000",
    ]
    for text in accepted:
        outcome = _outcome(ReferenceExprParser, text, ctx)
        assert outcome[0] == "ok" and outcome[2] == limit
        assert _outcome(_ExprParser, text, ctx) == outcome
    for text in refused:
        outcome = _outcome(ReferenceExprParser, text, ctx)
        assert outcome[0] == "error" and f"more than {limit} terms" in outcome[1]
        assert _outcome(_ExprParser, text, ctx) == outcome
    monkeypatch.undo()
    # _power_bits is 9 * 1111 + 1 = MAX_COEFF_BITS, then 9 * 1112 + 1
    assert MAX_COEFF_BITS == 10_000
    big, half = "2^1000*2^110", "1/2^1000*1/2^111"
    accepted = [f"({big}*2)^9", f"({big}*x + {big})^9", f"({half}*x + {half})^9"]
    refused = [f"({big}*4)^9", f"({big}*x + {big} + 1)^9", f"({half}*1/2*x + {half})^9"]
    for text in accepted + refused:
        outcome = _outcome(_ExprParser, text, ctx)
        assert outcome == _outcome(ReferenceExprParser, text, ctx)
        assert (outcome[0] == "ok") == (text in accepted), text
