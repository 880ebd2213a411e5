"""Shared builders for the test suite: contexts, random polynomials, ideals."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from operator import add

from eliminant.fields import QQ
from eliminant.multipoly import MultiPoly, base_context
from eliminant.parser import (
    MAX_COEFF_BITS,
    MAX_EXPONENT,
    MAX_TERMS,
    ParseError,
    _power_bits,
    parse_poly,
)
from eliminant.unipoly import UniPoly

# the default, each `no-` toggle, and both toggles of the modulus handling
STRATEGIES = (
    "", "no-coprime-skip", "no-triangular-skip", "no-chi-delta", "no-base-change",
    "no-chi-delta,no-base-change",
)


def ctx3(order: str = "lex"):
    """(Q[z])[y, x] with z the eliminated-to variable."""
    return base_context(QQ, "z", ("y", "x"), order)


def ctx2(order: str = "lex"):
    return base_context(QQ, "z", ("y",), order)


def P(text: str, ctx=None) -> MultiPoly:
    return parse_poly(text, ctx if ctx is not None else ctx3())


def U(text: str, var: str = "z", field=QQ) -> UniPoly:
    """Univariate polynomial from an expression in a single variable."""
    ctx = base_context(field, var, ("__t__",))
    return parse_poly(text, ctx).as_coeff()


def random_unipoly(rng: random.Random, field=QQ, max_deg=3, bound=4, nonzero=False):
    while True:
        deg = rng.randint(0, max_deg)
        coeffs = [field.from_int(rng.randint(-bound, bound)) for _ in range(deg + 1)]
        p = UniPoly(field, coeffs)
        if not nonzero or not p.is_zero:
            return p


def random_multipoly(rng: random.Random, ctx, max_total=3, terms=4, bound=3, unideg=2):
    """Random polynomial over the base context, coefficients in K[x1]."""
    out = {}
    for _ in range(terms):
        mon = []
        budget = max_total
        for _ in ctx.tilde:
            e = rng.randint(0, budget)
            mon.append(e)
            budget -= e
        mon = tuple(mon)
        c = random_unipoly(rng, ctx.field, max_deg=unideg, bound=bound)
        if c.is_zero:
            continue
        out[mon] = out.get(mon, UniPoly.zero(ctx.field)) + c
    return MultiPoly(ctx, out)


def random_zero_dim_ideal(rng: random.Random, nvars: int | None = None):
    """A random zero-dimensional ideal: perturbed pure powers plus extras.

    Every variable gets a generator of the form v^k + (lower total degree),
    which bounds the quotient under any degree order; an optional extra
    generator adds variety.
    """
    nvars = nvars or rng.choice((2, 2, 3))
    names = ["z", "y", "x"][:nvars]
    ctx = base_context(QQ, names[0], tuple(names[1:]))
    gens = []
    for pos in range(nvars):
        k = rng.randint(1, 3)
        full = [0] * nvars
        full[pos] = k
        lead = _from_full_term(ctx, full, UniPoly.one(QQ))
        pert = _random_low_total(rng, ctx, max(k - 1, 0))
        gens.append(lead + pert)
    if rng.random() < 0.2:
        extra = _random_low_total(rng, ctx, rng.randint(1, 2))
        if not extra.is_zero:
            gens.append(extra)
    elif rng.random() < 0.6:
        # a generator with a non-trivial leading coefficient drives the
        # incompatible/modular branch of the pipeline
        lc = random_unipoly(rng, QQ, max_deg=2, bound=2, nonzero=True)
        mon = [0] * (nvars - 1)
        mon[rng.randrange(nvars - 1)] = 1
        head = MultiPoly.term(ctx, lc, tuple(mon))
        gens.append(head + _random_low_total(rng, ctx, 1))
    return ctx, gens


def _from_full_term(ctx, full_exps, scalar_poly: UniPoly) -> MultiPoly:
    coeff = scalar_poly.shift(full_exps[0])
    return MultiPoly.term(ctx, coeff, tuple(full_exps[1:]))


def _random_low_total(rng, ctx, max_total: int) -> MultiPoly:
    out = MultiPoly.zero(ctx)
    for _ in range(rng.randint(1, 3)):
        budget = max_total
        full = []
        for _ in range(len(ctx.tilde) + 1):
            e = rng.randint(0, budget)
            full.append(e)
            budget -= e
        c = rng.randint(-3, 3)
        if c == 0:
            continue
        out = out + _from_full_term(
            ctx, full, UniPoly.constant(QQ, Fraction(c))
        )
    return out


def random_member(rng, ctx, gens) -> MultiPoly:
    """A random small combination of the generators (a member by construction)."""
    acc = MultiPoly.zero(ctx)
    for g in gens:
        if rng.random() < 0.7:
            mult = _random_low_total(rng, ctx, 1)
            acc = acc + mult * g
    if acc.is_zero:
        acc = gens[0]
    return acc


# -- replays of what no served path reads ------------------------------------------


def quotients(division) -> list[MultiPoly]:
    """The quotients of an `engine.Division`, replayed from its step log.

    With them multiplier * f == sum(quotients[i] * divisors[i]) + remainder.
    """
    from eliminant.multipoly import mon_div

    out = [{} for _ in division.divisors]
    for mu, mon, parts in division.steps:
        if not mu.is_one:
            out = [{m: a * mu for m, a in q.items()} for q in out]
        for i, factor in parts:
            shift = mon_div(mon, division.divisors[i].lm)
            q = out[i]
            q[shift] = q[shift] + factor if shift in q else factor
    return [MultiPoly(division.remainder.ctx, q) for q in out]


def multiplicity(p: UniPoly, f: UniPoly) -> int:
    """Largest k with p^k dividing f."""
    from eliminant.unipoly import ConstantInputError, ZeroInputError, divrem

    if f.is_zero:
        raise ZeroInputError("multiplicity in the zero polynomial")
    if p.is_constant:
        raise ConstantInputError("multiplicity of a constant factor")
    k = 0
    while True:
        q, r = divrem(f, p)
        if not r.is_zero:
            return k
        f = q
        k += 1


# -- reference gcd, lcm and S-polynomial --------------------------------------------


def reference_poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """poly_gcd before the remainder-only kernels, kept as an oracle.

    Each remainder of the Euclidean loop comes from the quotient-building
    kernels; over Q the loop runs on primitive integer lists.
    """
    from eliminant.unipoly import BothZeroError, _gf_divmod, _int_primitive, _q_divmod

    if f.is_zero and g.is_zero:
        raise BothZeroError("gcd(0, 0)")
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    F = f.field
    p = F.char
    if p:
        a, b = f.nums, g.nums
        while b:
            a, b = b, _gf_divmod(a, b, p)[1]
        return UniPoly(F, a).monic()
    a = _int_primitive(list(f.nums))
    b = _int_primitive(list(g.nums))
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _q_divmod(a, b)[1]
        a, b = b, _int_primitive(r) if r else []
    return UniPoly(F, [Fraction(c, a[-1]) for c in a])


def reference_poly_lcm(f: UniPoly, g: UniPoly) -> UniPoly:
    """The monic lcm as the product over the gcd, kept as an oracle."""
    from eliminant.unipoly import exact_div

    return exact_div(f * g, reference_poly_gcd(f, g)).monic()


def reference_spoly(f: MultiPoly, g) -> MultiPoly:
    """engine.spoly before the one-pass tail difference, kept as an oracle.

    Both multipliers are the lcm of the leading-coefficient lifts divided
    by each lift, and the S-polynomial is formed as left - right, leading
    terms included: they cancel in the subtraction.
    """
    from eliminant.multipoly import mon_div, mon_lcm
    from eliminant.unipoly import exact_div

    if isinstance(g, MultiPoly) and g.is_coeff:
        g = g.as_coeff()
    elem = f.ctx.ring.elem
    lf = f.lc.rep
    if not isinstance(g, MultiPoly):
        return f.tail().scale(elem(exact_div(reference_poly_lcm(lf, g.rep), lf)))
    lg = g.lc.rep
    m = reference_poly_lcm(lf, lg)
    gamma = mon_lcm(f.lm, g.lm)
    left = f.mul_term(elem(exact_div(m, lf)), mon_div(gamma, f.lm))
    right = g.mul_term(elem(exact_div(m, lg)), mon_div(gamma, g.lm))
    return left - right


def reference_try_triangular(run, i, j):
    """Elimination._try_triangular before the per-pair lcm, kept as an oracle.

    Each candidate h tests the monomials and computes its multiplier
    lc h / gcd(lcm(lc f, lc g), lc h) afresh, with the reference gcd and lcm,
    and every candidate is tried in (rank, basis position) order; a ring
    without `rank` (the residue ring) tries them in basis order.
    """
    from eliminant.engine import check_triangular_identity
    from eliminant.multipoly import mon_divides, mon_lcm
    from eliminant.unipoly import exact_div

    def triangular_multiplier(f, g, h):
        if not mon_divides(h.lm, mon_lcm(f.lm, g.lm)):
            return None
        m = reference_poly_lcm(f.lc.rep, g.lc.rep)
        lh = h.lc.rep
        return f.ctx.ring.elem(exact_div(lh, reference_poly_gcd(m, lh)))

    f, g = run.arena[i], run.arena[j]
    candidates = []
    for pos, (_, k, h) in enumerate(run.basis):
        if k in (i, j):
            continue
        if (
            frozenset((i, k)) not in run.decided_pairs
            or frozenset((j, k)) not in run.decided_pairs
        ):
            continue
        lam = triangular_multiplier(f, g, h)
        if lam is not None:
            candidates.append((run.ring.rank(lam) if run.ring.rank else 0, pos, k, lam))
    candidates.sort(key=lambda t: t[:2])
    for _, _, k, lam in candidates:
        if not run.ring.excuse(lam):
            continue
        if run.check and not check_triangular_identity(f, g, run.arena[k]):
            raise AssertionError("triangular identity failed to verify")
        return True
    return False


# -- reference division steps -----------------------------------------------------


def reference_lcm_step(divisors, mon, c, admits=None):
    """The lcm division step with lcm cofactors at every step, kept as an oracle.

    Every step scales the dividend by lcm(lift c, lift lc b) / lift c, also
    when that is a constant because lift lc b divides lift c.
    """
    from eliminant.multipoly import mon_divides
    from eliminant.unipoly import lcm_cofactors

    for i, b in enumerate(divisors):
        if mon_divides(b.lm, mon):
            elem = b.ctx.ring.elem
            cu, cb = lcm_cofactors(c.rep, b.lc.rep)
            mu = elem(cu)
            if admits is None or admits(mu):
                return mu, [(i, elem(cb))]
    return None


def reference_coprime_adjust(g: UniPoly, d_st: UniPoly, modulus: UniPoly) -> UniPoly:
    """A lift w with w*d_st = g mod q and w coprime to q, built apart from assembly's.

    w = g/d_st when that is coprime to q, else g/d_st + t*q/d_st with t the
    part of q coprime to both quotients, found by dividing out gcds with
    their product.
    """
    from eliminant.unipoly import exact_div

    a = exact_div(g, d_st)
    if reference_poly_gcd(a, modulus).is_constant:
        return a
    b = exact_div(modulus, d_st)
    t = modulus
    while not (h := reference_poly_gcd(t, a * b)).is_constant:
        t = exact_div(t, h)
    return a + t * b


def reference_gcd_step(divisors, mon, c):
    """The gcd step rule before per-list step tables, kept as an oracle.

    It recomputes the coefficient gcd, its cofactors and gcd(g, q) at every
    step, and always scales the dividend by lcm(lift c, g) / lift c.
    """
    from eliminant.multipoly import mon_divides
    from eliminant.unipoly import exact_div, poly_gcd, poly_lcm, poly_multi_ext_gcd

    hits = [(i, b) for i, b in enumerate(divisors) if mon_divides(b.lm, mon)]
    if not hits:
        return None
    ring = c.ctx
    g, cofs = poly_multi_ext_gcd([b.lc.rep for _, b in hits])
    d_st = poly_gcd(g, ring.modulus)
    if not d_st.is_constant and not (c.rep % d_st).is_zero:
        return None
    m = poly_lcm(c.rep, g)
    mu = ring.elem(exact_div(m, c.rep))
    if mu.is_unit():
        scale = ring.elem(exact_div(m, g))
    else:
        mu = ring.one_elem()
        w = reference_coprime_adjust(g, d_st, ring.modulus)
        scale = ring.elem(exact_div(c.rep, d_st)) * ring.elem(w).inverse()
    parts = [(i, scale * ring.elem(cof)) for (i, _), cof in zip(hits, cofs)]
    return mu, [(i, factor) for i, factor in parts if not factor.is_zero]


def reference_component_remainder(f, comp):
    """Unit-free remainder of f in the component's ring under the reference step."""
    from eliminant.engine import divide

    division = divide(comp.project(f), comp.basis, reference_gcd_step)
    return division.remainder.scale(division.multiplier.inverse())


# -- reference monomial helpers and order keys ---------------------------------------


def reference_mon_mul(a, b):
    """The generator forms of the monomial helpers, before the `operator` kernels."""
    return tuple(x + y for x, y in zip(a, b))


def reference_mon_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def reference_mon_div(a, b):
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise ArithmeticError("monomial division with negative exponent")
    return out


def reference_mon_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def reference_mon_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def reference_mon_is_one(a):
    return all(e == 0 for e in a)


def reference_order_key(tag: str, m):
    """ElimOrder.key as it branched on the order tag on every call."""
    if tag == "lex":
        return tuple(reversed(m))
    return (sum(m), tuple(-e for e in m))


# -- reference normalization ladder ---------------------------------------------------


def reference_normalize_content(f):
    """normalize_content as a product with a constant polynomial, always rebuilt."""
    from eliminant.unipoly import content_scale

    if f.is_zero:
        return f
    field = f.ctx.field
    scale = content_scale(field, (c for _, c in f.terms), f.lc.lc)
    return f.scale(UniPoly.constant(field, scale))


def reference_unit_normalize(f):
    """The residue-ring normalization by products with a constant and `% q`, always rebuilt."""
    from eliminant.pqr import PqrElem
    from eliminant.unipoly import content_scale

    if f.is_zero:
        return f
    ring, field = f.ctx.ring, f.ctx.field
    k = UniPoly.constant(field, content_scale(field, (c.rep for _, c in f.terms), f.lc.rep.lc))
    return MultiPoly(f.ctx, {m: PqrElem(ring, (c.rep * k) % ring.modulus) for m, c in f.terms})


def reference_inverse(a: UniPoly, q: UniPoly) -> UniPoly:
    """The inverse of a unit a mod q by the extended Euclidean loop on `divrem`."""
    from eliminant.unipoly import divrem

    field = q.field
    r0, r1 = q, a % q
    s0, s1 = UniPoly.zero(field), UniPoly.one(field)
    while not r1.is_zero:
        quo, rem = divrem(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
    assert r0.is_constant, "not a unit"
    return s0.scale(r0._lc_inverse()) % q


def reference_standard_form(f):
    """f scaled so that its leading coefficient is gcd(lc f, q), built apart from assembly's.

    The scale is the inverse of the unit lift w of `reference_coprime_adjust`
    with w*gcd(lc f, q) = lc f mod q: w is lc f itself when that is a unit.
    """
    from eliminant.pqr import PqrElem

    if f.is_zero:
        return f
    ring = f.ctx.ring
    q = ring.modulus
    lc = f.lc.rep
    unit = reference_inverse(reference_coprime_adjust(lc, reference_poly_gcd(lc, q), q), q)
    return MultiPoly(f.ctx, {m: PqrElem(ring, (c.rep * unit) % q) for m, c in f.terms})


def reference_make_reduced(basis):
    """The irredundant -> minimal -> reduced ladder before its shortcuts, kept as an oracle.

    Reducibility runs the whole reference step, every element of the minimal
    pass gets its gcd cofactors, the sort formats every element, the
    redundancy pass restarts after each drop, and every element the ladder
    makes is brought to `reference_standard_form`.
    """
    from eliminant.engine import divide
    from eliminant.multipoly import mon_div, mon_divides
    from eliminant.unipoly import poly_gcd, poly_multi_ext_gcd

    def ordered(elems):
        return sorted(elems, key=lambda b: (b.ctx.order.key(b.lm), b.lc.rep.degree, b.fmt()))

    def irredundant(elems):
        out = ordered([b for b in elems if not b.is_zero])
        changed = True
        while changed:
            changed = False
            for i in range(len(out) - 1, -1, -1):
                rest = out[:i] + out[i + 1 :]
                if rest and reference_gcd_step(rest, out[i].lm, out[i].lc) is not None:
                    out.pop(i)
                    changed = True
                    break
        return ordered([reference_standard_form(b) for b in out])

    def minimal(elems):
        out = irredundant(elems)
        if not out:
            return out
        ctx = out[0].ctx
        ring = ctx.ring
        replaced = []
        for f in out:
            hits = [i for i, b in enumerate(out) if mon_divides(b.lm, f.lm)]
            g, cofs = poly_multi_ext_gcd([out[i].lc.rep for i in hits])
            d_st = poly_gcd(g, ring.modulus)
            if poly_gcd(f.lc.rep, ring.modulus) == d_st:
                replaced.append(f)
                continue
            scale = ring.elem(reference_coprime_adjust(g, d_st, ring.modulus)).inverse()
            acc = MultiPoly.zero(ctx)
            for i, cof in zip(hits, cofs):
                factor = scale * ring.elem(cof)
                if not factor.is_zero:
                    acc = acc + out[i].mul_term(factor, mon_div(f.lm, out[i].lm))
            assert not acc.is_zero and acc.lm == f.lm
            replaced.append(reference_standard_form(acc))
        seen = set()
        kept = []
        for b in ordered(replaced):
            key = (b.lm, poly_gcd(b.lc.rep, ring.modulus).coeffs)
            if key not in seen:
                seen.add(key)
                kept.append(b)
        return irredundant(kept)

    out = minimal(basis)
    if len(out) <= 1:
        return out
    for _ in range(64):
        changed = False
        for i in range(len(out)):
            rest = out[:i] + out[i + 1 :]
            r = reference_standard_form(divide(out[i], rest, reference_gcd_step).remainder)
            assert not r.is_zero
            if r != out[i]:
                changed = True
                out[i] = r
        out = ordered(out)
        if not changed:
            return out
    raise AssertionError("tail reduction failed to stabilize")


# -- reference expression parser --------------------------------------------------


def _reference_term_add(a: dict, b: dict, sign: int, p: int) -> dict:
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


def _reference_term_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    if p:
        return {m: v for m, c in out.items() if (v := c % p)}
    return {m: c for m, c in out.items() if c}


# NUMBER (with an optional '/' tail), NAME, an operator, or any other
# non-space character, which is an error; whitespace falls between matches.
_TOKEN = re.compile(r"(\d+(?:/\d*)?)|([^\W\d]\w*)|([-+*^()])|(\S)")


def reference_tokenize(text: str, line_no: int | None = None):
    """The reference tokenizer: (kind, text, column) per token, then ("end", "", len(text)).

    It reports each token's column as it reads it, one Python step per
    token; the engine's tokenizer finds columns only for an error.
    """
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


class ReferenceExprParser:
    """The expression evaluator before the one-pass parser, kept as an oracle.

    Every number and name becomes a one-term dict, each '*' multiplies two
    dicts, every power runs square-and-multiply, and each '+' copies the sum.
    Evaluates an expression into one term dict {(e_x1, e_tail...): scalar}.

    Scalars are ints or Fractions over Q and residues over GF(p).  The
    MultiPoly is built once from the final dict, so its terms are sorted once.
    Tokens come from the reference tokenizer, each with its column.
    """

    def __init__(self, text: str, ctx, line_no: int | None):
        self.tokens = reference_tokenize(text, line_no)
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
        return _reference_term_mul(a, b, self.p)

    def expr(self) -> dict:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = _reference_term_add(value, rhs, 1 if op == "+" else -1, self.p)
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
            return _reference_term_add({}, self.unary(), -1, self.p)
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


def reference_parse_poly(text: str, ctx, line_no=None) -> MultiPoly:
    return ReferenceExprParser(text, ctx, line_no).parse()
