"""Classical Buchberger over the coefficient field, used as a cross-check.

This is a deliberately plain textbook implementation (lex order, first
Buchberger criterion only, full interreduction at the end).  It exists to
verify the main pipeline on small inputs, not to be fast.  It also hosts the
two-generator comparison scenario that exhibits how classical elimination
manufactures the extended-Euclid cofactors whose size explodes over Q, while
the coefficient-lcm route reaches the same eliminant in one step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multipoly import MultiPoly
from .unipoly import UniPoly, exact_div, poly_ext_gcd

# full-arity monomials: exponent tuples over (x1, tail...) in ascending
# precedence, compared lex from the last (largest) variable down
FieldPoly = dict


class NoUnivariateElementError(ValueError):
    pass


class DegenerateInputError(ValueError):
    pass


def _key(mon):
    return tuple(reversed(mon))


def _lt(f: FieldPoly):
    return max(f, key=_key)


def _mul_mon(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _div_mon(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _lcm_mon(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def fp_add_term(f: FieldPoly, field, mon, c):
    v = field.add(f.get(mon, field.zero), c)
    if field.is_zero(v):
        f.pop(mon, None)
    else:
        f[mon] = v


def fp_combine(f: FieldPoly, g: FieldPoly, field, scale, mon) -> FieldPoly:
    """f - scale * x^mon * g."""
    out = dict(f)
    for m, c in g.items():
        fp_add_term(out, field, _mul_mon(m, mon), field.neg(field.mul(scale, c)))
    return out


def fp_monic(f: FieldPoly, field) -> FieldPoly:
    lt = _lt(f)
    inv = field.inv(f[lt])
    return {m: field.mul(c, inv) for m, c in f.items()}


def fp_normal_form(f: FieldPoly, basis: list[FieldPoly], field) -> FieldPoly:
    h = dict(f)
    while h:
        hit = None
        for mon in sorted(h, key=_key, reverse=True):
            for g in basis:
                lt = _lt(g)
                if _divides(lt, mon):
                    hit = (mon, g, lt)
                    break
            if hit:
                break
        if hit is None:
            break
        mon, g, lt = hit
        scale = field.div(h[mon], g[lt])
        h = fp_combine(h, g, field, scale, _div_mon(mon, lt))
    return h


def fp_spoly(f: FieldPoly, g: FieldPoly, field) -> FieldPoly:
    lf, lg = _lt(f), _lt(g)
    gamma = _lcm_mon(lf, lg)
    left = fp_combine({}, f, field, field.neg(field.inv(f[lf])), _div_mon(gamma, lf))
    return fp_combine(left, g, field, field.inv(g[lg]), _div_mon(gamma, lg))


def buchberger_reduced(gens: list[FieldPoly], field) -> list[FieldPoly]:
    """Reduced lex basis of the ideal the generators span."""
    basis = [dict(g) for g in gens if g]
    if not basis:
        return []
    pairs = []
    seq = 0
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            pairs.append((_key(_lcm_mon(_lt(basis[i]), _lt(basis[j]))), seq, i, j))
            seq += 1
    while pairs:
        pairs.sort()
        _, _, i, j = pairs.pop(0)
        f, g = basis[i], basis[j]
        lf, lg = _lt(f), _lt(g)
        if _lcm_mon(lf, lg) == _mul_mon(lf, lg):
            continue  # coprime leading monomials reduce to zero
        r = fp_normal_form(fp_spoly(f, g, field), basis, field)
        if not r:
            continue
        basis.append(r)
        k = len(basis) - 1
        for i2 in range(k):
            pairs.append((_key(_lcm_mon(_lt(basis[i2]), _lt(r))), seq, i2, k))
            seq += 1
    # minimalize
    out = []
    for i, g in enumerate(basis):
        lt = _lt(g)
        if any(
            _divides(_lt(h), lt) and (j < i or _lt(h) != lt)
            for j, h in enumerate(basis)
            if j != i
        ):
            continue
        out.append(g)
    # interreduce tails
    reduced = []
    for i, g in enumerate(out):
        others = [h for j, h in enumerate(out) if j != i]
        lt = _lt(g)
        tail = dict(g)
        tail.pop(lt)
        nf = fp_normal_form(tail, others, field)
        nf[lt] = g[lt]
        reduced.append(fp_monic(nf, field))
    reduced.sort(key=lambda h: _key(_lt(h)))
    return reduced


# -- conversions -----------------------------------------------------------------


def to_field_poly(f: MultiPoly) -> FieldPoly:
    """Expand coefficients in the eliminated variable into full monomials."""
    field = f.ctx.field
    out: FieldPoly = {}
    for mon, c in f.terms:
        for k, a in enumerate(c.rep.coeffs):
            if field.is_zero(a):
                continue
            fp_add_term(out, field, (k,) + tuple(mon), a)
    return out


def oracle_eliminant(gb: list[FieldPoly], field) -> UniPoly:
    """Monic generator of the intersection with the first-variable line."""
    for g in gb:
        if all(all(e == 0 for e in m[1:]) for m in g):
            coeffs = [field.zero] * (max(m[0] for m in g) + 1)
            for m, c in g.items():
                coeffs[m[0]] = c
            return UniPoly(field, coeffs).monic()
    raise NoUnivariateElementError("basis has no univariate element")


def oracle_member(f: MultiPoly, gb: list[FieldPoly]) -> bool:
    return not fp_normal_form(to_field_poly(f), gb, f.ctx.field)


def reduced_groebner(gens: list[MultiPoly]) -> list[FieldPoly]:
    if not gens:
        raise ValueError("empty generator list")
    field = gens[0].ctx.field
    return buchberger_reduced([to_field_poly(g) for g in gens], field)


def groebner_self_check(gb: list[FieldPoly], field) -> bool:
    """Every S-polynomial of the output reduces to zero by the output."""
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            if fp_normal_form(fp_spoly(gb[i], gb[j], field), gb, field):
                return False
    return True


# -- coefficient-swell comparison ---------------------------------------------------


def _bit_size(p: UniPoly) -> int:
    if p.field.char:
        return max((c.bit_length() for c in p.coeffs), default=0)
    out = 0
    for c in p.coeffs:
        out = max(out, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return out


@dataclass
class SwellReport:
    gcd: UniPoly
    cofactor_f: UniPoly          # u with u*a + v*b = gcd
    cofactor_g: UniPoly
    classical_eliminant: UniPoly
    direct_eliminant: UniPoly
    input_bits: int
    cofactor_bits: int
    cofactor_degrees: tuple[int, int]

    @property
    def routes_agree(self) -> bool:
        if self.classical_eliminant.is_zero:
            return self.direct_eliminant.is_zero
        return self.classical_eliminant.monic() == self.direct_eliminant.monic()


def bezout_swell_scenario(a: UniPoly, b: UniPoly, c: UniPoly, d: UniPoly) -> SwellReport:
    """Compare the two routes to the eliminant of <a x + c, b x + d>.

    Classical elimination pivots on gcd(a, b) and drags its extended-Euclid
    cofactors u, v through the intermediate polynomials; the coefficient-lcm
    S-polynomial reaches (b c - a d)/gcd(a, b) directly.  The report captures
    both results plus the cofactor sizes.
    """
    if (a * d - b * c).is_zero:
        raise DegenerateInputError("a*d == b*c: ideal is not zero-dimensional")
    rho, u, v = poly_ext_gcd(a, b)
    classical = exact_div(b * c - a * d, rho)
    direct = exact_div(b, rho) * c - exact_div(a, rho) * d
    return SwellReport(
        gcd=rho,
        cofactor_f=u,
        cofactor_g=v,
        classical_eliminant=classical,
        direct_eliminant=direct,
        input_bits=max(_bit_size(a), _bit_size(b), _bit_size(c), _bit_size(d)),
        cofactor_bits=max(_bit_size(u), _bit_size(v)),
        cofactor_degrees=(u.degree, v.degree),
    )
