import math
import random
from fractions import Fraction

import pytest

from eliminant.fields import GF, QQ
from eliminant.unipoly import (
    BothZeroError,
    ConstantInputError,
    UniPoly,
    content_scale,
    divrem,
    exact_div,
    lcm_cofactors,
    poly_ext_gcd,
    poly_gcd,
    poly_half_ext_gcd,
    poly_lcm,
    poly_multi_ext_gcd,
    squarefree_decomposition,
    sum_of_products,
)
from util import U, multiplicity, random_unipoly, reference_poly_gcd


def test_divrem_examples():
    z = UniPoly.gen(QQ)
    one = UniPoly.one(QQ)
    q, r = divrem(z * z - one, z - one)
    assert q == z + one and r.is_zero
    q, r = divrem(z**3, z**2)
    assert q == z and r.is_zero
    # verified by expanding q*g + r
    f, g = z * z + one, z + one
    q, r = divrem(f, g)
    assert q * g + r == f and r.degree < g.degree
    assert q == z - one and r == UniPoly.constant(QQ, Fraction(2))
    with pytest.raises(ZeroDivisionError):
        divrem(f, UniPoly.zero(QQ))


def test_degree_sentinel():
    assert UniPoly.zero(QQ).degree == -1
    assert UniPoly.zero(QQ).degree < 0 <= UniPoly.one(QQ).degree


def test_gcd_examples():
    f = U("z^2*(z+1)^3*(z^4*(z+1)^6-1)")
    g = U("z^2*(z+1)^3")
    assert poly_gcd(f, g) == U("z^2*(z+1)^3")
    assert poly_gcd(f, UniPoly.zero(QQ)) == f.monic()
    # gcd(z(z-1), z(z+1)) = z: both divisible, cofactors coprime
    a, b = U("z*(z-1)"), U("z*(z+1)")
    d = poly_gcd(a, b)
    assert d == U("z")
    assert (a % d).is_zero and (b % d).is_zero
    assert poly_gcd(a // d, b // d).is_constant
    with pytest.raises(BothZeroError):
        poly_gcd(UniPoly.zero(QQ), UniPoly.zero(QQ))


def test_ext_gcd_examples():
    z = UniPoly.gen(QQ)
    f = U("3*z^2")
    d, u, v = poly_ext_gcd(f, UniPoly.zero(QQ))
    assert d == U("z^2") and u == UniPoly.constant(QQ, Fraction(1, 3)) and v.is_zero
    d, u, v = poly_ext_gcd(z, z + UniPoly.one(QQ))
    assert d.is_one
    assert u == UniPoly.constant(QQ, Fraction(-1)) and v == UniPoly.one(QQ)


def test_ext_gcd_bezout_swell_inputs():
    f = U(
        "(7*z^10-9*z^8-21*z^7+13*z^6+29*z^5-34*z^4-56*z^3-14*z^2+3*z+1)^2"
    )
    g = U(
        "(6*z^10+15*z^9+z^8-16*z^7-37*z^6+64*z^5+18*z^4+5*z^3-3*z^2-4*z-1)^2"
    )
    d, u, v = poly_ext_gcd(f, g)
    assert d.is_one
    assert u * f + v * g == UniPoly.one(QQ)
    assert u.degree >= 15 and v.degree >= 15


def test_multi_ext_gcd():
    polys = [U("z^2*(z+1)"), U("z*(z+1)^2"), U("z*(z+1)")]
    d, coeffs = poly_multi_ext_gcd(polys)
    assert d == U("z*(z+1)")
    acc = UniPoly.zero(QQ)
    for c, p in zip(coeffs, polys):
        acc = acc + c * p
    assert acc == d


def test_squarefree_char0_examples():
    f = U("z^3+z+1")  # gcd(f, f') constant
    assert squarefree_decomposition(f) == [(f.monic(), 1)]
    parts = squarefree_decomposition(U("z^2*(z+1)^3"))
    assert parts == [(U("z"), 2), (U("z+1"), 3)]
    for g, _ in parts:
        assert poly_gcd(g, g.derivative()).is_constant
    assert poly_gcd(parts[0][0], parts[1][0]).is_constant
    with pytest.raises(ConstantInputError):
        squarefree_decomposition(UniPoly.one(QQ))


def _all_gf2_polys_up_to_deg2():
    F = GF(2)
    out = []
    for c0 in (0, 1):
        for c1 in (0, 1):
            for c2 in (0, 1):
                p = UniPoly(F, (c0, c1, c2))
                if p.degree >= 1:
                    out.append(p)
    return out


def test_squarefree_gf2_fixture():
    F = GF(2)
    f = UniPoly(F, (1, 0, 1, 0, 1))  # x^4 + x^2 + 1
    parts = squarefree_decomposition(f)
    assert parts == [(UniPoly(F, (1, 1, 1)), 2)]
    # independent check by trial division with every poly of degree <= 2
    g = parts[0][0]
    for p in _all_gf2_polys_up_to_deg2():
        q, r = divrem(g, p)
        if r.is_zero and 1 <= p.degree < g.degree:
            pytest.fail(f"{g.fmt()} has a proper factor {p.fmt()}")
    assert (f % (g * g)).is_zero


def test_multiplicity_examples():
    assert multiplicity(U("z"), U("z^2*(z+1)^3")) == 2
    assert multiplicity(U("z+1"), U("z^2")) == 0
    chi = U("(z-1)^5*z^6*(z^13+9*z^12+36*z^11+84*z^10+126*z^9+126*z^8"
            "+85*z^7+31*z^6+19*z^5-9*z^4+4*z^3-4*z^2-3*z-1)")
    assert multiplicity(U("z-1"), chi) == 5
    assert multiplicity(U("z"), chi) == 6


def test_division_identity_random():
    rng = random.Random(5)
    for _ in range(300):
        f = random_unipoly(rng, QQ, max_deg=6)
        g = random_unipoly(rng, QQ, max_deg=4, nonzero=True)
        q, r = divrem(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_gcd_properties_random():
    rng = random.Random(6)
    for field in (QQ, GF(5)):
        for _ in range(150):
            f = random_unipoly(rng, field, max_deg=5)
            g = random_unipoly(rng, field, max_deg=5)
            if f.is_zero and g.is_zero:
                continue
            d = poly_gcd(f, g)
            if not f.is_zero:
                assert (f % d).is_zero
            if not g.is_zero:
                assert (g % d).is_zero
            if not f.is_zero and not g.is_zero:
                assert poly_gcd(f // d, g // d).is_constant
            d2, u, v = poly_ext_gcd(f, g)
            assert d2 == d
            assert u * f + v * g == d


def test_lcm():
    a, b = U("z*(z+1)"), U("z*(z-1)")
    assert poly_lcm(a, b) == U("z*(z+1)*(z-1)")


def test_squarefree_random_char0():
    rng = random.Random(8)
    for _ in range(100):
        f = UniPoly.one(QQ)
        used = []
        for e in rng.sample(range(1, 6), rng.randint(1, 3)):
            g = random_unipoly(rng, QQ, max_deg=2, nonzero=True)
            if g.is_constant:
                continue
            f = f * g**e
            used.append(g)
        if f.is_constant:
            continue
        parts = squarefree_decomposition(f)
        recon = UniPoly.one(QQ)
        for g, e in parts:
            recon = recon * g**e
        assert recon.monic() == f.monic()
        exps = [e for _, e in parts]
        assert exps == sorted(set(exps))
        for i, (g, _) in enumerate(parts):
            assert poly_gcd(g, g.derivative()).is_constant
            for h, _ in parts[i + 1 :]:
                assert poly_gcd(g, h).is_constant


def test_squarefree_char_p_frobenius():
    F = GF(3)
    x = UniPoly.gen(F)
    one = UniPoly.one(F)
    # all exponents divisible by p: derivative vanishes identically
    f = (x + one) ** 3 * (x**2 + one) ** 6
    assert f.derivative().is_zero
    parts = squarefree_decomposition(f)
    assert (UniPoly(F, (1, 1)), 3) in parts
    recon = UniPoly.one(F)
    for g, e in parts:
        recon = recon * g**e
    assert recon.monic() == f.monic()


def test_char_p_exponent_enumeration():
    from eliminant.unipoly import _sqf_exponents

    gen = _sqf_exponents(5)
    seq = [next(gen) for _ in range(8)]
    assert seq == [1, 2, 3, 4, 6, 7, 8, 9]
    assert all(e >= i + 1 for i, e in enumerate(seq))


def test_multiplicity_additive_random():
    rng = random.Random(9)
    for _ in range(100):
        p = random_unipoly(rng, QQ, max_deg=2, nonzero=True)
        if p.is_constant:
            continue
        f = random_unipoly(rng, QQ, max_deg=3, nonzero=True) * p ** rng.randint(0, 2)
        g = random_unipoly(rng, QQ, max_deg=3, nonzero=True) * p ** rng.randint(0, 2)
        assert multiplicity(p, f * g) == multiplicity(p, f) + multiplicity(p, g)


# -- reference loops ------------------------------------------------------------
#
# The kernel keeps integer numerators over one denominator.  These plain
# loops on lists of field elements (Fractions over Q, residues over GF(p))
# are the reference it must agree with, coefficient for coefficient.


class _RefField:
    def __init__(self, p):
        self.p = p

    def norm(self, a):
        return a % self.p if self.p else Fraction(a)

    def inv(self, a):
        return pow(a, -1, self.p) if self.p else 1 / Fraction(a)


def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(R, a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _ref_trim(R.norm(x + sign * y) for x, y in zip(a, b))


def _ref_mul(R, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(R.norm(c) for c in out)


def _ref_scale(R, a, c):
    return _ref_trim(R.norm(x * c) for x in a)


def _ref_monic(R, a):
    return _ref_scale(R, a, R.inv(a[-1])) if a else []


def _ref_derivative(R, a):
    return _ref_trim(R.norm(i * c) for i, c in enumerate(a))[1:] if len(a) > 1 else []


def _ref_divrem(R, a, b):
    r = list(a)
    inv = R.inv(b[-1])
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = R.norm(r[k + len(b) - 1] * inv)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] = R.norm(r[k + i] - c * y)
    return _ref_trim(q), _ref_trim(r[: len(b) - 1])


def _ref_ext_gcd(R, f, g):
    r0, r1, u0, u1, v0, v1 = f, g, [R.norm(1)], [], [], [R.norm(1)]
    while r1:
        q, r = _ref_divrem(R, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _ref_add(R, u0, _ref_mul(R, q, u1), -1)
        v0, v1 = v1, _ref_add(R, v0, _ref_mul(R, q, v1), -1)
    c = R.inv(r0[-1])
    return _ref_scale(R, r0, c), _ref_scale(R, u0, c), _ref_scale(R, v0, c)


def _ref_multi_ext_gcd(R, polys):
    d = polys[0]
    coeffs = [[R.norm(1)] if d else []] + [[] for _ in polys[1:]]
    for i in range(1, len(polys)):
        if not polys[i]:
            continue
        if not d:
            d, coeffs[i] = polys[i], [R.norm(1)]
            continue
        d2, u, v = _ref_ext_gcd(R, d, polys[i])
        coeffs = [_ref_mul(R, u, c) for c in coeffs]
        coeffs[i] = _ref_add(R, coeffs[i], v)
        d = d2
    c = R.inv(d[-1])
    return _ref_scale(R, d, c), [_ref_scale(R, q, c) for q in coeffs]


def _ref_poly(rng, R, max_deg):
    n = rng.randint(0, max_deg + 1)
    if R.p:
        return _ref_trim(rng.randrange(R.p) for _ in range(n))
    return _ref_trim(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
def test_kernel_matches_reference_loops(p):
    rng = random.Random(1000 + p)
    F = GF(p) if p else QQ
    R = _RefField(p)

    def up(cs):
        return UniPoly(F, cs)

    def same(got, ref):
        assert list(got.coeffs) == ref

    for _ in range(300):
        a, b = _ref_poly(rng, R, 6), _ref_poly(rng, R, 5)
        fa, fb = up(a), up(b)
        same(fa, a)
        same(fa + fb, _ref_add(R, a, b))
        same(fa - fb, _ref_add(R, a, b, -1))
        same(fa * fb, _ref_mul(R, a, b))
        c = R.norm(rng.randint(-5, 5)) if p else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        same(fa.scale(c), _ref_scale(R, a, c))
        same(fa.monic(), _ref_monic(R, a))
        same(fa.derivative(), _ref_derivative(R, a))
        if b:
            q, r = divrem(fa, fb)
            rq, rr = _ref_divrem(R, a, b)
            same(q, rq)
            same(r, rr)
            same(fa % fb, rr)
        if a or b:
            same(poly_gcd(fa, fb), _ref_ext_gcd(R, a, b)[0])
            d, u, v = poly_ext_gcd(fa, fb)
            rd, ru, rv = _ref_ext_gcd(R, a, b)
            same(d, rd)
            same(u, ru)
            same(v, rv)
            d, u = poly_half_ext_gcd(fa, fb)
            same(d, rd)
            same(u, ru)
        family = [a, b] + [_ref_poly(rng, R, 4) for _ in range(rng.randint(0, 2))]
        if any(family):
            d, cofs = poly_multi_ext_gcd([up(x) for x in family])
            rd, rcofs = _ref_multi_ext_gcd(R, family)
            same(d, rd)
            for got, ref in zip(cofs, rcofs):
                same(got, ref)


def _ext_gcd_edge_pairs(rng, F):
    """(f, g) pairs: each divides the other, f = 2*g (zero over GF(2)),
    deg f < deg g, a shared factor, negative leading integers with mixed
    denominators, and degree-10 operands with 40-bit coefficients."""

    def rand(deg, bits=6, negative=False):
        if F.char:
            cs = [rng.randrange(2**bits) % F.char for _ in range(deg)]
            return UniPoly(F, cs + [rng.randrange(1, F.char)])
        top = 2 ** min(bits, 6)    # denominators stay small: the reference runs on Fractions
        cs = [Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, top)) for _ in range(deg)]
        lead = Fraction(rng.randint(1, 2**bits), rng.randint(1, top))
        return UniPoly(F, cs + [-lead if negative or rng.random() < 0.5 else lead])

    h = rand(rng.randint(1, 3))
    g = rand(3)
    yield g * rand(2), g
    yield g, g * rand(2)
    yield g.scale(F.one + F.one), g
    yield rand(2), rand(5)
    yield rand(0), rand(4)
    yield rand(4) * h, rand(3) * h
    yield rand(5) * h, h
    yield rand(5, negative=True), rand(4, negative=True)
    yield rand(10, 40), rand(10, 40)
    yield rand(10, 40) * h, rand(9, 40) * h
    yield rand(8, 40), rand(10, 40, negative=True)


@pytest.mark.parametrize("p", [0, 2, 5, 32003])
def test_ext_gcd_edge_cases_match_the_reference(p):
    """Both extended gcds give the reference's Euclidean cofactors on seeded edge cases.

    u is the cofactor with deg u < deg g - deg d, and v the one with
    deg v < deg f - deg d unless g divides f, when u is 0 and v is 1/lc g.
    """
    rng = random.Random(2300 + p)
    F = GF(p) if p else QQ
    R = _RefField(p)
    for _ in range(6):
        for f, g in _ext_gcd_edge_pairs(rng, F):
            rd, ru, rv = _ref_ext_gcd(R, list(f.coeffs), list(g.coeffs))
            d, u, v = poly_ext_gcd(f, g)
            assert [list(x.coeffs) for x in (d, u, v)] == [rd, ru, rv]
            assert poly_half_ext_gcd(f, g) == (d, u)
            assert all(_canonical(x) for x in (d, u, v))
            assert u * f + v * g == d and d == poly_gcd(f, g)
            assert u.degree < g.degree - d.degree
            if d.degree < g.degree:
                assert v.degree < f.degree - d.degree
            else:
                assert u.is_zero and v == UniPoly.one(F).scale(g._lc_inverse())


def _canonical(f):
    if f.field.char:
        return f.den == 1 and all(0 <= c < f.field.char for c in f.nums)
    return f.den > 0 and math.gcd(f.den, *f.nums) == 1 and (bool(f.nums) or f.den == 1)


def test_canonical_form_equality_and_hash():
    half = UniPoly(QQ, [Fraction(1, 2), Fraction(3, 4)])
    same_half = [
        UniPoly(QQ, [Fraction(2, 4), Fraction(6, 8), 0, 0]),
        UniPoly(QQ, [Fraction(1, -2) * -1, Fraction(-3, -4)]),
        UniPoly(QQ, [Fraction(-1, 2), Fraction(-3, 4)]).scale(Fraction(-1)),
        (half * U("z+1")) // U("z+1"),
        half + UniPoly.zero(QQ),
        UniPoly(QQ, [Fraction(3, 2), Fraction(9, 4)]).scale(Fraction(1, 3)),
    ]
    for g in same_half:
        assert g == half and hash(g) == hash(half)
        assert _canonical(g)
    zeros = [
        UniPoly.zero(QQ),
        UniPoly(QQ, [0, Fraction(0, 5)]),
        half - half,
        half.scale(0),
        U("z") - U("z"),
    ]
    for z in zeros:
        assert z == UniPoly.zero(QQ) and hash(z) == hash(UniPoly.zero(QQ))
        assert z.is_zero and z.degree == -1 and _canonical(z)
    ints = UniPoly(QQ, [2, 4])
    assert ints == UniPoly(QQ, [Fraction(2), Fraction(4)]) and ints.nums == [2, 4]
    F = GF(7)
    g = UniPoly(F, [8, -1, 14])
    assert g == UniPoly(F, [1, 6]) and hash(g) == hash(UniPoly(F, (1, 6, 0)))
    assert _canonical(g) and _canonical(-g) and _canonical(g.monic())
    assert g - g == UniPoly.zero(F) and hash(g - g) == hash(UniPoly.zero(F))
    # the same numerators over different fields are different polynomials
    assert UniPoly(QQ, [1, 1]) != UniPoly(F, [1, 1])
    rng = random.Random(12)
    for _ in range(200):
        a = random_unipoly(rng, QQ, max_deg=4, bound=6)
        b = random_unipoly(rng, QQ, max_deg=3, bound=6, nonzero=True)
        b = b.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        for r in (a + b, a - b, a * b, a % b, a // b, a.monic(), a.derivative(), b.monic()):
            assert _canonical(r)


def _kernel_poly(rng, F, max_deg, nonzero=False):
    while True:
        n = rng.randint(0, max_deg + 1)
        if F.char:
            cs = [rng.randrange(F.char) for _ in range(n)]
        else:
            # non-monic, with denominators and leading coefficients of either sign
            cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
        f = UniPoly(F, cs)
        if not nonzero or not f.is_zero:
            return f


def _kernel_pair(rng, F):
    """A pair of polynomials, often with a common factor, equal, dividing or constant."""
    f, g = _kernel_poly(rng, F, 5), _kernel_poly(rng, F, 5)
    shape = rng.randrange(6)
    if shape == 1:
        h = _kernel_poly(rng, F, 3, nonzero=True)
        f, g = f * h, g * h
    elif shape == 2:
        f = g * _kernel_poly(rng, F, 3)
    elif shape == 3:
        f = g
    elif shape == 4:
        f = _kernel_poly(rng, F, 0)
    elif shape == 5:
        f, g = g, _kernel_poly(rng, F, 0)
    return f, g


@pytest.mark.parametrize("p", [0, 2, 3, 5, 32003, 2**61 - 1])
def test_lcm_cofactors_remainder_and_gcd_match_references(p):
    F = GF(p) if p else QQ
    rng = random.Random(800 + p)
    shapes = {"smaller": 0, "equal": 0, "divides": 0, "constant": 0, "common": 0}
    pairs = [_kernel_pair(rng, F) for _ in range(400)]
    # two constants, whose cofactors are their inverses: negative and rational over Q
    if not p:
        scalars = (Fraction(-3, 4), Fraction(5, 6), -1, 2, Fraction(-7, 9), 1)
    else:
        scalars = range(1, p) if p < 7 else (1, 2, 3, p // 2, p - 2, p - 1)
    constants = [UniPoly.constant(F, c) for c in scalars]
    pairs += [(f, g) for f in constants for g in constants]
    for f, g in pairs:
        if not f.is_zero or not g.is_zero:
            assert poly_gcd(f, g) == reference_poly_gcd(f, g)
        if not g.is_zero:
            r = f % g
            assert r == divrem(f, g)[1]
            if f.degree < g.degree:
                assert r is f
                shapes["smaller"] += 1
        if f.is_zero or g.is_zero:
            continue
        d = reference_poly_gcd(f, g)
        m = exact_div(f * g, d).monic()
        assert lcm_cofactors(f, g) == (exact_div(m, f), exact_div(m, g))
        # the gcd a caller passes, continued from the remainder of f by g
        assert lcm_cofactors(f, g, poly_gcd(g, f % g)) == lcm_cofactors(f, g)
        assert poly_lcm(f, g) == m
        shapes["equal"] += f == g
        shapes["divides"] += (f % g).is_zero
        shapes["constant"] += f.is_constant or g.is_constant
        shapes["common"] += not d.is_constant
        if f.is_constant and g.is_constant:
            inverses = tuple(UniPoly.constant(F, F.inv(h.lc)) for h in (f, g))
            assert lcm_cofactors(f, g) == inverses
    assert min(shapes.values()) >= 20, shapes


@pytest.mark.parametrize("p", [0, 5])
def test_pow_matches_repeated_products(p, monkeypatch):
    F = GF(p) if p else QQ
    rng = random.Random(30 + p)
    polys = [_kernel_poly(rng, F, 4) for _ in range(30)] + [UniPoly.gen(F)]
    for f in polys:
        expected = UniPoly.one(F)
        for n in range(10):
            assert f**n == expected, (f, n)
            expected = expected * f
        assert (f**0).is_one
        with pytest.raises(ValueError):
            f ** -1
    # f**1 is f itself: no product is formed
    calls = []
    mul = UniPoly.__mul__
    monkeypatch.setattr(UniPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    f = _kernel_poly(rng, F, 4, nonzero=True)
    assert f**1 == f and not calls
    assert f**2 == mul(f, f) and len(calls) == 1


@pytest.mark.parametrize("p", [0, 2, 5])
def test_constant_and_equal_operands_match_references(p):
    # the early returns of poly_gcd and __mul__ against the Euclidean loop
    # and a plain convolution; over Q the constants carry denominators and signs
    F = GF(p) if p else QQ
    R = _RefField(p)
    rng = random.Random(900 + p)
    negative = 0
    for _ in range(300):
        f = _kernel_poly(rng, F, 5, nonzero=True)
        c = _kernel_poly(rng, F, 0, nonzero=True)
        negative += c.nums[0] < 0
        twin = UniPoly(F, f.coeffs)
        assert poly_gcd(c, f) == poly_gcd(f, c) == reference_poly_gcd(f, c)
        assert poly_gcd(c, c) == reference_poly_gcd(c, c)
        assert poly_gcd(f, twin) == reference_poly_gcd(f, twin)
        for a, b in ((c, f), (f, c), (c, c), (f, UniPoly.zero(F))):
            got = a * b
            assert list(got.coeffs) == _ref_mul(R, list(a.coeffs), list(b.coeffs))
            assert _canonical(got)
    if not p:
        assert negative >= 50


@pytest.mark.parametrize("p", [0, 2, 5])
def test_content_scale_reads_the_leading_integer(p):
    F = GF(p) if p else QQ
    rng = random.Random(950 + p)
    unit_scales = 0
    for _ in range(300):
        polys = [_kernel_poly(rng, F, 3, nonzero=True) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            # already in printable form up to sign: the scale is 1 or -1
            k = content_scale(F, polys, polys[-1].lc)
            polys = [q.scale(k * rng.choice((1, -1))) for q in polys]
        lead = polys[-1]
        k = content_scale(F, polys, lead.nums[-1])
        assert k == content_scale(F, polys, lead.lc)
        scaled = [q.scale(k) for q in polys]
        if p:
            assert scaled[-1].lc == 1
        else:
            assert all(q.den == 1 for q in scaled)
            assert math.gcd(*(c for q in scaled for c in q.nums)) == 1
            assert scaled[-1].nums[-1] > 0
            if abs(k) == 1:
                assert type(k) is int
                unit_scales += 1
    if not p:
        assert unit_scales >= 100


@pytest.mark.parametrize("p", [0, 5, 2**31 - 1], ids=["Q", "GF5", "GF2^31-1"])
def test_sum_of_products_matches_pairwise_sums(p):
    """One-pass sums of products equal the pairwise sum of the products, canonically.

    Over Q the operands carry mixed denominators and signs, and some are
    constants; factors may be zero, lists may hold one pair or none, and some
    sums are built to cancel to zero.
    """
    F = GF(p) if p else QQ
    R = _RefField(p)
    rng = random.Random(960 + p % 1000)
    seen = {"constant": 0, "zero_factor": 0, "one_pair": 0, "cancels": 0, "mixed_den": 0}
    assert sum_of_products(F, []) == UniPoly.zero(F)
    for _ in range(300):
        pairs = [
            (_kernel_poly(rng, F, rng.choice((0, 2, 5))), _kernel_poly(rng, F, 4))
            for _ in range(rng.randint(1, 5))
        ]
        if rng.random() < 0.25:
            # each pair again with one factor negated: the sum cancels
            pairs += [(-a, b) for a, b in pairs]
            rng.shuffle(pairs)
        expected, ref = UniPoly.zero(F), []
        for a, b in pairs:
            expected = expected + a * b
            ref = _ref_add(R, ref, _ref_mul(R, list(a.coeffs), list(b.coeffs)))
        got = sum_of_products(F, pairs)
        assert got == expected and list(got.coeffs) == ref
        assert _canonical(got)
        seen["constant"] += any(a.is_constant and not a.is_zero for a, _ in pairs)
        seen["zero_factor"] += any(a.is_zero or b.is_zero for a, b in pairs)
        seen["one_pair"] += len(pairs) == 1
        seen["cancels"] += got.is_zero and any(not (a * b).is_zero for a, b in pairs)
        seen["mixed_den"] += len({a.den * b.den for a, b in pairs}) > 1
    assert min(v for k, v in seen.items() if p == 0 or k != "mixed_den") >= 20, seen


def _big_rational(rng, bits):
    return Fraction(rng.randint(-(1 << bits), 1 << bits) or 1, rng.randint(1, 1 << bits))


def _heu_poly(rng, deg, bits):
    """Degree `deg` over Q with numerators and denominators of up to `bits` bits."""
    return UniPoly(QQ, [_big_rational(rng, bits) for _ in range(deg)] + [_big_rational(rng, bits)])


def _heu_pairs(rng):
    """Pairs over Q by shape, each shape drawn 40 times, for the heuristic gcd."""
    pairs = []
    for _ in range(40):
        bits = rng.choice((3, 20, 60))
        cf, cg = (_heu_poly(rng, rng.randint(0, 4), bits) for _ in range(2))
        common = _heu_poly(rng, rng.randint(6, 12), bits)
        pairs.append(("coprime", _heu_poly(rng, rng.randint(1, 8), bits),
                      _heu_poly(rng, rng.randint(1, 8), bits)))
        pairs.append(("high_degree_common", common * cf, common * cg))
        # negative leading terms on both sides and mixed denominators
        lead = UniPoly(QQ, [Fraction(-rng.randint(1, 10**9), rng.randint(1, 10**6))])
        pairs.append(("negative_lead", common * cf * lead, -(common * cg)))
        # a one-term common factor c*z^k
        mono = UniPoly(QQ, [0] * rng.randint(1, 6) + [_big_rational(rng, bits)])
        pairs.append(("one_term", mono * cf * U("z+1"), mono * cg))
        # coprime primitive parts with a common integer content: the gcd is 1
        k = UniPoly.constant(QQ, rng.randint(2, 10**6))
        a = _heu_poly(rng, rng.randint(1, 6), 3)
        pairs.append(("constant_primitive_part", a * k, (a + UniPoly.one(QQ)) * k))
        # b = a*z + a(xi) for the first point xi: the integer gcd there is a(xi)
        # and its digits read back a, which divides a but not b
        nums = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 9)]
        a = UniPoly(QQ, nums)
        xi = 2 * max(map(abs, a.nums)) + 29
        b = a.shift(1) + UniPoly.constant(QQ, sum(c * xi**i for i, c in enumerate(a.nums)))
        pairs.append(("unlucky_first_point", a.scale(_big_rational(rng, bits)), b))
    return pairs


def _count_heuristic(monkeypatch):
    import eliminant.unipoly as unipoly

    answers = {"calls": 0, "answered": 0}
    heu_gcd = unipoly._heu_gcd

    def counted(a, b):
        d = heu_gcd(a, b)
        answers["calls"] += 1
        answers["answered"] += d is not None
        return d

    monkeypatch.setattr(unipoly, "_heu_gcd", counted)
    return answers


def test_heuristic_gcd_matches_remainder_sequence_over_q(monkeypatch):
    answers = _count_heuristic(monkeypatch)
    rng = random.Random(1701)
    common_degrees = []
    for shape, f, g in _heu_pairs(rng):
        expected = reference_poly_gcd(f, g)
        assert poly_gcd(f, g) == expected, shape
        assert poly_gcd(g, f) == expected, shape
        if shape in ("constant_primitive_part", "unlucky_first_point"):
            assert expected.is_one, shape
        else:
            common_degrees.append(expected.degree)
    assert max(common_degrees) >= 12
    # the heuristic, not the fallback, answered nearly every pair
    assert answers["answered"] >= 0.95 * answers["calls"] > 400, answers


def test_remainder_sequence_fallback_when_no_point_is_tried(monkeypatch):
    import eliminant.unipoly as unipoly

    monkeypatch.setattr(unipoly, "_HEU_POINTS", 0)
    answers = _count_heuristic(monkeypatch)
    rng = random.Random(1702)
    for shape, f, g in _heu_pairs(rng):
        expected = reference_poly_gcd(f, g)
        assert poly_gcd(f, g) == expected, shape
        assert poly_gcd(g, f) == expected, shape
    assert answers["answered"] == 0 and answers["calls"] > 400, answers
