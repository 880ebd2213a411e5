import random

import pytest

from eliminant.multipoly import (
    ArityMismatchError,
    ContextMismatchError,
    ElimOrder,
    MultiPoly,
    base_context,
    mon_coprime,
    mon_div,
    mon_divides,
    mon_is_one,
    mon_lcm,
    mon_mul,
)
from eliminant.parser import parse_poly
from eliminant.fields import GF, QQ
from eliminant.pqr import (
    _unit_normalize,
    lift_multipoly,
    project_multipoly,
    residue_context,
)
from eliminant.pseudo import normalize_content
from util import (
    P,
    U,
    ctx3,
    random_multipoly,
    random_unipoly,
    reference_mon_coprime,
    reference_mon_div,
    reference_mon_divides,
    reference_mon_is_one,
    reference_mon_lcm,
    reference_mon_mul,
    reference_order_key,
)


def test_compare_examples():
    lex = ElimOrder("lex")
    # (y, x) ascending precedence: x = (0,1), y = (1,0)
    assert lex.compare((0, 1), (1, 0)) > 0          # x > y
    assert lex.compare((1, 1), (1, 1)) == 0
    assert lex.compare((1, 1), (0, 2)) < 0          # x*y < x^2
    with pytest.raises(ArityMismatchError):
        lex.compare((1,), (1, 0))


def test_well_ordering_random():
    rng = random.Random(3)
    for tag in ("lex", "grevlex"):
        order = ElimOrder(tag)
        mons = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(120)]
        one = (0, 0, 0)
        for a in mons:
            assert order.compare(a, one) >= 0
        for _ in range(300):
            a, b, c = rng.choice(mons), rng.choice(mons), rng.choice(mons)
            s = order.compare(a, b)
            assert s == -order.compare(b, a)
            if s != 0:
                assert order.compare(mon_mul(a, c), mon_mul(b, c)) == s
            else:
                assert a == b


def test_leading_examples():
    f = P("-z^2*(z+1)^3*x+y")
    assert f.lm == (0, 1)                      # the monomial x
    assert f.lc == U("-z^2*(z+1)^3")
    e = P("-y^2+z^2*(z+1)^3*y")
    assert e.lm == (2, 0) and e.lc == U("-1")
    g = P("z^5-2*z")
    assert g.is_coeff and g.lm == (0, 0) and g.lc == U("z^5-2*z")


def test_arith_examples():
    f = P("-x+y+z^2-1")
    assert (f + (-f)).is_zero
    g = P("-z*x+y^3+2")
    assert P("z") * f - g == P("-y^3+z*y+z^3-z-2")
    assert P("x+y") * P("x-y") == P("x^2-y^2")


def test_context_mismatch():
    from eliminant.multipoly import base_context

    other = base_context(QQ, "z", ("y", "w"))
    with pytest.raises(ContextMismatchError):
        P("x+y") + MultiPoly.var(other, "w")


def test_lt_multiplicative_random():
    rng = random.Random(4)
    ctx = ctx3()
    for _ in range(200):
        f = random_multipoly(rng, ctx)
        g = random_multipoly(rng, ctx)
        if f.is_zero or g.is_zero:
            continue
        prod = f * g
        assert prod.lm == mon_mul(f.lm, g.lm)
        assert prod.lc == f.lc * g.lc          # K[x1] is an integral domain


def test_print_parse_roundtrip_random():
    rng = random.Random(12)
    for tag in ("lex", "grevlex"):
        from eliminant.multipoly import base_context

        ctx = base_context(QQ, "z", ("y", "x"), tag)
        for _ in range(150):
            f = random_multipoly(rng, ctx)
            assert parse_poly(f.fmt(), ctx) == f


def test_grevlex_vs_lex_differ():
    from eliminant.multipoly import base_context

    lex_ctx = base_context(QQ, "z", ("y", "x"), "lex")
    grev_ctx = base_context(QQ, "z", ("y", "x"), "grevlex")
    f_lex = parse_poly("x^2 + x*y^3", lex_ctx)
    f_grev = parse_poly("x^2 + x*y^3", grev_ctx)
    assert f_lex.lm == (0, 2)       # lex: x^2 wins
    assert f_grev.lm == (3, 1)      # grevlex: total degree wins


def test_mon_lcm():
    assert mon_lcm((2, 0), (1, 3)) == (2, 3)


# -- the operator kernels against their generator forms ------------------------


def _random_monomial(rng, arity):
    """Exponents that are mostly zero or small, sometimes hundreds of digits long."""
    return tuple(
        rng.choice((0, 0, 0, rng.randint(1, 3), rng.randint(1, 1000), 7 ** rng.randint(50, 400)))
        for _ in range(arity)
    )


def _outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except ArithmeticError as exc:
        return ("raised", type(exc), str(exc))


def test_monomial_helpers_match_generator_forms():
    rng = random.Random(18)
    binary = (
        (mon_mul, reference_mon_mul),
        (mon_divides, reference_mon_divides),
        (mon_div, reference_mon_div),
        (mon_lcm, reference_mon_lcm),
        (mon_coprime, reference_mon_coprime),
    )
    raised = 0
    for arity in range(1, 5):
        zero = (0,) * arity
        for _ in range(400):
            a, b = _random_monomial(rng, arity), _random_monomial(rng, arity)
            # b*a is divisible by a, so every helper sees dividing pairs too
            pairs = ((a, b), (b, a), (mon_mul(b, a), a), (a, zero), (zero, a), (a, a))
            for x, y in pairs:
                for fn, ref in binary:
                    assert _outcome(fn, x, y) == _outcome(ref, x, y), (fn.__name__, x, y)
                raised += _outcome(mon_div, x, y)[0] == "raised"
            for m in (a, b, zero):
                assert mon_is_one(m) == reference_mon_is_one(m)
    assert raised > 0


def test_order_keys_match_old_formulas():
    rng = random.Random(181)
    for tag in ("lex", "grevlex"):
        order = ElimOrder(tag)
        for arity in range(1, 5):
            mons = [_random_monomial(rng, arity) for _ in range(60)] + [(0,) * arity]
            for m in mons:
                assert order.key(m) == reference_order_key(tag, m)
            ranked = sorted(mons, key=order.key)
            assert ranked == sorted(mons, key=lambda m: reference_order_key(tag, m))


# -- constructions that keep the order ---------------------------------------------


def _sorting_constructor(monkeypatch):
    """Route MultiPoly.from_sorted through the sorting constructor."""
    monkeypatch.setattr(
        MultiPoly, "from_sorted", classmethod(lambda cls, ctx, terms: cls(ctx, dict(terms)))
    )


def _order_preserving_results(rng, tag):
    """(name, thunk) for every construction that skips the sort, on seeded operands."""
    base = ctx3(tag)
    gf = base_context(GF(5), "z", ("y", "x"), tag)
    big = residue_context(base, U("z^3*(z+1)"))
    small = residue_context(base, U("z^2"))
    # the zero divisor z^2 scales the x^2 and y coefficients to zero mod z^3*(z+1)
    zdiv = project_multipoly(P("z*(z+1)*x^2 + (z+1)*x*y + z^2*(z+1)*y + 3", base), big)
    z2 = big.ring.elem(U("z^2"))
    cases = []
    for _ in range(12):
        f = random_multipoly(rng, base, terms=5)
        g = random_multipoly(rng, gf, terms=5)
        c = random_unipoly(rng, nonzero=True)
        mon = tuple(rng.randint(0, 2) for _ in base.tilde)
        r = project_multipoly(f, big)
        cases += [
            ("scale", lambda f=f, c=c: f.scale(c)),
            ("mul_term", lambda f=f, c=c, mon=mon: f.mul_term(c, mon)),
            ("tail", lambda f=f: f.tail() if f.terms else f),
            ("neg", lambda f=f: -f),
            ("normalize_content Q", lambda f=f: normalize_content(f)),
            ("normalize_content GF", lambda g=g: normalize_content(g)),
            ("project", lambda f=f: project_multipoly(f, big)),
            ("project small", lambda f=f: project_multipoly(f, small)),
            ("lift", lambda r=r: lift_multipoly(r, base)),
            ("unit_normalize", lambda r=r: _unit_normalize(r)),
            ("project residue", lambda r=r: project_multipoly(r, small)),
            ("residue scale", lambda: zdiv.scale(z2)),
            ("residue mul_term", lambda mon=mon: zdiv.mul_term(z2, mon)),
            ("residue tail", lambda r=r: r.tail() if r.terms else r),
        ]
    return cases


@pytest.mark.parametrize("tag", ["lex", "grevlex"])
def test_order_preserving_constructions_match_sorting_constructor(tag, monkeypatch):
    fast = [(name, thunk()) for name, thunk in _order_preserving_results(random.Random(7), tag)]
    _sorting_constructor(monkeypatch)
    slow = [(name, thunk()) for name, thunk in _order_preserving_results(random.Random(7), tag)]
    for (name, a), (_, b) in zip(fast, slow):
        assert a.ctx == b.ctx and a.terms == b.terms, name
    # the residue scale by z^2 keeps only the x*y and constant terms
    scaled = [a for name, a in fast if name == "residue scale"]
    assert all(len(p.terms) == 2 for p in scaled)


def test_from_sorted_drops_zero_coefficients():
    f = P("3*x^2 + (z+1)*x*y - y + 5")
    zero = U("0")
    terms = [(m, zero if k % 2 else c) for k, (m, c) in enumerate(f.terms)]
    assert MultiPoly.from_sorted(f.ctx, terms) == MultiPoly(f.ctx, dict(terms))
    assert MultiPoly.from_sorted(f.ctx, terms).terms == tuple(terms[::2])
