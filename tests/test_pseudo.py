import pathlib
import random
from fractions import Fraction

import pytest

import eliminant.engine as engine
from eliminant.cli import run_pipeline
from eliminant.fields import GF, QQ
from eliminant.multipoly import MultiPoly, base_context, mon_lcm, mon_mul
from eliminant.parser import parse_ideal_file
from eliminant.engine import (
    Elimination,
    check_triangular_identity,
    coprime_multiplier,
    spoly,
    triangular_multiplier,
)
from eliminant.pseudo import (
    DEBUG_ENV,
    NotZeroDimensionalError,
    StrategyConfig,
    pseudo_divide,
    pseudo_eliminant,
    pseudo_reduced,
)
from eliminant.unipoly import UniPoly, poly_gcd
from eliminant.buchberger import oracle_eliminant, reduced_groebner
from util import (
    P,
    U,
    ctx3,
    quotients,
    random_multipoly,
    random_unipoly,
    random_zero_dim_ideal,
    reference_spoly,
    reference_try_triangular,
)


def up_to_unit(f, g):
    """Equality of two polynomials up to a nonzero field constant."""
    if f.is_zero or g.is_zero:
        return f.is_zero and g.is_zero
    if f.lm != g.lm:
        return False
    fl, gl = f.lc, g.lc
    # cross-multiply to avoid division
    return f.scale(gl) == g.scale(fl) or f.scale(-gl) == g.scale(-fl)


SIMPLE = """
field Q
vars z < y < x
ideal:
-x+y+z^2-1
-z*x+y^3+2
x^2+x-z*y
"""

MODULAR = """
field Q
vars z < y < x
ideal:
-z^2*(z+1)^3*x+y
z^4*(z+1)^6*x-y^2
-x^2*y+y^3+z^4*(z-1)^5
"""

COUNT = """
field Q
vars y < x
ideal:
y*(x^2+1)
(y+1)*(2*x+1)
"""


def test_spoly_examples():
    c2 = parse_ideal_file(COUNT).ctx
    f = P("y*(x^2+1)", c2)
    g = P("(y+1)*(2*x+1)", c2)
    assert up_to_unit(spoly(f, g), P("-y*(y+1)*(x-2)", c2))

    fs = parse_ideal_file(SIMPLE).generators
    assert up_to_unit(spoly(fs[0], fs[1]), P("-y^3+z*y+z^3-z-2"))

    fm = parse_ideal_file(MODULAR).generators
    assert up_to_unit(spoly(fm[0], fm[1]), P("-y^2+z^2*(z+1)^3*y"))


def test_spoly_leading_monomial_decreases():
    rng = random.Random(21)
    ctx = ctx3()
    order = ctx.order
    for _ in range(300):
        f = random_multipoly(rng, ctx)
        g = random_multipoly(rng, ctx)
        if f.is_zero or g.is_zero or f.is_coeff or g.is_coeff:
            continue
        s = spoly(f, g)
        gamma = mon_lcm(f.lm, g.lm)
        if not s.is_zero:
            assert order.compare(s.lm, gamma) < 0


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_spoly_matches_reference(field, order):
    """The one-pass S-polynomial equals the lcm-and-subtract form over K[x1]."""
    rng = random.Random(27)
    ctx = base_context(field, "z", ("y", "x"), order)
    checked = 0
    while checked < 150:
        f = random_multipoly(rng, ctx, unideg=3)
        g = random_multipoly(rng, ctx, unideg=3)
        if f.is_zero or f.is_coeff or g.is_zero:
            continue
        if not field.char:
            # non-monic leading coefficients with denominators, of either sign
            k = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
            f = f.scale(UniPoly.constant(field, k))
        assert spoly(f, g, check=True) == reference_spoly(f, g)
        c = random_unipoly(rng, field, max_deg=3, nonzero=True)
        assert spoly(f, c, check=True) == reference_spoly(f, c)
        checked += 1


def test_debug_checks_catch_spoly_leading_terms_that_do_not_cancel(monkeypatch):
    right = engine.lcm_cofactors

    def wrong(f, g):
        cf, cg = right(f, g)
        return cf + UniPoly.one(cf.field), cg

    monkeypatch.setattr(engine, "lcm_cofactors", wrong)
    f, g, _ = parse_ideal_file(MODULAR).generators
    spoly(f, g)
    spoly(f, g.lc)
    for other in (g, g.lc, MultiPoly.from_coeff(f.ctx, g.lc)):
        with pytest.raises(AssertionError, match="leading terms do not cancel"):
            spoly(f, other, check=True)
    monkeypatch.setenv(DEBUG_ENV, "1")
    # pairs are formed when popped, so under the default strategy the
    # triangular identity check meets the bad cofactors first
    with pytest.raises(AssertionError):
        run_pipeline(parse_ideal_file(MODULAR))
    with pytest.raises(AssertionError, match="leading terms do not cancel"):
        run_pipeline(parse_ideal_file(MODULAR), StrategyConfig.from_toggles("no-triangular-skip"))


def test_debug_checks_follow_one_switch_on_every_entry_point(monkeypatch):
    # the environment variable is the only switch: a strategy passed in,
    # or the search called directly, checks the triangular identity too
    ideal = parse_ideal_file((FIXTURES / "modular.ideal").read_text())
    calls = []
    real = engine.check_triangular_identity

    def counted(f, g, h):
        calls.append(1)
        return real(f, g, h)

    monkeypatch.setattr(engine, "check_triangular_identity", counted)
    entry_points = (
        lambda: run_pipeline(ideal),
        lambda: run_pipeline(ideal, StrategyConfig()),
        lambda: pseudo_eliminant(ideal.generators),
    )
    for setting, expect in (("1", True), ("0", False)):
        monkeypatch.setenv(DEBUG_ENV, setting)
        for run in entry_points:
            calls.clear()
            run()
            assert bool(calls) == expect
    assert len(StrategyConfig.__dataclass_fields__) == 4


def test_pseudo_divide_examples():
    gens = parse_ideal_file(SIMPLE).generators
    f, g, h = gens
    # an already reduced polynomial comes back untouched
    p = P("y^2+z")
    division = pseudo_divide(p, [h])
    assert division.multiplier.is_one and division.remainder == p
    assert all(q.is_zero for q in quotients(division))

    s = spoly(f, h)
    division = pseudo_divide(s, [f])
    assert division.multiplier.is_constant
    assert up_to_unit(division.remainder, P("y^2+(2*z^2-z-1)*y+z^2*(z^2-1)"))

    c = P("(3*z^4-4*z^3-2*z^2+z+1)*y+2*z^6-z^5-3*z^4+z^2+z+2")
    d = P("y^2+(2*z^2-z-1)*y+z^2*(z^2-1)")
    division = pseudo_divide(spoly(c, d), [c])
    assert division.multiplier.monic() == U("3*z^4-4*z^3-2*z^2+z+1").monic()
    chi = U(
        "z^12-3*z^10-2*z^8+4*z^7+6*z^6+14*z^5-15*z^4-17*z^3+z^2+9*z+6"
    )
    assert division.remainder.is_coeff
    assert division.remainder.as_coeff().monic() == chi


def test_division_contract_random():
    rng = random.Random(22)
    ctx = ctx3()
    order = ctx.order
    for _ in range(200):
        f = random_multipoly(rng, ctx)
        divisors = [
            b
            for b in (random_multipoly(rng, ctx, max_total=2, terms=3) for _ in range(2))
            if not b.is_zero and not b.is_coeff
        ]
        if not divisors or f.is_zero:
            continue
        division = pseudo_divide(f, divisors)
        lhs = f.scale(division.multiplier)
        rhs = division.remainder
        qs = quotients(division)
        for q, b in zip(qs, divisors):
            rhs = rhs + q * b
        assert lhs == rhs
        assert pseudo_reduced(division.remainder, divisors)
        # leading-monomial condition
        best = None
        for q, b in zip(qs, divisors):
            if q.is_zero:
                continue
            m = mon_mul(q.lm, b.lm)
            if best is None or order.compare(m, best) > 0:
                best = m
        if not division.remainder.is_zero:
            m = division.remainder.lm
            if best is None or order.compare(m, best) > 0:
                best = m
        assert best == f.lm


def test_coprime_multiplier():
    fm = parse_ideal_file(MODULAR).generators
    f = fm[0]
    d_elem = P("z^2*(z+1)^3*((z^4*(z+1)^6-1)*y+z^4*(z-1)^5)")
    # leading monomials y and x are coprime
    d = coprime_multiplier(d_elem, f)
    assert d == U("z^2*(z+1)^3")
    assert coprime_multiplier(P("x*y+1"), P("x+1")) is None
    assert coprime_multiplier(P("y^2+z"), P("x+z")) == UniPoly.one(QQ)


def test_coprime_criterion_soundness_random():
    # d * S(f,g) == (f - lt f) * g - (g - lt g) * f, exactly, once the
    # monic normalization of gcd and lcm is compensated by the leading
    # scalars of the two leading coefficients
    rng = random.Random(23)
    ctx = ctx3()
    for _ in range(300):
        f = random_multipoly(rng, ctx)
        g = random_multipoly(rng, ctx)
        if f.is_zero or g.is_zero or f.is_coeff or g.is_coeff:
            continue
        d = coprime_multiplier(f, g)
        if d is None:
            continue
        s = spoly(f, g)
        k = UniPoly.constant(QQ, f.lc.lc * g.lc.lc)
        assert s.scale(d).scale(k) == f.tail() * g - g.tail() * f


def test_triangular_multiplier_examples():
    gens = parse_ideal_file(SIMPLE).generators
    f, g, h = gens
    lam = triangular_multiplier(g, h, f)
    assert lam is not None and lam.is_constant

    fm = parse_ideal_file(MODULAR).generators
    e = P("-y^2+z^2*(z+1)^3*y")
    lam = triangular_multiplier(e, fm[2], fm[0])
    assert lam is not None and lam.monic() == U("z^2*(z+1)^3").monic()

    assert triangular_multiplier(f, g, h) is None  # lcm not divisible by lm h


def test_triangular_identity_expansion_random():
    rng = random.Random(24)
    ctx = ctx3()
    hits = 0
    while hits < 50:
        f = random_multipoly(rng, ctx)
        g = random_multipoly(rng, ctx)
        h = random_multipoly(rng, ctx)
        if any(p.is_zero or p.is_coeff for p in (f, g, h)):
            continue
        if triangular_multiplier(f, g, h) is None:
            continue
        assert check_triangular_identity(f, g, h)
        hits += 1


def test_pseudo_eliminant_golden_simple():
    out = pseudo_eliminant(parse_ideal_file(SIMPLE).generators)
    assert out.eliminant == U(
        "z^12-3*z^10-2*z^8+4*z^7+6*z^6+14*z^5-15*z^4-17*z^3+z^2+9*z+6"
    )
    assert [m.monic() for m in out.multipliers] == [
        U("3*z^4-4*z^3-2*z^2+z+1").monic()
    ]
    assert len(out.basis) == 6
    assert out.lc_gcds == []


def test_pseudo_eliminant_golden_modular():
    out = pseudo_eliminant(parse_ideal_file(MODULAR).generators)
    chi = U("(z-1)^5*z^8*(z+1)^3*(z^13+9*z^12+36*z^11+84*z^10+126*z^9"
            "+126*z^8+85*z^7+31*z^6+19*z^5-9*z^4+4*z^3-4*z^2-3*z-1)")
    assert out.eliminant == chi.monic()
    assert {m.monic() for m in out.multipliers} == {
        U("z^2*(z+1)^3").monic(),
        U("z^4*(z+1)^6-1").monic(),
    }
    assert len(out.basis) == 5


def test_pseudo_eliminant_golden_count():
    out = pseudo_eliminant(parse_ideal_file(COUNT).generators)
    assert out.eliminant == U("y^2+y", var="y")
    assert out.multipliers == []
    assert len(out.basis) == 2


def test_pseudo_eliminant_not_zero_dimensional():
    gens = [P("x+z")]
    with pytest.raises(NotZeroDimensionalError):
        pseudo_eliminant(gens)


def test_pseudo_eliminant_inconsistent_constant():
    out = pseudo_eliminant([P("x"), P("3")])
    assert out.inconsistent and out.eliminant.is_one


def test_post_hoc_spoly_remainders():
    # for every pair in basis+eliminant the S-polynomial pseudo-reduces to a
    # univariate remainder, necessarily a multiple of the true eliminant
    # (pairs the run reduced itself are folded into the pseudo-eliminant's
    # gcd, but an independent re-reduction of a skipped pair may land on a
    # different multiple, so the true eliminant is the right modulus here)
    chis = {
        SIMPLE: U(
            "z^12-3*z^10-2*z^8+4*z^7+6*z^6+14*z^5-15*z^4-17*z^3+z^2+9*z+6"
        ),
        MODULAR: U(
            "(z-1)^5*z^6*(z^13+9*z^12+36*z^11+84*z^10+126*z^9+126*z^8"
            "+85*z^7+31*z^6+19*z^5-9*z^4+4*z^3-4*z^2-3*z-1)"
        ).monic(),
    }
    for src, chi in chis.items():
        out = pseudo_eliminant(parse_ideal_file(src).generators)
        assert (out.eliminant % chi).is_zero
        items = list(out.basis)
        for i in range(len(items)):
            partners = items[i + 1 :] + [out.eliminant]
            for g in partners:
                s = spoly(items[i], g)
                if s.is_zero:
                    continue
                division = pseudo_divide(s, out.basis)
                r = division.remainder
                assert r.is_coeff
                if not r.as_coeff().is_zero:
                    assert (r.as_coeff() % chi).is_zero


def test_chi_eps_divisible_by_oracle_eliminant_random():
    rng = random.Random(25)
    for _ in range(25):
        ctx, gens = random_zero_dim_ideal(rng)
        try:
            out = pseudo_eliminant(gens)
        except NotZeroDimensionalError:
            pytest.fail("constructed ideal should be zero-dimensional")
        if out.inconsistent:
            continue
        chi = oracle_eliminant(reduced_groebner(gens), QQ)
        assert (out.eliminant % chi).is_zero


def test_strategy_toggles_same_eliminant():
    base = pseudo_eliminant(parse_ideal_file(MODULAR).generators)
    for cfg in (
        StrategyConfig(coprime_skip=False),
        StrategyConfig(triangular_skip=False),
        StrategyConfig(chi_delta=False),
        StrategyConfig(coprime_skip=False, triangular_skip=False),
    ):
        out = pseudo_eliminant(parse_ideal_file(MODULAR).generators, cfg)
        # pseudo-eliminants may differ between strategies, but both must be
        # multiples of the same true eliminant; check via mutual gcd degree
        assert poly_gcd(out.eliminant, base.eliminant).degree >= 24


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _triangular_decisions(try_triangular):
    """Each triangular decision, and the queue after each batch of pairs.

    The runs cover every fixture ideal outside `fixtures/hard_q`, with and
    without base change, and seeded random ideals over Q, so both rings
    decide pairs.  The reference search, with the remainder-sequence gcd for
    every candidate, takes minutes on `hard_q/found_q.ideal`.
    """
    log = []
    decide_batch = Elimination.decide_batch

    def logged_try(run, i, j):
        hit = try_triangular(run, i, j)
        log.append(("try", i, j, hit))
        return hit

    def logged_batch(run, pairs):
        decide_batch(run, pairs)
        log.append(("batch", list(run.queue)))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Elimination, "_try_triangular", logged_try)
        m.setattr(Elimination, "decide_batch", logged_batch)
        for path in sorted(FIXTURES.glob("**/*.ideal")):
            if path.parent.name == "hard_q":
                continue
            for toggles in ("", "no-base-change"):
                ideal = parse_ideal_file(path.read_text())
                run_pipeline(ideal, StrategyConfig.from_toggles(toggles))
        rng = random.Random(909)
        for _ in range(20):
            _, gens = random_zero_dim_ideal(rng)
            pseudo_eliminant(gens)
    return log


def test_try_triangular_matches_per_candidate_loop():
    got = _triangular_decisions(Elimination._try_triangular)
    assert got == _triangular_decisions(reference_try_triangular)
    # the runs do excuse pairs through a third element
    assert sum(entry[0] == "try" and entry[3] for entry in got) >= 20
