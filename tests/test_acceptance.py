"""Acceptance suite: one test per pinned criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time

from eliminant.assembly import (
    assemble,
    gcd_reduce,
    is_member,
    make_reduced,
)
from eliminant.buchberger import (
    bezout_swell_scenario,
    oracle_eliminant,
    oracle_member,
    reduced_groebner,
)
from eliminant.compat import compatible_split, lc_compatibility_check
from eliminant.fields import GF, QQ
from eliminant.multipoly import mon_mul
from eliminant.parser import parse_ideal_file, parse_poly
from eliminant.pqr import (
    project_multipoly,
    proper_divide,
    proper_eliminant,
    properly_reduced,
    residue_context,
)
from eliminant.pseudo import (
    normalize_content,
    pseudo_divide,
    pseudo_eliminant,
    pseudo_reduced,
)
from eliminant.unipoly import UniPoly, poly_gcd, squarefree_decomposition
from util import (
    U,
    ctx3,
    quotients,
    random_member,
    random_multipoly,
    random_unipoly,
    random_zero_dim_ideal,
    reference_gcd_step,
    reference_standard_form,
)

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


def full_pipeline(src_or_ideal):
    ideal = (
        src_or_ideal
        if not isinstance(src_or_ideal, str)
        else parse_ideal_file(src_or_ideal)
    )
    pseudo = pseudo_eliminant([normalize_content(g) for g in ideal.generators])
    if pseudo.inconsistent:
        return ideal, pseudo, None, None
    split = compatible_split(pseudo.eliminant, pseudo.screen_multipliers)
    originals = [g for g in ideal.generators if not g.is_coeff]
    propers = {
        q: proper_eliminant(originals, residue_context(ideal.ctx, q))
        for q in split.composite_divisors()
    }
    return ideal, pseudo, split, assemble(pseudo, split, propers, ideal.ctx)


def proj_norm(text, comp, ctx):
    """The paper's element, projected into the component and scaled to its standard form."""
    return reference_standard_form(project_multipoly(parse_poly(text, ctx), comp.var_ctx))


def report(num, name, ok, elapsed):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s]")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_golden_simple():
    t0 = time.perf_counter()
    ideal, pseudo, split, dec = full_pipeline(SIMPLE)
    chi = U("z^12-3*z^10-2*z^8+4*z^7+6*z^6+14*z^5-15*z^4-17*z^3+z^2+9*z+6")
    ok = pseudo.eliminant == chi
    ok &= [m.monic() for m in pseudo.multipliers] == [
        U("3*z^4-4*z^3-2*z^2+z+1").monic()
    ]
    ok &= dec.eliminant == chi
    comp = dec.components[0]
    ok &= set(comp.basis) == {
        proj_norm(
            "(3*z^4-4*z^3-2*z^2+z+1)*y+2*z^6-z^5-3*z^4+z^2+z+2", comp, ideal.ctx
        ),
        proj_norm(
            "(3*z^4-4*z^3-2*z^2+z+1)*x-z^6+3*z^5+2*z^4-5*z^3-2*z^2+2*z+3",
            comp,
            ideal.ctx,
        ),
    }
    elapsed = time.perf_counter() - t0
    report(1, "golden simple pipeline", ok and elapsed < 1.0, elapsed)


def test_criterion_2_golden_modular():
    t0 = time.perf_counter()
    ideal, pseudo, split, dec = full_pipeline(MODULAR)
    P_tail = (
        "z^13+9*z^12+36*z^11+84*z^10+126*z^9+126*z^8+85*z^7+31*z^6"
        "+19*z^5-9*z^4+4*z^3-4*z^2-3*z-1"
    )
    ok = pseudo.eliminant == U(f"(z-1)^5*z^8*(z+1)^3*({P_tail})").monic()
    ok &= {m.monic() for m in pseudo.multipliers} == {
        U("z^2*(z+1)^3").monic(),
        U("z^4*(z+1)^6-1").monic(),
    }
    ok &= split.compatible_part == U(f"(z-1)^5*({P_tail})").monic()
    ok &= split.composite_divisors() == [U("(z+1)^3"), U("z^8")]
    modular = [c for c in dec.components if c.kind == "modular"]
    ok &= len(modular) == 1 and modular[0].modulus == U("z^6")
    ok &= len(dec.trivial) == 1 and dec.trivial[0].source_modulus == U("(z+1)^3")
    ok &= dec.eliminant == U(f"(z-1)^5*z^6*({P_tail})").monic()
    cp = [c for c in dec.components if c.kind == "compatible"][0]
    ok &= set(cp.basis) == {
        proj_norm("z^2*(z+1)^3*((z^4*(z+1)^6-1)*y+z^4*(z-1)^5)", cp, ideal.ctx),
        proj_norm(
            "z^4*(z+1)^3*((z+1)^3*(z^4*(z+1)^6-1)*x+z^2*(z-1)^5)", cp, ideal.ctx
        ),
    }
    md = modular[0]
    ok &= set(md.basis) == {
        proj_norm("z^2*(z+1)^3*y", md, ideal.ctx),
        proj_norm("y^2", md, ideal.ctx),
        proj_norm("z^2*(z+1)^3*x-y", md, ideal.ctx),
        proj_norm("x^2*y-z^4*(z-1)^5", md, ideal.ctx),
    }
    elapsed = time.perf_counter() - t0
    report(2, "golden modular pipeline", ok and elapsed < 5.0, elapsed)


def test_criterion_3_multiplier_vs_coefficient_criterion():
    t0 = time.perf_counter()
    ideal = parse_ideal_file(COUNT)
    pseudo = pseudo_eliminant([normalize_content(g) for g in ideal.generators])
    ok = pseudo.eliminant == U("y*(y+1)", var="y").monic()
    # multiplier criterion: every factor is coprime to the reduction
    # multipliers, so the whole pseudo-eliminant is certified
    mult_split = compatible_split(pseudo.eliminant, pseudo.multipliers)
    ok &= mult_split.compatible_part == pseudo.eliminant
    # coefficient criterion fails for both factors
    verdicts = lc_compatibility_check(pseudo.eliminant, pseudo.basis)
    by_factor = {v.factor: v.coprime_to_lcs for v in verdicts}
    ok &= by_factor == {U("y", var="y"): False, U("y+1", var="y"): False}
    elapsed = time.perf_counter() - t0
    report(3, "multiplier vs coefficient criterion", ok and elapsed < 0.1, elapsed)


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(402)
    n_ideals = n_probes = 0
    ok = True
    while n_ideals < 200 or n_probes < 1000:
        ctx, gens = random_zero_dim_ideal(rng)
        pseudo = pseudo_eliminant([normalize_content(g) for g in gens])
        gb = reduced_groebner(gens)
        chi_oracle = oracle_eliminant(gb, QQ)
        n_ideals += 1
        if pseudo.inconsistent:
            ok &= chi_oracle.is_one
            continue
        split = compatible_split(pseudo.eliminant, pseudo.screen_multipliers)
        originals = [g for g in gens if not g.is_coeff]
        propers = {
            q: proper_eliminant(originals, residue_context(ctx, q))
            for q in split.composite_divisors()
        }
        dec = assemble(pseudo, split, propers, ctx)
        ok &= dec.eliminant == chi_oracle
        for _ in range(3):
            m = random_member(rng, ctx, gens)
            probes = (m, m + parse_poly("1", ctx), m + parse_poly("y", ctx))
            for p in probes:
                ok &= is_member(p, dec) == oracle_member(p, gb)
                n_probes += 1
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    print(f"    ({n_ideals} ideals, {n_probes} probes)")
    report(4, "oracle equivalence", ok and elapsed < 300.0, elapsed)


def _check_lm_condition(f, quotients, divisors, remainder, order, residue):
    best = None
    for q, b in zip(quotients, divisors):
        if q.is_zero:
            continue
        m = mon_mul(q.lm, b.lm) if residue else (q * b).lm
        if best is None or order.compare(m, best) > 0:
            best = m
    if not remainder.is_zero:
        m = remainder.lm
        if best is None or order.compare(m, best) > 0:
            best = m
    return best == f.lm


def test_criterion_5_division_contracts():
    t0 = time.perf_counter()
    rng = random.Random(405)
    base = ctx3()
    order = base.order
    ok = True

    count = 0
    while count < 1000:
        f = random_multipoly(rng, base)
        divisors = [
            b
            for b in (random_multipoly(rng, base, max_total=2, terms=3) for _ in range(2))
            if not b.is_zero and not b.is_coeff
        ]
        if f.is_zero or not divisors:
            continue
        division = pseudo_divide(f, divisors)
        lhs = f.scale(division.multiplier)
        rhs = division.remainder
        qs = quotients(division)
        for q, b in zip(qs, divisors):
            rhs = rhs + q * b
        ok &= lhs == rhs
        ok &= pseudo_reduced(division.remainder, divisors)
        ok &= _check_lm_condition(
            f, qs, divisors, division.remainder, order, residue=False
        )
        count += 1
    assert ok, "pseudo-division contract failed"

    moduli = [U("z^4"), U("z^2*(z+1)^2"), U("z^3*(z-1)")]
    count = 0
    while count < 1000:
        ctx = residue_context(base, moduli[count % len(moduli)])
        f = project_multipoly(random_multipoly(rng, base), ctx)
        divisors = []
        for _ in range(2):
            b = project_multipoly(random_multipoly(rng, base, max_total=2, terms=3), ctx)
            if not b.is_zero and not b.is_coeff:
                divisors.append(b)
        if f.is_zero or not divisors:
            continue
        division = proper_divide(f, divisors)
        ok &= division.multiplier.is_unit()
        lhs = f.scale(division.multiplier)
        rhs = division.remainder
        qs = quotients(division)
        for q, b in zip(qs, divisors):
            rhs = rhs + q * b
        ok &= lhs == rhs
        ok &= properly_reduced(division.remainder, divisors)
        ok &= _check_lm_condition(
            f, qs, divisors, division.remainder, order, residue=True
        )
        count += 1
    assert ok, "proper-division contract failed"

    count = 0
    while count < 1000:
        ctx = residue_context(base, moduli[count % len(moduli)])
        f = project_multipoly(random_multipoly(rng, base), ctx)
        divisors = []
        for _ in range(2):
            b = project_multipoly(random_multipoly(rng, base, max_total=2, terms=3), ctx)
            if not b.is_zero and not b.is_coeff:
                divisors.append(b)
        if f.is_zero or not divisors:
            continue
        division = gcd_reduce(f, divisors)
        ok &= division.multiplier.is_one
        ok &= all(mu.is_one for mu, _, _ in division.steps)
        lhs = f.scale(division.multiplier)
        rhs = division.remainder
        qs = quotients(division)
        for q, b in zip(qs, divisors):
            rhs = rhs + q * b
        ok &= lhs == rhs
        ok &= gcd_reduce(division.remainder, divisors).remainder == division.remainder
        ok &= all(reference_gcd_step(divisors, m, c) is None for m, c in division.remainder.terms)
        ok &= _check_lm_condition(
            f, qs, divisors, division.remainder, order, residue=True
        )
        count += 1
    elapsed = time.perf_counter() - t0
    report(5, "division contracts x3000", ok, elapsed)


def _squarefree_case(rng, field, force_zero_derivative):
    p = field.char
    f = UniPoly.one(field)
    n_parts = rng.randint(1, 3)
    exps = rng.sample(range(1, 7), n_parts)
    if force_zero_derivative and p:
        exps = [e * p for e in exps]
    for e in exps:
        g = random_unipoly(rng, field, max_deg=2, nonzero=True)
        f = f * g**e
    return f


def test_criterion_6_squarefree_suite():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(406)

    count = 0
    while count < 500:
        f = _squarefree_case(rng, QQ, False)
        if f.is_constant:
            continue
        parts = squarefree_decomposition(f)
        recon = UniPoly.one(QQ)
        for g, e in parts:
            recon = recon * g**e
        ok &= recon.monic() == f.monic()
        for i, (g, _) in enumerate(parts):
            ok &= poly_gcd(g, g.derivative()).is_constant
            for h, _ in parts[i + 1 :]:
                ok &= poly_gcd(g, h).is_constant
        count += 1
    assert ok, "rational squarefree suite failed"

    count = 0
    fields = [GF(2), GF(3), GF(5)]
    while count < 500:
        field = fields[count % 3]
        f = _squarefree_case(rng, field, force_zero_derivative=(count % 4 == 0))
        if f.is_constant:
            continue
        parts = squarefree_decomposition(f)
        recon = UniPoly.one(field)
        for g, e in parts:
            recon = recon * g**e
        ok &= recon.monic() == f.monic()
        for i, (g, _) in enumerate(parts):
            ok &= not g.derivative().is_zero
            ok &= poly_gcd(g, g.derivative()).is_constant
            for h, _ in parts[i + 1 :]:
                ok &= poly_gcd(g, h).is_constant
        count += 1

    F2 = GF(2)
    fixture = UniPoly(F2, (1, 0, 1, 0, 1))
    ok &= squarefree_decomposition(fixture) == [(UniPoly(F2, (1, 1, 1)), 2)]
    elapsed = time.perf_counter() - t0
    report(6, "squarefree suite x1000", ok, elapsed)


def test_criterion_7_reduced_basis_uniqueness():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(407)

    def check_components(dec):
        nonlocal ok
        for comp in dec.components:
            shuffled = list(comp.basis)
            rng.shuffle(shuffled)
            ok &= make_reduced(shuffled) == comp.basis
            ok &= make_reduced(list(reversed(comp.basis))) == comp.basis

    for src in (SIMPLE, MODULAR, COUNT):
        _, _, _, dec = full_pipeline(src)
        if dec is not None:
            check_components(dec)

    checked = 0
    while checked < 50:
        ctx, gens = random_zero_dim_ideal(rng)
        ideal = type("I", (), {"generators": gens, "ctx": ctx})()
        _, _, _, dec = full_pipeline(ideal)
        if dec is None:
            continue
        check_components(dec)
        checked += 1
    elapsed = time.perf_counter() - t0
    report(7, "reduced-basis uniqueness", ok, elapsed)


def test_criterion_8_bezout_swell():
    t0 = time.perf_counter()
    f = U("(7*z^10-9*z^8-21*z^7+13*z^6+29*z^5-34*z^4-56*z^3-14*z^2+3*z+1)^2")
    g = U("(6*z^10+15*z^9+z^8-16*z^7-37*z^6+64*z^5+18*z^4+5*z^3-3*z^2-4*z-1)^2")
    one = UniPoly.one(QQ)
    rpt = bezout_swell_scenario(f, g, one, one)
    ok = rpt.routes_agree
    ok &= rpt.cofactor_f * f + rpt.cofactor_g * g == rpt.gcd
    ok &= rpt.cofactor_bits > rpt.input_bits
    elapsed = time.perf_counter() - t0
    print(
        f"    (input bits {rpt.input_bits}, cofactor bits {rpt.cofactor_bits}, "
        f"cofactor degrees {rpt.cofactor_degrees})"
    )
    report(8, "coefficient swell scenario", ok and elapsed < 1.0, elapsed)
