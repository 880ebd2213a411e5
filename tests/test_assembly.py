import gc
import pathlib
import random
import sys
import time

import pytest

from eliminant import assembly, cli, pqr
from eliminant.assembly import (
    Component,
    Decomposition,
    _basis_sorted,
    _gcd_step,
    _lt_reducible,
    assemble,
    component_remainder,
    gcd_reduce,
    is_member,
    lift_component_basis,
    make_irredundant,
    make_minimal,
    make_reduced,
    normal_form,
    standard_form,
)
from eliminant.cli import run_pipeline
from eliminant.compat import compatible_split
from eliminant.engine import divide
from eliminant.fields import GF, QQ
from eliminant.multipoly import MultiPoly, base_context
from eliminant.parser import parse_ideal_file, parse_poly
from eliminant.pqr import (
    PqrElem,
    project_multipoly,
    proper_eliminant,
    residue_context,
    _unit_normalize,
)
from eliminant.pseudo import DEBUG_ENV, StrategyConfig, pseudo_eliminant, normalize_content
from eliminant.unipoly import UniPoly, exact_div, poly_gcd, poly_multi_ext_gcd
from util import (
    STRATEGIES,
    P,
    U,
    quotients,
    random_member,
    random_multipoly,
    random_unipoly,
    random_zero_dim_ideal,
    reference_component_remainder,
    reference_gcd_step,
    reference_make_reduced,
    reference_normalize_content,
    reference_standard_form,
    reference_unit_normalize,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


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


def pipeline(src):
    ideal = parse_ideal_file(src)
    pseudo = pseudo_eliminant([normalize_content(g) for g in ideal.generators])
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


def test_gcd_reduce_trivial_and_self():
    ideal, pseudo, split, dec = pipeline(SIMPLE)
    comp = dec.components[0]
    p = comp.project(P("y^2+3", ideal.ctx))
    division = gcd_reduce(p, comp.basis)
    # y^2 is reducible because the y-element's leading coefficient is a unit
    r = division.remainder
    assert r.is_zero or gcd_reduce(r, comp.basis).remainder == r
    for b in comp.basis:
        assert gcd_reduce(b, comp.basis).remainder.is_zero


def test_gcd_reduce_golden_simple():
    # reducing the projected linear generator by the y-element produces the
    # unique second basis element
    ideal, pseudo, split, dec = pipeline(SIMPLE)
    comp = dec.components[0]
    c = proj_norm("(3*z^4-4*z^3-2*z^2+z+1)*y+2*z^6-z^5-3*z^4+z^2+z+2", comp, ideal.ctx)
    f = proj_norm("-x+y+z^2-1", comp, ideal.ctx)
    division = gcd_reduce(f, [c])
    assert division.multiplier.is_unit()
    b = reference_standard_form(division.remainder)
    assert b == proj_norm(
        "(3*z^4-4*z^3-2*z^2+z+1)*x-z^6+3*z^5+2*z^4-5*z^3-2*z^2+2*z+3",
        comp,
        ideal.ctx,
    )
    # exactness of the division identity
    lhs = f.scale(division.multiplier)
    rhs = division.remainder
    for q, g in zip(quotients(division), [c]):
        rhs = rhs + q * g
    assert lhs == rhs


def test_reduced_basis_golden_simple():
    ideal, pseudo, split, dec = pipeline(SIMPLE)
    comp = dec.components[0]
    expected = {
        proj_norm(
            "(3*z^4-4*z^3-2*z^2+z+1)*y+2*z^6-z^5-3*z^4+z^2+z+2", comp, ideal.ctx
        ),
        proj_norm(
            "(3*z^4-4*z^3-2*z^2+z+1)*x-z^6+3*z^5+2*z^4-5*z^3-2*z^2+2*z+3",
            comp,
            ideal.ctx,
        ),
    }
    assert set(comp.basis) == expected


def test_reduced_bases_golden_modular():
    ideal, pseudo, split, dec = pipeline(MODULAR)
    cp = [c for c in dec.components if c.kind == "compatible"][0]
    md = [c for c in dec.components if c.kind == "modular"][0]
    assert set(cp.basis) == {
        proj_norm("z^2*(z+1)^3*((z^4*(z+1)^6-1)*y+z^4*(z-1)^5)", cp, ideal.ctx),
        proj_norm(
            "z^4*(z+1)^3*((z+1)^3*(z^4*(z+1)^6-1)*x+z^2*(z-1)^5)", cp, ideal.ctx
        ),
    }
    assert set(md.basis) == {
        proj_norm("z^2*(z+1)^3*y", md, ideal.ctx),
        proj_norm("y^2", md, ideal.ctx),
        proj_norm("z^2*(z+1)^3*x-y", md, ideal.ctx),
        proj_norm("x^2*y-z^4*(z-1)^5", md, ideal.ctx),
    }
    assert len(dec.trivial) == 1
    assert dec.trivial[0].source_modulus == U("(z+1)^3")


def test_assemble_eliminants():
    ideal, pseudo, split, dec = pipeline(SIMPLE)
    assert dec.eliminant == pseudo.eliminant
    ideal, pseudo, split, dec = pipeline(MODULAR)
    assert dec.eliminant == U(
        "(z-1)^5*z^6*(z^13+9*z^12+36*z^11+84*z^10+126*z^9+126*z^8"
        "+85*z^7+31*z^6+19*z^5-9*z^4+4*z^3-4*z^2-3*z-1)"
    ).monic()
    # reconstruction identity
    recon = split.compatible_part
    for comp in dec.components:
        if comp.kind == "modular":
            recon = recon * comp.modulus
    assert recon.monic() == dec.eliminant


def test_membership_examples():
    for src in (SIMPLE, MODULAR):
        ideal, pseudo, split, dec = pipeline(src)
        for g in ideal.generators:
            assert is_member(g, dec)
        assert not is_member(parse_poly("1", ideal.ctx), dec)
        assert is_member(MultiPoly.from_coeff(ideal.ctx, dec.eliminant), dec)
        rng = random.Random(51)
        for _ in range(10):
            assert is_member(random_member(rng, ideal.ctx, ideal.generators), dec)


def test_normal_form_properties():
    ideal, pseudo, split, dec = pipeline(SIMPLE)
    ctx = ideal.ctx
    # members collapse to zero
    nf, rems = normal_form(ideal.generators[0], dec)
    assert nf.is_zero and all(r.is_zero for r in rems)
    # chi + 1 has normal form 1
    chi_plus_1 = MultiPoly.from_coeff(ctx, dec.eliminant) + parse_poly("1", ctx)
    nf, _ = normal_form(chi_plus_1, dec)
    assert nf == parse_poly("1", ctx)
    # idempotence on a non-member
    probe = parse_poly("x", ctx)
    nf1, _ = normal_form(probe, dec)
    assert not nf1.is_zero
    nf2, _ = normal_form(nf1, dec)
    assert nf2 == nf1
    diff, _ = normal_form(probe - nf1, dec)
    assert diff.is_zero


def test_normal_form_crt_modular():
    ideal, pseudo, split, dec = pipeline(MODULAR)
    ctx = ideal.ctx
    probe = parse_poly("x*y+z", ctx)
    nf, rems = normal_form(probe, dec)
    assert normal_form(probe - nf, dec)[0].is_zero
    assert normal_form(nf, dec)[0] == nf
    # the recombination projects back onto each component remainder
    for comp, r in zip(dec.components, rems):
        assert component_remainder(nf, comp) == r


@pytest.mark.parametrize("src", [SIMPLE, MODULAR], ids=["one_component", "two_components"])
def test_normal_form_keeps_its_crt_data(src, monkeypatch):
    """A second normal form on the same decomposition runs no extended gcd of its own and agrees.

    Gcd-division in a component outside shape position still inverts units
    through `pqr` on every call; that is the remainder's work, not the CRT's.
    """
    ideal, pseudo, split, dec = pipeline(src)
    probe = parse_poly("x*y + z^2*x - 3", ideal.ctx)
    first = normal_form(probe, dec)
    calls = []

    def spy(fn):
        def wrapped(*args):
            calls.append(args)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(assembly, "poly_half_ext_gcd", spy(assembly.poly_half_ext_gcd))
    assert normal_form(probe, dec) == first
    assert calls == []
    assert dec.crt_data == assembly._crt_data(dec)
    assert len(calls) == len(dec.components)


def test_ladder_fixpoint_and_orders():
    ideal, pseudo, split, dec = pipeline(MODULAR)
    for comp in dec.components:
        assert make_reduced(list(comp.basis)) == comp.basis
        shuffled = list(comp.basis)
        random.Random(7).shuffle(shuffled)
        assert make_reduced(shuffled) == comp.basis


def test_irredundant_and_minimal_invariants():
    ideal, pseudo, split, dec = pipeline(MODULAR)
    comp = [c for c in dec.components if c.kind == "modular"][0]
    basis = [project_multipoly(b, comp.var_ctx) for b in pipelines_raw(comp, ideal)]
    rng = random.Random(8)
    b1 = make_irredundant(list(basis))
    shuffled = list(basis)
    rng.shuffle(shuffled)
    b2 = make_irredundant(shuffled)
    assert {b.lm for b in b1} == {b.lm for b in b2}
    m1 = make_minimal(list(basis))
    m2 = make_minimal(shuffled)
    assert len(m1) == len(m2)
    ring = comp.var_ctx.ring
    lt1 = {(b.lm, tuple(poly_gcd(b.lc.rep, ring.modulus).coeffs)) for b in m1}
    lt2 = {(b.lm, tuple(poly_gcd(b.lc.rep, ring.modulus).coeffs)) for b in m2}
    assert lt1 == lt2


def pipelines_raw(comp, ideal):
    out = proper_eliminant(
        [g for g in ideal.generators if not g.is_coeff],
        residue_context(ideal.ctx, U("z^8")),
    )
    return out.basis


def test_lift_component_basis():
    ideal, pseudo, split, dec = pipeline(SIMPLE)
    comp = dec.components[0]
    lifted = lift_component_basis(comp, ideal.ctx)
    assert lifted[-1] == MultiPoly.from_coeff(ideal.ctx, comp.modulus)
    assert len(lifted) == len(comp.basis) + 1
    for b in lifted[:-1]:
        assert b.ctx == ideal.ctx
    alt = lift_component_basis(comp, ideal.ctx, pseudo_basis=pseudo.basis)
    assert len(alt) == len(pseudo.basis) + 1


def test_decomposition_soundness_random():
    rng = random.Random(52)
    checked = 0
    while checked < 8:
        ideal_ctx, gens = random_zero_dim_ideal(rng, nvars=2)
        try:
            pseudo = pseudo_eliminant([normalize_content(g) for g in gens])
        except Exception:
            continue
        if pseudo.inconsistent:
            continue
        split = compatible_split(pseudo.eliminant, pseudo.screen_multipliers)
        originals = [g for g in gens if not g.is_coeff]
        propers = {
            q: proper_eliminant(originals, residue_context(ideal_ctx, q))
            for q in split.composite_divisors()
        }
        dec = assemble(pseudo, split, propers, ideal_ctx)
        member = random_member(rng, ideal_ctx, gens)
        assert is_member(member, dec)
        probe = member + parse_poly("1", ideal_ctx)
        from eliminant.buchberger import oracle_member, reduced_groebner

        gb = reduced_groebner(gens)
        assert is_member(probe, dec) == oracle_member(probe, gb)
        checked += 1


# -- gcd-division with per-list step tables against the reference step -------------


def _decompose(gens):
    """The decomposition of a nontrivial ideal, None for the unit ideal."""
    pseudo = pseudo_eliminant([normalize_content(g) for g in gens])
    if pseudo.inconsistent:
        return None
    split = compatible_split(pseudo.eliminant, pseudo.screen_multipliers)
    originals = [g for g in gens if not g.is_coeff]
    propers = {
        q: proper_eliminant(originals, residue_context(gens[0].ctx, q))
        for q in split.composite_divisors()
    }
    return assemble(pseudo, split, propers, gens[0].ctx)


def _probe_cases():
    """(generators, decomposition) over Q and GF(5): fixtures and seeded random ideals."""
    cases = []
    for name in ("simple.ideal", "modular.ideal", "twovars.ideal", "triangular_gf5.ideal"):
        text = (FIXTURES / name).read_text()
        variants = [text] + ([text.replace("field Q", "field GF 5")] if name != "twovars.ideal" else [])
        for variant in variants:
            ideal = parse_ideal_file(variant)
            cases.append((ideal.generators, run_pipeline(ideal).decomposition))
    rng = random.Random(404)
    while len(cases) < 20:
        ctx, gens = random_zero_dim_ideal(rng)
        if len(cases) % 2:
            ctx = base_context(GF(5), ctx.x1, ctx.tilde)
            gens = [parse_poly(g.fmt(), ctx) for g in gens]
        dec = _decompose(gens)
        if dec is not None:
            cases.append((gens, dec))
    return cases


def _probes(rng, gens):
    ctx = gens[0].ctx
    probes = [random_multipoly(rng, ctx) for _ in range(4)]
    for _ in range(2):
        member = MultiPoly.zero(ctx)
        for g in gens:
            member = member + random_multipoly(rng, ctx, max_total=1, terms=2) * g
        probes.append(member)
    return [p for p in probes if not p.is_zero]


def test_component_remainder_matches_reference_step():
    rng = random.Random(405)
    seen_members = seen_others = 0
    for gens, dec in _probe_cases():
        for probe in _probes(rng, gens):
            expected = [reference_component_remainder(probe, comp) for comp in dec.components]
            got = [component_remainder(probe, comp) for comp in dec.components]
            assert got == expected
            verdict = all(r.is_zero for r in expected)
            assert is_member(probe, dec) == verdict
            seen_members += verdict
            seen_others += not verdict
    assert seen_members and seen_others


def test_component_remainder_steps_have_multiplier_one():
    """Every gcd-division step against a component basis has multiplier one.

    Each leading coefficient of a reduced basis is a monic divisor of q, so
    the gcd of the eligible ones divides every reducible coefficient, and
    the remainder is the unit-free one with no inverse taken.  A component
    in shape position divides nothing once its substitution is set.
    """
    rng = random.Random(408)
    steps = 0
    for gens, dec in _probe_cases():
        for probe in _probes(rng, gens):
            for comp in dec.components:
                ring = comp.var_ctx.ring
                assert all(b.lc.rep == poly_gcd(b.lc.rep, ring.modulus) for b in comp.basis)
                division = gcd_reduce(comp.project(probe), comp.basis, comp.table)
                assert all(mu.is_one for mu, _, _ in division.steps)
                steps += len(division.steps)
                expected = reference_component_remainder(probe, comp)
                assert component_remainder(probe, comp) == expected
                if comp.substitution is None:
                    assert division.remainder == expected
    assert steps >= 400, steps


def test_gcd_reduce_division_identity_with_component_tables():
    rng = random.Random(406)
    for gens, dec in _probe_cases():
        for probe in _probes(rng, gens):
            for comp in dec.components:
                f = comp.project(probe)
                division = gcd_reduce(f, comp.basis, comp.table)
                assert division.multiplier.is_unit()
                rhs = division.remainder
                for q, b in zip(quotients(division), comp.basis):
                    rhs = rhs + q * b
                assert f.scale(division.multiplier) == rhs
                r = division.remainder
                assert gcd_reduce(r, comp.basis).remainder == r


def test_step_tables_stay_with_their_decomposition():
    """Probes fill the step table of each component outside shape position, and
    the kept images of each component in it, and nothing else.

    Both decompositions have a compatible component in shape position and a
    modular one outside it.
    """
    ideal = parse_ideal_file(MODULAR)
    first = run_pipeline(ideal).decomposition
    assert not any(comp.table or comp.images for comp in first.components)
    for g in ideal.generators:
        assert is_member(g, first)
    assert [comp.substitution is None for comp in first.components] == [False, True]
    assert [bool(comp.table) for comp in first.components] == [False, True]
    assert [bool(comp.images) for comp in first.components] == [True, False]
    del first
    gc.collect()

    ideal = parse_ideal_file(MODULAR.replace("field Q", "field GF 5"))
    second = run_pipeline(ideal).decomposition
    # assembly builds no table, no substitution and no image; the first probe does
    assert not any(comp.table or comp.images for comp in second.components)
    assert not any("substitution" in vars(comp) for comp in second.components)
    rng = random.Random(407)
    for probe in _probes(rng, ideal.generators):
        for comp in second.components:
            expected = reference_component_remainder(probe, comp)
            assert component_remainder(probe, comp) == expected
    assert [comp.substitution is None for comp in second.components] == [False, True]
    assert [bool(comp.table) for comp in second.components] == [False, True]
    assert [bool(comp.images) for comp in second.components] == [True, False]
    for comp in second.components:
        ring = comp.var_ctx.ring
        for hits, (g, cofs) in comp.table.items():
            assert max(hits) < len(comp.basis)
            assert len(cofs) == len(hits)
            assert all(cof.ctx == ring for cof in cofs)
            assert (ring.modulus % g).is_zero
            combo = ring.zero_elem()
            for i, cof in zip(hits, cofs):
                combo = combo + cof * comp.basis[i].lc
            assert combo == ring.elem(g)


# -- membership by substitution in shape position -------------------------------------


def _shape_case(rng, field, shape, constant_u=False):
    """A component over a random modulus, with its decomposition.

    Its basis is the reduced basis of u*y + t_y, x + t_x with u a unit of
    positive degree, or a nonzero constant with constant_u, which is in shape
    position; otherwise x + t_x becomes x^2 + t_x.
    """
    ctx = base_context(field, "z", ("y", "x"))
    while True:
        q = random_unipoly(rng, field, max_deg=4, bound=3)
        u = random_unipoly(rng, field, max_deg=0 if constant_u else 2, bound=3)
        u_degree_ok = u.degree == 0 if constant_u else u.degree >= 1
        if q.degree >= 2 and u_degree_ok and poly_gcd(u, q).is_constant:
            break
    q = q.monic()
    ctx_q = residue_context(ctx, q)
    ring = ctx_q.ring
    t_y, t_x = (MultiPoly.from_coeff(ctx_q, ring.elem(random_unipoly(rng, field))) for _ in "yx")
    y, x = MultiPoly.var(ctx_q, "y"), MultiPoly.var(ctx_q, "x")
    basis = make_reduced([y.scale(ring.elem(u)) + t_y, (x if shape else x * x) + t_x])
    comp = Component(kind="compatible", modulus=q, var_ctx=ctx_q, basis=basis)
    return ctx, comp, Decomposition(eliminant=q, components=[comp], base_ctx=ctx)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_shape_substitution_matches_the_reference_remainder(field, monkeypatch):
    """Shape components answer by substitution, the others by gcd-division; remainders agree."""
    calls = []
    real = assembly.gcd_reduce

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(assembly, "gcd_reduce", counted)
    rng = random.Random(409)
    verdicts = set()
    for n in range(24):
        shape = n % 3 != 0
        ctx, comp, dec = _shape_case(rng, field, shape)
        assert (comp.substitution is not None) == shape
        lifted = lift_component_basis(comp, ctx)
        probes = [random_multipoly(rng, ctx) for _ in range(3)]
        member = MultiPoly.zero(ctx)
        for b in lifted:
            member = member + random_multipoly(rng, ctx, max_total=1, terms=2) * b
        probes += [member, member + MultiPoly.from_coeff(ctx, U("1", field=field))]
        for probe in probes:
            expected = reference_component_remainder(probe, comp)
            calls.clear()
            assert component_remainder(probe, comp) == expected
            verdict = expected.is_zero
            assert is_member(probe, dec) == verdict
            assert len(calls) == (0 if shape else 2)
            verdicts.add((shape, verdict))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("constant_u", [False, True], ids=["unit_u", "constant_u"])
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_substitution_reaches_high_powers_for_constant_and_unit_u(field, constant_u):
    """Probes whose terms need powers of r_i up to 6, in any order, match the reference.

    u is a nonzero constant or a unit of positive degree; each probe is one
    term, or all terms at once, with exponents rising and then falling.
    """
    rng = random.Random(410)
    exponents = [(0, 1), (1, 1), (2, 0), (3, 2), (5, 4), (4, 6), (2, 3), (1, 0), (0, 2)]
    for _ in range(4):
        ctx, comp, _ = _shape_case(rng, field, True, constant_u)
        assert all(b.lc.is_one for b in comp.basis)
        terms = [MultiPoly.term(ctx, random_unipoly(rng, field, nonzero=True), mon) for mon in exponents]
        for probe in terms + [sum(terms, MultiPoly.zero(ctx)) + random_multipoly(rng, ctx, max_total=1)]:
            assert component_remainder(probe, comp) == reference_component_remainder(probe, comp)


@pytest.mark.parametrize("constant_u", [False, True], ids=["unit_u", "constant_u"])
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_kept_images_answer_many_probes_as_the_reference_does(field, constant_u):
    """24 probes of one decomposition read the component's kept images; each matches the reference.

    Monomials repeat with new coefficients and new ones arrive as exponents
    rise to 6 and fall again; every other probe is a member.  The images hold
    one entry per distinct monomial probed, and a second decomposition of the
    same ideal shares no object with them.
    """
    rng = random.Random(411)
    ctx, comp, dec = _shape_case(random.Random(412), field, True, constant_u)
    _, twin, twin_dec = _shape_case(random.Random(412), field, True, constant_u)
    assert twin.basis == comp.basis and twin is not comp
    assert all(b.lc.is_one for b in comp.basis)
    lifted = lift_component_basis(comp, ctx)
    probed, verdicts = set(), set()
    for e in (1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1):
        mons = [(e, 0), (0, e), (e, 6 - e), (e // 2, e), (1, 1)]
        other = sum(
            (MultiPoly.term(ctx, random_unipoly(rng, field, nonzero=True), mon) for mon in mons),
            MultiPoly.zero(ctx),
        )
        member = MultiPoly.zero(ctx)
        for b in lifted:
            member = member + random_multipoly(rng, ctx, max_total=1, terms=2) * b
        member = member * MultiPoly.term(ctx, U("1", field=field), (e // 2, e // 3))
        for probe in (other, member):
            expected = reference_component_remainder(probe, comp)
            verdict = expected.is_zero
            for c, d in ((comp, dec), (twin, twin_dec)):
                assert component_remainder(probe, c) == expected
                assert is_member(probe, d) == verdict
            probed.update(mon for mon, _ in probe.terms)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    # the memory bound: one image per monomial probed, powers only as far as probed
    images = comp.images
    assert {key for key in images if isinstance(key, tuple)} == probed
    n, deg_q = ctx.arity, comp.modulus.degree
    for i in range(n):
        assert 2 <= len(images[i]) <= max(2, max(mon[i] for mon in probed) + 1)
        assert all(p.degree < deg_q for p in images[i])
    assert all(images[mon].degree < n * deg_q for mon in probed)

    def kept(c):
        powers = [p for key, pw in c.images.items() if isinstance(key, int) for p in pw]
        return {id(x) for x in [c.images, *c.images.values(), *powers]}

    assert not kept(comp) & kept(twin)


def test_shape_substitution_reads_r_off_a_canonical_basis_only(monkeypatch):
    """A reduced basis in shape position gives r with no gcd and no inverse.

    A hand-built basis u*y + 1, x + 1 with u != 1 is not a reduced basis,
    whether u is a unit or not: it answers by gcd-division, with the
    remainders of the reference step.
    """
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(assembly, "poly_half_ext_gcd", spy("ext_gcd", assembly.poly_half_ext_gcd))
    monkeypatch.setattr(assembly, "poly_gcd", spy("gcd", assembly.poly_gcd))
    monkeypatch.setattr(pqr, "poly_gcd", spy("gcd", pqr.poly_gcd))
    monkeypatch.setattr(PqrElem, "inverse", spy("inverse", PqrElem.inverse))
    for field in (QQ, GF(5)):
        rng = random.Random(413)
        for constant_u in (False, True):
            for _ in range(4):
                _, comp, _ = _shape_case(rng, field, True, constant_u)
                calls.clear()
                assert comp.substitution is not None
                assert calls == []
        ctx = base_context(field, "z", ("y", "x"))
        q = U("(z+1)*(z+2)", field=field)
        ctx_q = residue_context(ctx, q)
        y, x = MultiPoly.var(ctx_q, "y"), MultiPoly.var(ctx_q, "x")
        one = MultiPoly.from_coeff(ctx_q, ctx_q.ring_one())
        for u in ("z+1", "z+3", "2"):
            basis = [y.scale(ctx_q.ring.elem(U(u, field=field))) + one, x + one]
            comp = Component(kind="compatible", modulus=q, var_ctx=ctx_q, basis=basis)
            calls.clear()
            assert comp.substitution is None
            assert calls == []
            for probe in _probes(rng, [P("y^2 + x", ctx), P("x*y + z", ctx)]):
                division = gcd_reduce(comp.project(probe), basis)
                unit_free = division.remainder.scale(division.multiplier.inverse())
                assert unit_free == reference_component_remainder(probe, comp)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_repeated_probe_sums_in_one_pass(field, monkeypatch):
    """A probe repeated on warmed shape components forms no product and no sum of UniPolys.

    Its images are kept, so the sum of the terms is one `sum_of_products`
    call, and each component `is_member` visits reduces that sum mod q once.
    Verdicts and remainders still match the reference.
    """
    rng = random.Random(414)
    calls = []

    def spy(name):
        real = getattr(UniPoly, name)

        def wrapped(self, other):
            calls.append(name)
            return real(self, other)
        return wrapped

    verdicts = set()
    for _ in range(6):
        ctx, comp, _ = _shape_case(rng, field, True, rng.random() < 0.5)
        _, other, _ = _shape_case(rng, field, True)
        dec = Decomposition(eliminant=comp.modulus * other.modulus, components=[comp, other], base_ctx=ctx)
        members = []
        for c in dec.components:
            member = MultiPoly.zero(ctx)
            for b in lift_component_basis(c, ctx):
                member = member + random_multipoly(rng, ctx, max_total=1, terms=2) * b
            members.append(member)
        # the product of the members lies in both components
        for probe in (random_multipoly(rng, ctx), members[0], members[0] * members[1]):
            expected = [reference_component_remainder(probe, c) for c in dec.components]
            visited = next((k + 1 for k, r in enumerate(expected) if not r.is_zero), 2)
            verdict = all(r.is_zero for r in expected)
            assert is_member(probe, dec) == verdict
            for c in dec.components:
                component_remainder(probe, c)
            with monkeypatch.context() as m:
                for name in ("__mul__", "__add__", "__sub__", "__mod__"):
                    m.setattr(UniPoly, name, spy(name))
                calls.clear()
                assert is_member(probe, dec) == verdict
                assert calls == ["__mod__"] * visited
                for c, r in zip(dec.components, expected):
                    calls.clear()
                    assert component_remainder(probe, c) == r
                    assert calls == ["__mod__"]
            verdicts.add((verdict, visited))
    assert verdicts == {(False, 1), (False, 2), (True, 2)}


def test_slow_q_fixture_probes_are_answered_quickly():
    """Each generator is a member and each generator + 1 is not, all within 5 s.

    Substitution answers these probes in the degree-10 compatible component,
    where gcd-division took seconds per probe before the leading
    coefficients were scaled to one (see the next test).  The other
    component (leading monomial x*y) is outside shape position.
    """
    ideal = parse_ideal_file((FIXTURES / "slow_member_q.ideal").read_text())
    dec = run_pipeline(ideal).decomposition
    one = parse_poly("1", ideal.ctx)
    start = time.perf_counter()
    for g in ideal.generators:
        assert is_member(g, dec)
        assert not is_member(g + one, dec)
    assert time.perf_counter() - start < 5.0
    assert [comp.substitution is None for comp in dec.components] == [False, True]


def test_slow_q_fixture_probe_by_gcd_division_finishes():
    """Gcd-division of a generator in the degree-10 compatible component, within 3 s.

    While the reduced basis kept the units its run gave its leading
    coefficients, the steps inverted unit multipliers and combined leading
    coefficients by extended gcds of representatives of over a thousand
    bits: about 65 s on a 2-vCPU VM on the Euclidean loop over UniPoly
    arithmetic, and 4-5 s on the half-extended kernel.  With every leading
    coefficient one, each step divides and takes under a millisecond.  The
    remainder is zero, as substitution says.
    """
    ideal = parse_ideal_file((FIXTURES / "slow_member_q.ideal").read_text())
    comp = run_pipeline(ideal).decomposition.components[0]
    assert comp.modulus.degree == 10
    g = ideal.generators[1]
    start = time.perf_counter()
    division = gcd_reduce(comp.project(g), comp.basis, comp.table)
    assert time.perf_counter() - start < 3.0
    assert division.remainder.is_zero
    assert assembly._substituted(g, comp, comp.substitution).is_zero


# -- the normalization ladder against the reference ladder ---------------------------


def _ladder_inputs(monkeypatch):
    """Every basis `assemble` hands to `make_reduced`: fixtures and seeded random ideals.

    The fixtures run over Q and GF(5); 16 random ideals alternate between Q
    and GF(5) and between lex and grevlex.
    """
    bases = []
    real = assembly.make_reduced

    def capture(basis):
        bases.append(list(basis))
        return real(basis)

    monkeypatch.setattr(assembly, "make_reduced", capture)
    for name in ("simple.ideal", "modular.ideal", "twovars.ideal", "triangular_gf5.ideal"):
        text = (FIXTURES / name).read_text()
        variants = [text]
        if name != "twovars.ideal":    # not zero-dimensional over GF(5)
            variants.append(text.replace("field Q", "field GF 5"))
        for variant in variants:
            run_pipeline(parse_ideal_file(variant))
    rng = random.Random(501)
    ideals = 0
    while ideals < 16:
        ctx, gens = random_zero_dim_ideal(rng)
        field = GF(5) if ideals % 2 else ctx.field
        ctx = base_context(field, ctx.x1, ctx.tilde, "grevlex" if ideals % 4 >= 2 else "lex")
        gens = [parse_poly(g.fmt(), ctx) for g in gens]
        if _decompose(gens) is not None:
            ideals += 1
    monkeypatch.undo()
    assert len(bases) >= 20
    return bases


def _tied_bases():
    """A basis whose elements tie on (lm, lc degree), in both input orders."""
    base = base_context(QQ, "z", ("y", "x"))
    ctx = residue_context(base, U("z^2*(z+1)"))
    texts = ("y + 2*x", "y + x", "(z+1)*x^2 + y", "(z+2)*x^2 + 1")
    elems = [project_multipoly(P(t, base), ctx) for t in texts]
    return [elems, elems[::-1]]


def test_make_reduced_matches_reference_ladder(monkeypatch):
    bases = _ladder_inputs(monkeypatch) + _tied_bases()
    for basis in bases:
        got = make_reduced(basis)
        expected = reference_make_reduced(basis)
        assert [b.fmt() for b in got] == [b.fmt() for b in expected]
        assert got == expected
    tied_a, tied_b = (make_reduced(basis) for basis in _tied_bases())
    assert tied_a == tied_b



def test_make_reduced_confirms_its_one_pass_under_debug_checks(monkeypatch):
    bases = [b for b in _ladder_inputs(monkeypatch) if len(make_minimal(b)) > 1]
    assert len(bases) >= 10
    reduced = []
    real = assembly.gcd_reduce

    def gcd_reduce(f, divisors, table=None):
        reduced.append(f)
        return real(f, divisors, table)

    monkeypatch.setattr(assembly, "gcd_reduce", gcd_reduce)
    for basis in bases:
        n = len(make_minimal(basis))
        monkeypatch.delenv(DEBUG_ENV, raising=False)
        reduced.clear()
        plain = make_reduced(basis)
        assert len(reduced) == n
        monkeypatch.setenv(DEBUG_ENV, "1")
        reduced.clear()
        assert make_reduced(basis) == plain
        assert len(reduced) == 2 * n

    # a second pass that changes an element fails the check
    def drifting(f, divisors, table=None):
        division = gcd_reduce(f, divisors, table)
        if len(reduced) > len(divisors) + 1:
            shift = tuple(1 for _ in f.lm)
            division.remainder = division.remainder.mul_term(f.ctx.ring_one(), shift)
        return division

    monkeypatch.setattr(assembly, "gcd_reduce", drifting)
    reduced.clear()
    with pytest.raises(AssertionError, match="second tail-reduction pass"):
        make_reduced(bases[0])


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_make_minimal_replacements_keep_their_standard_factor(field, monkeypatch):
    """Elements the minimal pass replaces are deduplicated by their standard factors.

    Over q = z^2*(z+1), z*x*y + x is irredundant beside (z+1)*x + 1 but not
    minimal: the local gcd at x*y is 1.  With (z+1)*x*y + y in its place both
    elements at x*y are replaced and only the first is kept.  Each
    replacement takes the cofactors of one `_lc_gcd` call; debug checks
    confirm that its leading coefficient is its standard factor, and the
    ladder matches the reference.
    """
    replacements = []
    real = assembly._lc_gcd

    def counted(*args):
        replacements.append(1)
        return real(*args)

    monkeypatch.setattr(assembly, "_lc_gcd", counted)
    monkeypatch.setenv(DEBUG_ENV, "1")
    base = base_context(field, "z", ("y", "x"))
    ctx = residue_context(base, U("z^2*(z+1)", field=field))
    ring = ctx.ring
    cases = (
        (("z*x*y + x", "(z+1)*x + 1"), 1, ["x + 1", "1"]),
        (("z*x*y + x", "(z+1)*x*y + y", "x^2 + 1"), 2, ["1", "1"]),
    )
    for texts, replaced, factors in cases:
        elems = [project_multipoly(P(t, base), ctx) for t in texts]
        for basis in (elems, elems[::-1]):
            replacements.clear()
            minimal = make_minimal(basis)
            assert len(replacements) == replaced
            assert [poly_gcd(b.lc.rep, ring.modulus).fmt() for b in minimal] == factors
            assert make_reduced(basis) == reference_make_reduced(basis)


@pytest.mark.parametrize("field", [GF(3), GF(5), QQ], ids=["GF3", "GF5", "Q"])
def test_lc_gcd_on_standard_divisors_ignores_the_modulus(field):
    """On standard-form divisors `_lc_gcd` is the gcd of the leading coefficients alone.

    Their leading coefficients are monic divisors of q, so their gcd already
    divides q and appending q changes neither g nor the cofactors: every
    step on a reduced basis is the one the leading coefficients alone give.
    """
    rng = random.Random(2805)
    base = base_context(field, "z", ("y", "x"))
    q = U("z^2*(z+1)*(z+2)", field=field)
    ctx = residue_context(base, q)
    ring = ctx.ring
    heads = [U(h, field=field) for h in ("1", "z", "z^2+z", "z^3", "z^2*(z+2)", "(z+1)^2", "z-1")]
    shapes = {"x*y": "y + x", "x": "y + 1", "y^2": "y + z"}
    proper = 0
    for _ in range(300):
        divisors = []
        for _ in range(rng.randint(1, 4)):
            lm = rng.choice(list(shapes))
            b = P(lm, base).scale(rng.choice(heads)) + P(shapes[lm], base).scale(
                random_unipoly(rng, field, max_deg=2, bound=2)
            )
            b = project_multipoly(b, ctx)
            if not b.is_zero and not b.is_coeff:
                divisors.append(standard_form(b))
        hits = tuple(i for i in range(len(divisors)) if rng.random() < 0.7)
        if not hits:
            continue
        g, cofs = assembly._lc_gcd(divisors, hits, ring)
        expected, lc_cofs = poly_multi_ext_gcd([divisors[i].lc.rep for i in hits])
        assert g == expected
        assert cofs == [ring.elem(cof) for cof in lc_cofs]
        proper += not g.is_one
    assert proper >= 80, proper


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=["GF2", "GF3", "GF5", "Q"])
def test_coprime_adjust_builds_a_unit_lift(field):
    """w*d == g mod q and gcd(w, q) == 1, also where g/d itself shares a factor with q.

    g takes a factor of q to a higher power than q has, so g/d keeps it and
    w needs the correction t*(q/d) with t != 0.
    """
    rng = random.Random(803)
    corrected = 0
    for _ in range(300):
        factors = [random_unipoly(rng, field, max_deg=2, bound=3) for _ in range(rng.randint(1, 3))]
        factors = [f.monic() for f in factors if not f.is_constant] or [U("z+1", field=field)]
        q = UniPoly.one(field)
        g = random_unipoly(rng, field, max_deg=2, bound=3, nonzero=True)
        for f in factors:
            q = q * f ** rng.randint(1, 2)
            g = g * f ** rng.randint(0, 3)
        d = poly_gcd(g, q)
        w = assembly._coprime_adjust(g, d, q)
        assert ((w * d - g) % q).is_zero
        assert poly_gcd(w, q).is_constant
        corrected += not poly_gcd(exact_div(g, d), q).is_constant
    assert corrected >= 100


@pytest.mark.parametrize("field", [GF(3), GF(5), QQ], ids=["GF3", "GF5", "Q"])
def test_unit_lifts_match_the_references_on_lifted_bases(field, monkeypatch):
    """The ladder and gcd-division agree with their references where the unit lift matters.

    Leading coefficients are a factor of q times a cofactor, so lc/gcd(lc, q)
    is often not constant, and not coprime to q when lc takes a factor of q
    to a higher power than q has.  The reference ladder builds its own unit
    lift, so a wrong `_coprime_adjust` in `standard_form` fails here as well
    as in its property test.  On standard-form divisors (built by the
    reference, so the counts stay the ladder's) gcd-division gives the
    reference step's remainder exactly.  On the raw divisors, where a
    remainder is not unique, it is checked by its contract: multiplier one,
    the division identity, and no reference step left on the remainder.
    """
    rng = random.Random(2104)
    base = base_context(field, "z", ("y", "x"))
    q = U("z^2*(z+1)*(z+2)", field=field)
    ctx = residue_context(base, q)
    heads = [
        U(h, field=field)
        for h in ("1", "z", "z+1", "z^3", "z^3*(z+1)", "z^3*(z+2)", "(z+1)^2*(z+2)", "z*(z+1)^2")
    ]
    extras = [U(h, field=field) for h in ("1", "z-1", "z+2", "z^2+2")]
    shapes = {"x*y": ("y", "1"), "x": ("y", "1"), "x^2": ("x", "y"), "y^2": ("y", "1")}
    calls = {"lifted": 0, "corrected": 0}
    real = assembly._coprime_adjust

    def counted(g, d, modulus):
        a = exact_div(g, d)
        calls["lifted"] += not a.is_constant
        calls["corrected"] += not poly_gcd(a, modulus).is_constant
        return real(g, d, modulus)

    monkeypatch.setattr(assembly, "_coprime_adjust", counted)

    def element(extra):
        lm = rng.choice(list(shapes))
        terms = {P(lm, base).lm: rng.choice(heads) * extra}
        for mon in shapes[lm]:
            terms[P(mon, base).lm] = random_unipoly(rng, field, max_deg=2, bound=2)
        return project_multipoly(MultiPoly(base, terms), ctx)

    for _ in range(400):
        extra = rng.choice(extras)
        basis = [b for b in (element(extra) for _ in range(rng.randint(2, 4))) if not b.is_coeff]
        if not basis:
            continue
        got = make_reduced(basis)
        assert got == reference_make_reduced(basis)
        f = project_multipoly(random_multipoly(rng, base, max_total=3, terms=4), ctx)
        if f.is_zero or not got:
            continue
        standard = [reference_standard_form(b) for b in basis]
        new = gcd_reduce(f, standard)
        ref = divide(f, standard, reference_gcd_step)
        assert new.multiplier.is_one
        assert new.remainder == ref.remainder.scale(ref.multiplier.inverse())
        raw = gcd_reduce(f, basis)
        assert all(mu.is_one for mu, _, _ in raw.steps)
        rhs = raw.remainder
        for quo, b in zip(quotients(raw), basis):
            rhs = rhs + quo * b
        assert rhs == f
        assert all(reference_gcd_step(basis, mon, c) is None for mon, c in raw.remainder.terms)
    assert calls["lifted"] >= 30 and calls["corrected"] >= 15, calls


def test_basis_sorted_breaks_ties_by_format():
    def old_order(elems):
        return sorted(elems, key=lambda b: (b.ctx.order.key(b.lm), b.lc.rep.degree, b.fmt()))

    rng = random.Random(502)
    for elems in _tied_bases():
        for _ in range(10):
            rng.shuffle(elems)
            got = _basis_sorted(elems)
            assert all(a is b for a, b in zip(got, old_order(elems)))
    # the tie-break ran: two elements share (lm, lc degree)
    keys = [(b.lm, b.lc.rep.degree) for b in _tied_bases()[0]]
    assert len(set(keys)) < len(keys)


def test_lt_reducible_matches_full_step(monkeypatch):
    reducible = irreducible = 0
    for basis in _ladder_inputs(monkeypatch) + _tied_bases():
        basis = [b for b in basis if not b.is_zero]
        for i, b in enumerate(basis):
            rest = basis[:i] + basis[i + 1 :]
            if not rest:
                continue
            verdict = _lt_reducible(b, rest)
            assert verdict == (_gcd_step(rest, b.lm, b.lc, {}) is not None)
            reducible += verdict
            irreducible += not verdict
    assert reducible and irreducible


def test_normalizers_return_normalized_input_unchanged():
    rng = random.Random(503)
    scaled = unchanged = 0
    for field in (QQ, GF(5)):
        ctx = base_context(field, "z", ("y", "x"))
        ring_ctx = residue_context(ctx, parse_poly("z^3 + 2*z + 1", ctx).as_coeff())
        for _ in range(40):
            f = random_multipoly(rng, ctx)
            if f.is_zero:
                continue
            g = normalize_content(f)
            assert g == reference_normalize_content(f)
            assert normalize_content(g) is g
            r = project_multipoly(f, ring_ctx)
            if r.is_zero:
                continue
            s = _unit_normalize(r)
            assert s == reference_unit_normalize(r)
            assert _unit_normalize(s) is s
            scaled += s is not r
            unchanged += s is r
    assert scaled and unchanged


def test_proper_bases_over_their_component_ring_need_no_projection(monkeypatch):
    """Projecting a proper basis onto the ring it is already over changes nothing.

    `assemble` uses such a basis as it is, as every one is under base change;
    without it the temporary eliminant's ring differs and the basis is
    projected.  The runs cover the modular fixtures and the first 50 ideals of
    the benchmark's seed-701 `modular_gf` pool, under both strategies.
    """
    monkeypatch.syspath_prepend(str(FIXTURES.parents[1] / "perfbench"))
    sys.modules.pop("gen", None)
    import gen

    names = ["modular.ideal", "grevlex_gf5.ideal", "triangular_gf5.ideal"]
    texts = [(FIXTURES / n).read_text() for n in names]
    texts += [p.read_text() for p in sorted((FIXTURES / "rebase").glob("*.ideal"))]
    workload = gen.WORKLOADS["modular_gf"]
    texts += [workload.case(701, i).text for i in range(50)]
    seen = []
    assemble_ = cli.assemble
    monkeypatch.setattr(cli, "assemble", lambda *a: seen.append(a) or assemble_(*a))
    counts = {}
    for toggles in ("", "no-base-change"):
        used = projected = 0
        for text in texts:
            seen.clear()
            run_pipeline(parse_ideal_file(text), StrategyConfig.from_toggles(toggles))
            if not seen:
                continue    # inconsistent
            _, _, propers, base_ctx = seen[0]
            for q, outcome in propers.items():
                if outcome.inconsistent:
                    continue
                delta = q if outcome.eliminant is None else outcome.eliminant
                ring_ctx = residue_context(base_ctx, delta)
                for b in outcome.basis:
                    if b.ctx != ring_ctx:
                        projected += 1
                        continue
                    again = project_multipoly(b, b.ctx)
                    assert [m for m, _ in again.terms] == [m for m, _ in b.terms]
                    for (_, c), (_, d) in zip(again.terms, b.terms):
                        assert c == d and c.rep == d.rep
                    used += 1
        counts[toggles] = (used, projected)
    assert counts[""][0] >= 100 and counts[""][1] == 0, counts
    assert counts["no-base-change"][1] >= 10, counts


# -- one basis per component, whatever the strategy ----------------------------------


# seed-701 `modular_gf` pool ideals whose bases differed between strategies
# while each leading coefficient kept the unit its run gave it
STRATEGY_DEPENDENT = (90, 94, 182, 190, 194, 282, 290, 294, 382, 390, 394)


def test_component_bases_are_identical_under_every_strategy(monkeypatch):
    """A component that two strategies both find, with one modulus, has one reduced basis.

    The runs differ in the pairs they skip, the rebases they make and so in
    the unit multiples and tails of their elements; `make_reduced` brings
    every leading coefficient to its standard factor.  `modular.ideal` finds
    its modular component modulo z^6 from the composite divisor z^8 under
    some strategies and from z^6 under others.
    """
    monkeypatch.syspath_prepend(str(FIXTURES.parents[1] / "perfbench"))
    sys.modules.pop("gen", None)
    import gen

    workload = gen.WORKLOADS["modular_gf"]
    texts = [(FIXTURES / "modular.ideal").read_text()]
    texts += [workload.case(701, i).text for i in STRATEGY_DEPENDENT]
    shared = 0
    for text in texts:
        bases = {}
        for toggles in STRATEGIES:
            report = run_pipeline(parse_ideal_file(text), StrategyConfig.from_toggles(toggles))
            for comp in report.decomposition.components:
                bases.setdefault(comp.modulus, set()).add(tuple(b.fmt() for b in comp.basis))
        assert all(len(found) == 1 for found in bases.values()), text
        shared += len(bases)
    assert shared >= len(texts)
