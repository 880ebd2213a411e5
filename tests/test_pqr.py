import pathlib
import random
import sys
from fractions import Fraction

import pytest

from eliminant import engine
from eliminant.assembly import Component, component_remainder, is_member, lift_component_basis
from eliminant.buchberger import oracle_eliminant, oracle_member, reduced_groebner
from eliminant.cli import run_pipeline
from eliminant.engine import Elimination, check_triangular_identity, spoly, triangular_multiplier
from eliminant.fields import GF, QQ
from eliminant.multipoly import MultiPoly, base_context, mon_lcm, mon_mul
from eliminant.parser import parse_ideal_file, parse_poly
from eliminant.pqr import (
    NotAUnitError,
    PqrCtx,
    ZeroElementError,
    project_multipoly,
    proper_divide,
    proper_eliminant,
    properly_reduced,
    residue_context,
)
from eliminant.pseudo import StrategyConfig
from eliminant.unipoly import UniPoly, poly_ext_gcd, poly_gcd
from util import (
    P,
    U,
    ctx3,
    quotients,
    random_multipoly,
    random_unipoly,
    reference_poly_lcm,
    reference_spoly,
)


MODULAR_SRC = """
field Q
vars z < y < x
ideal:
-z^2*(z+1)^3*x+y
z^4*(z+1)^6*x-y^2
-x^2*y+y^3+z^4*(z-1)^5
"""


def up_to_unit_scalar(f, g):
    if f.is_zero or g.is_zero:
        return f.is_zero and g.is_zero
    if f.lm != g.lm:
        return False
    return f.scale(g.lc) == g.scale(f.lc)


def rc(modulus_text: str):
    return residue_context(ctx3(), U(modulus_text))


def test_projection_examples():
    ctx = rc("z^8")
    ring = ctx.ring
    assert ring.elem(U("z^8")).is_zero
    assert ring.elem(U("z^9+z")).rep == U("z")
    ctx_p = rc("(z+1)^3")
    f = P("-z^2*(z+1)^3*x+y")
    assert project_multipoly(f, ctx_p) == parse_poly("y", ctx_p)
    # projection is a ring homomorphism on random samples
    rng = random.Random(41)
    base = ctx3()
    for _ in range(60):
        a = random_multipoly(rng, base)
        b = random_multipoly(rng, base)
        pa, pb = project_multipoly(a, ctx), project_multipoly(b, ctx)
        assert project_multipoly(a + b, ctx) == pa + pb
        assert project_multipoly(a * b, ctx) == pa * pb


def test_units_and_inverse():
    ring = PqrCtx(U("z^8"))
    one = ring.one_elem()
    assert one.is_unit() and one.inverse() == one
    a = ring.elem(U("z+1"))
    assert a.is_unit()
    assert a * a.inverse() == one
    assert not ring.elem(U("z")).is_unit()
    with pytest.raises(NotAUnitError):
        ring.elem(U("z")).inverse()


@pytest.mark.parametrize(
    "field, modulus",
    [(QQ, "z^4*(z+1)^2"), (GF(2), "z^3*(z+1)^2"), (GF(5), "z^3*(z+2)^2")],
    ids=["Q", "GF2", "GF5"],
)
def test_is_unit_agrees_with_gcd_against_modulus(field, modulus):
    ring = PqrCtx(U(modulus, field=field))
    rng = random.Random(77)
    constants = 0
    for _ in range(200):
        if rng.random() < 0.5:
            n = rng.randint(-4, 4)
            c = Fraction(n, rng.randint(1, 4)) if not field.char else n % field.char
            e = ring.elem(UniPoly.constant(field, c))
            constants += 1
        else:
            e = ring.elem(random_unipoly(rng, field, max_deg=6, bound=4))
        expected = not e.is_zero and poly_gcd(e.rep, ring.modulus).is_constant
        assert e.is_unit() == expected
        # constants are inverted in the field, other units by the extended gcd
        if e.is_zero:
            with pytest.raises(NotAUnitError, match="^zero has no inverse$"):
                e.inverse()
            continue
        d, u, _ = poly_ext_gcd(e.rep, ring.modulus)
        if expected:
            assert e.inverse() == ring.elem(u) and (e * e.inverse()).is_one
        else:
            with pytest.raises(NotAUnitError) as info:
                e.inverse()
            assert str(info.value) == f"{e.rep.fmt()} shares {d.fmt()} with the modulus"
    assert constants >= 50
    assert not ring.zero_elem().is_unit() and ring.one_elem().is_unit()


def test_standard_factor():
    ring = PqrCtx(U("z^8"))
    assert ring.elem(U("z+1")).standard_factor() == ring.one_elem()
    assert ring.elem(U("-z^6*(6*z+1)")).standard_factor() == ring.elem(U("z^6"))
    assert ring.elem(U("z^4*(z+1)")).standard_factor() == ring.elem(U("z^4"))
    with pytest.raises(ZeroElementError):
        ring.zero_elem().standard_factor()


def _modular_run_elements():
    """The residue images of the worked three-generator ideal over z^8."""
    ideal = parse_ideal_file(MODULAR_SRC)
    ctx8 = residue_context(ideal.ctx, U("z^8"))
    f, g, h = (project_multipoly(p, ctx8) for p in ideal.generators)
    d = project_multipoly(
        parse_poly("z^2*((-9*z^5-z^4+z^3+3*z^2+3*z+1)*y-2*z^5+z^4)", ideal.ctx), ctx8
    )
    e = project_multipoly(parse_poly("-y^2+z^2*(z+1)^3*y", ideal.ctx), ctx8)
    return ctx8, f, g, h, d, e


def test_spoly_q_examples():
    ctx8, f, g, h, d, e = _modular_run_elements()
    s = spoly(d, e)
    assert up_to_unit_scalar(s, parse_poly("z^4*(18*z^3+16*z^2+6*z+1)*y", ctx8))

    # modulus form over the rebased ring
    ideal = parse_ideal_file(MODULAR_SRC)
    ctx6 = residue_context(ideal.ctx, U("z^6"))
    f6 = project_multipoly(ideal.generators[0], ctx6)
    s6 = spoly(f6, ctx6.ring.modulus)
    assert up_to_unit_scalar(s6, parse_poly("z^4*y", ctx6))

    # coprime monomials with unit gcd: S equals (f1*g - g1*f)/d
    a = parse_poly("y^2+z", ctx8)
    b = parse_poly("x+z+1", ctx8)
    dd = ctx8.ring.elem(poly_gcd(a.lc.rep, b.lc.rep))
    assert dd.is_unit()
    s = spoly(a, b)
    assert s.scale(dd) == a.tail() * b - b.tail() * a


def test_spoly_q_multipliers_nonzero():
    rng = random.Random(42)
    ctx = rc("z^4*(z+1)^2")
    ring = ctx.ring
    base = ctx3()
    for _ in range(200):
        f = project_multipoly(random_multipoly(rng, base), ctx)
        g = project_multipoly(random_multipoly(rng, base), ctx)
        if f.is_zero or g.is_zero or f.is_coeff or g.is_coeff:
            continue
        from eliminant.unipoly import exact_div, poly_lcm

        lf, lg = f.lc.rep, g.lc.rep
        m_f = ring.elem(exact_div(poly_lcm(lf, lg), lf))
        m_g = ring.elem(exact_div(poly_lcm(lf, lg), lg))
        assert not m_f.is_zero and not m_g.is_zero
        s = spoly(f, g)
        if not s.is_zero:
            assert ctx.order.compare(s.lm, mon_lcm(f.lm, g.lm)) < 0


def _headed(rng, base, ctx, heads):
    """A residue-context polynomial whose leading coefficient has a factor from `heads`.

    The factors divide the modulus, so lcm(lc f, lc g) often vanishes mod q.
    """
    F = base.field
    while True:
        f = random_multipoly(rng, base)
        if f.is_zero or f.is_coeff:
            continue
        head = rng.choice(heads) * random_unipoly(rng, F, max_deg=1, bound=2, nonzero=True)
        terms = dict(f.terms)
        terms[f.lm] = head
        p = project_multipoly(MultiPoly(base, terms), ctx)
        if not p.is_coeff:
            return p


@pytest.mark.parametrize(
    "field, modulus, heads",
    [
        (QQ, "z^4*(z+1)^2", ("z^4", "(z+1)^2", "z^4*(z+1)", "z^3*(z+1)^2", "-3*z^2*(z+1)")),
        (GF(5), "z^3*(z+2)^2", ("z^3", "(z+2)^2", "z^3*(z+2)", "3*z*(z+2)^2", "z^2")),
    ],
    ids=["Q", "GF5"],
)
def test_spoly_matches_reference_in_residue_rings(field, modulus, heads):
    """The one-pass S-polynomial equals the lcm-and-subtract form on representatives mod q."""
    rng = random.Random(43)
    base = base_context(field, "z", ("y", "x"))
    ctx = residue_context(base, U(modulus, field=field))
    ring = ctx.ring
    heads = [U(h, field=field) for h in heads]
    vanishing = 0
    for _ in range(200):
        f, g = _headed(rng, base, ctx, heads), _headed(rng, base, ctx, heads)
        assert spoly(f, g, check=True) == reference_spoly(f, g)
        for c in (g.lc, ring.elem(rng.choice(heads))):
            if not c.is_zero:
                assert spoly(f, c, check=True) == reference_spoly(f, c)
        vanishing += ring.elem(reference_poly_lcm(f.lc.rep, g.lc.rep)).is_zero
    assert vanishing >= 30, vanishing


def test_proper_divide_examples():
    ctx8, f, g, h, d, e = _modular_run_elements()
    p = parse_poly("x^2+y", ctx8)
    division = proper_divide(p, [d])
    assert division.multiplier.rep.is_one and division.remainder == p

    s = spoly(d, e)
    division = proper_divide(s, [d])
    assert division.remainder.is_zero
    assert division.multiplier.is_unit()

    # the S(d, f) chain ends at the temporary eliminant -z^6(6z+1)
    s = spoly(d, f)
    division = proper_divide(s, [d, e, f, g, h])
    assert division.remainder.is_coeff
    r = division.remainder.as_coeff()
    assert r.standard_factor() == ctx8.ring.elem(U("z^6"))


def test_proper_division_contract_random():
    rng = random.Random(43)
    ctx = rc("z^3*(z-1)^2")
    base = ctx3()
    order = ctx.order
    for _ in range(150):
        f = project_multipoly(random_multipoly(rng, base), ctx)
        divisors = []
        for _ in range(2):
            b = project_multipoly(random_multipoly(rng, base, max_total=2, terms=3), ctx)
            if not b.is_zero and not b.is_coeff:
                divisors.append(b)
        if f.is_zero or not divisors:
            continue
        division = proper_divide(f, divisors)
        assert division.multiplier.is_unit()
        lhs = f.scale(division.multiplier)
        rhs = division.remainder
        qs = quotients(division)
        for q, b in zip(qs, divisors):
            rhs = rhs + q * b
        assert lhs == rhs
        assert properly_reduced(division.remainder, divisors)
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


def test_triangular_identity_q_random():
    rng = random.Random(44)
    ctx = rc("z^4")
    base = ctx3()
    hits = 0
    while hits < 30:
        f = project_multipoly(random_multipoly(rng, base), ctx)
        g = project_multipoly(random_multipoly(rng, base), ctx)
        h = project_multipoly(random_multipoly(rng, base), ctx)
        if any(p.is_zero or p.is_coeff for p in (f, g, h)):
            continue
        if triangular_multiplier(f, g, h) is None:
            continue
        assert check_triangular_identity(f, g, h)
        hits += 1


def test_proper_eliminant_golden():
    ideal = parse_ideal_file(MODULAR_SRC)
    gens = ideal.generators
    out = proper_eliminant(gens, residue_context(ideal.ctx, U("z^8")))
    assert out.eliminant == U("z^6")
    assert not out.inconsistent
    assert out.basis_var_ctx.ring.modulus == U("z^6")

    out3 = proper_eliminant(gens, residue_context(ideal.ctx, U("(z+1)^3")))
    assert out3.inconsistent and out3.eliminant_code == "1"


def test_proper_eliminant_golden_no_base_change():
    ideal = parse_ideal_file(MODULAR_SRC)
    strategy = StrategyConfig(base_change=False)
    out = proper_eliminant(
        ideal.generators, residue_context(ideal.ctx, U("z^8")), strategy
    )
    assert out.eliminant == U("z^6")
    # the intermediate univariate-coefficient element from the worked run
    expect = parse_poly(
        "z^2*((-9*z^5-z^4+z^3+3*z^2+3*z+1)*y-2*z^5+z^4)", ideal.ctx
    )
    want = project_multipoly(expect, out.basis_var_ctx)
    assert any(up_to_unit_scalar(b, want) for b in out.basis)


def test_proper_eliminant_rebase_during_initialization():
    # the first generator dies to a univariate residue and shrinks the
    # modulus before the remaining generators are even loaded
    ctx = rc("z^4")
    gens = [P("z^4*x+z^2"), P("x+y"), P("y^2+z")]
    out = proper_eliminant(gens, ctx)
    assert out.basis_var_ctx.ring.modulus.degree <= 2
    for b in out.basis:
        assert b.ctx == out.basis_var_ctx


def test_rebase_moves_only_the_basis(monkeypatch):
    # this fixture rebases twice, the first time with pairs against other
    # slots and against the modulus queued; queued pairs are formed when
    # popped, so the rebase projects each basis element once, retired ones
    # included, and nothing else
    seen = []
    remap = Elimination.remap

    def counted_remap(run, move):
        moved = []

        def counted_move(f):
            moved.append(f)
            return move(f)

        queued, retired = list(run.queue), [run.arena[k] for k in run.superseded]
        elements = run.polys() + retired
        out = remap(run, counted_move)
        seen.append((queued, elements, moved, len(retired)))
        return out

    monkeypatch.setattr(Elimination, "remap", counted_remap)
    path = pathlib.Path(__file__).parent / "fixtures" / "rebase" / "gf2_unit_a.ideal"
    run_pipeline(parse_ideal_file(path.read_text()))
    assert len(seen) == 2 and seen[0][0] and seen[0][3] == 5
    for queued, elements, moved, _ in seen:
        assert sorted(map(id, moved)) == sorted(map(id, elements))
        assert not any(isinstance(x, MultiPoly) for entry in queued for x in entry)


# in the residue run of this Q ideal modulo z^2 the third generator projects
# to 3*z, so the run rebases to z while it loads, with two generators read
REBASE_WHILE_LOADING_Q = """field Q
vars z < y < x
ideal:
-1*x^1 + 1*z^2*y^1*x^2 + -2*y^2*x^1
1*z^2*y^2 + 3*z^1*x^2 + -2*z^1*y^2*x^2 + -2*y^2
3*z^1 + 1*z^2*y^2*x^2
"""


def test_rebase_while_loading_decides_no_pair_twice(monkeypatch):
    # the rebase decides the pairs of the generators read so far, and the
    # first batch after loading decides only the pairs that have no decision
    events = []
    remap, decide_batch = Elimination.remap, Elimination.decide_batch

    def spy_remap(run, move):
        events.append((run, "remap", 0))
        return remap(run, move)

    def spy_batch(run, pairs):
        again = sum(frozenset(p) in run.decided_pairs for p in pairs)
        events.append((run, "batch", again))
        decide_batch(run, pairs)

    monkeypatch.setattr(Elimination, "remap", spy_remap)
    monkeypatch.setattr(Elimination, "decide_batch", spy_batch)
    ideal = parse_ideal_file(REBASE_WHILE_LOADING_Q)
    eliminant = run_pipeline(ideal).decomposition.eliminant
    runs = {}
    for run, kind, again in events:
        runs.setdefault(run, []).append((kind, again))
    # some run rebases before it decides its first batch: while loading
    assert any(log[0][0] == "remap" for log in runs.values())
    assert all(again == 0 for log in runs.values() for _, again in log)
    assert eliminant == U(
        "z^11 - 4*z^9 + 2/3*z^8 + 4*z^7 + 40/3*z^6 + 1/9*z^5 + 56/3*z^4 - 100/9*z^3 + 2500/9*z"
    )
    assert run_pipeline(ideal, StrategyConfig(base_change=False)).decomposition.eliminant == (
        eliminant
    )


# over GF(5) the composite divisor z^3 runs a residue ring in which
# h = z^2*x*y arrives while g = z^2*x^2*y + 3*z^2*x is in the basis, with the
# pair (g, h) queued: lm h divides lm g and lc h = lc g, so h supersedes g
RETIRING_GF5 = """field GF 5
vars z < y < x
ideal:
z^3
2*y^2*x + 2*y
4*z^2*x + 3*z^2*y*x^2
"""


def _agrees_with_oracle(ideal, dec, probes=()):
    gb = reduced_groebner(ideal.generators)
    assert dec.eliminant == oracle_eliminant(gb, ideal.field)
    for text in probes:
        probe = parse_poly(text, ideal.ctx)
        assert is_member(probe, dec) == oracle_member(probe, gb), text


def _spy_on_the_basis_update(monkeypatch):
    """Log ("retired", g, queued pairs naming g) and ("formed", f, g) in run order."""
    log = []
    retire, form = Elimination.retire, engine.spoly

    def spy_retire(run, slot):
        before = set(run.superseded)
        retire(run, slot)
        for k in run.superseded - before:
            g = run.arena[k]
            assert all(f is not g for f in run.polys())
            log.append(("retired", g, [e for e in run.queue if k in e[2:]]))

    def spy_spoly(f, g, check=False):
        log.append(("formed", f, g))
        return form(f, g, check)

    monkeypatch.setattr(Elimination, "retire", spy_retire)
    monkeypatch.setattr(engine, "spoly", spy_spoly)
    return log


def test_residue_run_retires_superseded_elements(monkeypatch):
    log = _spy_on_the_basis_update(monkeypatch)
    ideal = parse_ideal_file(RETIRING_GF5)
    dec = run_pipeline(ideal).decomposition
    retired = [(n, g, queued) for n, (kind, g, queued) in enumerate(log) if kind == "retired"]
    # the first retirement leaves the pair (g, h) queued; it is still formed
    n, g, queued = retired[0]
    assert g == parse_poly("z^2*y*x^2 + 3*z^2*x", g.ctx) and len(queued) == 1
    assert any(kind == "formed" and g in ops for kind, *ops in log[n + 1 :])
    _agrees_with_oracle(ideal, dec, ("z^2*x", "z^2*y", "z^2", "x*y^2 + y", "z^2*x*y + 1"))
    # only the triangular criterion retires elements
    log.clear()
    assert run_pipeline(ideal, StrategyConfig(triangular_skip=False)).decomposition == dec
    assert not any(kind == "retired" for kind, *_ in log)


def test_rebase_restores_retired_elements(monkeypatch):
    # the first rebase of this fixture finds five retired elements: they are
    # put back into the basis and projected with it, and every pair of the
    # basis it leaves is decided, also a pair of a retired element with one
    # inserted after it was retired
    restored = []
    remap = Elimination.remap

    def spy_remap(run, move):
        retired = set(run.superseded)
        out = remap(run, move)
        assert not run.superseded
        # each is back in the basis, or left the run as a univariate member
        assert all(k in run.slots() or run.arena[k] is None for k in retired)
        ids = run.slots()
        pairs = [frozenset((i, j)) for a, i in enumerate(ids) for j in ids[a + 1 :]]
        assert all(p in run.decided_pairs for p in pairs)
        restored.append(len(retired))
        return out

    monkeypatch.setattr(Elimination, "remap", spy_remap)
    path = pathlib.Path(__file__).parent / "fixtures" / "rebase" / "gf2_unit_a.ideal"
    ideal = parse_ideal_file(path.read_text())
    _agrees_with_oracle(ideal, run_pipeline(ideal).decomposition, ("y", "z*x + 1"))
    assert restored[0] == 5


def test_rebase_keeps_the_decisions_of_restored_elements():
    # the run mod (z+3)^5 retires ten elements before it first rebases.  A
    # rebase that dropped their decisions and queued pairs and decided all
    # their pairs again stopped this run at (z+3)^2.  The eliminant is the
    # Buchberger oracle's, which takes about a minute on this ideal.
    ideal = parse_ideal_file(
        "field GF 5\nvars z < y < x\nideal:\n"
        "-1*z^2*y^2 + 2*y^2 + -2*z^1*y^1*x^2\n"
        "-3*x^2 + -3*z^2*y^1 + -2*z^1 + 1*y^1*x^1\n"
        "-1*z^1*x^2 + 1*z^2*y^2*x^2 + -2*z^2*x^2 + 1*y^2\n"
    )
    F = ideal.field
    out = proper_eliminant(ideal.generators, residue_context(ideal.ctx, U("z^5+3", field=F)))
    assert out.eliminant == U("z+3", field=F)
    eliminant = run_pipeline(ideal).decomposition.eliminant
    assert eliminant == U(
        "z^20 + 4*z^19 + z^18 + 4*z^17 + 4*z^16 + z^15 + 2*z^14 + 2*z^13 + 4*z^11 + 4*z^10"
        " + 4*z^9 + 4*z^8 + 3*z^7 + 2*z^6 + 2*z^5 + 3*z^4 + 4*z^3",
        field=F,
    )


def _from_field_poly(g, ctx) -> MultiPoly:
    """An oracle polynomial over ctx, its powers of x1 gathered into coefficients."""
    F = ctx.field
    coeffs = {}
    for (k, *tail), c in g.items():
        coeffs.setdefault(tuple(tail), {})[k] = c
    terms = {m: [cs.get(k, F.zero) for k in range(max(cs) + 1)] for m, cs in coeffs.items()}
    return MultiPoly(ctx, {m: UniPoly(F, cs) for m, cs in terms.items()})


def test_component_bases_span_the_ideal_plus_their_modulus(monkeypatch):
    # on pool ideals whose residue runs retire elements, each component's
    # lifted basis, with its modulus, lies in I + (modulus), and every
    # generator, and every element of the oracle's basis of I + (modulus),
    # reduces to zero in the component
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    sys.modules.pop("gen", None)
    import gen

    log = _spy_on_the_basis_update(monkeypatch)
    workload = gen.WORKLOADS["modular_gf"]
    components = 0
    for i in range(100):
        ideal = parse_ideal_file(workload.case(701, i).text)
        dec = run_pipeline(ideal).decomposition
        for comp in dec.components:
            if not isinstance(comp, Component):
                continue
            modulus = MultiPoly.from_coeff(ideal.ctx, comp.modulus)
            gb = reduced_groebner(ideal.generators + [modulus])
            assert all(oracle_member(b, gb) for b in lift_component_basis(comp, dec.base_ctx))
            for g in ideal.generators + [_from_field_poly(b, ideal.ctx) for b in gb]:
                assert component_remainder(g, comp).is_zero
            components += 1
    assert components > 150
    assert sum(kind == "retired" for kind, *_ in log) > 50


def test_proper_eliminant_unit_lc_guard():
    # F = {y} over z^2: no pairs, leading coefficient is a unit, so no
    # modulus pairs are generated and the eliminant stays zero
    ctx = rc("z^2")
    out = proper_eliminant([P("y")], ctx)
    assert out.eliminant is None and not out.inconsistent
    assert len(out.basis) == 1 and out.basis[0] == parse_poly("y", ctx)


def test_post_hoc_proper_spoly_check():
    # over the final ring every basis pair's S-polynomial properly reduces
    # into the eliminant ideal (zero, since the ring is already rebased)
    ideal = parse_ideal_file(MODULAR_SRC)
    out = proper_eliminant(ideal.generators, residue_context(ideal.ctx, U("z^8")))
    basis = out.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = spoly(basis[i], basis[j])
            if s.is_zero:
                continue
            r = proper_divide(s, basis).remainder
            if not r.is_zero:
                assert r.is_coeff and r.as_coeff().is_zero
        if not basis[i].lc.is_unit():
            s = spoly(basis[i], out.basis_var_ctx.ring.modulus)
            if not s.is_zero:
                r = proper_divide(s, basis).remainder
                if not r.is_zero:
                    assert r.is_coeff and r.as_coeff().is_zero


def test_incompatible_multiplicity_consequence():
    # z^8 component yields z^6: the true eliminant carries z exactly 6 times
    ideal = parse_ideal_file(MODULAR_SRC)
    from eliminant.buchberger import oracle_eliminant, reduced_groebner
    from util import multiplicity

    chi = oracle_eliminant(reduced_groebner(ideal.generators), QQ)
    assert multiplicity(U("z"), chi) == 6
    assert multiplicity(U("z+1"), chi) == 0
