import pathlib
import random
import sys
from fractions import Fraction

import pytest

from eliminant import cli, engine, pqr
from eliminant.assembly import (
    Component,
    assemble,
    component_remainder,
    is_member,
    lift_component_basis,
)
from eliminant.buchberger import oracle_eliminant, oracle_member, reduced_groebner
from eliminant.cli import run_pipeline
from eliminant.compat import compatible_split
from eliminant.engine import Elimination, check_triangular_identity, spoly, triangular_multiplier
from eliminant.fields import GF, QQ
from eliminant.multipoly import MultiPoly, base_context, mon_lcm, mon_mul
from eliminant.parser import parse_ideal_file, parse_poly
from eliminant.pqr import (
    NotAUnitError,
    PqrCtx,
    project_multipoly,
    proper_divide,
    proper_eliminant,
    properly_reduced,
    residue_context,
)
from eliminant.pseudo import NotZeroDimensionalError, StrategyConfig, pseudo_eliminant
from eliminant.unipoly import UniPoly, poly_ext_gcd, poly_gcd, squarefree_part
from test_differential import random_ideal_text
from util import (
    STRATEGIES,
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
    assert ring.elem(U("z^9+z")) == U("z")
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
    assert ring.is_unit(one) and ring.inverse(one) == one
    a = ring.elem(U("z+1"))
    assert ring.is_unit(a)
    assert ring.mul(a, ring.inverse(a)) == one
    assert not ring.is_unit(ring.elem(U("z")))
    with pytest.raises(NotAUnitError):
        ring.inverse(ring.elem(U("z")))


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
        expected = not e.is_zero and poly_gcd(e, ring.modulus).is_constant
        assert ring.is_unit(e) == expected
        # constants are inverted in the field, other units by the extended gcd
        if e.is_zero:
            with pytest.raises(NotAUnitError, match="^zero has no inverse$"):
                ring.inverse(e)
            continue
        d, u, _ = poly_ext_gcd(e, ring.modulus)
        if expected:
            assert ring.inverse(e) == ring.elem(u) and ring.mul(e, ring.inverse(e)).is_one
        else:
            with pytest.raises(NotAUnitError) as info:
                ring.inverse(e)
            assert str(info.value) == f"{e.fmt()} shares {d.fmt()} with the modulus"
    assert constants >= 50
    assert not ring.is_unit(ring.zero_elem()) and ring.is_unit(ring.one_elem())


def test_standard_factor():
    q = U("z^8")
    ring = PqrCtx(q)
    assert poly_gcd(ring.elem(U("z+1")), q).is_one
    assert poly_gcd(ring.elem(U("-z^6*(6*z+1)")), q) == U("z^6")
    assert poly_gcd(ring.elem(U("z^4*(z+1)")), q) == U("z^4")


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
    dd = ctx8.ring.elem(poly_gcd(a.lc, b.lc))
    assert ctx8.ring.is_unit(dd)
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

        lf, lg = f.lc, g.lc
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
        vanishing += ring.elem(reference_poly_lcm(f.lc, g.lc)).is_zero
    assert vanishing >= 30, vanishing


def test_proper_divide_examples():
    ctx8, f, g, h, d, e = _modular_run_elements()
    p = parse_poly("x^2+y", ctx8)
    division = proper_divide(p, [d])
    assert division.multiplier.is_one and division.remainder == p

    s = spoly(d, e)
    division = proper_divide(s, [d])
    assert division.remainder.is_zero
    assert ctx8.ring.is_unit(division.multiplier)

    # the S(d, f) chain ends at the temporary eliminant -z^6(6z+1)
    s = spoly(d, f)
    division = proper_divide(s, [d, e, f, g, h])
    assert division.remainder.is_coeff
    r = division.remainder.as_coeff()
    assert poly_gcd(r, ctx8.ring.modulus) == U("z^6")


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
        assert ctx.ring.is_unit(division.multiplier)
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


# over GF(5) the composite divisor z^3 runs a residue ring that starts from
# the pseudo basis, in which h = z^2*y supersedes g = z^2*x*y: lm h divides
# lm g and lc h = lc g.  The pair (g, h) was not reduced over K[x1], so it is
# decided, and queued, before the loaded elements retire the ones they supersede
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
    assert g == parse_poly("z^2*y*x", g.ctx) and len(queued) == 1
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
        if not out.basis_var_ctx.ring.is_unit(basis[i].lc):
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


# -- residue runs that start from the pseudo basis ------------------------------------


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _warm_and_cold(ideal, strategy):
    """(residue runs, decomposition) with every run started warm, then cold; None if refused.

    A warm run starts from the pseudo basis with the pairs it settled, as
    the pipeline starts it; a cold run starts from the generators with
    nothing settled.
    """
    try:
        pseudo = pseudo_eliminant(ideal.generators, strategy)
    except NotZeroDimensionalError:
        return None
    if pseudo.inconsistent:
        return None
    split = compatible_split(pseudo.eliminant, pseudo.screen_multipliers)
    originals = [g for g in ideal.generators if not g.is_coeff]
    starts = ((pseudo.basis, pseudo.settled), (originals, None))
    out = []
    for gens, settled in starts:
        runs = {
            q: proper_eliminant(gens, residue_context(ideal.ctx, q), strategy, settled)
            for q in split.composite_divisors()
        }
        out.append((runs, assemble(pseudo, split, runs, ideal.ctx)))
    return out


def _warm_matches_cold(text: str, toggles: str) -> bool:
    """Check that warm and cold runs agree; False when the ideal is refused or trivial."""
    ideal = parse_ideal_file(text)
    out = _warm_and_cold(ideal, StrategyConfig.from_toggles(toggles))
    if out is None:
        return False
    (warm_runs, warm), (cold_runs, cold) = out
    codes = [{q: run.eliminant_code for q, run in runs.items()} for runs in (warm_runs, cold_runs)]
    assert codes[0] == codes[1]
    assert [c.modulus for c in warm.components] == [c.modulus for c in cold.components]
    assert [t.source_modulus for t in warm.trivial] == [t.source_modulus for t in cold.trivial]
    for a, b in zip(warm.components, cold.components):
        for mine, other in ((a, b), (b, a)):
            for f in lift_component_basis(mine, ideal.ctx):
                assert component_remainder(f, other).is_zero, (toggles, f.fmt())
    return True


@pytest.mark.parametrize("toggles", STRATEGIES, ids=lambda t: t or "default")
@pytest.mark.parametrize(
    "path", sorted(FIXTURES.rglob("*.ideal")), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_warm_run_matches_cold_run_on_fixtures(path, toggles):
    _warm_matches_cold(path.read_text(), toggles)


def test_warm_run_matches_cold_run_on_random_ideals():
    rng = random.Random(1)
    texts = [random_ideal_text(rng) for _ in range(200)]
    compared = sum(_warm_matches_cold(text, toggles) for text in texts for toggles in STRATEGIES)
    assert compared > 500, compared


def test_warm_run_divides_less(monkeypatch):
    # the pseudo run reduced every pair this GF(5) fixture's residue runs
    # need, with unit multipliers: the warm runs divide nothing
    calls = []
    divide = pqr.proper_divide

    def counted(f, divisors):
        calls.append(f)
        return divide(f, divisors)

    monkeypatch.setattr(pqr, "proper_divide", counted)
    ideal = parse_ideal_file((FIXTURES / "grevlex_gf5.ideal").read_text())
    pseudo = pseudo_eliminant(ideal.generators)
    divisors = compatible_split(pseudo.eliminant, pseudo.screen_multipliers).composite_divisors()
    counts = []
    for gens, settled in ((pseudo.basis, pseudo.settled), (ideal.generators, None)):
        for q in divisors:
            proper_eliminant(gens, residue_context(ideal.ctx, q), None, settled)
        counts.append(len(calls))
        calls.clear()
    assert len(divisors) == 2 and counts == [0, 4]


# over GF(5) the composite divisor is z^2*(z+1)^2.  The pseudo run reduced
# S(f, g) for f = x + 3*z*(z+1)^2*y and g = z^2*(z+1)*x^2 + ... with
# multiplier one, but lc g is divisible by z^2, the full power of z in q, so
# the run's S-polynomial need not be a unit times the projected one at z
GUARDED_GF5 = """field GF 5
vars z < y < x
ideal:
z^2*(z+1)^2
x + 3*z*(z+1)^2*y
2*z*y^2*x + y^2 + 3*z^2*(z+1)*x^2
"""


def test_transfer_guard_decides_a_pair_with_a_full_prime_power_afresh(monkeypatch):
    ideal = parse_ideal_file(GUARDED_GF5)
    pseudo = pseudo_eliminant(ideal.generators)
    q = U("z^2*(z+1)^2", field=ideal.field)
    assert compatible_split(pseudo.eliminant, pseudo.screen_multipliers).composite_divisors() == [q]
    (a, b), lam = next(iter(pseudo.settled.items()))
    assert len(pseudo.settled) == 1 and lam.is_one
    f, g = pseudo.basis[a], pseudo.basis[b]
    assert f.lc.is_constant and g.lc == U("z^2*(z+1)", field=ideal.field)
    decided = []
    decide_pair = Elimination.decide_pair

    def spy_decide(run, i, j, key):
        h, k = run.arena[i], run.arena[j]
        if isinstance(h.ctx.ring, PqrCtx) and (h.lm, k.lm) == (f.lm, g.lm):
            decided.append(len(run.queue))
            decide_pair(run, i, j, key)
            decided.append(len(run.queue))
        else:
            decide_pair(run, i, j, key)

    monkeypatch.setattr(Elimination, "decide_pair", spy_decide)
    dec = run_pipeline(ideal).decomposition
    # no transfer: the pair is decided in the ring, and queued there
    assert len(decided) == 2 and decided[1] == decided[0] + 1
    _agrees_with_oracle(ideal, dec, ("x*y", "y^2", "x + 1", "z^2*(z+1)*y", "z*(z+1)^2*x*y"))


def test_rebase_forgets_transferred_decisions(monkeypatch):
    # a rebase drops every transferred decision before it decides the pairs
    # without one, and queues its pair (or decides it afresh, when an element
    # of it moved): the transfer test read the old modulus
    seen = []
    remap, decide_undecided = Elimination.remap, Elimination.decide_undecided

    def spy_remap(run, move):
        transferred = set(run.transferred)
        run.checked = None
        out = remap(run, move)
        assert run.checked is not None, "the rebase decided no pairs"
        alive = {p for p in transferred if all(run.arena[k] is not None for k in p)}
        queued = {frozenset(e[2:]) for e in run.queue}
        assert not run.transferred and alive <= queued | run.checked
        seen.append(len(transferred))
        return out

    def spy_decide_undecided(run):
        if getattr(run, "checked", False) is None:
            # the pairs this call decides: of elements whose leading monomial moved
            assert not run.transferred
            ids = run.slots()
            pairs = {frozenset((i, j)) for a, i in enumerate(ids) for j in ids[a + 1 :]}
            run.checked = pairs - run.decided_pairs
        decide_undecided(run)

    monkeypatch.setattr(Elimination, "remap", spy_remap)
    monkeypatch.setattr(Elimination, "decide_undecided", spy_decide_undecided)
    for path in sorted((FIXTURES / "rebase").glob("*.ideal")):
        run_pipeline(parse_ideal_file(path.read_text()))
    assert sum(n > 0 for n in seen) >= 3, seen


# -- residues are their representatives -----------------------------------------------


def _pool_cases(monkeypatch):
    """(text, probe texts) of every ideal of the benchmark's seed-701 pools."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    sys.modules.pop("gen", None)
    import gen

    cases = [w.case(701, i) for w in gen.WORKLOADS.values() for i in range(w.pool)]
    return [(case.text, [text for text, _ in case.probes]) for case in cases]


def test_every_residue_coefficient_is_reduced(monkeypatch):
    """Every coefficient of a residue-ring polynomial has degree below deg q.

    A residue is its representative, so the ring's products must reduce it.
    The walk covers the proper bases, the component bases and the component
    remainders of every fixture and of the benchmark's seed-701 pools, with
    and without base change; a fixture's probes are x1*v^2*w + v^3 for each
    pair of tail variables v, w.  It ends with each product MultiPoly forms,
    on random operands.
    """
    propers = []
    assemble_ = cli.assemble
    monkeypatch.setattr(cli, "assemble", lambda *a: propers.append(a[2]) or assemble_(*a))
    cases = [(path.read_text(), None) for path in sorted(FIXTURES.rglob("*.ideal"))]
    cases += _pool_cases(monkeypatch)
    walked = dict.fromkeys(("proper", "component", "remainder", "tail_difference"), 0)

    def check(kind, f):
        deg = f.ctx.ring.modulus.degree
        assert all(c.degree < deg for _, c in f.terms), (kind, f.fmt())
        walked[kind] = walked.get(kind, 0) + 1

    for text, probe_texts in cases:
        ideal = parse_ideal_file(text)
        ctx = ideal.ctx
        if probe_texts is None:
            probe_texts = [f"{ctx.x1}*{v}^2*{w} + {v}^3" for v in ctx.tilde for w in ctx.tilde]
        probes = [parse_poly(t, ctx) for t in probe_texts]
        for toggles in ("", "no-base-change"):
            propers.clear()
            try:
                dec = run_pipeline(ideal, StrategyConfig.from_toggles(toggles)).decomposition
            except NotZeroDimensionalError:
                break
            for outcome in propers[0].values() if propers else ():
                for b in outcome.basis:
                    check("proper", b)
            for comp in dec.components:
                for b in comp.basis:
                    check("component", b)
                for probe in probes:
                    check("remainder", component_remainder(probe, comp))
    # and every product a MultiPoly forms, on random residues of a ring with zero divisors
    rng = random.Random(829)
    ctx = rc("z^3*(z+1)^2")
    mon = (1, 1)
    for _ in range(100):
        f, g = (project_multipoly(random_multipoly(rng, ctx3(), unideg=6), ctx) for _ in "fg")
        c, d = (ctx.ring.elem(random_unipoly(rng, max_deg=6)) for _ in "cd")
        for kind, h in (("scale", f.scale(c)), ("mul_term", f.mul_term(c, mon)),
                        ("sub_mul_term", f.sub_mul_term(g, c, mon)), ("product", f * g)):
            check(kind, h)
        if f.terms and g.terms:
            check("tail_difference", f.tail_difference(c, mon, g, d, mon))
    assert walked["proper"] >= 2000 and walked["component"] >= 7000, walked
    assert walked["remainder"] >= 8000 and walked["tail_difference"] >= 50, walked


def test_transfer_guard_agrees_with_the_radical_form(monkeypatch):
    """`_valuations_below(lc, q)` is g*rad(q) | q for g = gcd(lc, q) on every (lc, q) met.

    The runs cover the benchmark's seed-701 pools, the first 200 texts of
    `random_ideal_text(random.Random(1))`, the fixtures and GUARDED_GF5, whose
    lc g = z^2*(z+1) is the one the runs meet that the guard refuses; the
    residues built after them are refused often.
    """
    met = {}
    guard = pqr._valuations_below

    def recorded(lc, q):
        met[lc, q] = passed = guard(lc, q)
        return passed

    monkeypatch.setattr(pqr, "_valuations_below", recorded)
    rng = random.Random(1)
    texts = [text for text, _ in _pool_cases(monkeypatch)]
    texts += [random_ideal_text(rng) for _ in range(200)]
    texts += [path.read_text() for path in sorted(FIXTURES.rglob("*.ideal"))] + [GUARDED_GF5]
    for text in texts:
        try:
            run_pipeline(parse_ideal_file(text))
        except NotZeroDimensionalError:
            pass
    pipeline = len(met)
    for field, factors in ((QQ, ("z", "z+1", "z-2")), (GF(5), ("z", "z+2", "z^2+2"))):
        z, w, v = (U(t, field=field) for t in factors)
        q = z**3 * w**2 * v
        for a in range(4):
            for b in range(3):
                for c in range(2):
                    for extra in (U("1", field=field), U("z+3", field=field)):
                        lc = (z**a * w**b * v**c * extra) % q
                        if not lc.is_zero and not lc.is_constant:
                            recorded(lc, q)
    for (lc, q), passed in met.items():
        g = poly_gcd(lc, q)
        assert passed == (q % (g * squarefree_part(q))).is_zero, (lc.fmt(), q.fmt())
    refused = len(met) - sum(met.values())
    assert pipeline >= 300 and refused >= 20, (pipeline, refused)
