"""The lcm division step against its cofactor form, kept as `reference_lcm_step`.

A step whose divisor's leading coefficient divides the term's coefficient
needs no multiplier: it logs multiplier one and leaves the dividend as it
is, where the cofactor form scales it by a nonzero constant.  Everything
else the division decides is the same: the divisor at each step, every
non-constant multiplier up to a constant, the remainder up to a constant,
and so the multipliers a whole search records.
"""

import pathlib
import random
import sys
from functools import partial

import pytest

from eliminant import pseudo
from eliminant.engine import divide, lcm_step
from eliminant.fields import GF, QQ
from eliminant.multipoly import MultiPoly, base_context
from eliminant.parser import parse_ideal_file
from eliminant.pqr import PqrElem, project_multipoly, residue_context
from eliminant.pseudo import pseudo_eliminant
from eliminant.unipoly import divrem
from util import U, quotients, random_multipoly, random_unipoly, reference_lcm_step

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def constant_ratio(a, b):
    """The constant k with a == k*b on representatives, or None; a and b are nonzero."""
    k = a.rep.field.div(a.rep.lc, b.rep.lc)
    return k if a.rep == b.rep.scale(k) else None


def same_up_to_constant(f: MultiPoly, g: MultiPoly) -> bool:
    if f.is_zero or g.is_zero:
        return f.is_zero and g.is_zero
    if [m for m, _ in f.terms] != [m for m, _ in g.terms]:
        return False
    k = constant_ratio(f.lc, g.lc)
    return k is not None and all(a.rep == b.rep.scale(k) for (_, a), (_, b) in zip(f.terms, g.terms))


def recorded(step):
    """The step rule, logging the coefficient c of every term it clears."""
    seen = []

    def rule(divisors, mon, c):
        hit = step(divisors, mon, c)
        if hit is not None:
            seen.append(c)
        return hit

    return rule, seen


def _base_case(rng, ctx):
    """A dividend and divisors over K[x1]; leading coefficients are often shared factors."""
    F = ctx.field
    common = random_unipoly(rng, F, max_deg=2, bound=3, nonzero=True)
    divisors = []
    for _ in range(rng.randint(1, 3)):
        b = random_multipoly(rng, ctx, max_total=2, terms=3)
        if b.is_zero or b.is_coeff:
            continue
        if rng.random() < 0.5:
            b = b.scale(common)
        divisors.append(b)
    f = random_multipoly(rng, ctx, max_total=4, terms=5, unideg=3)
    if rng.random() < 0.5:
        f = f.scale(common * random_unipoly(rng, F, max_deg=1, bound=3, nonzero=True))
    return f, divisors


def _residue_case(rng, base, ctx, heads):
    """A dividend and divisors over K[x1]/(q) with zero-divisor leading coefficients.

    Leading coefficients are products with a divisor of q.
    """
    F = base.field

    def projected(max_total, terms, head):
        f = random_multipoly(rng, base, max_total=max_total, terms=terms)
        if f.is_zero or f.is_coeff:
            return None
        out = dict(f.terms)
        out[f.lm] = head * random_unipoly(rng, F, max_deg=1, bound=2, nonzero=True)
        p = project_multipoly(MultiPoly(base, out), ctx)
        return None if p.is_zero or p.is_coeff else p

    divisors = []
    for _ in range(rng.randint(1, 3)):
        b = projected(2, 3, rng.choice(heads))
        if b is not None:
            divisors.append(b)
    # terms whose coefficients are multiples of the divisors' heads
    f = projected(4, 5, rng.choice(heads) * rng.choice(heads))
    if f is not None and divisors and rng.random() < 0.5:
        f = f.scale(divisors[0].lc)
    return f, divisors


def _check_division(f, divisors, new_step, ref_step, counts):
    rule, seen = recorded(new_step)
    new = divide(f, divisors, rule)
    ref = divide(f, divisors, ref_step)
    # the same divisor is chosen at every step, for the same term
    assert [(mon, [i for i, _ in parts]) for _, mon, parts in new.steps] == [
        (mon, [i for i, _ in parts]) for _, mon, parts in ref.steps
    ]
    # multiplier * f == sum(quotients * divisors) + remainder
    rhs = new.remainder
    for q, b in zip(quotients(new), divisors):
        rhs = rhs + q * b
    assert f.scale(new.multiplier) == rhs
    assert same_up_to_constant(new.remainder, ref.remainder)
    for c, (mu, _, parts), (ref_mu, _, _) in zip(seen, new.steps, ref.steps):
        (i, _), = parts
        _, rem = divrem(c.rep, divisors[i].lc.rep)
        if rem.is_zero:
            assert mu.is_one
            assert ref_mu.rep.is_constant
            counts["divides"] += 1
        else:
            assert constant_ratio(mu, ref_mu) is not None
            counts["non-constant"] += not ref_mu.rep.is_constant


@pytest.mark.parametrize("field", [QQ, GF(5), GF(32003)], ids=["Q", "GF5", "GF32003"])
def test_lcm_step_matches_cofactor_step_over_polynomial_rings(field):
    rng = random.Random(2101)
    ctx = base_context(field, "z", ("y", "x"))
    counts = {"divides": 0, "non-constant": 0}
    for _ in range(250):
        f, divisors = _base_case(rng, ctx)
        if f.is_zero or not divisors:
            continue
        _check_division(f, divisors, lcm_step, reference_lcm_step, counts)
    assert counts["divides"] >= 200 and counts["non-constant"] >= 100, counts


@pytest.mark.parametrize(
    "field, modulus, heads",
    [
        (QQ, "z^4*(z+1)^2", ("z^4", "(z+1)^2", "z^4*(z+1)", "z^3*(z+1)^2", "-3*z^2*(z+1)", "1")),
        (GF(5), "z^3*(z+2)^2", ("z^3", "(z+2)^2", "z^3*(z+2)", "3*z*(z+2)^2", "z^2", "2")),
        (GF(32003), "(z^2+1)^2*(z-5)", ("z^2+1", "(z^2+1)*(z-5)", "z-5", "7")),
    ],
    ids=["Q", "GF5", "GF32003"],
)
def test_lcm_step_matches_cofactor_step_over_residue_rings(field, modulus, heads):
    rng = random.Random(2102)
    base = base_context(field, "z", ("y", "x"))
    ctx = residue_context(base, U(modulus, field=field))
    heads = [U(h, field=field) for h in heads]
    new_step = partial(lcm_step, admits=PqrElem.is_unit)
    ref_step = partial(reference_lcm_step, admits=PqrElem.is_unit)
    counts = {"divides": 0, "non-constant": 0}
    zero_divisors = 0
    for _ in range(320):
        f, divisors = _residue_case(rng, base, ctx, heads)
        if f is None or not divisors:
            continue
        zero_divisors += sum(not b.lc.is_unit() for b in divisors)
        _check_division(f, divisors, new_step, ref_step, counts)
    assert counts["divides"] >= 50 and counts["non-constant"] >= 50, counts
    assert zero_divisors >= 50, zero_divisors


@pytest.mark.parametrize("workload", ["compat_q", "modular_gf", "member_q"])
def test_search_records_the_reference_multipliers_over_the_pools(workload, monkeypatch):
    """Over the benchmark's seed-701 pools the pseudo-eliminant search records the same
    multipliers, screen multipliers and basis as under the cofactor step."""
    monkeypatch.syspath_prepend(str(BENCH))
    sys.modules.pop("gen", None)
    import gen

    w = gen.WORKLOADS[workload]
    ideals = [parse_ideal_file(w.case(701, i).text) for i in range(w.pool)]
    steps = {"one": 0, "other": 0}

    def counted(divisors, mon, c):
        hit = lcm_step(divisors, mon, c)
        if hit is not None:
            steps["one" if hit[0].is_one else "other"] += 1
        return hit

    monkeypatch.setattr(pseudo, "lcm_step", counted)
    new = [pseudo_eliminant(ideal.generators) for ideal in ideals]
    monkeypatch.setattr(pseudo, "lcm_step", reference_lcm_step)
    ref = [pseudo_eliminant(ideal.generators) for ideal in ideals]
    multipliers = 0
    for a, b in zip(new, ref):
        assert a.eliminant == b.eliminant
        assert a.multipliers == b.multipliers
        assert a.screen_multipliers == b.screen_multipliers
        assert a.basis == b.basis
        multipliers += len(a.multipliers)
    assert multipliers >= 20 and steps["one"] >= len(ideals) and steps["other"] >= 20, (
        multipliers, steps)
