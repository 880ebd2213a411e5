import pathlib
import random

import pytest

from eliminant import compat
from eliminant.cli import run_pipeline
from eliminant.compat import compatible_split, lc_compatibility_check
from eliminant.parser import parse_ideal_file
from eliminant.pseudo import pseudo_eliminant
from eliminant.unipoly import ConstantInputError, UniPoly, poly_gcd
from eliminant.fields import QQ
from util import P, U, random_unipoly

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def test_fully_compatible():
    chi = U("(z^2+1)*(z-3)^2")
    split = compatible_split(chi, [U("z+1")])
    assert split.compatible_part == chi.monic()
    assert split.omega_sets == {}
    assert split.composite_divisors() == []


def test_split_golden_modular():
    chi = U("(z-1)^5*z^8*(z+1)^3*(z^13+9*z^12+36*z^11+84*z^10+126*z^9"
            "+126*z^8+85*z^7+31*z^6+19*z^5-9*z^4+4*z^3-4*z^2-3*z-1)")
    lams = [U("z^2*(z+1)^3"), U("z^4*(z+1)^6-1")]
    split = compatible_split(chi, lams)
    assert split.compatible_part == U(
        "(z-1)^5*(z^13+9*z^12+36*z^11+84*z^10+126*z^9+126*z^8+85*z^7"
        "+31*z^6+19*z^5-9*z^4+4*z^3-4*z^2-3*z-1)"
    ).monic()
    assert split.composite_divisors() == [U("(z+1)^3"), U("z^8")]


def test_split_hand_derived():
    # chi = z^3 (z-1), multiplier z: squarefree parts q1 = z-1, q3 = z
    split = compatible_split(U("z^3*(z-1)"), [U("z")])
    assert split.compatible_part == U("z-1")
    assert split.omega_sets == {3: [U("z")]}
    with pytest.raises(ConstantInputError):
        compatible_split(UniPoly.one(QQ), [])


def test_refinement_splits_buckets():
    # one multiplier brings z(z+1), a second separates the two factors
    chi = U("z^2*(z+1)^2*(z-5)")
    split = compatible_split(chi, [U("z*(z+1)"), U("z*(z-7)")])
    assert split.compatible_part == U("z-5")
    assert split.omega_sets == {2: [U("z"), U("z+1")]}


def test_lc_check_count_example():
    ideal = parse_ideal_file(
        """
field Q
vars y < x
ideal:
y*(x^2+1)
(y+1)*(2*x+1)
"""
    )
    out = pseudo_eliminant(ideal.generators)
    verdicts = lc_compatibility_check(out.eliminant, out.basis)
    by_factor = {v.factor: v.coprime_to_lcs for v in verdicts}
    assert by_factor == {U("y", var="y"): False, U("y+1", var="y"): False}
    # ... while the multiplier criterion clears both factors
    split = compatible_split(out.eliminant, out.multipliers)
    assert split.compatible_part == out.eliminant


def test_lc_check_simple_example():
    ideal = parse_ideal_file(
        """
field Q
vars z < y < x
ideal:
-x+y+z^2-1
-z*x+y^3+2
x^2+x-z*y
"""
    )
    out = pseudo_eliminant(ideal.generators)
    verdicts = lc_compatibility_check(out.eliminant, out.basis)
    assert all(v.coprime_to_lcs for v in verdicts)


def test_lc_check_all_constant_lcs():
    verdicts = lc_compatibility_check(U("z^2+1"), [P("x+z"), P("y-1")])
    assert len(verdicts) == 1 and verdicts[0].coprime_to_lcs


def test_invariants_random():
    rng = random.Random(31)
    for _ in range(150):
        chi = UniPoly.one(QQ)
        for _ in range(rng.randint(1, 3)):
            g = random_unipoly(rng, QQ, max_deg=2, nonzero=True)
            if not g.is_constant:
                chi = chi * g ** rng.randint(1, 3)
        if chi.is_constant:
            continue
        lams = [
            random_unipoly(rng, QQ, max_deg=3, nonzero=True)
            for _ in range(rng.randint(0, 3))
        ]
        lams = [l for l in lams if not l.is_constant]
        split = compatible_split(chi, lams)
        recon = split.compatible_part
        for q in split.composite_divisors():
            recon = recon * q
        assert recon.monic() == chi.monic()
        # pairwise coprimality of {cp} and composite divisors
        pieces = [split.compatible_part] + split.composite_divisors()
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                if pieces[i].is_constant or pieces[j].is_constant:
                    continue
                assert poly_gcd(pieces[i], pieces[j]).is_constant
        # multiplier screening
        for lam in lams:
            if not split.compatible_part.is_constant:
                assert poly_gcd(lam, split.compatible_part).is_constant
        # omega entries squarefree and monic
        for i, ws in split.omega_sets.items():
            for w in ws:
                assert w.lc == QQ.one
                assert poly_gcd(w, w.derivative()).is_constant


def test_pipeline_decomposes_the_pseudo_eliminant_once(monkeypatch):
    calls = []
    decompose = compat.squarefree_decomposition
    monkeypatch.setattr(compat, "squarefree_decomposition", lambda f: calls.append(f) or decompose(f))
    for name in ("simple.ideal", "modular.ideal"):
        ideal = parse_ideal_file((FIXTURES / name).read_text())
        calls.clear()
        report = run_pipeline(ideal)
        assert len(calls) == 1
        # the check gives the same verdicts alone as with the split's decomposition
        chi = report.pseudo.eliminant
        assert lc_compatibility_check(chi, report.pseudo.basis) == report.lc_verdicts
        assert report.split.squarefree_parts == decompose(chi.monic())
