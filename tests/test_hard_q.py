"""Small Q ideals whose gcds swell: answered within a budget, checked mod a prime.

`fixtures/hard_q/` holds ideals of three generators of two to four
terms over Q whose runs spend their time in gcds of large rational
polynomials: `found_q.ideal`, whose pseudo-eliminant has degree 90 and six
composite divisors, and five cases of the seeded random family of
`test_differential.random_ideal_text` (`random.Random(7)`, over Q, without
the pure z-power generator; case 47 is the 48th text).  With the
remainder-sequence gcd alone the first ran for minutes and each of the
others for over 2 s.  Case 328 took about 40 s while the residue-ring runs
kept unit leading coefficients as they came: their representatives swelled
to tens of thousands of bits.  Scaled to leading coefficient one it takes
well under a second.

The Buchberger oracle did not finish on `found_q.ideal` in 15 minutes, so each
eliminant is checked on an independent path instead: the same text over
GF(p), for a prime p that divides no denominator of the Q eliminant, must
give the Q eliminant reduced mod p.
"""

import pathlib
import time

from eliminant.cli import run_pipeline
from eliminant.parser import parse_ideal_file
from util import U

HARD_Q = pathlib.Path(__file__).parent / "fixtures" / "hard_q"
BUDGET_S = 10.0      # the six Q runs together; about 2-3 s on a 2-vCPU VM
PRIME = 32003

FOUND_ELIMINANT = (
    "z^12 + 3*z^11 - 1405/19*z^10 - 5821/19*z^9 - 7456/19*z^8 - 1944/19*z^7"
    " + 1998/19*z^6 + 432/19*z^5 - 368/19*z^4 + 64/19*z^3 - 32/171*z^2"
)


def test_hard_q_fixtures_answered_within_budget_and_agree_mod_p():
    paths = sorted(HARD_Q.glob("*.ideal"))
    assert [p.name for p in paths] == [
        "case_047.ideal", "case_076.ideal", "case_136.ideal", "case_328.ideal", "case_596.ideal",
        "found_q.ideal",
    ]
    texts = [p.read_text() for p in paths]
    t0 = time.perf_counter()
    eliminants = [run_pipeline(parse_ideal_file(text)).decomposition.eliminant for text in texts]
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_S, f"hard-Q fixtures took {elapsed:.1f} s"
    assert eliminants[-1] == U(FOUND_ELIMINANT)
    for path, text, chi in zip(paths, texts, eliminants):
        assert chi.degree > 0, path.name
        assert all(c.denominator % PRIME for c in chi.coeffs), path.name
        modular = parse_ideal_file(text.replace("field Q", f"field GF {PRIME}"))
        chi_p = run_pipeline(modular).decomposition.eliminant
        reduced = [c.numerator * pow(c.denominator, -1, PRIME) % PRIME for c in chi.coeffs]
        assert list(chi_p.coeffs) == reduced, path.name
