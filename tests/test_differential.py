"""Seeded differential test: eliminants and membership verdicts against the oracle.

The cases are random ideals in z < y < x, mostly over GF(2), GF(3), GF(5)
and GF(7), with small coefficients and z-powers on the tail terms, so leading
coefficients are rarely monic.  Most are outside shape position, many are
trivial and some are positive-dimensional.  Most contain a power of z, whose
modular runs rebase from one power of z to a lower one and so move the
leading monomials of elements whose leading coefficient vanishes there.

The Buchberger oracle (`buchberger.py`) has no cost bound of its own, so each
case caps its reduction steps.  A capped case is checked on an independent
path instead: its eliminant must equal that of a run without base change,
which never rebases, or both runs must refuse the ideal.
"""

import pathlib
import random

import pytest

from eliminant import buchberger
from eliminant.assembly import is_member
from eliminant.buchberger import (
    NoUnivariateElementError,
    oracle_eliminant,
    oracle_member,
    reduced_groebner,
)
from eliminant.cli import run_pipeline
from eliminant.parser import parse_ideal_file, parse_poly
from eliminant.pseudo import NotZeroDimensionalError, StrategyConfig

REBASE_FIXTURES = sorted((pathlib.Path(__file__).parent / "fixtures" / "rebase").glob("*.ideal"))
FIELDS = ("GF 2", "GF 2", "GF 2", "GF 3", "GF 3", "GF 5", "GF 7", "Q")
CASES = 1200
ORACLE_STEPS = 300           # fp_combine calls per case before the oracle is capped


class OracleCapped(Exception):
    pass


def random_ideal_text(rng: random.Random) -> str:
    lines = [f"field {rng.choice(FIELDS)}", "vars z < y < x", "ideal:"]
    count = rng.randint(3, 4)
    if rng.random() < 0.6:
        lines.append(f"z^{rng.randint(2, 4)}")
        count -= 1
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(2, 4)):
            mon = [f"{v}^{e}" for v in ("z", "y", "x") if (e := rng.randint(0, 2))]
            terms.append("*".join([str(rng.choice((-3, -2, -1, 1, 2, 3)))] + mon))
        lines.append(" + ".join(terms))
    return "\n".join(lines) + "\n"


def random_probe(rng: random.Random, ideal):
    """A member (a combination of the generators) or, half the time, one plus 1."""
    ctx = ideal.ctx
    acc = parse_poly("0", ctx)
    for g in ideal.generators:
        if rng.random() < 0.7:
            acc = acc + parse_poly(rng.choice(("1", "z", "y", "z+1", "2*y-z")), ctx) * g
    return acc + parse_poly("1", ctx) if rng.random() < 0.5 else acc


@pytest.fixture
def capped_oracle(monkeypatch):
    combine = buchberger.fp_combine
    budget = [0]

    def counted(*args):
        budget[0] -= 1
        if budget[0] < 0:
            raise OracleCapped
        return combine(*args)

    monkeypatch.setattr(buchberger, "fp_combine", counted)

    def run(gens):
        budget[0] = ORACLE_STEPS
        return reduced_groebner(gens)

    return run


def engine_eliminant(ideal, strategy=None):
    """The engine's eliminant, or None when it refuses the ideal as not zero-dimensional."""
    try:
        return run_pipeline(ideal, strategy).decomposition.eliminant
    except NotZeroDimensionalError:
        return None


def check_capped(ideal) -> str:
    """"capped" when the default run and one that never rebases agree, else what differs."""
    chi = engine_eliminant(ideal)
    other = engine_eliminant(ideal, StrategyConfig.from_toggles("no-base-change"))
    if chi == other:
        return "capped"
    shown = [e.fmt(ideal.x1) if e is not None else "refused" for e in (chi, other)]
    return f"capped case: eliminant {shown[0]}, without base change {shown[1]}"


def check_case(text: str, rng: random.Random, oracle) -> str | None:
    """None when the engine agrees with the oracle, else what differs.

    A capped case gives "capped" when `check_capped` finds no difference.
    """
    ideal = parse_ideal_file(text)
    try:
        gb = oracle(ideal.generators)
    except OracleCapped:
        return check_capped(ideal)
    try:
        chi = oracle_eliminant(gb, ideal.field)
    except NoUnivariateElementError:
        chi = None
    try:
        dec = run_pipeline(ideal).decomposition
    except NotZeroDimensionalError:
        return None if chi is None else "engine refused an ideal with an eliminant"
    if dec.eliminant != chi:
        return f"eliminant {dec.eliminant.fmt(ideal.x1)}, oracle {chi and chi.fmt(ideal.x1)}"
    for _ in range(2):
        probe = random_probe(rng, ideal)
        try:
            expected = oracle_member(probe, gb)
        except OracleCapped:
            continue
        if is_member(probe, dec) != expected:
            return f"membership of {probe.fmt()}: oracle says {expected}"
    return None


def test_engine_agrees_with_oracle(capped_oracle):
    rng = random.Random(1)
    failures, capped = [], 0
    for _ in range(CASES):
        text = random_ideal_text(rng)
        verdict = check_case(text, rng, capped_oracle)
        if verdict == "capped":
            capped += 1
        elif verdict is not None:
            failures.append(f"{verdict}\n{text}")
    assert capped < CASES // 3
    assert not failures, f"{len(failures)} disagreements, first:\n{failures[0]}"


# cases 342 and 526 of the corpus that random.Random(3) draws in the same
# way: a rebase that dropped the decisions of the elements it put back into
# the basis, and decided all their pairs again, gave z^2 for z on the first
# and z times the eliminant on the second; neither case is in the corpus above
LOST_PAIR_CASES = [
    "field GF 7\nvars z < y < x\nideal:\nz^3\n2*y^2*x^2 + 3 + 1 + -1*z^2*y^2\n"
    "2*z^1*x^1 + -3*z^2*y^2*x^1 + 2*z^2*y^2 + 3*z^2*y^1*x^2\n",
    "field Q\nvars z < y < x\nideal:\n3*z^1*x^1 + 1*z^2*x^2 + 1*z^1*y^1*x^1\n"
    "-1*z^2*x^1 + 1*z^1 + -2*z^1*y^2*x^1 + 2*y^1*x^2\n2*y^2 + -3*z^2*y^1*x^2 + -1*y^1\n",
]


@pytest.mark.parametrize("text", LOST_PAIR_CASES, ids=["gf7", "q"])
def test_capped_check_sees_a_lost_pair(text):
    """The check of capped cases, on two ideals where a lost pair changes the eliminant.

    The oracle takes about 36 s on the second (2-vCPU VM).
    """
    assert check_capped(parse_ideal_file(text)) == "capped"


@pytest.mark.parametrize("path", REBASE_FIXTURES, ids=lambda p: p.name)
def test_rebase_reproducers(path):
    """Ideals whose modular run moves a leading monomial when it rebases.

    Each gave a wrong eliminant while the pairs decided before a rebase kept
    their old decisions.
    """
    ideal = parse_ideal_file(path.read_text())
    gb = reduced_groebner(ideal.generators)
    assert run_pipeline(ideal).decomposition.eliminant == oracle_eliminant(gb, ideal.field)
