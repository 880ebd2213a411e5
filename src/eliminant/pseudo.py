"""Pseudo-division over K[x1] and the pseudo-eliminant computation.

Division here never inverts leading coefficients: a term with coefficient c
is cleared against a divisor with leading coefficient l by scaling the whole
dividend with the interim multiplier lcm(c, l)/c.  When l divides c that
multiplier is a constant, which the authenticity test ignores, so the step
subtracts (c/l) times the divisor and leaves the dividend unscaled.  The
accumulated multiplier stays a univariate polynomial, so no
rational-function coefficients (and none of their size explosion) ever
appear.  The division is the shared lcm step
`engine.lcm_step`, which admits every multiplier here, in the loop
`engine.divide`.

The eliminant search is `engine.Elimination`, shared with the residue rings
of pqr.py; `_PseudoRing` adapts it to K[x1].  S-polynomials are processed
smallest first, pairs with coprime leading monomials or with a usable
triangular identity are pruned, and every non-constant multiplier used, by a
division or by a pruned pair, is collected; those multipliers are what later
decides which factors of the result are trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compat import poly_sort_key
from .engine import DEBUG_ENV, debug_checks_enabled  # re-exported: the switch lives in engine
from .engine import Division, Elimination, divide, lcm_step, reduced
from .multipoly import MultiPoly, VarContext
from .unipoly import UniPoly, content_scale, poly_gcd, squarefree_part


class NotZeroDimensionalError(ValueError):
    """No univariate combination was found; the ideal cannot be zero-dimensional."""


@dataclass(frozen=True)
class StrategyConfig:
    """The paper's four strategy toggles; the debug checks have their own switch, `DEBUG_ENV`."""

    coprime_skip: bool = True
    triangular_skip: bool = True
    chi_delta: bool = True
    base_change: bool = True

    @classmethod
    def from_toggles(cls, toggles: str) -> "StrategyConfig":
        kwargs = {}
        mapping = {
            "coprime-skip": "coprime_skip",
            "triangular-skip": "triangular_skip",
            "chi-delta": "chi_delta",
            "base-change": "base_change",
        }
        for raw in toggles.split(","):
            name = raw.strip()
            if not name:
                continue
            enable = True
            if name.startswith("no-"):
                enable = False
                name = name[3:]
            if name not in mapping:
                raise ValueError(f"unknown strategy toggle {raw!r}")
            kwargs[mapping[name]] = enable
        return cls(**kwargs)


# -- normalization ------------------------------------------------------------


def normalize_content(f: MultiPoly) -> MultiPoly:
    """Scale by a nonzero constant into the canonical printable form.

    Over Q: integer coefficients with trivial common content and a positive
    leading integer of the leading coefficient.  Over GF(p): leading
    coefficient of the leading coefficient normalized to 1.
    """
    if f.is_zero:
        return f
    scale = content_scale(f.ctx.field, (c for _, c in f.terms), f.lc.nums[-1])
    if scale == 1:
        return f
    return MultiPoly.from_sorted(f.ctx, [(m, c.scale(scale)) for m, c in f.terms])


# -- pseudo-division -----------------------------------------------------------


def pseudo_divide(f: MultiPoly, divisors: list[MultiPoly]) -> Division:
    """Divide f by the list, scaling f as needed so every step stays in K[x1].

    Divisor preference follows list order, so callers pass divisors sorted by
    increasing leading term.  The result satisfies

        multiplier * f == sum(quotients[i] * divisors[i]) + remainder

    with the remainder's support disjoint from the leading-monomial ideal of
    the divisors.
    """
    return divide(f, divisors, lcm_step)


def pseudo_reduced(f: MultiPoly, divisors: list[MultiPoly]) -> bool:
    return reduced(f, divisors, lcm_step)


# -- the eliminant search over K[x1] ---------------------------------------------


@dataclass
class PseudoOutcome:
    eliminant: UniPoly              # monic; constant 1 means the ideal is trivial
    basis: list                     # pseudo-basis, all with tail variables
    multipliers: list               # non-constant reduction multipliers, monic
    lc_gcds: list                   # gcd(lc b, eliminant) sweep, monic, non-constant
    inconsistent: bool = False

    @property
    def screen_multipliers(self) -> list:
        """Multipliers used to screen eliminant factors for authenticity."""
        merged = {p for p in self.multipliers}
        merged.update(self.lc_gcds)
        return sorted(merged, key=poly_sort_key)


class _PseudoRing:
    """K[x1] for the shared search: every skipped pair records its multiplier.

    Traced functions (pseudo_divide, normalize_content) are called through
    this module's globals, where perfbench's tracer binds its wrappers.
    """

    reduced = staticmethod(pseudo_reduced)
    supersedes = None   # no basis update: a skipped pair must record its multiplier

    def __init__(self, ctx: VarContext, strategy: StrategyConfig):
        self.ctx = ctx
        self.strategy = strategy
        self.f0 = UniPoly.zero(ctx.field)
        self.multipliers: dict = {}

    def normalize(self, f: MultiPoly) -> MultiPoly:
        return normalize_content(f)

    def reduce(self, s: MultiPoly, basis: list[MultiPoly]) -> MultiPoly:
        division = pseudo_divide(s, basis)
        self.record(division.multiplier)
        return division.remainder

    def rank(self, lam: UniPoly) -> int:
        return squarefree_part(lam).degree

    def excuse(self, lam: UniPoly, rank=None) -> bool:
        self.record(lam)
        return True

    def record(self, lam: UniPoly):
        if lam.is_constant:
            return
        if self.strategy.chi_delta and not self.f0.is_zero:
            if poly_gcd(lam, self.f0).is_constant:
                return
        self.multipliers[lam.monic()] = None

    def fold_univariate(self, run: Elimination, r: UniPoly) -> bool:
        if r.is_constant:
            return False
        self.f0 = r.monic() if self.f0.is_zero else poly_gcd(self.f0, r)
        return not self.f0.is_constant

    def finish(self, run: Elimination) -> PseudoOutcome:
        multipliers = sorted(self.multipliers, key=poly_sort_key)
        if run.inconsistent:
            one = UniPoly.one(self.ctx.field)
            return PseudoOutcome(one, [], multipliers, [], inconsistent=True)
        if self.f0.is_zero:
            raise NotZeroDimensionalError(
                "no univariate member found; ideal is not zero-dimensional over "
                f"{self.ctx.x1}"
            )
        chi = self.f0.monic()
        basis = run.polys()
        lc_gcds = {}
        for b in basis:
            d = poly_gcd(b.lc, chi)
            if not d.is_constant:
                lc_gcds[d.monic()] = None
        return PseudoOutcome(
            eliminant=chi,
            basis=basis,
            multipliers=multipliers,
            lc_gcds=sorted(lc_gcds, key=poly_sort_key),
        )


def pseudo_eliminant(
    generators: list[MultiPoly], strategy: StrategyConfig | None = None
) -> PseudoOutcome:
    """Run the eliminant search on generators over a base context."""
    if not generators:
        raise ValueError("empty generator list")
    ctx = generators[0].ctx
    for g in generators:
        if g.ctx != ctx:
            raise ValueError("generators from mixed contexts")
    strategy = strategy or StrategyConfig()
    return Elimination(_PseudoRing(ctx, strategy), ctx.order, strategy).run(generators)
