"""Residue rings K[x1]/(q) with zero divisors, and the modular eliminant search.

Residues are kept as polynomials of degree below deg q with arithmetic
reduced mod q.  Units are exactly the residues coprime to q; every nonzero
residue factors as unit * standard factor, where the standard factor is the
monic gcd of its representative with q.  Division in the tail variables is
restricted to steps whose interim multiplier is a unit (term divisibility by
the whole leading term), so remainders stay meaningful despite zero divisors;
it is the shared lcm step `engine.lcm_step`, admitting unit multipliers only,
in the loop `engine.divide`.  A step whose leading coefficient divides the
term's coefficient, on representatives, has multiplier one.

The eliminant search is `engine.Elimination`, the same one that runs over
K[x1]; `_ResidueRing` adapts it.  S-polynomials and skip multipliers are
the engine's, computed on representatives (never zero).  The adapter skips
a pair only when the skip multiplier is a unit, ranks triangular candidates
by the standard factor of their multiplier, retires the elements a new
element supersedes, scales each element it inserts whose leading
coefficient is a unit to leading coefficient one, and folds univariate
remainders into a shrinking modulus.  By default the ring itself is
rebased to the shrunken modulus, by the one rule of `Elimination.remap`
(the retired elements return, the basis is re-projected, and every pair
without a decision is decided; queued pairs are formed from the projected
basis when popped), which both matches the mathematics and keeps
coefficients small.  Its finish step queues the pairs of the basis against
the modulus, whose S-polynomial is `engine.spoly(f, q)`, and the final
answer is read back in the ring we started from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .engine import Division, Elimination, divide, lcm_step, reduced
from .multipoly import MultiPoly, VarContext
from .pseudo import StrategyConfig
from .unipoly import UniPoly, content_scale, poly_gcd, poly_half_ext_gcd


class NotAUnitError(ValueError):
    pass


class ZeroElementError(ValueError):
    pass


class PqrCtx:
    """The ring of residues modulo a fixed monic non-constant q."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: UniPoly):
        if modulus.is_constant:
            raise ValueError("modulus must be non-constant")
        if modulus.lc != modulus.field.one:
            modulus = modulus.monic()
        self.modulus = modulus

    @property
    def field(self):
        return self.modulus.field

    def elem(self, rep: UniPoly) -> "PqrElem":
        return PqrElem(self, rep % self.modulus)

    def zero_elem(self) -> "PqrElem":
        return PqrElem(self, UniPoly.zero(self.field))

    def one_elem(self) -> "PqrElem":
        return PqrElem(self, UniPoly.one(self.field))

    def __eq__(self, other) -> bool:
        return isinstance(other, PqrCtx) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PqrCtx", self.modulus))

    def __repr__(self) -> str:
        return f"PqrCtx({self.modulus.fmt()})"


class PqrElem:
    """A residue, stored by its canonical representative of degree < deg q.

    Multiplier and lcm computations read the representative `rep`, the
    residue's one lift to K[x1].
    """

    __slots__ = ("ctx", "rep")

    def __init__(self, ctx: PqrCtx, rep: UniPoly):
        self.ctx = ctx
        self.rep = rep

    def scale_scalar(self, k) -> "PqrElem":
        """Multiply by a nonzero field constant; a constant times a reduced residue is reduced."""
        return PqrElem(self.ctx, self.rep.scale(k))

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    @property
    def is_one(self) -> bool:
        return self.rep.is_one

    def _check(self, other: "PqrElem"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("mixed residue contexts")

    def __add__(self, other: "PqrElem") -> "PqrElem":
        self._check(other)
        return self.ctx.elem(self.rep + other.rep)

    def __sub__(self, other: "PqrElem") -> "PqrElem":
        self._check(other)
        return self.ctx.elem(self.rep - other.rep)

    def __mul__(self, other: "PqrElem") -> "PqrElem":
        self._check(other)
        return self.ctx.elem(self.rep * other.rep)

    def __neg__(self) -> "PqrElem":
        return PqrElem(self.ctx, -self.rep)

    def is_unit(self) -> bool:
        nums = self.rep.nums
        if len(nums) <= 1:
            # zero is no unit and a nonzero constant always is
            return bool(nums)
        return poly_gcd(self.rep, self.ctx.modulus).is_constant

    def inverse(self) -> "PqrElem":
        """The inverse of a unit: 1/c for a constant, else u from `poly_half_ext_gcd` with q."""
        nums = self.rep.nums
        if not nums:
            raise NotAUnitError("zero has no inverse")
        if len(nums) == 1:
            # a nonzero constant is inverted in the field
            return PqrElem(self.ctx, UniPoly.one(self.ctx.field).scale(self.rep._lc_inverse()))
        d, u = poly_half_ext_gcd(self.rep, self.ctx.modulus)
        if not d.is_constant:
            raise NotAUnitError(f"{self.rep.fmt()} shares {d.fmt()} with the modulus")
        return self.ctx.elem(u)

    def standard_factor(self) -> "PqrElem":
        """Monic divisor of q carrying this residue up to a unit."""
        if self.rep.is_zero:
            raise ZeroElementError("standard factor of zero")
        return self.ctx.elem(poly_gcd(self.rep, self.ctx.modulus))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PqrElem)
            and self.ctx == other.ctx
            and self.rep == other.rep
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.rep))

    def __bool__(self) -> bool:
        return not self.rep.is_zero

    def __repr__(self) -> str:
        return f"PqrElem({self.rep.fmt()} mod {self.ctx.modulus.fmt()})"


# -- projections ----------------------------------------------------------------


def residue_context(base: VarContext, modulus: UniPoly) -> VarContext:
    return base.with_ring(PqrCtx(modulus))


def project_multipoly(f: MultiPoly, target: VarContext) -> MultiPoly:
    """Apply the coefficient-wise projection into a residue context.

    target keeps f's order (`residue_context` does), so the terms stay in order.
    """
    ring: PqrCtx = target.ring
    modulus = ring.modulus
    return MultiPoly.from_sorted(
        target, [(mon, PqrElem(ring, c.rep % modulus)) for mon, c in f.terms]
    )


def lift_multipoly(f: MultiPoly, base: VarContext) -> MultiPoly:
    """Coefficient-wise injection of the canonical representatives; base keeps f's order."""
    return MultiPoly.from_sorted(base, [(mon, c.rep) for mon, c in f.terms])


# -- proper division --------------------------------------------------------------


_proper_step = partial(lcm_step, admits=PqrElem.is_unit)


def proper_divide(f: MultiPoly, divisors: list[MultiPoly]) -> Division:
    """Divide f in the residue ring, reducing only unit-multiplier steps.

    A term c*m reduces against a divisor b when lm(b) divides m and the
    interim multiplier lcm(c, lc b)/c, on representatives, projects to a
    unit, which is exactly divisibility of the term by the whole leading
    term of b.  The multiplier of the result is therefore always a unit.
    """
    return divide(f, divisors, _proper_step)


def properly_reduced(f: MultiPoly, divisors: list[MultiPoly]) -> bool:
    return reduced(f, divisors, _proper_step)


# -- the eliminant search over the residue ring -------------------------------


@dataclass
class ProperOutcome:
    ctx: PqrCtx                    # ring the computation started in
    eliminant: UniPoly | None      # monic divisor of q; None encodes zero
    basis: list                    # proper basis over `basis_ctx`
    basis_var_ctx: VarContext      # residue context of the basis elements
    inconsistent: bool = False     # eliminant collapsed to a unit

    @property
    def eliminant_code(self) -> str:
        if self.inconsistent:
            return "1"
        if self.eliminant is None:
            return "0"
        return self.eliminant.fmt(self.basis_var_ctx.x1)


def _unit_normalize(f: MultiPoly) -> MultiPoly:
    """Constant-scale normalization: `content_scale` applied to every coefficient."""
    if f.is_zero:
        return f
    k = content_scale(f.ctx.field, (c.rep for _, c in f.terms), f.lc.rep.nums[-1])
    if k == 1:
        return f
    return MultiPoly.from_sorted(f.ctx, [(m, c.scale_scalar(k)) for m, c in f.terms])


class _ResidueRing:
    """K[x1]/(q) for the shared search; the ring shrinks as univariate members appear.

    A pair is skipped only when its skip multiplier is a unit, or, without
    base change, coprime to the temporary eliminant (chi-delta).  With base
    change a univariate member rebases the run to the smaller modulus (see
    below); without it the member shrinks the temporary eliminant `e`.  The
    finish step queues the pairs (slot, q), or (slot, e) once `e` exists,
    of the basis elements whose leading coefficient is no unit, until
    nothing changes.  proper_divide is called through this
    module's globals, where perfbench's tracer binds its wrapper.

    The basis update (see `engine.Elimination`): h supersedes g when lm h
    divides lm g and the leading term of g has a proper step against h,
    that is, H/gcd(G, H) is a unit mod q, where H, G and F are the
    representatives of lc h, lc g and lc f that the steps read.  For a prime p dividing q,
    A/gcd(B, A) is a unit at p exactly when v_p(A) <= v_p(B); so the test
    is v_p(H) <= v_p(G) at every such p, and it is transitive.  Retiring g
    is sound because:

    (i) H/gcd(G, H) is a unit mod q, so any term c*m properly reducible by
        g, with v_p(G) <= v_p(c), is properly reducible by h: the set
        of reducible terms does not change when g stops being a divisor.
    (ii) For every later f the triangular identity through h excuses
        S(f, g): lm h divides lm g and so lcm(lm f, lm g), and the
        multiplier lam = H/gcd(lcm(F, G), H) divides the unit H/gcd(G, H),
        because gcd(G, H) divides gcd(lcm(F, G), H); so lam is a unit.  The
        companion pair (g, h) was decided when h was inserted and (f, h) is
        decided when f arrives (or, if h was retired first, excused in turn
        through its superseder), so the rewrite chain points backwards.
    (iii) The modulus pair of g: take a in ann(lc g) and write the proper
        step of lt g against h as u*g = c*m*h + g', with u a unit and g' a
        constant times S(g, h).  Then a*c*lc h = a*u*lc g = 0, so a*c lies
        in ann(lc h), and a*g reduces through S(h, q) and S(g, h).  The
        same holds against the temporary eliminant e, a divisor of q.

    A rebase is `Elimination.remap`, one rule: the retired elements return,
    every element is projected into the new ring (`project_multipoly`), an
    element whose leading monomial moved loses
    its pairs and decisions, and every basis pair without a decision is
    decided.  The retired elements return because mod the new modulus a
    superseder, or g itself, may lose its leading coefficient, so lm h may
    no longer divide lm g and (i)-(iii) no longer hold.  A returned element
    keeps its decisions, which stay valid as those of any element whose
    leading monomial does not move, and its pairs with the elements
    inserted after it was retired are decided in the new ring.  (Dropping
    its decisions and deciding all its pairs again lost a pair in a run
    that `test_rebase_keeps_the_decisions_of_restored_elements` pins.)
    Over K[x1] nothing is retired, because every pair the search skips
    must record its multiplier for the authenticity screen.
    """

    reduced = staticmethod(properly_reduced)

    @staticmethod
    def normalize(f: MultiPoly) -> MultiPoly:
        """f times the inverse of lc f if that is a non-constant unit, then `_unit_normalize`d.

        `is_unit` tests lc f by a gcd with q, and `inverse` inverts a unit.
        The search may insert u*f for f: it generates the same ideal, has
        leading monomial lm f and a leading coefficient that generates the
        same ideal as lc f, so the leading-term ideal grows as with f; every
        step against a leading coefficient of one divides, so it is proper;
        and the pair criteria, the basis update (i)-(iii) and the finish step
        read the elements as they are inserted.  Scaling leading coefficients
        that are no unit as well changed no report, but slowed Q runs.
        """
        if not f.lc.rep.is_constant and f.lc.is_unit():
            f = f.scale(f.lc.inverse())
        return _unit_normalize(f)

    def __init__(self, var_ctx: VarContext, strategy: StrategyConfig):
        self.var_ctx = var_ctx
        self.ring: PqrCtx = var_ctx.ring
        self.start_ring = self.ring
        self.strategy = strategy
        self.e: UniPoly | None = None   # nonzero temporary eliminant (no base change)
        self.behead_done: set = set()   # tested (slot, q or e); q and e only shrink

    def reduce(self, s: MultiPoly, basis: list[MultiPoly]) -> MultiPoly:
        if s.is_coeff:
            return s
        return proper_divide(s, basis).remainder

    @staticmethod
    def supersedes(h: MultiPoly, g: MultiPoly) -> bool:
        """Whether the leading term of g has a proper step against h alone (see above)."""
        return _proper_step([h], g.lm, g.lc) is not None

    def rank(self, lam: PqrElem):
        """(deg gcd(lam, q), the rest of deg lam): lam is a unit exactly when rank[0] == 0."""
        st = poly_gcd(lam.rep, self.ring.modulus)
        return (st.degree, lam.rep.degree - st.degree)

    def excuse(self, lam: PqrElem, rank=None) -> bool:
        """Whether lam excuses a pair; a triangular candidate's `rank` already tells a unit."""
        unit = lam.is_unit() if rank is None else rank[0] == 0
        return unit or (
            self.strategy.chi_delta
            and not self.strategy.base_change
            and self.e is not None
            and poly_gcd(lam.rep, self.e).is_constant
        )

    # ----- univariate members: shrink the modulus / rebase

    def fold_univariate(self, run: Elimination, r: PqrElem) -> bool:
        g = poly_gcd(r.rep, self.ring.modulus)
        if g.is_constant:
            return False
        if self.strategy.base_change:
            if g != self.ring.modulus:
                self._rebase(run, g)
            return True
        if self.e is not None:
            g = poly_gcd(g, self.e)
            if g.is_constant:
                return False
        self.e = g
        return True

    def _rebase(self, run: Elimination, new_modulus: UniPoly):
        """Continue over the smaller ring modulo new_modulus."""
        self.ring = PqrCtx(new_modulus)
        self.var_ctx = self.var_ctx.with_ring(self.ring)
        for r in run.remap(partial(project_multipoly, target=self.var_ctx)):
            if run.inconsistent:
                return
            run.fold(r)

    # ----- the finish step

    def finish(self, run: Elimination) -> ProperOutcome:
        while not run.inconsistent:
            before = (self.ring.modulus, self.e, run.slots())
            self._behead_round(run)
            run.drain()
            if (self.ring.modulus, self.e, run.slots()) == before:
                break
        if run.inconsistent:
            return ProperOutcome(
                ctx=self.start_ring,
                eliminant=UniPoly.one(self.start_ring.field),
                basis=[],
                basis_var_ctx=self.var_ctx,
                inconsistent=True,
            )
        e = self.e
        if self.strategy.base_change:
            e = None if self.ring == self.start_ring else self.ring.modulus
        return ProperOutcome(
            ctx=self.start_ring, eliminant=e, basis=run.polys(), basis_var_ctx=self.var_ctx
        )

    def _behead_round(self, run: Elimination):
        """Queue the pairs of the basis against the modulus or the temporary eliminant.

        Each (slot, against) is tested once: a slot's element changes only on
        a rebase, and a rebase changes `against`, which never grows back.
        """
        against = self.ring.modulus if self.e is None else self.e
        for _, slot, f in run.basis:
            if (slot, against) in self.behead_done:
                continue
            self.behead_done.add((slot, against))
            if not poly_gcd(f.lc.rep, against).is_constant:
                run.push(run.order.key(f.lm), slot, against)


def proper_eliminant(
    generators: list[MultiPoly],
    var_ctx: VarContext,
    strategy: StrategyConfig | None = None,
) -> ProperOutcome:
    """Modular eliminant/basis computation over a residue context.

    `generators` are polynomials over the base context (coefficients in
    K[x1]); each is projected coefficient-wise into the ring the run is in
    when it reads it: a univariate generator may rebase the ring before the
    next is read.
    """
    strategy = strategy or StrategyConfig()
    ring = _ResidueRing(var_ctx, strategy)
    return Elimination(ring, var_ctx.order, strategy).run(
        project_multipoly(g, ring.var_ctx) for g in generators
    )
