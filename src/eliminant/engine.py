"""The eliminant search, its pair formulas and the division loop, for both coefficient rings.

The method runs one Buchberger-style search twice: over K[x1] with
pseudo-division (pseudo.py) and over residue rings K[x1]/(q), which have zero
divisors, with proper division (pqr.py).  In both runs every multiplier is an
lcm of leading-coefficient representatives divided by one of them, so the
pair formulas (`spoly`, `coprime_multiplier`, `triangular_multiplier`,
`check_triangular_identity`) and the division step (`lcm_step`) are written
once here: each computes on representatives in K[x1] (`rep`) and projects
the result with `f.ctx.ring.elem`, which is the identity over K[x1].

`Elimination` holds what the two runs share: the basis kept in order, the
queue of pairs, whose S-polynomials are formed only when popped, the pair
order, the coprime and triangular pair criteria and the drain loop.  A ring
adapter supplies only what differs:

- `reduce` (one division of an S-polynomial, returning the remainder),
  `reduced` and `normalize`;
- `rank` (which triangular candidate is tried first);
- `excuse`: whether a pair with a given skip multiplier may be skipped, and
  what that entails; a triangular candidate's rank comes along, so the
  residue ring reads a unit off it;
- `fold_univariate(run, r)` for a univariate member (False once the ideal is
  trivial) and `finish(run)`, which turns the drained run into an outcome;
- `supersedes(h, g)`, or None: which elements a new element h retires from
  the basis (the basis update of `Elimination`).

Coefficients of both rings offer `rep`, and `ctx.ring` offers
`elem`, `zero_elem` and `one_elem`, so no caller asks which ring it holds and
one `sort_key` orders the basis of both searches and of the basis ladder.

`divide` is the one division loop.  Both searches divide with `lcm_step`,
which differs between the rings only in the multipliers it admits;
assembly's gcd-division plugs its own step into the same loop.  A step
needs a multiplier only when the representative of the divisor's leading
coefficient does not divide that of the term's coefficient; otherwise it
divides, and the dividend is not rescaled.
"""

from __future__ import annotations

import os
from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .multipoly import MultiPoly, mon_coprime, mon_div, mon_divides, mon_lcm
from .unipoly import UniPoly, divrem, exact_div, lcm_cofactors, poly_gcd, poly_lcm


class InvalidSPolyInput(ValueError):
    pass


DEBUG_ENV = "ELIMINANT_DEBUG_CHECKS"


def debug_checks_enabled() -> bool:
    """Whether the debug checks run: the one switch is the ELIMINANT_DEBUG_CHECKS variable."""
    return os.environ.get(DEBUG_ENV, "") not in ("", "0")


def sort_key(f: MultiPoly):
    """The basis order of both searches and the basis ladder: (order key of lm f, deg lc f)."""
    return f.ctx.order.key(f.lm), f.lc.rep.degree


# -- the pair formulas ------------------------------------------------------------


def spoly(f: MultiPoly, g, check: bool = False) -> MultiPoly:
    """S-polynomial of f and g, where g has tail variables or is a coefficient.

    Both leading terms are lifted to their least common multiple.  The
    multipliers lcm(lc f, lc g) / lc are computed on representatives in
    K[x1] and then projected into the coefficient ring; in a residue ring
    they are never zero, even when the lcm of the leading coefficients
    vanishes there.  Against a coefficient g the S-polynomial is f's tail
    times f's multiplier.  g may also be a polynomial of K[x1] that vanishes
    in the ring, such as the modulus q: the S-polynomial is then
    tail(f) * q / gcd(lc f, q), up to a constant.

    The leading terms cancel, on representatives and therefore in the ring,
    so they are never formed; `check` (the debug checks) verifies that they
    would.
    """
    if f.is_zero or f.is_coeff:
        raise InvalidSPolyInput("first operand must have tail variables")
    if isinstance(g, MultiPoly) and g.is_coeff:
        g = g.as_coeff()
    elem = f.ctx.ring.elem
    coeff = not isinstance(g, MultiPoly)
    if coeff and g.is_zero:
        raise InvalidSPolyInput("zero operand")
    lg = g if coeff else g.lc
    cf, cg = lcm_cofactors(f.lc.rep, lg.rep)
    cf = elem(cf)
    if check and f.lc * cf != elem(lg.rep * cg):
        raise AssertionError("S-polynomial leading terms do not cancel")
    if coeff:
        return f.tail().scale(cf)
    gamma = mon_lcm(f.lm, g.lm)
    return f.tail_difference(cf, mon_div(gamma, f.lm), g, elem(cg), mon_div(gamma, g.lm))


def coprime_multiplier(f: MultiPoly, g: MultiPoly):
    """gcd(lc f, lc g) when the leading monomials are coprime, else None.

    When defined, d*S(f,g) = (f - lt f)*g - (g - lt g)*f, so S(f,g) reduces
    to zero by {f, g} with multiplier d and can be skipped when the ring
    excuses d.  In a residue ring the gcd of the representatives is a unit
    exactly when the gcd of the residues is.
    """
    if f.is_coeff or g.is_coeff:
        raise InvalidSPolyInput("operands must have tail variables")
    if not mon_coprime(f.lm, g.lm):
        return None
    return f.ctx.ring.elem(poly_gcd(f.lc.rep, g.lc.rep))


def _triangular_lift(m: UniPoly, h: MultiPoly) -> UniPoly:
    """lam = lc h / gcd(m, lc h) on representatives, for the pair's m = lcm(lc f, lc g)."""
    lh = h.lc.rep
    return exact_div(lh, poly_gcd(m, lh))


def triangular_multiplier(f: MultiPoly, g: MultiPoly, h: MultiPoly):
    """Multiplier of the triangular identity rewriting S(f,g) through h.

    None when lm h does not divide lcm(lm f, lm g).
    """
    if not mon_divides(h.lm, mon_lcm(f.lm, g.lm)):
        return None
    return f.ctx.ring.elem(_triangular_lift(poly_lcm(f.lc.rep, g.lc.rep), h))


def check_triangular_identity(f: MultiPoly, g: MultiPoly, h: MultiPoly) -> bool:
    """Expand the triangular identity for S(f,g) through h and verify it.

    lam*S(f,g) = c1*S(f,h) - c2*S(g,h) with c1 = lam*lcm(f,g)/lcm(f,h) and
    c2 = lam*lcm(f,g)/lcm(g,h), on leading coefficients and monomials alike.
    The coefficient quotients are exact only on representatives, where
    lam*lcm(f,g) is lcm(lc f, lc g, lc h); the identity itself is compared
    in the ring.
    """
    gamma = mon_lcm(f.lm, g.lm)
    if not mon_divides(h.lm, gamma):
        return False
    elem = f.ctx.ring.elem
    m = poly_lcm(f.lc.rep, g.lc.rep)
    lam = _triangular_lift(m, h)
    top = lam * m
    lh = h.lc.rep
    c1 = elem(exact_div(top, poly_lcm(f.lc.rep, lh)))
    c2 = elem(exact_div(top, poly_lcm(g.lc.rep, lh)))
    rhs = spoly(f, h).mul_term(c1, mon_div(gamma, mon_lcm(f.lm, h.lm))) - spoly(
        g, h
    ).mul_term(c2, mon_div(gamma, mon_lcm(g.lm, h.lm)))
    return spoly(f, g).scale(elem(lam)) == rhs


# -- the division loop ------------------------------------------------------------


@dataclass
class Division:
    remainder: MultiPoly
    divisors: list
    steps: list                    # (mu, mon, parts) per step, as the step rule gave them

    @property
    def multiplier(self):
        """The product of the step multipliers: in K[x1], or a unit of the residue ring."""
        lam = self.remainder.ctx.ring_one()
        for mu, _, _ in self.steps:
            if not mu.is_one:
                lam = lam * mu
        return lam


def lcm_step(divisors, mon, c, admits=None):
    """The lcm division step, a step rule for `divide`.

    The term c*mon is cleared against the first divisor b whose leading
    monomial divides mon and whose interim multiplier lcm(c, lc b) / c, on
    representatives, the ring admits: `admits` is None when every multiplier
    is admitted, as over K[x1].

    A step needs a multiplier only when lc b does not divide c, on
    representatives.  When it divides (a nonzero constant lc b always does,
    and c is scaled by its inverse; otherwise one `divrem` tells) the step
    has multiplier one and factor c / lc b, so `divide` does not rescale the
    dividend.  Only a step that does not divide calls `lcm_cofactors`, with
    the gcd continued from that `divrem`: gcd(c, lc b) is gcd(lc b,
    remainder), so the cofactors are the same.  This divides as taking the
    lcm cofactors at every step would:

    - the same divisor is chosen, because a divisible step's interim
      multiplier lcm / c is a nonzero constant, which every ring admits (a
      constant is a unit of K[x1]/(q));
    - each remainder differs from the one the cofactors give only by a
      nonzero constant, since the cofactors clear the same term with
      multiplier 1 / lc(c) and that factor times it.  A constant does not
      change which term is reducible nor against which divisor, and it
      scales the interim multiplier of a later step that does not divide
      by its inverse;
    - so every non-constant multiplier is unchanged up to a constant, and
      `pseudo.multipliers` (recorded monic), the units `admits` accepts and
      the split are unchanged; `normalize_content` and the residue ring's
      `normalize` remove the constant before a remainder is stored, and
      folding takes a gcd or the monic part.
    """
    for i, b in enumerate(divisors):
        if mon_divides(b.lm, mon):
            ring = b.ctx.ring
            lb = b.lc.rep
            if lb.is_constant:
                return ring.one_elem(), [(i, ring.elem(c.rep.scale(lb._lc_inverse())))]
            quo, rem = divrem(c.rep, lb)
            if rem.is_zero:
                return ring.one_elem(), [(i, ring.elem(quo))]
            cu, cb = lcm_cofactors(c.rep, lb, poly_gcd(lb, rem))
            mu = ring.elem(cu)
            if admits is None or admits(mu):
                return mu, [(i, ring.elem(cb))]
    return None


def divide(f: MultiPoly, divisors: list[MultiPoly], step) -> Division:
    """Reduce f by the divisors until no term has a step.

    `step(divisors, mon, c)` returns None when the term c*mon cannot be
    reduced, else (mu, [(i, factor), ...]): the dividend is scaled by mu and
    factor * (mon / lm b_i) * b_i is subtracted for each part.  The first
    reducible term in decreasing order is reduced each time, and

        multiplier * f == sum(quotients[i] * divisors[i]) + remainder,

    where the quotients follow from the step log; no served path reads them.
    """
    for b in divisors:
        if b.is_zero or b.is_coeff:
            raise InvalidSPolyInput("divisors must have tail variables")
    steps = []
    h = f
    while True:
        for mon, c in h.terms:
            hit = step(divisors, mon, c)
            if hit is not None:
                break
        else:
            return Division(h, divisors, steps)
        mu, parts = hit
        steps.append((mu, mon, parts))
        if not mu.is_one:
            h = h.scale(mu)
        for i, factor in parts:
            h = h.sub_mul_term(divisors[i], factor, mon_div(mon, divisors[i].lm))
        if not h.coeff_at(mon).is_zero:
            raise AssertionError("division step failed to clear its term")


def reduced(f: MultiPoly, divisors: list[MultiPoly], step) -> bool:
    """True when no term of f has a step against the divisors."""
    return all(step(divisors, mon, c) is None for mon, c in f.terms)


# -- the eliminant search ---------------------------------------------------------


class Elimination:
    """One run of the eliminant search over the ring that `ring` adapts.

    The queue holds pairs (i, j): i is a basis slot and j another slot or a
    polynomial of K[x1] that vanishes in the ring (the modulus, or the
    temporary eliminant), and the S-polynomial is formed from the current
    elements when the pair is popped.  Queue entries and basis entries carry
    a unique seq or slot first, so ties never compare polynomials and the pop
    order is the (lcm key, seq) order.  The debug switch is read once, when
    the run starts.

    The basis update (Gebauer & Möller 1988, JSC 6) runs under the
    triangular criterion, for a ring whose adapter defines
    `supersedes(h, g)`; over K[x1] it is None.  Once an inserted element h
    has had its pairs decided, `retire` moves every element g that h
    supersedes out of the basis into `superseded`.  g is then no longer a
    divisor, a triangular candidate or a partner for new pairs, but queued
    pairs that name it are still formed from `arena`.  The update is the
    triangular criterion applied once, when h arrives: for each later f,
    S(f, g) is the pair the criterion would excuse through h, and its
    companion pairs point backwards, since (g, h) was decided when h was
    inserted and (f, h) is decided when f arrives, or is itself excused
    through the element that retired h.  `_ResidueRing` gives the argument
    in its ring.

    A rebase is one call, `remap`, which applies one rule to the whole run:
    see there.
    """

    def __init__(self, ring, order, strategy):
        self.ring = ring
        self.order = order
        self.strategy = strategy
        self.check = debug_checks_enabled()
        self.arena: list = []           # slot -> polynomial, None once dropped
        self.basis: list = []           # (sort key, slot, polynomial), increasing
        self.queue: list = []           # heap of (lcm key, seq, slot, slot or K[x1] operand)
        self.seq = 0
        self.decided_pairs: set = set()
        self.inconsistent = False
        self.superseded: set = set()    # slots `retire` moved out of the basis, until a rebase
        self.supersedes = ring.supersedes if strategy.triangular_skip else None

    def polys(self) -> list[MultiPoly]:
        return [f for _, _, f in self.basis]

    def slots(self) -> list[int]:
        return sorted(slot for _, slot, _ in self.basis)

    def insert(self, f: MultiPoly, check_growth: bool = False) -> int:
        if check_growth and self.check:
            if not self.ring.reduced(f, self.polys()):
                raise AssertionError("inserted element not reduced: lt ideal did not grow")
        slot = len(self.arena)
        self.arena.append(f)
        insort(self.basis, (sort_key(f), slot, f))
        return slot

    def push(self, key, i: int, j):
        heappush(self.queue, (key, self.seq, i, j))
        self.seq += 1

    def fold(self, r):
        if not r.is_zero and not self.ring.fold_univariate(self, r):
            self.inconsistent = True

    def remap(self, move) -> list:
        """Rebase the run by `move`, a ring homomorphism such as a projection.

        The one rule of a rebase: every retired element returns to the
        basis with its decisions and queued pairs, since in the new ring its
        superseder may lose its leading coefficient; every element is moved,
        and one that becomes univariate leaves the run and is returned for
        folding; an element that left, or whose leading monomial moved,
        loses the queued pairs and decisions that read it; and every basis
        pair without a decision is decided.  Every other queued pair is
        formed from the moved elements when it is popped.
        """
        returned = [(sort_key(self.arena[k]), k, self.arena[k]) for k in self.superseded]
        self.superseded = set()
        univariates = []
        basis = []
        moved = set()
        for _, slot, f in sorted(self.basis + returned):
            g = move(f)
            if g.is_coeff:
                self.arena[slot] = None
                univariates.append(g.as_coeff())
                moved.add(slot)
            else:
                self.arena[slot] = g
                basis.append((sort_key(g), slot, g))
                if g.lm != f.lm:
                    moved.add(slot)
        self.basis = sorted(basis)
        if moved:
            self.queue = [e for e in self.queue if e[2] not in moved and e[3] not in moved]
            heapify(self.queue)
            self.decided_pairs = {p for p in self.decided_pairs if not p & moved}
        self.decide_undecided()
        return univariates

    # -- pair decisions

    def pair_key(self, i: int, j: int):
        return self.order.key(mon_lcm(self.arena[i].lm, self.arena[j].lm))

    def decide_undecided(self):
        """Decide every basis pair that has no decision yet."""
        ids = self.slots()
        self.decide_batch([
            (i, j) for a, i in enumerate(ids) for j in ids[a + 1 :]
            if frozenset((i, j)) not in self.decided_pairs
        ])

    def decide_batch(self, pairs: list[tuple[int, int]]):
        """Decide the pairs in (lcm key, i, j) order, each key computed once."""
        for key, i, j in sorted([(self.pair_key(i, j), i, j) for i, j in pairs]):
            self.decide_pair(i, j, key)
            self.decided_pairs.add(frozenset((i, j)))

    def decide_pair(self, i: int, j: int, key):
        """Skip the pair (i, j) by a criterion or queue it under its lcm key."""
        f, g = self.arena[i], self.arena[j]
        if (
            self.strategy.coprime_skip
            and (lam := coprime_multiplier(f, g)) is not None
            and self.ring.excuse(lam)
        ):
            return
        if self.strategy.triangular_skip and self._try_triangular(i, j):
            return
        self.push(key, i, j)

    def _try_triangular(self, i: int, j: int) -> bool:
        # a pair may be excused through h only when both of its companion
        # pairs were already decided: the rewrite chain then points strictly
        # backwards and can never lose an S-polynomial in a cycle.
        # lcm(lc f, lc g) is computed once per search, when a first candidate
        # passes the monomial test, and serves every candidate's multiplier.
        f, g = self.arena[i], self.arena[j]
        gamma = mon_lcm(f.lm, g.lm)
        elem = f.ctx.ring.elem
        m = None
        candidates = []
        for pos, (_, k, h) in enumerate(self.basis):
            if (
                k in (i, j)
                or not mon_divides(h.lm, gamma)
                or frozenset((i, k)) not in self.decided_pairs
                or frozenset((j, k)) not in self.decided_pairs
            ):
                continue
            if m is None:
                m = poly_lcm(f.lc.rep, g.lc.rep)
            lam = elem(_triangular_lift(m, h))
            candidates.append((self.ring.rank(lam), pos, k, lam))
        candidates.sort(key=lambda t: t[:2])
        for rank, _, k, lam in candidates:
            if not self.ring.excuse(lam, rank):
                continue
            if self.check and not check_triangular_identity(f, g, self.arena[k]):
                raise AssertionError("triangular identity failed to verify")
            return True
        return False

    # -- the main loop

    def run(self, generators):
        """Load the generators, decide every pair, drain the queue, finish.

        `generators` is read lazily, so a ring that changes while a univariate
        generator is folded can project each later one when it is read.
        """
        for f in generators:
            if f.is_coeff:
                self.fold(f.as_coeff())
                if self.inconsistent:
                    break
            else:
                self.insert(self.ring.normalize(f))
        if not self.inconsistent:
            self.decide_undecided()
            self.drain()
        return self.ring.finish(self)

    def drain(self):
        while self.queue and not self.inconsistent:
            _, _, i, j = heappop(self.queue)
            g = self.arena[j] if isinstance(j, int) else j
            s = spoly(self.arena[i], g, self.check)
            if s.is_zero:
                continue
            r = self.ring.reduce(s, self.polys())
            if r.is_coeff:
                self.fold(r.as_coeff())
                continue
            slot = self.insert(self.ring.normalize(r), check_growth=True)
            self.decide_batch([(i, slot) for _, i, _ in self.basis if i != slot])
            if self.supersedes is not None:
                self.retire(slot)

    # -- the basis update

    def retire(self, slot: int):
        """Move out of the basis every element that h, the element in `slot`, supersedes."""
        h = self.arena[slot]
        kept = []
        for entry in self.basis:
            if entry[1] != slot and self.supersedes(h, entry[2]):
                self.superseded.add(entry[1])
            else:
                kept.append(entry)
        self.basis = kept
