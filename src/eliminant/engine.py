"""The eliminant search and the division loop shared by both coefficient rings.

The method runs one Buchberger-style search twice: over K[x1] with
pseudo-division (pseudo.py) and over residue rings K[x1]/(q), which have zero
divisors, with proper division (pqr.py).  `Elimination` holds what the two
runs share: the basis kept in order, the pair queue, the pair order, the
coprime and triangular pair criteria and the drain loop.  A ring adapter
supplies only what differs:

- `spoly`, `reduce` (one division of an S-polynomial, returning the
  remainder), `reduced` and `normalize`;
- `sort_key`, the (leading monomial key, lc degree) of a basis element;
- `coprime_multiplier`, `triangular_multiplier`, `rank` (which triangular
  candidate is tried first) and `check_triangle` (the debug check);
- `excuse`: whether a pair with a given skip multiplier may be skipped, and
  what that entails;
- `fold_univariate(run, r)` for a univariate member (False once the ideal is
  trivial) and `finish(run)`, which turns the drained run into an outcome.

`divide` is the one division loop; each ring's division is a step rule
plugged into it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .multipoly import MultiPoly, mon_coprime, mon_div, mon_divides, mon_lcm


class InvalidSPolyInput(ValueError):
    pass


# -- the division loop ------------------------------------------------------------


@dataclass
class Division:
    multiplier: object             # in K[x1], or a unit of the residue ring
    quotients: list
    remainder: MultiPoly


def divide(f: MultiPoly, divisors: list[MultiPoly], step) -> Division:
    """Reduce f by the divisors until no term has a step.

    `step(divisors, mon, c)` returns None when the term c*mon cannot be
    reduced, else (mu, [(i, factor), ...]): the dividend is scaled by mu and
    factor * (mon / lm b_i) * b_i is subtracted for each part.  The first
    reducible term in decreasing order is reduced each time, and

        multiplier * f == sum(quotients[i] * divisors[i]) + remainder.
    """
    for b in divisors:
        if b.is_zero or b.is_coeff:
            raise InvalidSPolyInput("divisors must have tail variables")
    ctx = f.ctx
    lam = ctx.ring_one()
    quotients = [{} for _ in divisors]     # term maps, built into polynomials once
    h = f
    while True:
        for mon, c in h.terms:
            hit = step(divisors, mon, c)
            if hit is not None:
                break
        else:
            return Division(lam, [MultiPoly(ctx, q) for q in quotients], h)
        mu, parts = hit
        if not mu.is_one:
            lam = lam * mu
            h = h.scale(mu)
            quotients = [{m: a * mu for m, a in q.items()} for q in quotients]
        for i, factor in parts:
            b = divisors[i]
            shift = mon_div(mon, b.lm)
            h = h.sub_mul_term(b, factor, shift)
            q = quotients[i]
            q[shift] = q[shift] + factor if shift in q else factor
        if not h.coeff_at(mon).is_zero:
            raise AssertionError("division step failed to clear its term")


def reduced(f: MultiPoly, divisors: list[MultiPoly], step) -> bool:
    """True when no term of f has a step against the divisors."""
    return all(step(divisors, mon, c) is None for mon, c in f.terms)


# -- the eliminant search ---------------------------------------------------------


class Elimination:
    """One run of the eliminant search over the ring that `ring` adapts.

    Queue entries and basis entries carry a unique seq or slot before the
    polynomial, so ties never compare polynomials and the pop order is the
    (lcm key, seq) order.
    """

    def __init__(self, ring, order, strategy):
        self.ring = ring
        self.order = order
        self.strategy = strategy
        self.arena: list = []           # slot -> polynomial, None once dropped
        self.basis: list = []           # (sort key, slot, polynomial), increasing
        self.queue: list = []           # heap of (lcm key, seq, S-polynomial)
        self.seq = 0
        self.used_triplets: set = set()
        self.decided_pairs: set = set()
        self.inconsistent = False

    def polys(self) -> list[MultiPoly]:
        return [f for _, _, f in self.basis]

    def slots(self) -> list[int]:
        return sorted(slot for _, slot, _ in self.basis)

    def insert(self, f: MultiPoly, check_growth: bool = False) -> int:
        if check_growth and self.strategy.debug_checks:
            if not self.ring.reduced(f, self.polys()):
                raise AssertionError("inserted element not reduced: lt ideal did not grow")
        slot = len(self.arena)
        self.arena.append(f)
        insort(self.basis, (self.ring.sort_key(f), slot, f))
        return slot

    def push(self, key, s: MultiPoly):
        heappush(self.queue, (key, self.seq, s))
        self.seq += 1

    def fold(self, r):
        if not r.is_zero and not self.ring.fold_univariate(self, r):
            self.inconsistent = True

    def remap(self, move) -> list:
        """Apply `move` to every basis element and queued S-polynomial.

        Polynomials that become univariate leave the run and are returned
        for folding; the basis is re-sorted, since leading data may change.
        """
        univariates = []
        basis = []
        for _, slot, f in self.basis:
            f = move(f)
            if f.is_coeff:
                self.arena[slot] = None
                univariates.append(f.as_coeff())
            else:
                self.arena[slot] = f
                basis.append((self.ring.sort_key(f), slot, f))
        queue = []
        for key, seq, s in self.queue:
            s = move(s)
            if s.is_coeff:
                univariates.append(s.as_coeff())
            else:
                queue.append((key, seq, s))
        basis.sort()
        heapify(queue)
        self.basis, self.queue = basis, queue
        return univariates

    # -- pair decisions

    def pair_key(self, i: int, j: int):
        return self.order.key(mon_lcm(self.arena[i].lm, self.arena[j].lm))

    def decide_batch(self, pairs: list[tuple[int, int]]):
        for i, j in sorted(pairs, key=lambda p: (self.pair_key(*p), p)):
            self.decide_pair(i, j)
            self.decided_pairs.add(frozenset((i, j)))

    def decide_pair(self, i: int, j: int):
        f, g = self.arena[i], self.arena[j]
        ring = self.ring
        if (
            self.strategy.coprime_skip
            and mon_coprime(f.lm, g.lm)
            and ring.excuse(ring.coprime_multiplier(f, g))
        ):
            return
        if self.strategy.triangular_skip and self._try_triangular(i, j):
            return
        s = ring.spoly(f, g)
        if not s.is_zero:
            self.push(self.pair_key(i, j), s)

    def _try_triangular(self, i: int, j: int) -> bool:
        # a pair may be excused through h only when both of its companion
        # pairs were already decided: the rewrite chain then points strictly
        # backwards and can never lose an S-polynomial in a cycle
        f, g = self.arena[i], self.arena[j]
        gamma = mon_lcm(f.lm, g.lm)
        candidates = []
        for pos, (_, k, h) in enumerate(self.basis):
            if k in (i, j) or frozenset((i, j, k)) in self.used_triplets:
                continue
            if (
                frozenset((i, k)) not in self.decided_pairs
                or frozenset((j, k)) not in self.decided_pairs
            ):
                continue
            if not mon_divides(h.lm, gamma):
                continue
            lam = self.ring.triangular_multiplier(f, g, h)
            candidates.append((self.ring.rank(lam), pos, k, lam))
        candidates.sort(key=lambda t: t[:2])
        for _, _, k, lam in candidates:
            if not self.ring.excuse(lam):
                continue
            self.used_triplets.add(frozenset((i, j, k)))
            if self.strategy.debug_checks and not self.ring.check_triangle(f, g, self.arena[k]):
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
            ids = self.slots()
            self.decide_batch([(i, j) for a, i in enumerate(ids) for j in ids[a + 1 :]])
            self.drain()
        return self.ring.finish(self)

    def drain(self):
        while self.queue and not self.inconsistent:
            _, _, s = heappop(self.queue)
            r = self.ring.reduce(s, self.polys())
            if r.is_coeff:
                self.fold(r.as_coeff())
                continue
            slot = self.insert(self.ring.normalize(r), check_growth=True)
            self.decide_batch([(i, slot) for _, i, _ in self.basis if i != slot])
