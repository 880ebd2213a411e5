"""Seeded known-answer inputs for the benchmark.

Every ideal starts as <f(z), y - g(z), x - h(z)> with deg g, deg h < deg f and
is scrambled by invertible elementary operations B_i <- B_i + m*B_j.  The
operations leave the ideal unchanged, so its eliminant is exactly monic f,
and a probe P lies in the ideal exactly when P(z, g(z), h(z)) = 0 mod f.
Both answers come from the integer arithmetic in this file, never from the
engine under test.

Polynomials are dicts {(ez, ey, ex): int}.  Over Q every coefficient stays an
integer because f is monic; over GF(p) coefficients are residues in [0, p).
The ideal at position `index` of a workload depends only on (workload, seed,
index), so a pool of any size is a prefix of one fixed sequence.  Shapes
(degrees, multiplicities) and structural templates (which generator is
scrambled into which, with which monomial) cycle through a fixed schedule and
the seed draws only the coefficients, so every seed yields the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARS = ("z", "y", "x")          # exponent tuples index (z, y, x); z is eliminated to


# -- polynomial arithmetic over Z or Z/p ---------------------------------------


def _norm(c: int, p: int) -> int:
    return c % p if p else c


def padd(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for m, c in b.items():
        v = _norm(out.get(m, 0) + c, p)
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def pmul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for (a0, a1, a2), ca in a.items():
        for (b0, b1, b2), cb in b.items():
            m = (a0 + b0, a1 + b1, a2 + b2)
            out[m] = out.get(m, 0) + ca * cb
    return {m: v for m, c in out.items() if (v := _norm(c, p))}


def umul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _utrim([_norm(c, p) for c in out])


def _utrim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def umod(a: list, f: list, p: int) -> list:
    """Remainder of a modulo the monic f."""
    r = list(a)
    d = len(f) - 1
    for k in range(len(r) - 1, d - 1, -1):
        c = r[k]
        if not c:
            continue
        for i, fc in enumerate(f):
            r[k - d + i] = _norm(r[k - d + i] - c * fc, p)
    return _utrim(r[:d])


def uadd(a: list, b: list, p: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    return _utrim([_norm(c + (b[i] if i < len(b) else 0), p) for i, c in enumerate(a)])


def residue(poly: dict, f: list, g: list, h: list, p: int) -> list:
    """P(z, g(z), h(z)) mod f, as an ascending coefficient list."""
    bases = ([0, 1], g, h)
    powers: tuple = ([[1]], [[1]], [[1]])
    acc: list = []
    for mon, c in poly.items():
        t = [c]
        for base, pw, e in zip(bases, powers, mon):
            while len(pw) <= e:
                pw.append(umod(umul(pw[-1], base, p), f, p))
            t = umod(umul(t, pw[e], p), f, p)
        acc = uadd(acc, t, p)
    return acc


def fmt(poly: dict) -> str:
    """Text in the engine's input grammar, highest x, then y, then z first."""
    if not poly:
        return "0"
    out = []
    for (ez, ey, ex), c in sorted(poly.items(), key=lambda mc: mc[0][::-1], reverse=True):
        factors = [
            v if e == 1 else f"{v}^{e}" for v, e in (("x", ex), ("y", ey), ("z", ez)) if e
        ]
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def univariate(coeffs: list) -> dict:
    return {(k, 0, 0): c for k, c in enumerate(coeffs) if c}


# -- workloads ---------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    text: str
    eliminant: tuple          # monic f, ascending in z
    probes: tuple             # ((probe text, is member), ...)


@dataclass(frozen=True)
class Workload:
    name: str
    p: int                    # 0 for Q
    probes_per_ideal: int
    pool: int                 # distinct ideals generated per run
    forms: int                # structural templates, a multiple of len(shapes)
    shapes: tuple             # cycled by ideal index

    def case(self, seed: int, index: int) -> Case:
        """The ideal at `index`: its structure from a seed-free template, its numbers from the seed.

        The template fixes which generator is scrambled into which, with
        which monomial, and how probes are built; the seed draws every
        coefficient.  All seeds therefore share one structural mix.
        """
        form = random.Random(f"{self.name}:form:{index % self.forms}")
        rng = random.Random(f"{self.name}:{seed}:{index}")
        shape = self.shapes[index % len(self.shapes)]
        p = self.p
        blocks = self._blocks(rng, shape["blocks"])
        f = [1]
        for a, (_, e) in zip(blocks, shape["blocks"]):
            for _ in range(e):
                f = umul(f, a, p)
        d = len(f) - 1
        g = [self._coeff(rng) for _ in range(d)]
        h = [self._coeff(rng) for _ in range(d)]
        gens = [univariate(f), padd({(0, 1, 0): 1}, univariate([-c for c in g]), p),
                padd({(0, 0, 1): 1}, univariate([-c for c in h]), p)]
        for _ in range(shape["ops"]):
            i, j = form.sample(range(3), 2)
            mon = form.choice(((0, 0, 0), (0, 1, 0), (0, 0, 1)))
            if p:
                # a block of f as the multiplier puts factors of the eliminant
                # into leading coefficients: that is what makes composite divisors
                m = {(k, mon[1], mon[2]): c for k, c in enumerate(form.choice(blocks)) if c}
            else:
                m = {mon: self._coeff(rng)}
            gens[i] = padd(gens[i], pmul(m, gens[j], p), p)
        form.shuffle(gens)
        probes = []
        for k in range(self.probes_per_ideal):
            probe = {}
            for b in form.sample(gens, 2):
                probe = padd(probe, pmul(self._probe_term(form, rng), b, p), p)
            if (index + k) % 2:
                probe = padd(probe, self._probe_term(form, rng), p)
            if not probe:
                probe = self._probe_term(form, rng)
            probes.append((fmt(probe), not residue(probe, f, g, h, p)))
        field = f"GF {p}" if p else "Q"
        text = "\n".join(
            [f"field {field}", "vars z < y < x", "ideal:", *(fmt(b) for b in gens)]
        ) + "\n"
        return Case(text, tuple(f), tuple(probes))

    def _coeff(self, rng: random.Random) -> int:
        """A nonzero coefficient: in [-3, 3] over Q, a residue over GF(p)."""
        return rng.randrange(1, self.p) if self.p else rng.choice((-3, -2, -1, 1, 2, 3))

    def _blocks(self, rng: random.Random, spec) -> list:
        """Monic factor blocks of f; linear blocks over GF(p) are distinct."""
        if self.p:
            roots = iter(rng.sample(range(self.p), len(spec)))
            return [
                [next(roots), 1] if deg == 1 else [self._coeff(rng) for _ in range(deg)] + [1]
                for deg, _ in spec
            ]
        return [[rng.randint(-3, 3) for _ in range(deg)] + [1] for deg, _ in spec]

    def _probe_term(self, form: random.Random, rng: random.Random) -> dict:
        mon = form.choice(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)))
        return {mon: self._coeff(rng)}


def _q_shapes(degrees) -> tuple:
    return tuple({"blocks": ((d, 1),), "ops": 3} for d in degrees)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compat_q", 0, 1, 800, 100, _q_shapes((3, 4, 5, 6))),
        Workload(
            "modular_gf",
            5,
            2,
            400,
            100,
            tuple(
                {"blocks": blocks, "ops": 3}
                for blocks in (
                    ((1, 2), (1, 3), (1, 1)),
                    ((1, 5), (1, 2)),
                    ((2, 2), (1, 3)),
                    ((1, 4), (2, 1)),
                )
            ),
        ),
        Workload("member_q", 0, 8, 200, 100, _q_shapes((3, 4))),
    )
}
