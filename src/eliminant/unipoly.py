"""Univariate polynomials over an exact field: the PID K[x1].

Dense representation (ascending coefficients, no trailing zeros).  The zero
polynomial has degree -1, which compares below every natural number, so the
usual `deg r < deg g` division guard admits the zero remainder without a
special case.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .fields import RationalField


class BothZeroError(ValueError):
    """gcd/ext_gcd of (0, 0) is undefined."""


class ConstantInputError(ValueError):
    """Squarefree factorization needs a non-constant polynomial."""


class ZeroInputError(ValueError):
    """Multiplicity of a factor in the zero polynomial is undefined."""


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field) -> "UniPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "UniPoly":
        return cls(field, (field.one,))

    @classmethod
    def constant(cls, field, c) -> "UniPoly":
        return cls(field, (c,))

    @classmethod
    def gen(cls, field) -> "UniPoly":
        return cls(field, (field.zero, field.one))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroInputError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "UniPoly"):
        if self.field != other.field:
            raise ValueError("mixed coefficient fields")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return UniPoly(F, out)

    def __neg__(self) -> "UniPoly":
        F = self.field
        return UniPoly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        F = self.field
        if self.is_zero or other.is_zero:
            return UniPoly.zero(F)
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return UniPoly(F, out)

    def scale(self, c) -> "UniPoly":
        F = self.field
        if F.is_zero(c):
            return UniPoly.zero(F)
        return UniPoly(F, [F.mul(a, c) for a in self.coeffs])

    def shift(self, k: int) -> "UniPoly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return UniPoly(self.field, (self.field.zero,) * k + self.coeffs)

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "UniPoly"):
        return divrem(self, other)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divrem(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divrem(self, other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        lc = self.lc
        if lc == self.field.one:
            return self
        return self.scale(self.field.inv(lc))

    def derivative(self) -> "UniPoly":
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(F.mul(self.coeffs[i], F.from_int(i)))
        return UniPoly(F, out)

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- printing ----------------------------------------------------------

    def fmt(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        F = self.field
        pieces = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if F.is_zero(c):
                continue
            cs = F.fmt(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if k == 0:
                body = cs
            else:
                xpow = var if k == 1 else f"{var}^{k}"
                body = xpow if cs == "1" else f"{cs}*{xpow}"
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"UniPoly({self.fmt()})"


# -- division ---------------------------------------------------------------


def divrem(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder with deg r < deg g."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    F = f.field
    if f.degree < g.degree:
        return UniPoly.zero(F), f
    rem = list(f.coeffs)
    dg = g.degree
    inv_lc = F.inv(g.lc)
    quot = [F.zero] * (len(rem) - dg)
    for k in range(len(rem) - dg - 1, -1, -1):
        c = rem[k + dg]
        if F.is_zero(c):
            continue
        q = F.mul(c, inv_lc)
        quot[k] = q
        for i, gc in enumerate(g.coeffs):
            rem[k + i] = F.sub(rem[k + i], F.mul(q, gc))
    return UniPoly(F, quot), UniPoly(F, rem[:dg])


def exact_div(f: UniPoly, g: UniPoly) -> UniPoly:
    q, r = divrem(f, g)
    if not r.is_zero:
        raise ArithmeticError("division expected to be exact")
    return q


def content_scale(field, polys, lead):
    """The constant that puts a polynomial with coefficients `polys` in printable form.

    Over Q the scaled coefficients are integers with trivial common content
    and `lead`, the polynomial's leading field coefficient, turns positive.
    Over GF(p) `lead` turns into 1.
    """
    if not isinstance(field, RationalField):
        return field.inv(lead)
    num_gcd, den_lcm = 0, 1
    for p in polys:
        for a in p.coeffs:
            num_gcd = int_gcd(num_gcd, abs(a.numerator))
            den_lcm = den_lcm * a.denominator // int_gcd(den_lcm, a.denominator)
    scale = Fraction(den_lcm, num_gcd)
    return -scale if lead * scale < 0 else scale


# -- gcd family ---------------------------------------------------------------
#
# Over Q the Euclidean loop runs on primitive integer coefficient lists
# (pseudo-remainders with content stripped each round) to keep the
# intermediate numerators bounded; the external contract is a monic gcd.


def _int_content(cs: list[int]) -> int:
    g = 0
    for c in cs:
        g = int_gcd(g, abs(c))
        if g == 1:
            return 1
    return g or 1


def _int_primitive(cs: list[int]) -> list[int]:
    g = _int_content(cs)
    if cs and cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


def _to_int_primitive(f: UniPoly) -> list[int]:
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [int(c * den) for c in f.coeffs]
    return _int_primitive(ints)


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of primitive integer polys (low-to-high lists)."""
    r = a[:]
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db:
        lr = r[-1]
        k = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[k + i] -= lr * bc
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    return r


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor."""
    if f.is_zero and g.is_zero:
        raise BothZeroError("gcd(0, 0)")
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    F = f.field
    if isinstance(F, RationalField):
        a = _to_int_primitive(f)
        b = _to_int_primitive(g)
        if len(a) < len(b):
            a, b = b, a
        while b:
            r = _int_prem(a, b)
            a, b = b, _int_primitive(r) if r else []
        return UniPoly(F, [Fraction(c) for c in a]).monic()
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_lcm(f: UniPoly, g: UniPoly) -> UniPoly:
    if f.is_zero or g.is_zero:
        raise BothZeroError("lcm with zero")
    return exact_div(f * g, poly_gcd(f, g)).monic()


def poly_ext_gcd(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """(d, u, v) with u*f + v*g = d and d the monic gcd."""
    if f.is_zero and g.is_zero:
        raise BothZeroError("ext_gcd(0, 0)")
    F = f.field
    r0, r1 = f, g
    u0, u1 = UniPoly.one(F), UniPoly.zero(F)
    v0, v1 = UniPoly.zero(F), UniPoly.one(F)
    while not r1.is_zero:
        q, r = divrem(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    c = F.inv(r0.lc)
    return r0.monic(), u0.scale(c), v0.scale(c)


def poly_multi_ext_gcd(polys: list[UniPoly]) -> tuple[UniPoly, list[UniPoly]]:
    """Monic gcd of a family along with cofactors summing to it."""
    if not polys or all(p.is_zero for p in polys):
        raise BothZeroError("gcd of an all-zero family")
    F = polys[0].field
    d = polys[0]
    coeffs = [UniPoly.one(F)] + [UniPoly.zero(F)] * (len(polys) - 1)
    if d.is_zero:
        coeffs[0] = UniPoly.zero(F)
    for i in range(1, len(polys)):
        if polys[i].is_zero:
            continue
        if d.is_zero:
            d = polys[i]
            coeffs[i] = UniPoly.one(F)
            continue
        d2, u, v = poly_ext_gcd(d, polys[i])
        coeffs = [u * c for c in coeffs]
        coeffs[i] = coeffs[i] + v
        d = d2
    c = F.inv(d.lc)
    return d.monic(), [q.scale(c) for q in coeffs]


# -- squarefree factorization -------------------------------------------------


def _frobenius_downshift(f: UniPoly) -> UniPoly:
    """For char p and f' = 0, return g with g(x)^p = f(x) over GF(p)."""
    p = f.field.char
    out = [f.field.zero] * (f.degree // p + 1)
    for k, c in enumerate(f.coeffs):
        if f.field.is_zero(c):
            continue
        if k % p:
            raise AssertionError("derivative-zero poly with exponent not divisible by p")
        # over GF(p) every scalar is its own p-th root
        out[k // p] = c
    return UniPoly(f.field, out)


def _sqf_exponents(char: int):
    e = 0
    while True:
        e += 1
        if char and e % char == 0:
            continue
        yield e


def _squarefree_rec(f: UniPoly, emul: int, parts: list[tuple[UniPoly, int]]):
    F = f.field
    fp = f.derivative()
    if fp.is_zero:
        # char p with all exponents divisible by p: peel one Frobenius layer
        _squarefree_rec(_frobenius_downshift(f), emul * F.char, parts)
        return
    exps = _sqf_exponents(F.char)
    e_cur = next(exps)
    fi = poly_gcd(f, fp)
    h = exact_div(f, fi).monic()
    fi = fi.monic()
    while True:
        if h.is_constant:
            break
        h_next = poly_gcd(fi, h) if not fi.is_constant else UniPoly.one(F)
        g = exact_div(h, h_next).monic()
        if not g.is_constant:
            parts.append((g, e_cur * emul))
        e_next = next(exps)
        if F.char:
            fi = exact_div(fi, h_next ** (e_next - e_cur))
        else:
            fi = exact_div(fi, h_next)
        h = h_next
        if fi.is_constant:
            if not h.is_constant:
                parts.append((h.monic(), e_next * emul))
            return
        e_cur = e_next
    # h exhausted: the rest of fi has derivative zero (char p residue)
    if not fi.is_constant:
        _squarefree_rec(fi, emul, parts)


def squarefree_decomposition(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Write f as a constant times prod g_i^e_i with the g_i squarefree,
    monic and pairwise coprime; returned sorted by strictly increasing e_i."""
    if f.is_constant:
        raise ConstantInputError("squarefree factorization of a constant")
    parts: list[tuple[UniPoly, int]] = []
    _squarefree_rec(f, 1, parts)
    parts.sort(key=lambda t: t[1])
    for i in range(1, len(parts)):
        if parts[i][1] == parts[i - 1][1]:
            raise AssertionError("duplicate exponent in squarefree decomposition")
    return parts


def squarefree_part(f: UniPoly) -> UniPoly:
    if f.is_constant:
        return UniPoly.one(f.field)
    out = UniPoly.one(f.field)
    for g, _ in squarefree_decomposition(f):
        out = out * g
    return out


def multiplicity(p: UniPoly, f: UniPoly) -> int:
    """Largest k with p^k dividing f."""
    if f.is_zero:
        raise ZeroInputError("multiplicity in the zero polynomial")
    if p.is_constant:
        raise ConstantInputError("multiplicity of a constant factor")
    k = 0
    while True:
        q, r = divrem(f, p)
        if not r.is_zero:
            return k
        f = q
        k += 1
