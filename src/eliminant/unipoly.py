"""Univariate polynomials over an exact field: the PID K[x1].

Dense representation on an integer kernel: a polynomial is a list `nums`
of integer numerators (ascending, no trailing zeros) over one positive
integer denominator `den`.

- Over Q the form is canonical by `gcd(den, *nums) == 1`.
- Over GF(p), `den == 1` and `nums` are residues in [0, p).

Equality and hashing compare this canonical form.  Arithmetic runs as plain
integer loops with one normalisation per result: one `gcd` over Q, one
`% p` per output coefficient over GF(p).  Results that are canonical by
construction (zero, one, negation, shifts, GF products and monic scaling)
skip that pass.  Division over Q is fraction-free on the numerators
(Knuth, TAOCP vol. 2, 4.6.1) followed by one rescale.  Field elements
(`Fraction` over Q, residues over GF(p)) appear only at the boundary: the
constructor, `constant`, `scale`, and the `coeffs`, `coeff` and `lc`
accessors.

A sum of products, as a substitution or a CRT recombination forms it, is
one kernel call, `sum_of_products`: the products accumulate on one integer
list (over one common denominator over Q) and the sum is normalised once,
not once per product and once per partial sum.

Over Q, `poly_gcd` first tries GCDHEU (Char, Geddes & Gonnet 1989,
"GCDHEU: heuristic polynomial GCD algorithm based on integer GCD
computation", JSC 7; Geddes, Czapor & Labahn 1992, "Algorithms for Computer
Algebra", §7.7) on the primitive integer lists a, b of its operands: with
M = min(‖a‖∞, ‖b‖∞) and an integer point xi >= 2M + 2 (the first is
2M + 29), gamma = gcd(a(xi), b(xi)) is one integer gcd, its symmetric
xi-adic digits (each in (-xi/2, xi/2]) are the coefficients of a polynomial
G with G(xi) = gamma, and the candidate is P = pp(G).

- Theorem: if P divides a and b in Z[x], then P = gcd(a, b).
- Proof: P divides g = gcd(a, b), so g = P*h with h in Z[x].  g(xi) divides
  a(xi) and b(xi), hence gamma = c*P(xi), where c = cont(G) and 0 < |c| <=
  xi/2; so h(xi) divides c.  Every root of h is a root of the operand of
  norm M, so it lies below 1 + M in absolute value (Cauchy), and a
  non-constant h would have |h(xi)| > (xi - 1 - M)^deg h >= xi/2 >= |c|.
  So h is a constant; P and g are primitive with positive leading entries,
  so h = 1.

The trial divisions (`_q_divmod` with an empty remainder and scale 1) are
what make the answer exact: a wrong candidate never divides both operands,
and a candidate of 1 needs none.
A rejected point is followed by a larger one, xi*73794//27011 (about xi
times 1 + sqrt 3); after `_HEU_POINTS` points the primitive remainder
sequence of the extended gcd, `_q_half_ext`, answers, its cofactor unread:
the fraction-free sequence is the primitive one up to scalars, so the
primitive part of its last remainder is the gcd.  The integer gcd and the
evaluations run in C on one big integer each, where the remainder sequence
swells in Python loops.  The answer is the same canonical monic gcd either
way.

Over GF(p), `poly_gcd` runs one kernel, `_gf_gcd`: Euclid on a monic
divisor, each remainder reduced in place on a copy of the dividend with no
quotient list, and made monic in the same pass that reduces it mod p.

The extended gcd runs one kernel per field on the same lists, tracking one
cofactor s with s*a congruent to the remainder mod b: `_gf_half_ext` beside
`_gf_gcd`'s loop, and over Q `_q_half_ext`, the primitive remainder
sequence (Geddes, Czapor & Labahn 1992, §7) with each pseudo-remainder and
its cofactor divided by their common content and normalised once at the
end.  `poly_half_ext_gcd` returns (d, u), all that an inverse mod g reads;
`poly_ext_gcd` gets v from u by one exact division, (d - u*f)/g.  For
nonzero f and g the cofactor u with deg u < deg g - deg d is unique, and
the fraction-free sequence is the Euclidean one up to nonzero scalars, so
both return the Euclidean cofactors.

Constant operands, as most leading coefficients are after normalisation,
skip the loops: a product with a constant is one scaling pass, `poly_gcd`
with a nonzero constant is one, and `content_scale` returns the int 1 or -1,
not a `Fraction`, for a trivial content.

The zero polynomial has degree -1, which compares below every natural
number, so the usual `deg r < deg g` division guard admits the zero
remainder without a special case.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm


class BothZeroError(ValueError):
    """gcd/ext_gcd of (0, 0) is undefined."""


class ConstantInputError(ValueError):
    """Squarefree factorization needs a non-constant polynomial."""


class ZeroInputError(ValueError):
    """Multiplicity of a factor in the zero polynomial is undefined."""


_alloc = object.__new__


def _raw(field, nums: list, den: int = 1) -> "UniPoly":
    """A UniPoly from data already in canonical form.

    `nums` is stored, not copied: no list a UniPoly holds is ever mutated.
    """
    p = _alloc(UniPoly)
    p.field = field
    p.nums = nums
    p.den = den
    return p


def _q_make(field, nums: list, den: int) -> "UniPoly":
    """Canonical polynomial over Q from integer numerators over a nonzero denominator."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _raw(field, [])
    if den != 1:
        g = int_gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return _raw(field, nums, den)


def _gf_make(field, nums: list) -> "UniPoly":
    """Canonical polynomial over GF(p) from residues in [0, p)."""
    while nums and not nums[-1]:
        nums.pop()
    return _raw(field, nums)


def _q_str(n: int, den: int) -> str:
    """The rational n/den in lowest terms, written as `str(Fraction)` writes it."""
    g = int_gcd(n, den)
    if g != den:
        return f"{n // g}/{den // g}"
    return str(n // g)


class UniPoly:
    __slots__ = ("field", "nums", "den")

    def __init__(self, field, coeffs):
        """The polynomial with ascending coefficients `coeffs`, elements of `field`."""
        p = field.char
        if p:
            made = _gf_make(field, [c % p for c in coeffs])
        else:
            cs = list(coeffs)
            den = int_lcm(*[c.denominator for c in cs])
            made = _q_make(field, [c.numerator * (den // c.denominator) for c in cs], den)
        self.field, self.nums, self.den = field, made.nums, made.den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field) -> "UniPoly":
        return _raw(field, [])

    @classmethod
    def one(cls, field) -> "UniPoly":
        return _raw(field, [1])

    @classmethod
    def constant(cls, field, c) -> "UniPoly":
        return cls(field, (c,))

    @classmethod
    def gen(cls, field) -> "UniPoly":
        return _raw(field, [0, 1])

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Ascending coefficients as field elements."""
        if self.field.char:
            return tuple(self.nums)
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    @property
    def is_one(self) -> bool:
        return self.nums == [1] and self.den == 1

    @property
    def lc(self):
        if not self.nums:
            raise ZeroInputError("leading coefficient of zero polynomial")
        return self.coeff(len(self.nums) - 1)

    def coeff(self, k: int):
        n = self.nums[k] if 0 <= k < len(self.nums) else 0
        return n if self.field.char else Fraction(n, self.den)

    def _lc_inverse(self):
        """The field element that makes this polynomial monic."""
        if self.field.char:
            return pow(self.nums[-1], -1, self.field.char)
        return Fraction(self.den, self.nums[-1])

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "UniPoly"):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed coefficient fields")

    def _combine(self, other: "UniPoly", sign: int) -> "UniPoly":
        """self + sign * other, sign in {1, -1}."""
        self._check(other)
        a, b = self.nums, other.nums
        if not b:
            return self
        F = self.field
        if not a:
            return other if sign == 1 else -other
        p = F.char
        if p:
            if len(a) >= len(b):
                out = list(a)
                for i, c in enumerate(b):
                    out[i] = (out[i] + sign * c) % p
            else:
                out = [(sign * c) % p for c in b]
                for i, c in enumerate(a):
                    out[i] = (out[i] + c) % p
            return _gf_make(F, out)
        da, db = self.den, other.den
        if da == db:
            ma, mb, den = 1, sign, da
        else:
            g = int_gcd(da, db)
            ma, mb = db // g, sign * (da // g)
            den = da * ma
        if len(a) >= len(b):
            out = [c * ma for c in a] if ma != 1 else list(a)
            for i, c in enumerate(b):
                out[i] += c * mb
        else:
            out = [c * mb for c in b]
            for i, c in enumerate(a):
                out[i] += c * ma
        return _q_make(F, out, den)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "UniPoly":
        p = self.field.char
        if p:
            return _raw(self.field, [p - c if c else 0 for c in self.nums])
        return _raw(self.field, [-c for c in self.nums], self.den)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        F = self.field
        a, b = self.nums, other.nums
        if not a or not b:
            return _raw(F, [])
        p = F.char
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # a constant factor scales the other one in one pass
            k = b[0]
            if p:
                return _raw(F, [c * k % p for c in a])
            return _q_make(F, [c * k for c in a], self.den * other.den)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        if p:
            # a product of nonzero polynomials over a field keeps a nonzero top
            return _raw(F, [c % p for c in out])
        return _q_make(F, out, self.den * other.den)

    def scale(self, c) -> "UniPoly":
        """Multiply by the field element c."""
        F = self.field
        p = F.char
        if p:
            c %= p
            if not c or not self.nums:
                return _raw(F, [])
            if c == 1:
                return self
            return _raw(F, [a * c % p for a in self.nums])
        cn, cd = c.numerator, c.denominator
        if not cn or not self.nums:
            return _raw(F, [])
        return _q_make(F, [a * cn for a in self.nums], self.den * cd)

    def shift(self, k: int) -> "UniPoly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return _raw(self.field, [0] * k + self.nums, self.den)

    def __pow__(self, n: int) -> "UniPoly":
        """Binary powering; f**1 is f, and no square is formed past the top bit."""
        if n < 0:
            raise ValueError("negative power")
        if not n:
            return UniPoly.one(self.field)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __divmod__(self, other: "UniPoly"):
        return divrem(self, other)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divrem(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        """The remainder of divrem; f itself when deg f < deg g."""
        a, b = self.nums, other.nums
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        self._check(other)
        if len(a) < len(b):
            return self
        F = self.field
        p = F.char
        if p:
            return _raw(F, _gf_divmod(a, b, p)[1])
        _, r, s = _q_divmod(a, b)
        return _q_make(F, r, s * self.den)

    def monic(self) -> "UniPoly":
        nums = self.nums
        if not nums:
            return self
        F = self.field
        lc = nums[-1]
        p = F.char
        if p:
            if lc == 1:
                return self
            inv = pow(lc, -1, p)
            return _raw(F, [c * inv % p for c in nums])
        if lc == self.den:
            return self
        if lc < 0:
            return _q_make(F, [-c for c in nums], -lc)
        return _q_make(F, list(nums), lc)

    def derivative(self) -> "UniPoly":
        F = self.field
        out = [i * c for i, c in enumerate(self.nums)][1:]
        p = F.char
        if p:
            return _gf_make(F, [c % p for c in out])
        return _q_make(F, out, self.den)

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self.nums == other.nums
            and self.den == other.den
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        return hash((self.field.char, tuple(self.nums), self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- printing ----------------------------------------------------------

    def fmt(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        den = self.den
        pieces = []
        for k in range(len(self.nums) - 1, -1, -1):
            c = self.nums[k]
            if not c:
                continue
            neg = c < 0
            cs = _q_str(-c if neg else c, den)
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


# -- sums of products -----------------------------------------------------------


def sum_of_products(field, pairs) -> UniPoly:
    """The sum of a*b over the pairs (a, b), all over `field`, in one integer pass.

    Over Q every product's numerators are scaled to one common denominator,
    the lcm of the products' denominators; over GF(p) the raw products
    accumulate and each output entry is reduced once.  The sum is normalised
    once; the empty sum is zero.
    """
    terms = [(a.nums, b.nums, a.den * b.den) for a, b in pairs if a.nums and b.nums]
    if not terms:
        return _raw(field, [])
    p = field.char
    den = 1 if p else int_lcm(*[d for _, _, d in terms])
    out = [0] * max(len(a) + len(b) - 1 for a, b, _ in terms)
    for a, b, d in terms:
        if len(a) > len(b):
            a, b = b, a
        m = den // d
        for i, x in enumerate(a):
            if x:
                x *= m
                for j, y in enumerate(b, i):
                    out[j] += x * y
    if p:
        return _gf_make(field, [c % p for c in out])
    return _q_make(field, out, den)


# -- division ---------------------------------------------------------------
#
# The loops work on numerator lists.  Over GF(p) the dividend's entries are
# reduced lazily: the leading entry when it is read, the remainder at the
# end.  Over Q the loop is fraction-free: when the divisor's leading integer
# does not divide the current leading entry, the remainder (and the quotient
# built so far) is scaled by the smallest factor that makes it divide, so
# s * a == quot * b + rem with one accumulated scale s > 0.  `%` calls the
# kernels directly and keeps only the remainder; GCDHEU's trial divisions and
# `_q_half_ext` call `_q_divmod` too.  The GF(p) gcd has its own
# remainder-only kernel, `_gf_gcd`.


def _gf_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of residue lists, b nonzero."""
    db = len(b) - 1
    r = list(a)
    nq = len(r) - db
    if nq <= 0:
        return [], r
    lb = b[-1]
    inv = 1 if lb == 1 else pow(lb, -1, p)
    low = b[:-1]
    q = [0] * nq
    for k in range(nq - 1, -1, -1):
        c = r[k + db] % p
        if c:
            if inv != 1:
                c = c * inv % p
            q[k] = c
            for j, y in enumerate(low, k):
                r[j] -= c * y
    rem = [c % p for c in r[:db]]
    while rem and not rem[-1]:
        rem.pop()
    return q, rem


def _q_divmod(a: list, b: list) -> tuple[list, list, int]:
    """(quot, rem, s) on integer lists with s * a == quot * b + rem and s > 0."""
    db = len(b) - 1
    r = list(a)
    nq = len(r) - db
    lb = b[-1]
    low = b[:-1]
    q = [0] * nq
    s = 1
    for k in range(nq - 1, -1, -1):
        top = k + db
        c = r[top]
        if not c:
            continue
        if c % lb:
            g = int_gcd(c, lb)
            m = abs(lb) // g
            c = c // g if lb > 0 else -c // g
            for i in range(top):
                r[i] *= m
            for i in range(k + 1, nq):
                q[i] *= m
            s *= m
        else:
            c //= lb
        q[k] = c
        for j, y in enumerate(low, k):
            r[j] -= c * y
    rem = r[:db]
    while rem and not rem[-1]:
        rem.pop()
    return q, rem, s


def divrem(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder with deg r < deg g."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    f._check(g)
    F = f.field
    if len(f.nums) < len(g.nums):
        return _raw(F, []), f
    p = F.char
    if p:
        q, r = _gf_divmod(f.nums, g.nums, p)
        return _raw(F, q), _raw(F, r)
    q, r, s = _q_divmod(f.nums, g.nums)
    den = s * f.den
    if g.den != 1:
        q = [c * g.den for c in q]
    return _q_make(F, q, den), _q_make(F, r, den)


def exact_div(f: UniPoly, g: UniPoly) -> UniPoly:
    q, r = divrem(f, g)
    if not r.is_zero:
        raise ArithmeticError("division expected to be exact")
    return q


def content_scale(field, polys, lead):
    """The constant that puts a polynomial with coefficients `polys` in printable form.

    `lead` is the leading integer `nums[-1]` of the polynomial.  Over Q the
    scaled coefficients are integers with trivial common content and a
    positive leading one; only the sign of `lead` is read.  Over GF(p), where
    `den` is 1, the leading coefficient turns into 1.  A scale of one or
    minus one comes back as the int 1 or -1.
    """
    if field.char:
        return pow(lead, -1, field.char)
    num_gcd, den_lcm = 0, 1
    for p in polys:
        # content(nums / den) = content(nums) / den, already in lowest terms
        num_gcd = int_gcd(num_gcd, *p.nums)
        den_lcm = int_lcm(den_lcm, p.den)
    # the scale is positive, so only the sign of `lead` decides the sign
    scale = 1 if den_lcm == num_gcd else Fraction(den_lcm, num_gcd)
    return -scale if lead < 0 else scale


# -- gcd family ---------------------------------------------------------------
#
# Over Q the heuristic gcd and the remainder sequence it falls back to,
# `_q_half_ext`, run on primitive integer coefficient lists; the external
# contract is a monic gcd.


def _int_primitive(cs: list[int]) -> list[int]:
    """cs over its content, with a positive leading entry."""
    g = int_gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return [c // g for c in cs] if g != 1 else cs


_HEU_POINTS = 6    # evaluation points GCDHEU tries before the remainder sequence


def _heu_gcd(a: list[int], b: list[int]) -> list[int] | None:
    """gcd(a, b) of primitive integer lists with positive leading entries, or None.

    GCDHEU (see the module docstring): one integer gcd at an evaluation point
    xi, the candidate read back from its symmetric xi-adic digits, accepted
    only when it divides both lists exactly.  The candidate 1, and a candidate
    equal to an operand, divide it with no division.  None after _HEU_POINTS
    points.
    """
    top = min(len(a), len(b))
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(_HEU_POINTS):
        va = vb = 0
        for c in reversed(a):
            va = va * xi + c
        for c in reversed(b):
            vb = vb * xi + c
        gamma = int_gcd(va, vb)
        half = xi >> 1
        digits = []
        while gamma:
            gamma, c = divmod(gamma, xi)
            if c > half:
                c -= xi
                gamma += 1
            digits.append(c)
        if len(digits) <= top:
            cand = _int_primitive(digits)
            if len(cand) == 1:
                return cand    # [1] divides both
            for x in (a, b):
                if x != cand:
                    _, r, s = _q_divmod(x, cand)
                    if r or s != 1:
                        break
            else:
                return cand
        xi = xi * 73794 // 27011
    return None


def _gf_gcd(a: list, b: list, p: int) -> list:
    """The monic gcd of residue lists of degree >= 1.

    Euclid on a monic divisor: each round reduces a copy of the dividend in
    place, builds no quotient, and makes the remainder monic in the pass
    that reduces it mod p, so its leading entry is never inverted again.
    """
    if len(a) < len(b):
        a, b = b, a
    if b[-1] != 1:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
    while True:
        db = len(b) - 1
        low = b[:-1]
        r = list(a)
        for k in range(len(r) - 1, db - 1, -1):
            c = r[k] % p
            if c:
                for j, y in enumerate(low, k - db):
                    r[j] -= c * y
        top = db - 1
        while top >= 0 and not r[top] % p:
            top -= 1
        if top < 0:
            return b
        if not top:
            return [1]    # a nonzero constant remainder: the operands are coprime
        inv = pow(r[top], -1, p)
        a, b = b, [c * inv % p for c in r[: top + 1]]


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor."""
    if f.is_zero and g.is_zero:
        raise BothZeroError("gcd(0, 0)")
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    f._check(g)
    F = f.field
    a, b = f.nums, g.nums
    if len(a) == 1 or len(b) == 1:
        return _raw(F, [1])
    p = F.char
    if p:
        return _raw(F, _gf_gcd(a, b, p))
    a = _int_primitive(list(a))
    b = _int_primitive(list(b))
    d = _heu_gcd(a, b)
    if d is None:
        d = _int_primitive(_q_half_ext(a, b)[0])
    # d is primitive with a positive leading entry: d / d[-1] is canonical
    return _raw(F, d, d[-1])


def _constant_inverse(c: UniPoly) -> UniPoly:
    """1 / c for a nonzero constant c; over Q its numerator and denominator swap places."""
    (n,), p = c.nums, c.field.char
    if p:
        return _raw(c.field, [pow(n, -1, p)])
    return _raw(c.field, [c.den if n > 0 else -c.den], abs(n))


def lcm_cofactors(f: UniPoly, g: UniPoly, d: UniPoly | None = None) -> tuple[UniPoly, UniPoly]:
    """(m / f, m / g) for the monic lcm m of f and g.

    With d the monic gcd, m = f * g / (d * lc f * lc g), so the cofactors
    are g / d and f / d scaled by 1 / (lc f * lc g): the product f * g and
    m itself are never formed.  A caller that already has the monic gcd,
    say from the remainder of one operand by the other, passes it as `d`.
    """
    if f.is_zero or g.is_zero:
        raise BothZeroError("lcm with zero")
    if len(f.nums) == 1 == len(g.nums):    # m = 1: the cofactors are 1 / f and 1 / g
        f._check(g)
        return _constant_inverse(f), _constant_inverse(g)
    if d is None:
        d = poly_gcd(f, g)
    cf, cg = (g, f) if d.is_one else (exact_div(g, d), exact_div(f, d))
    p = f.field.char
    if p:
        c = pow(f.nums[-1] * g.nums[-1], -1, p)
    else:
        c = Fraction(f.den * g.den, f.nums[-1] * g.nums[-1])
    return cf.scale(c), cg.scale(c)


def poly_lcm(f: UniPoly, g: UniPoly) -> UniPoly:
    return f * lcm_cofactors(f, g)[0]


def _gf_half_ext(a: list, b: list, p: int) -> tuple[list, list]:
    """(d, s) for residue lists of degree >= 1: d the monic gcd, s*a == d mod b.

    The remainders run as in `_gf_gcd`, on a monic divisor with the dividend
    reduced lazily; the quotient each round builds updates the one cofactor,
    s_new = s_a - quot*s_b, which is made monic with its remainder.
    """
    if len(a) < len(b):
        a, sa, b, sb = b, [], a, [1]
    else:
        sa, sb = [1], []
    if b[-1] != 1:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        sb = [c * inv % p for c in sb]
    while True:
        db = len(b) - 1
        low = b[:-1]
        r = list(a)
        nq = len(r) - db
        s = sa + [0] * (nq + len(sb) - 1 - len(sa))
        for k in range(nq - 1, -1, -1):
            c = r[k + db] % p
            if c:
                for j, y in enumerate(low, k):
                    r[j] -= c * y
                for j, y in enumerate(sb, k):
                    s[j] -= c * y
        top = db - 1
        while top >= 0 and not r[top] % p:
            top -= 1
        if top < 0:
            return b, sb
        inv = pow(r[top], -1, p)
        s = [c * inv % p for c in s]
        while not s[-1]:
            s.pop()
        if not top:
            return [1], s    # a nonzero constant remainder: the operands are coprime
        a, sa, b, sb = b, sb, [c * inv % p for c in r[: top + 1]], s


def _q_half_ext(a: list, b: list) -> tuple[list, list]:
    """(d, s) for integer lists of degree >= 1 with s*a == d mod b, d a multiple of the gcd.

    The primitive remainder sequence, fraction-free: each round's
    pseudo-remainder m*r_a - quot*r_b (`_q_divmod`) comes with the cofactor
    m*s_a - quot*s_b, and both are divided by their common content.
    """
    if len(a) < len(b):
        a, sa, b, sb = b, [], a, [1]
    else:
        sa, sb = [1], []
    while True:
        q, r, m = _q_divmod(a, b)
        if not r:
            return b, sb
        s = [c * m for c in sa] if m != 1 else list(sa)
        s += [0] * (len(q) + len(sb) - 1 - len(s))
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(sb, i):
                    s[j] -= x * y
        while not s[-1]:
            s.pop()
        g = int_gcd(*r, *s)
        if g != 1:
            r = [c // g for c in r]
            s = [c // g for c in s]
        if len(r) == 1:
            return r, s
        a, sa, b, sb = b, sb, r, s


def poly_half_ext_gcd(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly]:
    """(d, u) with u*f congruent to d mod g, d the monic gcd: the u of `poly_ext_gcd`.

    This is what an inverse mod g needs, and only one cofactor is tracked.
    For nonzero f and g the cofactor u with u*f + v*g = d and deg u <
    deg g - deg d is unique: two of them differ by a multiple of g/d of
    lower degree than g/d, which is zero.  The Euclidean sequence gives that
    u, and the fraction-free sequence over Q (`_q_half_ext`) is the Euclidean
    one up to nonzero scalars, remainders and cofactors alike, so normalising
    its last remainder once yields the same d and u.  With g zero, u is
    1/lc f; with f zero, u is zero.
    """
    if f.is_zero and g.is_zero:
        raise BothZeroError("ext_gcd(0, 0)")
    F = f.field
    if g.is_zero:
        return f.monic(), _raw(F, [1]).scale(f._lc_inverse())
    f._check(g)
    a, b = f.nums, g.nums
    if len(b) <= 1 or not a:
        return g.monic() if not a else _raw(F, [1]), _raw(F, [])
    if len(a) == 1:
        return _raw(F, [1]), _constant_inverse(f)
    p = F.char
    if p:
        d, s = _gf_half_ext(a, b, p)
        return _raw(F, d), _raw(F, s)
    c = int_gcd(*a)
    d, s = _q_half_ext([x // c for x in a] if c != 1 else a, _int_primitive(list(b)))
    # s*(f*den/c) == d mod g, and d over its leading entry is the monic gcd
    return _q_make(F, d, d[-1]), _q_make(F, [x * f.den for x in s], c * d[-1])


def poly_ext_gcd(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """(d, u, v) with u*f + v*g = d and d the monic gcd.

    u is `poly_half_ext_gcd`'s, and v = (d - u*f)/g is one exact division
    (zero when g is zero); both are the Euclidean cofactors.
    """
    d, u = poly_half_ext_gcd(f, g)
    if g.is_zero:
        return d, u, g
    return d, u, exact_div(d - u * f, g)


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
    c = d._lc_inverse()
    return d.monic(), [q.scale(c) for q in coeffs]


# -- squarefree factorization -------------------------------------------------


def _frobenius_downshift(f: UniPoly) -> UniPoly:
    """For char p and f' = 0, return g with g(x)^p = f(x) over GF(p)."""
    p = f.field.char
    out = [0] * (f.degree // p + 1)
    for k, c in enumerate(f.nums):
        if not c:
            continue
        if k % p:
            raise AssertionError("derivative-zero poly with exponent not divisible by p")
        # over GF(p) every scalar is its own p-th root
        out[k // p] = c
    return _raw(f.field, out)


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


def coprime_part(t: UniPoly, a: UniPoly) -> UniPoly:
    """The largest divisor of t coprime to a: divide out gcd(t, a) until it is constant."""
    while not (h := poly_gcd(t, a)).is_constant:
        t = exact_div(t, h)
    return t
