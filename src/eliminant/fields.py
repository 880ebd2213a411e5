"""Exact coefficient fields: arbitrary-precision rationals and prime fields GF(p).

Both are perfect fields, which is all the rest of the package assumes.
Field elements are plain Python values: `Fraction` for the rationals,
canonical residues `int` in [0, p) for GF(p).  The field objects name the
field (`char` is 0 for Q and p for GF(p)), parse and print scalars, and
supply scalar arithmetic to the Buchberger oracle.  `UniPoly` does its own
integer arithmetic and only reads `char` from them.
"""

from __future__ import annotations

from fractions import Fraction


class FieldParseError(ValueError):
    """A scalar literal could not be parsed for the active field."""


# The first twelve primes: as Miller-Rabin bases they decide primality
# exactly for every n < 3.18 * 10^23 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", 2017), which covers every modulus
# PrimeField accepts.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_PRIME_BITS = 64
"""GF(p) is accepted for primes p < 2**MAX_PRIME_BITS."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.18 * 10^23."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rational numbers, elements are `Fraction` values."""

    char = 0

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldParseError(f"bad rational literal {text!r}") from exc

    def fmt(self, a) -> str:
        return str(a)

    def __repr__(self) -> str:
        return "Q"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("Q")


class PrimeField:
    """GF(p) for a word-sized prime p < 2**64; elements are ints reduced mod p."""

    def __init__(self, p: int):
        if p.bit_length() > MAX_PRIME_BITS:
            raise ValueError(f"{p} is too large: GF(p) needs p < 2^{MAX_PRIME_BITS}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, text: str) -> int:
        try:
            return int(text) % self.p
        except ValueError as exc:
            raise FieldParseError(f"bad GF({self.p}) literal {text!r}") from exc

    def fmt(self, a) -> str:
        return str(a % self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]
