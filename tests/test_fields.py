import random
import time
from fractions import Fraction

import pytest

from eliminant.fields import GF, QQ, FieldParseError


def test_rational_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    assert QQ.parse("-3/7") == Fraction(-3, 7)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_gf_basics():
    F5 = GF(5)
    assert F5.mul(3, 4) == 2
    assert F5.parse("12") == 2
    assert F5.mul(F5.inv(3), 3) == 1
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
    with pytest.raises(ValueError):
        GF(6)


def test_parse_errors():
    with pytest.raises(FieldParseError):
        QQ.parse("abc")
    with pytest.raises(FieldParseError):
        GF(5).parse("x")


def test_field_axioms_random():
    rng = random.Random(7)
    for field, sample in (
        (QQ, lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 9))),
        (GF(7), lambda: rng.randint(0, 6)),
    ):
        for _ in range(200):
            a, b, c = sample(), sample(), sample()
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c)
            )
            if not field.is_zero(a):
                assert field.mul(a, field.inv(a)) == field.one


def test_canonicalization_idempotent():
    rng = random.Random(11)
    F = GF(13)
    for _ in range(100):
        a = F.from_int(rng.randint(-100, 100))
        assert F.from_int(a) == a
    for _ in range(100):
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert QQ.parse(str(q)) == q
        assert q.denominator > 0


def test_primality_is_exact_and_fast():
    from eliminant.fields import _is_prime

    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    assert GF(2**64 - 59).p == 2**64 - 59          # the largest prime below 2^64
    # Carmichael numbers; 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7
    for n in (561, 3215031751):
        with pytest.raises(ValueError):
            GF(n)
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        GF(1000000000000000000000000000000000000003)   # a prime, but not below 2^64
    assert time.perf_counter() - t0 < 1.0
