import time
from fractions import Fraction

import pytest

from tatelab.fields import FieldError, PrimeField, QQ, field_from_spec


def test_rationals_arithmetic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert QQ.inv(Fraction(-7, 3)) == Fraction(-3, 7)
    assert QQ.neg(Fraction(5)) == Fraction(-5)
    assert QQ.is_zero(QQ.zero)
    assert not QQ.is_zero(QQ.one)
    assert QQ.from_int(-4) == Fraction(-4)


def test_rationals_are_ints_when_integral():
    third = QQ.inv(QQ.from_int(3))
    assert third == Fraction(1, 3) and not isinstance(third, float)
    assert type(QQ.from_int(4)) is int
    assert type(QQ.inv(QQ.from_int(-1))) is int
    assert type(QQ.mul(Fraction(3, 2), Fraction(2, 3))) is int
    row = QQ.from_row({0: 2, 1: 4}, 0)
    assert row == {0: 1, 1: 2} and all(type(c) is int for c in row.values())
    assert QQ.from_row({0: 2, 1: 3}, 0)[1] == Fraction(3, 2)


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.neg(2) == 3
    assert f5.inv(3) == 2          # 3 * 2 = 6 = 1 mod 5
    assert f5.from_int(-1) == 4
    assert f5.is_zero(f5.from_int(10))


def test_inverse_roundtrip_all_units():
    f7 = PrimeField(7)
    for a in range(1, 7):
        assert f7.mul(a, f7.inv(a)) == 1


def test_characteristic_two():
    f2 = PrimeField(2)
    assert f2.add(1, 1) == 0
    assert f2.neg(1) == 1
    assert f2.inv(1) == 1


@pytest.mark.parametrize("p", [4, 6, 9, 1, 0, -3, 15])
def test_composite_characteristic_rejected(p):
    with pytest.raises(FieldError):
        PrimeField(p)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    with pytest.raises(ZeroDivisionError):
        PrimeField(3).inv(0)


def test_field_spec_roundtrip():
    assert field_from_spec({"type": "Q"}) == QQ
    assert field_from_spec({"type": "Fp", "p": 5}) == PrimeField(5)
    assert field_from_spec(QQ.spec()) == QQ
    f13 = PrimeField(13)
    assert field_from_spec(f13.spec()) == f13
    with pytest.raises(FieldError):
        field_from_spec({"type": "R"})


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert QQ != PrimeField(5)
    assert len({PrimeField(5), PrimeField(5), QQ}) == 2


def test_large_prime_accepted_quickly():
    start = time.process_time()
    f = field_from_spec({"type": "Fp", "p": 1000000000000000003})
    assert f.p == 1000000000000000003
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("n", [
    3215031751,                 # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,        # ... to the bases 2 through 23
    318665857834031151167461,   # ... to the bases 2 through 37
])
def test_strong_pseudoprimes_rejected(n):
    with pytest.raises(FieldError, match="must be prime"):
        PrimeField(n)


def test_characteristic_beyond_certified_range_refused():
    # 2^89 - 1 is prime, but above the bound where the test is a proof
    with pytest.raises(FieldError, match="too large"):
        PrimeField(2 ** 89 - 1)
