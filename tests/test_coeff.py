from fractions import Fraction

import pytest

from rootposets.coeff import Coeff, PSI, ONE

from oracles import as_int, is_integer, is_rational


def test_psi_satisfies_its_quadratic():
    assert PSI * PSI == PSI + 1
    assert PSI * PSI * PSI == 2 * PSI + 1


def test_ring_operations():
    x = Coeff(2, -1)
    y = Coeff(-1, 3)
    assert x + y == Coeff(1, 2)
    assert x - y == Coeff(3, -4)
    # (2 - psi)(-1 + 3psi) = -2 + 7psi - 3psi^2 = -5 + 4psi
    assert x * y == Coeff(-5, 4)
    assert -x == Coeff(-2, 1)


def test_field_inverse():
    x = Coeff(2, -1)
    assert x * x.inverse() == ONE
    assert (Coeff(1) / PSI) == PSI - 1
    with pytest.raises(ZeroDivisionError):
        Coeff(0).inverse()


def test_sign_and_ordering():
    # psi is about 1.618, so 2 - psi > 0 but 3 - 2 psi < 0
    assert Coeff(2, -1).sign() == 1
    assert Coeff(3, -2).sign() == -1
    assert Coeff(-2, 1).sign() == -1
    assert Coeff(0, 0).sign() == 0
    assert Coeff(0, 1) > Coeff(1)
    assert Coeff(0, 1) < Coeff(2)
    assert abs(Coeff(3, -2)) == Coeff(-3, 2)
    assert sorted([PSI, ONE, Coeff(0), -PSI]) == [-PSI, Coeff(0), ONE, PSI]


def test_rational_queries():
    assert is_rational(Coeff(Fraction(3, 2)))
    assert not is_integer(Coeff(Fraction(3, 2)))
    assert as_int(Coeff(4)) == 4
    with pytest.raises(ValueError):
        as_int(PSI)


def test_hash_consistency():
    assert hash(Coeff(2)) == hash(Coeff(Fraction(2)))
    assert Coeff(2) == 2
    assert len({Coeff(1, 1), Coeff(1, 1), PSI + 1}) == 1
