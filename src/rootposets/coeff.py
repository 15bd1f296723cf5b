"""Exact scalars of the form a + b*psi, where psi is the golden ratio.

psi satisfies psi**2 = psi + 1 (psi = (1+sqrt 5)/2), so Q(psi) = Q(sqrt 5) is
an ordered field.  Crystallographic root systems only ever produce b = 0;
the H2/H3 systems need the full field.  All comparisons are decided
symbolically through the quadratic conjugate, never through floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


@total_ordering
class Coeff:
    """An element a + b*psi of Q(psi) with exact rational parts."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __repr__(self):
        if self.b == 0:
            return f"Coeff({self.a})"
        return f"Coeff({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}p"
        return f"{self.a}+{self.b}p"

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Coeff(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Coeff(-self.a, -self.b)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Coeff(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + b psi)(c + d psi) with psi^2 = psi + 1
        a, b, c, d = self.a, self.b, other.a, other.b
        return Coeff(a * c + b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def inverse(self):
        # conjugate of a + b psi is a + b (1 - psi); norm = a^2 + a b - b^2
        n = self.a * self.a + self.a * self.b - self.b * self.b
        if n == 0:
            raise ZeroDivisionError("zero element of Q(psi)")
        return Coeff((self.a + self.b) / n, -self.b / n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    # -- order structure ---------------------------------------------------

    def sign(self):
        """Sign of a + b*psi under the real embedding psi > 0."""
        return psi_sign(self.a, self.b)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __abs__(self):
        return -self if self.sign() < 0 else self


def psi_sign(x, y):
    """Sign of x + y*psi, for ints or Fractions x and y, decided exactly."""
    x2 = 2 * x + y
    # x + y psi > 0  iff  (2x + y) + y sqrt5 > 0
    if y == 0:
        return (x2 > 0) - (x2 < 0)
    if y > 0:
        if x2 >= 0:
            return 1
        return 1 if 5 * y * y > x2 * x2 else -1
    if x2 <= 0:
        return -1
    return 1 if x2 * x2 > 5 * y * y else -1


def _coerce(x):
    if isinstance(x, Coeff):
        return x
    if isinstance(x, (int, Fraction)):
        return Coeff(x)
    return NotImplemented


ZERO = Coeff(0)
ONE = Coeff(1)
PSI = Coeff(0, 1)
