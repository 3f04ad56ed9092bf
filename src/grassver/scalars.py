"""Exact arithmetic in Q(sqrt(q)).

Every matrix entry used by the operator algebra lives here: half-integer
powers q^(m/2) and rationals with (q-1) powers in the denominator.  Values
are a + b*sqrt(q) with reduced Fraction coefficients; for prime q this is a
field (sqrt(q) is irrational, so a^2 - b^2 q = 0 forces a = b = 0, which is
why the inversion guard only needs to check for the zero element).
"""

from __future__ import annotations

from fractions import Fraction

from .gf import validate_field_order


class QSqrtScalar:
    """An element a + b*sqrt(q) of Q(sqrt(q)), q prime."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b, q: int):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)
        self.q = q

    @classmethod
    def from_int(cls, value, q: int) -> "QSqrtScalar":
        return cls(Fraction(value), Fraction(0), q)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def _coerce(self, other):
        if isinstance(other, QSqrtScalar):
            if other.q != self.q:
                raise ValueError("mixed sqrt(q) fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QSqrtScalar(other, 0, self.q)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QSqrtScalar(self.a + other.a, self.b + other.b, self.q)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QSqrtScalar(self.a - other.a, self.b - other.b, self.q)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return QSqrtScalar(-self.a, -self.b, self.q)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.b:
            if not self.b:
                return QSqrtScalar(self.a * other.a, Fraction(0), self.q)
            return QSqrtScalar(self.a * other.a, self.b * other.a, self.q)
        return QSqrtScalar(
            self.a * other.a + self.b * other.b * self.q,
            self.a * other.b + self.b * other.a,
            self.q,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QSqrtScalar":
        """Multiplicative inverse via the conjugate; raises on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero in Q(sqrt(q))")
        norm = self.a * self.a - self.b * self.b * self.q
        # norm != 0 for nonzero elements since q is prime
        return QSqrtScalar(self.a / norm, -self.b / norm, self.q)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return (
            isinstance(other, QSqrtScalar)
            and self.q == other.q
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.q})"

    def __repr__(self):
        return f"QSqrtScalar({self.a!r}, {self.b!r}, q={self.q})"


def q_pow_half(m: int, q: int) -> QSqrtScalar:
    """Exact q^(m/2) for any integer m (negative m gives rationals)."""
    validate_field_order(q)
    if m % 2 == 0:
        e = m // 2
        val = Fraction(q**e) if e >= 0 else Fraction(1, q**-e)
        return QSqrtScalar(val, 0, q)
    e = (m - 1) // 2
    val = Fraction(q**e) if e >= 0 else Fraction(1, q**-e)
    return QSqrtScalar(0, val, q)


def scalar_add(x: QSqrtScalar, y: QSqrtScalar) -> QSqrtScalar:
    return x + y
