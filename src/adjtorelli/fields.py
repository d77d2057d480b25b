"""Exact coefficient fields: the rationals and odd prime fields.

Rational arithmetic uses fractions.Fraction directly.  Prime-field elements
are small wrapper objects supporting the usual operators; they are what
polynomials, reports and certificates hold.  The hot loops do not compute
with them: exactla.Echelon's GF(p) rows and polyring's arithmetic loops work
on raw residues, meeting elements only on the way in (PrimeField.coerce, or
an element's value) and building them again on the way out.
"""

from __future__ import annotations

from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (ample for any usable modulus)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeFieldElement:
    """Residue class modulo a fixed odd prime."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.value = value % modulus
        self.modulus = modulus

    def _lift(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.modulus != self.modulus:
                raise ValueError("mixed prime-field moduli")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.modulus)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value + other.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value - other.value, self.modulus)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(other.value - self.value, self.modulus)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value * other.value, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(
            self.value * pow(other.value, -1, self.modulus), self.modulus
        )

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.modulus)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __bool__(self):
        return self.value != 0

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"PrimeFieldElement({self.value}, {self.modulus})"


class RationalField:
    """The field of rational numbers; elements are fractions.Fraction."""

    name = "q"
    characteristic = 0

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into the rationals")

    def is_negative(self, element) -> bool:
        return element < 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """Integers modulo an odd prime p."""

    def __init__(self, p: int):
        if p <= 2 or not is_probable_prime(p):
            raise ValueError(f"modulus {p} is not an odd prime")
        self.p = p
        self.name = f"p:{p}"
        self.characteristic = p

    @property
    def zero(self):
        return PrimeFieldElement(0, self.p)

    @property
    def one(self):
        return PrimeFieldElement(1, self.p)

    def coerce(self, value):
        if isinstance(value, PrimeFieldElement):
            if value.modulus != self.p:
                raise ValueError("element from a different prime field")
            return value
        if isinstance(value, int):
            return PrimeFieldElement(value, self.p)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"denominator {value.denominator} not invertible mod {self.p}"
                )
            return PrimeFieldElement(
                value.numerator * pow(value.denominator, -1, self.p), self.p
            )
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def is_negative(self, element) -> bool:
        return False

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()


def field_from_name(name: str):
    """Parse a field descriptor: 'q' for the rationals, 'p:<prime>' for GF(p)."""
    if name == "q":
        return QQ
    if name.startswith("p:") and name[2:].isdecimal():
        return PrimeField(int(name[2:]))
    raise ValueError(f"unknown field descriptor {name!r}")
