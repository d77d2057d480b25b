"""Exact coefficient fields: the rationals and odd prime fields.

An element of the rationals is a fractions.Fraction.  An element of GF(p) is
its residue, a plain int in [0, p): that is what polynomials, echelon rows,
reports and certificates hold.  A residue carries no modulus, so code that
computes with residues reduces mod p itself, and a residue of another prime
field passes coerce unnoticed; Polynomial and the objects built on it carry
their field and refuse to mix two.
"""

from __future__ import annotations

from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base above (Sorenson and Webster 2017)
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven for n < MR_BOUND (ample for any
    usable modulus); n >= MR_BOUND raises ValueError."""
    if n >= MR_BOUND:
        raise ValueError(f"modulus {n} is not below {MR_BOUND}, the bound of the primality test")
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


class RationalField:
    """The field of rational numbers; elements are fractions.Fraction."""

    name = "q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

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
    """Integers modulo an odd prime p; elements are ints in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if p <= 2 or not is_prime(p):
            raise ValueError(f"modulus {p} is not an odd prime")
        self.p = p
        self.name = f"p:{p}"
        self.characteristic = p

    def coerce(self, value):
        """The residue of an int, or of a Fraction whose denominator p does
        not divide."""
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"denominator {value.denominator} not invertible mod {self.p}"
                )
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
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
