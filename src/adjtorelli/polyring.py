"""Sparse exact arithmetic for multivariate polynomials in homogeneous coordinates.

A monomial is an exponent tuple, one entry per coordinate x0..xN.  A
polynomial maps monomials to nonzero field elements; the zero polynomial has
an empty term map, so equal polynomials always have identical term maps.
The canonical term order is graded lexicographic with x0 > x1 > ... > xN.

Arithmetic loops (product, sum, division, evaluation on a line) run on raw
coefficient values, like exactla.Echelon's rows: residues over GF(p), which
are reduced mod p once per result term, and the Fractions themselves over
the rationals.  Each operation has one loop for both fields; field elements
appear only at the edge, in Polynomial.terms.  Results of arithmetic on
valid polynomials skip the public constructor's checks of outside input.

poly_divmod is the one division loop.  The gcd of homogeneous polynomials
solves one linear relation on the package's one elimination primitive,
exactla.Echelon.  Graded pieces and powers stay inside the size budgets
MAX_PIECE_DIM and MAX_COEFF_BITS.

Everything here is immutable after construction and all operations return
fresh values, so polynomials can be shared freely between threads.
"""

from __future__ import annotations

import random
from functools import lru_cache
from operator import add
from typing import Iterable, Optional, Tuple

from .errors import (
    FieldMismatchError,
    HomogeneityError,
    VariableCountMismatchError,
)
from .exactla import Echelon
from .fields import QQ, PrimeFieldElement

Monomial = Tuple[int, ...]

# Largest graded piece S_k the package enumerates.  The benchmark's biggest
# piece (the smoothness check of a quintic threefold) has 4845 monomials and
# a quintic fourfold's has 42504; far past that, enumeration alone exhausts
# memory or time before any answer.
MAX_PIECE_DIM = 100_000
# Reports print coefficients in decimal, and the interpreter converts at most
# 4300 digits (about 14000 bits) of an integer to text: a power of a rational
# number past that could never be printed, and one far past it exhausts memory.
MAX_COEFF_BITS = 14_000


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def grlex_key(mono: Monomial):
    """Sort key realizing graded lex with x0 > x1 > ... > xN."""
    return (sum(mono), mono)


def check_piece_dim(nvars: int, k: int) -> None:
    """Raise ValueError when dim S_k = C(nvars-1+k, k) exceeds MAX_PIECE_DIM.

    C(nvars-1+k, i) grows with i up to min(k, nvars-1), so building it factor
    by factor and stopping once it passes the budget is cheap for any input.
    """
    top = nvars - 1 + k
    dim = 1
    for i in range(1, min(k, nvars - 1) + 1):
        dim = dim * (top - i + 1) // i
        if dim > MAX_PIECE_DIM:
            raise ValueError(f"the degree-{k} piece in {nvars} variables has more "
                             f"than {MAX_PIECE_DIM} monomials")


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, k: int) -> Tuple[Monomial, ...]:
    """All degree-k monomials in nvars variables, in descending graded lex order.

    The list has C(nvars-1+k, k) entries and is the canonical index set for
    every graded linear-algebra computation in the package; a list longer
    than MAX_PIECE_DIM raises ValueError before anything is enumerated.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    if nvars <= 0:
        raise ValueError("need at least one variable")
    check_piece_dim(nvars, k)

    def rec(vars_left: int, deg: int):
        if vars_left == 1:
            yield (deg,)
            return
        for e in range(deg, -1, -1):
            for rest in rec(vars_left - 1, deg - e):
                yield (e,) + rest

    return tuple(rec(nvars, k))


@lru_cache(maxsize=None)
def basis_index(nvars: int, k: int) -> dict:
    """Monomial -> position within monomial_basis(nvars, k)."""
    return {m: i for i, m in enumerate(monomial_basis(nvars, k))}


class Polynomial:
    """Immutable sparse polynomial over an exact field.

    The constructor checks every monomial and coerces every coefficient into
    the field; results of arithmetic are built by _trusted, which does not.
    """

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars: int, terms, field=QQ):
        cleaned = {}
        for mono, coeff in dict(terms).items():
            mono = _checked_monomial(mono, nvars)
            coeff = field.coerce(coeff)
            if coeff:
                cleaned[mono] = coeff
        self.nvars = nvars
        self.field = field
        self.terms = cleaned

    @classmethod
    def _trusted(cls, nvars: int, terms: dict, field) -> "Polynomial":
        """A polynomial on terms already valid: nvars-long exponent tuples
        with no negative entry, mapped to nonzero elements of field."""
        poly = cls.__new__(cls)
        poly.nvars, poly.field, poly.terms = nvars, field, terms
        return poly

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, field=QQ) -> "Polynomial":
        return cls(nvars, {}, field)

    @classmethod
    def constant(cls, nvars: int, value, field=QQ) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: field.coerce(value)}, field)

    @classmethod
    def variable(cls, nvars: int, i: int, field=QQ) -> "Polynomial":
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): field.one}, field)

    @classmethod
    def from_monomial(cls, nvars: int, mono: Monomial, coeff=1, field=QQ) -> "Polynomial":
        return cls(nvars, {tuple(mono): field.coerce(coeff)}, field)

    # ----- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> Optional[int]:
        """Maximum term degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> Optional[int]:
        """Common degree of all terms; None for zero; raises if mixed."""
        degrees = {sum(m) for m in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise HomogeneityError(f"polynomial is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def coefficient(self, mono: Monomial):
        return self.terms.get(tuple(mono), self.field.zero)

    def leading_monomial(self) -> Monomial:
        """Largest monomial in graded lex order; zero polynomial has none."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise VariableCountMismatchError(
                f"{self.nvars} variables vs {other.nvars}"
            )
        if self.field != other.field:
            raise FieldMismatchError("polynomials over different fields")

    # ----- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        result = _raw(self)
        for mono, c in _raw(other).items():
            acc = result.get(mono)
            result[mono] = c if acc is None else acc + c
        return _from_raw(self.nvars, self.field, result)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial._trusted(
            self.nvars, {m: -c for m, c in self.terms.items()}, self.field
        )

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            right = _raw(other).items()
            result = {}
            for ma, ca in _raw(self).items():
                for mb, cb in right:
                    mono = monomial_mul(ma, mb)
                    acc = result.get(mono)
                    result[mono] = ca * cb if acc is None else acc + ca * cb
            return _from_raw(self.nvars, self.field, result)
        try:
            scalar = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        return self.scale(scalar)

    __rmul__ = __mul__

    def scale(self, scalar) -> "Polynomial":
        scalar = self.field.coerce(scalar)
        if not scalar:
            return Polynomial.zero(self.nvars, self.field)
        return Polynomial._trusted(
            self.nvars, {m: c * scalar for m, c in self.terms.items()}, self.field
        )

    def mul_monomial(self, mono: Monomial) -> "Polynomial":
        """Fast product with x^mono, sharing this polynomial's coefficient objects."""
        mono = _checked_monomial(mono, self.nvars)
        terms = {monomial_mul(m, mono): c for m, c in self.terms.items()}
        return Polynomial._trusted(self.nvars, terms, self.field)

    def __pow__(self, exponent: int):
        """Power by repeated squaring.  One that needs a graded piece past
        MAX_PIECE_DIM or, over the rationals, a coefficient of more than
        MAX_COEFF_BITS bits raises ValueError before anything is computed."""
        if exponent < 0:
            raise ValueError("negative exponent")
        if len(self.terms) > 1:
            check_piece_dim(self.nvars, self.total_degree() * exponent)
        elif self.terms and not self.field.characteristic:
            (coeff,) = self.terms.values()
            size = max(abs(coeff.numerator), coeff.denominator)
            if size > 1 and size.bit_length() * exponent > MAX_COEFF_BITS:
                raise ValueError(f"the power's coefficient would have more than "
                                 f"{MAX_COEFF_BITS} bits")
        result = Polynomial.constant(self.nvars, 1, self.field)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range for {self.nvars} variables")
        result = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            lowered = mono[:i] + (e - 1,) + mono[i + 1:]
            c = coeff * e
            if c:
                result[lowered] = result.get(lowered, self.field.zero) + c
        return Polynomial(self.nvars, result, self.field)

    # ----- comparison and display ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.field, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        """Terms in descending graded lex order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in self.sorted_terms():
            factors = [
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(mono)
                if e
            ]
            negative = self.field.is_negative(coeff)
            magnitude = -coeff if negative else coeff
            if not factors:
                body = str(magnitude)
            elif magnitude == self.field.one:
                body = "*".join(factors)
            else:
                body = str(magnitude) + "*" + "*".join(factors)
            if not pieces:
                pieces.append(("-" if negative else "") + body)
            else:
                pieces.append(("- " if negative else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self})"


def _checked_monomial(mono, nvars: int) -> Monomial:
    mono = tuple(mono)
    if len(mono) != nvars:
        raise VariableCountMismatchError(
            f"monomial {mono} has {len(mono)} exponents, expected {nvars}"
        )
    if any(e < 0 for e in mono):
        raise ValueError(f"negative exponent in {mono}")
    return mono


def _raw(poly: Polynomial) -> dict:
    """A fresh {monomial: value} copy of poly's terms: residues over GF(p),
    the Fractions themselves over Q."""
    if poly.field.characteristic:
        return {m: c.value for m, c in poly.terms.items()}
    return dict(poly.terms)


def _from_raw(nvars: int, field, raw: dict) -> Polynomial:
    """The polynomial of {valid monomial: raw value}: over GF(p) each value
    is reduced mod p once, and zeros are dropped."""
    p = field.characteristic
    if p:
        terms = {m: PrimeFieldElement(r, p) for m, v in raw.items() if (r := v % p)}
    else:
        terms = {m: v for m, v in raw.items() if v}
    return Polynomial._trusted(nvars, terms, field)


# ----- module-level operations -------------------------------------------


def slot_polynomials(pairs, slots: int, nvars: int, field=QQ) -> Tuple[Polynomial, ...]:
    """One polynomial per slot from ((slot, monomial), coeff) pairs.

    This decodes a span certificate whose generators are labelled
    (slot, monomial), i.e. monomial times the slot's polynomial: the result
    holds, for each slot, the multiplier of that slot's polynomial.
    """
    parts = [dict() for _ in range(slots)]
    for (slot, mono), coeff in pairs:
        if coeff:
            parts[slot][mono] = parts[slot].get(mono, field.zero) + coeff
    return tuple(Polynomial(nvars, part, field) for part in parts)


def euler_pair(f: Polynomial) -> Polynomial:
    """Sum over i of x_i * df/dx_i; equals deg(f) * f for homogeneous f.

    Raises HomogeneityError on non-homogeneous input, since the identity
    this routine is used to cross-check only holds degreewise.
    """
    if not f.is_homogeneous():
        raise HomogeneityError("Euler pairing needs a homogeneous polynomial")
    total = Polynomial.zero(f.nvars, f.field)
    for i in range(f.nvars):
        total = total + f.partial(i).mul_monomial(
            tuple(1 if j == i else 0 for j in range(f.nvars))
        )
    return total


def poly_divmod(f: Polynomial, g: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """(q, r) with f == q * g + r and no term of r divisible by LM(g).

    The multiples of LM(g) are visited largest first in graded lex order: by
    degree, then down monomial_basis, whose size budget bounds the work.
    Each term found there is cancelled, which only adds smaller terms; what
    is left is r.  {g} is a Groebner basis of (g), so r is the unique such
    representative of f modulo (g), and q is unique too.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._check_compatible(g)
    p = f.field.characteristic
    lead = g.leading_monomial()
    tail = _raw(g)
    lc = tail.pop(lead)
    inv = pow(lc, -1, p) if p else 1 / lc
    shift = sum(lead)
    work = _raw(f)  # cancelled terms stay as zeros until the end
    quotient = {}
    for degree in range(max(map(sum, work), default=-1), shift - 1, -1):
        if not any(sum(m) == degree for m in work):
            continue
        for q_mono in monomial_basis(f.nvars, degree - shift):
            coeff = work.pop(monomial_mul(q_mono, lead), None)
            if coeff and (q := coeff * inv % p if p else coeff * inv):
                quotient[q_mono] = q
                for m, c in tail.items():
                    target = monomial_mul(m, q_mono)
                    acc = work.get(target)
                    work[target] = -q * c if acc is None else acc - q * c
    return _from_raw(f.nvars, f.field, quotient), _from_raw(f.nvars, f.field, work)


def poly_div_exact(f: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    """Exact quotient f / g, or None when g does not divide f."""
    quotient, remainder = poly_divmod(f, g)
    return None if remainder else quotient


def _monic(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    lead = p.terms[p.leading_monomial()]
    return p.scale(p.field.one / lead)


def _evaluate_on_line(p: Polynomial, base, direction) -> Polynomial:
    """p(base + t * direction) as a polynomial in the one variable t; the
    points are raw values (ints, or Fractions over Q)."""
    out = []
    for mono, coeff in _raw(p).items():
        factor = [1]
        for b, v, e in zip(base, direction, mono):
            for _ in range(e):
                grown = [0] * (len(factor) + 1)
                for k, c in enumerate(factor):
                    grown[k] += c * b
                    grown[k + 1] += c * v
                factor = grown
        out.extend([0] * (len(factor) - len(out)))
        for k, c in enumerate(factor):
            out[k] += coeff * c
    return _from_raw(1, p.field, {(k,): c for k, c in enumerate(out)})


def _uni_gcd_degree(a: Polynomial, b: Polynomial) -> int:
    """Degree of the gcd of two univariate polynomials, by Euclid's algorithm."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a.total_degree()


def multivariate_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """GCD of two homogeneous polynomials, normalized to leading coefficient 1.

    With g = gcd(a, b) of degree e, u * a == v * b has a solution with u != 0
    and deg u = deg b - k exactly when k <= e, and at k = e every solution is
    u = c * b / g.  On a line where both restrictions keep full degree, a
    common factor restricts to a common divisor of the same degree, so the
    univariate gcd bounds e; a bound of 0, the common coprime case, needs no
    linear algebra.  From the least bound down, a tracked Echelon whose
    columns are monomials takes a * S_(deg b - k), which is independent,
    then b * S_(deg a - k); the first multiple adding no rank is reduced to
    read off u, and g is b / u made monic.
    """
    a._check_compatible(b)
    da, db = a.homogeneous_degree(), b.homogeneous_degree()
    if da is None:
        return _monic(b)
    if db is None:
        return _monic(a)
    bound = min(da, db)
    field = a.field
    rng = random.Random(0x5EED11)
    for _ in range(4):
        if not bound:
            break
        base = [rng.randint(-9, 9) for _ in range(a.nvars)]
        direction = [rng.randint(-9, 9) for _ in range(a.nvars)]
        ua = _evaluate_on_line(a, base, direction)
        ub = _evaluate_on_line(b, base, direction)
        if ua.total_degree() == da and ub.total_degree() == db:
            bound = min(bound, _uni_gcd_degree(ua, ub))
    for k in range(bound, 0, -1):
        echelon = Echelon(field, track=True)
        labels = []
        for slot, (poly, shift) in enumerate(((a, db - k), (b, da - k))):
            for mono in monomial_basis(a.nvars, shift):
                multiple = poly.mul_monomial(mono).terms
                if not echelon.insert(multiple):
                    combo = echelon.reduce(multiple)[1]
                    labelled = ((labels[g], c) for g, c in combo.items())
                    u = slot_polynomials(labelled, 2, a.nvars, field)[0]
                    return _monic(poly_div_exact(b, u))
                labels.append((slot, mono))
    return Polynomial.constant(a.nvars, 1, field)


def gcd_many(polys: Iterable[Polynomial]) -> Polynomial:
    """GCD of a collection of homogeneous polynomials; the zero polynomial
    contributes nothing."""
    polys = list(polys)
    if not all(p.is_homogeneous() for p in polys):
        raise HomogeneityError("gcd needs homogeneous polynomials")
    result = None
    for p in polys:
        result = p if result is None else multivariate_gcd(result, p)
        if result.total_degree() == 0 and not result.is_zero():
            break
    if result is None:
        raise ValueError("gcd of an empty collection")
    return _monic(result)
