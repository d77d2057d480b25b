"""Sparse exact arithmetic for multivariate polynomials in homogeneous coordinates.

A monomial is an exponent tuple, one entry per coordinate x0..xN.  A
polynomial maps monomials to nonzero field elements; the zero polynomial has
an empty term map, so equal polynomials always have identical term maps.
The canonical term order is graded lexicographic with x0 > x1 > ... > xN.

Everything here is immutable after construction and all operations return
fresh values, so polynomials can be shared freely between threads.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, Optional, Tuple

from .errors import (
    FieldMismatchError,
    HomogeneityError,
    VariableCountMismatchError,
)
from .fields import QQ

Monomial = Tuple[int, ...]


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """Whether a divides b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Quotient a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def grlex_key(mono: Monomial):
    """Sort key realizing graded lex with x0 > x1 > ... > xN."""
    return (sum(mono), mono)


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, k: int) -> Tuple[Monomial, ...]:
    """All degree-k monomials in nvars variables, in descending graded lex order.

    The list has C(nvars-1+k, k) entries and is the canonical index set for
    every graded linear-algebra computation in the package.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    if nvars <= 0:
        raise ValueError("need at least one variable")

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
    """Immutable sparse polynomial over an exact field."""

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars: int, terms, field=QQ):
        cleaned = {}
        for mono, coeff in dict(terms).items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise VariableCountMismatchError(
                    f"monomial {mono} has {len(mono)} exponents, expected {nvars}"
                )
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            if coeff:
                cleaned[mono] = coeff
        self.nvars = nvars
        self.field = field
        self.terms = cleaned

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
        result = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = result.get(mono)
            acc = coeff if acc is None else acc + coeff
            if acc:
                result[mono] = acc
            else:
                result.pop(mono, None)
        return Polynomial(self.nvars, result, self.field)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial(
            self.nvars, {m: -c for m, c in self.terms.items()}, self.field
        )

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            result = {}
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    mono = monomial_mul(ma, mb)
                    acc = result.get(mono)
                    acc = ca * cb if acc is None else acc + ca * cb
                    if acc:
                        result[mono] = acc
                    else:
                        del result[mono]
            return Polynomial(self.nvars, result, self.field)
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
        return Polynomial(
            self.nvars, {m: c * scalar for m, c in self.terms.items()}, self.field
        )

    def mul_monomial(self, mono: Monomial, coeff=None) -> "Polynomial":
        """Fast product with coeff * x^mono."""
        mono = tuple(mono)
        if coeff is None:
            coeff = self.field.one
        if not coeff:
            return Polynomial.zero(self.nvars, self.field)
        return Polynomial(
            self.nvars,
            {monomial_mul(m, mono): c * coeff for m, c in self.terms.items()},
            self.field,
        )

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative exponent")
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

    def divide_by_variable(self, i: int) -> Optional["Polynomial"]:
        """Exact quotient by x_i, or None if some term lacks the variable."""
        result = {}
        for mono, coeff in self.terms.items():
            if mono[i] == 0:
                return None
            result[mono[:i] + (mono[i] - 1,) + mono[i + 1:]] = coeff
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


def poly_div_exact(f: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    """Exact quotient f / g, or None when g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return Polynomial.zero(f.nvars, f.field)
    f._check_compatible(g)
    quotient = {}
    remainder = f
    g_lead = g.leading_monomial()
    g_lead_coeff = g.terms[g_lead]
    while not remainder.is_zero():
        lead = remainder.leading_monomial()
        if not monomial_divides(g_lead, lead):
            return None
        q_mono = monomial_div(lead, g_lead)
        q_coeff = remainder.terms[lead] / g_lead_coeff
        quotient[q_mono] = q_coeff
        remainder = remainder - g.mul_monomial(q_mono, q_coeff)
    return Polynomial(f.nvars, quotient, f.field)


def _main_variable(*polys: Polynomial) -> Optional[int]:
    """Largest variable index actually present in any argument."""
    best = None
    for p in polys:
        for mono in p.terms:
            for i in range(p.nvars - 1, -1, -1):
                if mono[i]:
                    best = i if best is None else max(best, i)
                    break
    return best


def _as_univariate(f: Polynomial, var: int):
    """View f as a polynomial in x_var with coefficients free of x_var."""
    coeffs = {}
    for mono, coeff in f.terms.items():
        e = mono[var]
        stripped = mono[:var] + (0,) + mono[var + 1:]
        bucket = coeffs.setdefault(e, {})
        bucket[stripped] = coeff
    return {
        e: Polynomial(f.nvars, bucket, f.field) for e, bucket in coeffs.items()
    }


def _from_univariate(coeffs, nvars, var, field) -> Polynomial:
    total = Polynomial.zero(nvars, field)
    for e, poly in coeffs.items():
        shift = tuple(e if i == var else 0 for i in range(nvars))
        total = total + poly.mul_monomial(shift)
    return total


def _content(coeffs) -> Polynomial:
    polys = [p for p in coeffs.values() if not p.is_zero()]
    result = polys[0]
    for p in polys[1:]:
        result = multivariate_gcd(result, p)
        if result.total_degree() == 0:
            break
    return result


def _pseudo_rem(f, g, var, nvars, field):
    """Pseudo-remainder of f by g, both as univariate coefficient maps."""
    df = max(f)
    dg = max(g)
    lc_g = g[dg]
    while f and max(f) >= dg:
        df = max(f)
        lc_f = f[df]
        # scale f by lc(g) then subtract x^(df-dg) * lc(f) * g
        f = {e: p * lc_g for e, p in f.items()}
        shift = df - dg
        for e, p in g.items():
            e2 = e + shift
            acc = f.get(e2, Polynomial.zero(nvars, field)) - p * lc_f
            if acc.is_zero():
                f.pop(e2, None)
            else:
                f[e2] = acc
        f = {e: p for e, p in f.items() if not p.is_zero()}
    return f


def _monic(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    lead = p.terms[p.leading_monomial()]
    return p.scale(p.field.one / lead)


def _evaluate_on_line(p: Polynomial, base, direction):
    """Dense t-coefficients of p(base + t * direction); empty list means zero."""
    field = p.field
    out = [field.zero]
    for mono, coeff in p.terms.items():
        factor = [field.one]
        for b, v, e in zip(base, direction, mono):
            for _ in range(e):
                grown = [field.zero] * (len(factor) + 1)
                for k, c in enumerate(factor):
                    if c:
                        grown[k] = grown[k] + c * b
                        grown[k + 1] = grown[k + 1] + c * v
                factor = grown
        if len(factor) > len(out):
            out.extend([field.zero] * (len(factor) - len(out)))
        for k, c in enumerate(factor):
            if c:
                out[k] = out[k] + coeff * c
    while out and not out[-1]:
        out.pop()
    return out


def _uni_mod(a, b):
    """Remainder of dense univariate coefficient lists; b nonzero."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    while a and len(a) - 1 >= db:
        if not a[-1]:
            a.pop()
            continue
        q = a[-1] / lead
        offset = len(a) - 1 - db
        for k in range(db):
            a[offset + k] = a[offset + k] - q * b[k]
        a.pop()
    while a and not a[-1]:
        a.pop()
    return a


def _uni_gcd_degree(a, b) -> int:
    while b:
        a, b = b, _uni_mod(a, b)
    return len(a) - 1


def _coprime_on_line(a: Polynomial, b: Polynomial) -> bool:
    """Certified gcd(a, b) == 1 via restriction to an affine line.

    When both restrictions keep the full total degree, any nonconstant
    common factor restricts to a nonconstant common divisor of the two
    univariate restrictions; a constant univariate gcd therefore proves
    coprimality outright.  An inconclusive line is retried; False only
    means "not certified", never "not coprime".
    """
    da = a.total_degree()
    db = b.total_degree()
    field = a.field
    rng = random.Random(0x5EED11)
    for _ in range(4):
        base = [field.coerce(rng.randint(-9, 9)) for _ in range(a.nvars)]
        direction = [field.coerce(rng.randint(-9, 9)) for _ in range(a.nvars)]
        ua = _evaluate_on_line(a, base, direction)
        ub = _evaluate_on_line(b, base, direction)
        if len(ua) - 1 != da or len(ub) - 1 != db:
            continue
        if _uni_gcd_degree(ua, ub) == 0:
            return True
    return False


def multivariate_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """GCD over the coefficient field, normalized to leading coefficient 1.

    Coprimality, by far the common case here, is certified first through
    line restrictions.  Otherwise a content/primitive-part recursion on one
    variable at a time with a primitive pseudo-remainder sequence takes
    over; it is fast on the structured (near-monomial) inputs this package
    produces, though dense coprime-free inputs of high degree would blow up.
    """
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    a._check_compatible(b)
    da = a.total_degree()
    db = b.total_degree()
    if da and db and _coprime_on_line(a, b):
        return Polynomial.constant(a.nvars, 1, a.field)
    var = _main_variable(a, b)
    if var is None:
        return Polynomial.constant(a.nvars, 1, a.field)
    ua = _as_univariate(a, var)
    ub = _as_univariate(b, var)
    if max(ua) == 0 and max(ub) == 0:
        # variable occurs in neither once stripped: plain recursion
        return multivariate_gcd(ua[0], ub[0])
    ca = _content(ua)
    cb = _content(ub)
    content_gcd = multivariate_gcd(ca, cb)
    pa = {e: poly_div_exact(p, ca) for e, p in ua.items()}
    pb = {e: poly_div_exact(p, cb) for e, p in ub.items()}
    if max(pa) < max(pb):
        pa, pb = pb, pa
    while pb:
        r = _pseudo_rem(pa, pb, var, a.nvars, a.field)
        if not r:
            pa = pb
            break
        cr = _content(r)
        pa, pb = pb, {e: poly_div_exact(p, cr) for e, p in r.items()}
    pp_gcd = _from_univariate(pa, a.nvars, var, a.field)
    return _monic(content_gcd * pp_gcd)


def gcd_many(polys: Iterable[Polynomial]) -> Polynomial:
    """GCD of a collection; the zero polynomial contributes nothing."""
    result = None
    for p in polys:
        result = p if result is None else multivariate_gcd(result, p)
        if result.total_degree() == 0 and not result.is_zero():
            break
    if result is None:
        raise ValueError("gcd of an empty collection")
    return _monic(result)
