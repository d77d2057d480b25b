"""Exterior algebra of twisted differential forms on projective space.

Forms live in homogeneous coordinates x0..xN on P^n (nvars = n+1).  A form of
grade p is a map from strictly increasing p-subsets of {0..n} (the dx
multi-index) to homogeneous polynomial coefficients of one common degree.
Denominators never appear: a classical rational form with a degree-q
denominator is represented by its polynomial numerators, with the twist kept
in the degree bookkeeping.  Under this convention the global twisted forms
are exactly the forms annihilated by contraction with the Euler vector field
E = sum_i x_i d/dx_i.

Three families of named forms drive everything downstream, each the Euler
contraction iota_E of one constant basis form:

* fundamental_form(n+1) is sum_i (-1)^i x_i dx_0^...^dx_i-hat^...^dx_n,
  the Euler contraction of the coordinate volume form.  Every Euler-null
  top form is a polynomial multiple of it.
* syzygy_form(n+1, j) is (-1)^(j+1) iota_E(dx_0^...^dx_j-hat^...^dx_n), the
  grade n-1 companion satisfying sum_j x_j * syzygy_form(j) = 0; wedging it
  with dF reproduces the j-th partial derivative of F up to one global sign
  and multiples of F.
* basis_one_form(n+1, i, j) is x_i dx_j - x_j dx_i = iota_E(dx_i^dx_j), the
  standard basis of Euler-null one-forms with linear coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    FieldMismatchError,
    GradeError,
    NoDecompositionError,
    NonDivisibleError,
    NonEulerNullError,
    RankOneConditionError,
    VariableCountMismatchError,
)
from .exactla import solve_in_span
from .fields import QQ
from .polyring import Polynomial, basis_index, monomial_basis, slot_polynomials


def _merge_indices(left: Tuple[int, ...], right: Tuple[int, ...]):
    """Sorted union and the wedge sign, or None when an index repeats."""
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None, 0
        if a < b:
            merged.append(a)
            i += 1
        else:
            # right[j] jumps over the remaining entries of left
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), sign


class ExtForm:
    """Immutable exterior form with homogeneous polynomial coefficients."""

    __slots__ = ("nvars", "grade", "terms", "field")

    def __init__(self, nvars: int, grade: int, terms, field=QQ):
        if not 0 <= grade <= nvars:
            raise GradeError(f"grade {grade} out of range for {nvars} coordinates")
        cleaned: Dict[Tuple[int, ...], Polynomial] = {}
        degree = None
        for idxs, poly in dict(terms).items():
            idxs = tuple(idxs)
            if len(idxs) != grade:
                raise GradeError(f"multi-index {idxs} does not have grade {grade}")
            if any(not 0 <= k < nvars for k in idxs) or list(idxs) != sorted(set(idxs)):
                raise ValueError(f"multi-index {idxs} is not strictly increasing in range")
            if poly.nvars != nvars:
                raise VariableCountMismatchError(
                    f"coefficient in {poly.nvars} variables on a form with {nvars}"
                )
            if poly.field != field:
                raise FieldMismatchError("coefficient field differs from form field")
            if poly.is_zero():
                continue
            d = poly.homogeneous_degree()
            if degree is None:
                degree = d
            elif degree != d:
                raise ValueError(
                    f"mixed coefficient degrees {degree} and {d} on one form"
                )
            cleaned[idxs] = poly
        self.nvars = nvars
        self.grade = grade
        self.terms = cleaned
        self.field = field

    @classmethod
    def zero(cls, nvars: int, grade: int, field=QQ) -> "ExtForm":
        return cls(nvars, grade, {}, field)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_degree(self) -> Optional[int]:
        """Common degree of the coefficients; None for the zero form."""
        for poly in self.terms.values():
            return poly.homogeneous_degree()
        return None

    def coefficient(self, idxs) -> Polynomial:
        return self.terms.get(tuple(idxs), Polynomial.zero(self.nvars, self.field))

    def _check_compatible(self, other: "ExtForm"):
        if self.nvars != other.nvars:
            raise VariableCountMismatchError(
                f"{self.nvars} coordinates vs {other.nvars}"
            )
        if self.field != other.field:
            raise FieldMismatchError("forms over different fields")

    def __add__(self, other):
        if not isinstance(other, ExtForm):
            return NotImplemented
        self._check_compatible(other)
        if self.grade != other.grade:
            raise GradeError("cannot add forms of different grades")
        result = dict(self.terms)
        for idxs, poly in other.terms.items():
            acc = result.get(idxs)
            acc = poly if acc is None else acc + poly
            if acc.is_zero():
                result.pop(idxs, None)
            else:
                result[idxs] = acc
        return ExtForm(self.nvars, self.grade, result, self.field)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExtForm(
            self.nvars, self.grade,
            {i: -p for i, p in self.terms.items()}, self.field,
        )

    def poly_mul(self, poly: Polynomial) -> "ExtForm":
        """Multiply every coefficient by one homogeneous polynomial."""
        if poly.is_zero():
            return ExtForm.zero(self.nvars, self.grade, self.field)
        return ExtForm(
            self.nvars, self.grade,
            {i: p * poly for i, p in self.terms.items()}, self.field,
        )

    def scale(self, scalar) -> "ExtForm":
        scalar = self.field.coerce(scalar)
        if not scalar:
            return ExtForm.zero(self.nvars, self.grade, self.field)
        return ExtForm(
            self.nvars, self.grade,
            {i: p.scale(scalar) for i, p in self.terms.items()}, self.field,
        )

    def __eq__(self, other):
        if not isinstance(other, ExtForm):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.grade == other.grade
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.grade, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for idxs in sorted(self.terms):
            body = "^".join(f"dx{k}" for k in idxs) if idxs else "1"
            pieces.append(f"({self.terms[idxs]}) {body}".strip())
        return " + ".join(pieces)

    def __repr__(self):
        return f"ExtForm({self})"


def wedge(a: ExtForm, b: ExtForm) -> ExtForm:
    """Graded-anticommutative product; coefficient degrees add."""
    a._check_compatible(b)
    grade = a.grade + b.grade
    if grade > a.nvars:
        raise GradeError(
            f"wedge grade {grade} exceeds {a.nvars} available differentials"
        )
    result: Dict[Tuple[int, ...], Polynomial] = {}
    for ia, pa in a.terms.items():
        for ib, pb in b.terms.items():
            merged, sign = _merge_indices(ia, ib)
            if merged is None:
                continue
            contrib = pa * pb if sign > 0 else -(pa * pb)
            acc = result.get(merged)
            acc = contrib if acc is None else acc + contrib
            if acc.is_zero():
                result.pop(merged, None)
            else:
                result[merged] = acc
    return ExtForm(a.nvars, grade, result, a.field)


def wedge_all(forms: Sequence[ExtForm]) -> ExtForm:
    """Left-to-right wedge of a nonempty sequence."""
    if not forms:
        raise ValueError("empty wedge")
    total = forms[0]
    for f in forms[1:]:
        total = wedge(total, f)
    return total


def euler_contract(a: ExtForm) -> ExtForm:
    """Interior product with the Euler vector field sum_i x_i d/dx_i.

    Grade drops by one, coefficient degree rises by one, and the map is a
    derivation of degree -1 that squares to zero.
    """
    if a.grade < 1:
        raise GradeError("cannot contract a grade-0 form")
    result: Dict[Tuple[int, ...], Polynomial] = {}
    for idxs, poly in a.terms.items():
        for pos, k in enumerate(idxs):
            reduced = idxs[:pos] + idxs[pos + 1:]
            contrib = poly.mul_monomial(
                tuple(1 if i == k else 0 for i in range(a.nvars))
            )
            if pos % 2:
                contrib = -contrib
            acc = result.get(reduced)
            acc = contrib if acc is None else acc + contrib
            if acc.is_zero():
                result.pop(reduced, None)
            else:
                result[reduced] = acc
    return ExtForm(a.nvars, a.grade - 1, result, a.field)


def _contracted_unit(idxs: Tuple[int, ...], nvars: int, field) -> ExtForm:
    """iota_E(dx_idxs): the Euler contraction of one constant basis form."""
    unit = Polynomial.constant(nvars, 1, field)
    return euler_contract(ExtForm(nvars, len(idxs), {idxs: unit}, field))


def fundamental_form(nvars: int, field=QQ) -> ExtForm:
    """sum_i (-1)^i x_i dx_0^...^dx_i-hat^...^dx_n (grade n, coefficient degree 1)."""
    return _contracted_unit(tuple(range(nvars)), nvars, field)


def syzygy_form(nvars: int, j: int, field=QQ) -> ExtForm:
    """Grade n-1 Euler-null form omitting dx_j; satisfies sum_j x_j * (this) = 0.

    It is (-1)^(j+1) iota_E(dx_0^...^dx_j-hat^...^dx_n).
    """
    if not 0 <= j < nvars:
        raise IndexError(f"index {j} out of range for {nvars} coordinates")
    form = _contracted_unit(tuple(k for k in range(nvars) if k != j), nvars, field)
    return form if j % 2 else -form


def basis_one_form(nvars: int, i: int, j: int, field=QQ) -> ExtForm:
    """x_i dx_j - x_j dx_i = iota_E(dx_i ^ dx_j) for i < j; Euler-null with
    linear coefficients."""
    if not 0 <= i < j < nvars:
        raise IndexError(f"need 0 <= i < j < {nvars}, got ({i}, {j})")
    return _contracted_unit((i, j), nvars, field)


def divide_by_fundamental(w: ExtForm) -> Polynomial:
    """The unique P with w == P * fundamental_form, for Euler-null top forms.

    The coefficient on the multi-index omitting i must equal (-1)^i x_i P for
    every i; the quotient is read off one coefficient and then re-verified
    against the whole form.
    """
    n = w.nvars - 1
    if w.grade != n:
        raise GradeError(f"expected grade {n} on P^{n}, got {w.grade}")
    if not euler_contract(w).is_zero():
        raise NonEulerNullError("form is not Euler-null")
    if w.is_zero():
        return Polynomial.zero(w.nvars, w.field)
    everything = tuple(range(w.nvars))
    quotient = None
    for i in range(w.nvars):
        coeff = w.terms.get(everything[:i] + everything[i + 1:])
        if coeff is None:
            continue
        divided = coeff.divide_by_variable(i)
        if divided is None:
            raise NonDivisibleError(
                f"coefficient omitting index {i} is not divisible by x{i}"
            )
        quotient = divided if i % 2 == 0 else -divided
        break
    if quotient is None:
        raise NonDivisibleError("no nonzero coefficient found")
    if fundamental_form(w.nvars, w.field).poly_mul(quotient) != w:
        raise NonDivisibleError("no consistent quotient by the fundamental form")
    return quotient


def _flatten(form: ExtForm, subsets: Sequence[Tuple[int, ...]], degree: int) -> List:
    """Dense coordinates of a form over (multi-index, monomial) pairs."""
    monos = monomial_basis(form.nvars, degree)
    index = basis_index(form.nvars, degree)
    width = len(monos)
    vec = [form.field.zero] * (len(subsets) * width)
    positions = {s: k for k, s in enumerate(subsets)}
    for idxs, poly in form.terms.items():
        base = positions[idxs] * width
        for mono, coeff in poly.terms.items():
            vec[base + index[mono]] = coeff
    return vec


def syzygy_decompose(w: ExtForm) -> Tuple[Polynomial, ...]:
    """Polynomials A_0..A_n with w == sum_j A_j * syzygy_form(j).

    Solved as one exact linear system over the monomial coefficient space.
    Solutions are unique only up to the gauge (x_0 g, ..., x_n g), and
    whichever representative the deterministic solver produces is returned.
    """
    nvars = w.nvars
    n = nvars - 1
    if w.grade != n - 1:
        raise GradeError(f"expected grade {n - 1} on P^{n}, got {w.grade}")
    if w.is_zero():
        return tuple(Polynomial.zero(nvars, w.field) for _ in range(nvars))
    if not euler_contract(w).is_zero():
        raise NoDecompositionError("form is not Euler-null")
    degree = w.coefficient_degree()
    if degree < 1:
        raise NoDecompositionError(
            "coefficient degree must be at least 1 to decompose"
        )
    subsets = tuple(combinations(range(nvars), n - 1))
    target = _flatten(w, subsets, degree)
    generators = []
    labels = []
    for j in range(nvars):
        base = syzygy_form(nvars, j, w.field)
        for mono in monomial_basis(nvars, degree - 1):
            generators.append(
                _flatten(base.poly_mul(Polynomial.from_monomial(nvars, mono, 1, w.field)),
                         subsets, degree)
            )
            labels.append((j, mono))
    cert = solve_in_span(target, generators, w.field)
    if cert is None:
        raise NoDecompositionError("form is outside the span of the syzygy forms")
    return slot_polynomials(zip(labels, cert.coefficients), nvars, nvars, w.field)


# ----- free-module wedge identities ---------------------------------------


@dataclass(frozen=True)
class ReliftReport:
    """Outcome of the lifting-offset expansion check and sign search."""

    expansion_holds: bool
    annihilating_pattern: Optional[Tuple[int, ...]]


def _vector_add(u: Sequence[Polynomial], v: Sequence[Polynomial], sign: int):
    if sign > 0:
        return tuple(a + b for a, b in zip(u, v))
    return tuple(a - b for a, b in zip(u, v))


def _vector_wedge(vectors: Sequence[Sequence[Polynomial]], nvars: int, field):
    """Wedge of free-module vectors as {basis subset: Polynomial}."""
    acc = {(): Polynomial.constant(nvars, 1, field)}
    for vector in vectors:
        new: Dict[Tuple[int, ...], Polynomial] = {}
        for idxs, coeff in acc.items():
            for b, poly in enumerate(vector):
                key, sign = _merge_indices(idxs, (b,))
                if poly.is_zero() or key is None:
                    continue
                contrib = coeff * poly if sign > 0 else -(coeff * poly)
                acc2 = new.get(key)
                acc2 = contrib if acc2 is None else acc2 + contrib
                if acc2.is_zero():
                    new.pop(key, None)
                else:
                    new[key] = acc2
        acc = new
        if not acc:
            break
    return acc


def relift_expand(
    sections: Sequence[Sequence[Polynomial]],
    offsets: Sequence[Sequence[Polynomial]],
) -> ReliftReport:
    """Check the lifting expansion identity and search for a vanishing relift.

    sections is a list of k = n+1 vectors s_1..s_k in a free module with
    polynomial entries; offsets is a list of k vectors all proportional to
    one fixed module generator.  The identity verified is

        (s_1 + c_1 o_1) ^ ... ^ (s_k + c_k o_k)
            == s_1^...^s_k - sum_i s_1^...^s_i-hat^...^s_k^o_i

    with c_i = (-1)^(n-i) (1-based i).  The search tries every sign pattern
    e in {+1,-1}^k on s_i + e_i o_i and reports the first pattern whose full
    wedge vanishes, if any; when the top wedge equals sum_i o_i ^ (wedge
    omitting i), the alternating pattern always succeeds.
    """
    k = len(sections)
    if len(offsets) != k or k < 2:
        raise ValueError("need matching non-trivial section and offset lists")
    rank = len(sections[0])
    for v in list(sections) + list(offsets):
        if len(v) != rank:
            raise ValueError("module vectors of mixed lengths")
    sample = sections[0][0]
    nvars, field = sample.nvars, sample.field
    support = {
        b for v in offsets for b, poly in enumerate(v) if not poly.is_zero()
    }
    if len(support) > 1:
        raise RankOneConditionError(
            f"offsets touch module generators {sorted(support)}; expected at most one"
        )
    n = k - 1
    lifted = [
        _vector_add(s, o, 1 if (n - (i + 1)) % 2 == 0 else -1)
        for i, (s, o) in enumerate(zip(sections, offsets))
    ]
    lhs = _vector_wedge(lifted, nvars, field)
    rhs = dict(_vector_wedge(sections, nvars, field))
    for i in range(k):
        omitted = [s for t, s in enumerate(sections) if t != i]
        omitted.append(offsets[i])
        for idxs, poly in _vector_wedge(omitted, nvars, field).items():
            acc = rhs.get(idxs)
            acc = -poly if acc is None else acc - poly
            if acc.is_zero():
                rhs.pop(idxs, None)
            else:
                rhs[idxs] = acc
    expansion_holds = lhs == rhs
    pattern_found = None
    for pattern in product((1, -1), repeat=k):
        relift = [
            _vector_add(s, o, e)
            for s, o, e in zip(sections, offsets, pattern)
        ]
        if not _vector_wedge(relift, nvars, field):
            pattern_found = pattern
            break
    return ReliftReport(expansion_holds, pattern_found)
