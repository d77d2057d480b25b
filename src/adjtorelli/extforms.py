"""Exterior algebra of twisted differential forms on projective space.

Forms live in homogeneous coordinates x0..xN on P^n (nvars = n+1).  A form of
grade p is a map from strictly increasing p-subsets of {0..n} (the dx
multi-index) to homogeneous polynomial coefficients of one common degree.
Denominators never appear: a classical rational form with a degree-q
denominator is represented by its polynomial numerators, with the twist kept
in the degree bookkeeping.  Under this convention the global twisted forms
are exactly the forms annihilated by contraction with the Euler vector field
E = sum_i x_i d/dx_i.

Four families of forms drive everything downstream, each the Euler
contraction iota_E of a constant form:

* fundamental_form(n+1) is sum_i (-1)^i x_i dx_0^...^dx_i-hat^...^dx_n,
  the Euler contraction of the coordinate volume form.  Every Euler-null
  top form is a polynomial multiple of it.
* syzygy_form(n+1, j) is (-1)^(j+1) iota_E(dx_0^...^dx_j-hat^...^dx_n), the
  grade n-1 companion satisfying sum_j x_j * syzygy_form(j) = 0; wedging it
  with dF reproduces the j-th partial derivative of F up to one global sign
  and multiples of F.
* basis_one_form(n+1, i, j) is x_i dx_j - x_j dx_i = iota_E(dx_i^dx_j), the
  standard basis of Euler-null one-forms with linear coefficients.
* a W-form (adjoint.wsystem_from_coords) is iota_E(alpha) for the constant
  2-form alpha = sum c_ij dx_i^dx_j of its coordinate row, which is
  sum c_ij basis_one_form(i, j) built by one contraction.

One product loop, _wedge_terms, multiplies {sorted multi-index: Polynomial}
maps: wedge runs it on forms, and relift_expand on free-module vectors, whose
basis vectors e_b take the place of dx_b.  It and euler_contract add up each
coefficient on one unreduced {monomial: value} dict, as polyring's loops do,
and build its Polynomial once, reducing mod p over GF(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, product
from typing import Dict, Optional, Sequence, Tuple

from .errors import (
    FieldMismatchError,
    GradeError,
    NoDecompositionError,
    NonDivisibleError,
    NonEulerNullError,
    RankOneConditionError,
    VariableCountMismatchError,
)
from .exactla import Span, solve_in_span
from .fields import QQ
from .polyring import (
    Polynomial,
    _from_raw,
    basis_index,
    monomial_basis,
    monomial_mul,
    poly_div_exact,
    slot_polynomials,
)


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


def _add_into(terms: dict, key: Tuple[int, ...], poly: Polynomial) -> None:
    """terms[key] += poly, dropping the key when the sum is zero."""
    acc = terms.get(key)
    acc = poly if acc is None else acc + poly
    if acc.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = acc


def _from_sums(sums: dict, nvars: int, field) -> Dict[Tuple[int, ...], Polynomial]:
    """{multi-index: Polynomial} of {multi-index: {monomial: value}} sums
    (polyring._from_raw), without the coefficients that vanish."""
    built = ((idxs, _from_raw(nvars, field, raw)) for idxs, raw in sums.items())
    return {idxs: poly for idxs, poly in built if poly}


def _wedge_terms(left: dict, right: dict, nvars: int, field) -> Dict[Tuple[int, ...], Polynomial]:
    """Exterior product of {sorted multi-index: Polynomial} maps.

    The one product loop: it wedges forms and free-module vectors alike.
    Each merged multi-index adds the products of the factors' terms into
    one {monomial: value} dict, the wedge sign folded into the left
    coefficient, and its Polynomial is built once, at the end.
    """
    right = [(ib, pb.terms.items()) for ib, pb in right.items()]
    sums: Dict[Tuple[int, ...], dict] = {}
    for ia, pa in left.items():
        plus = pa.terms.items()
        minus = [(m, -c) for m, c in plus]
        for ib, items in right:
            merged, sign = _merge_indices(ia, ib)
            if merged is None:
                continue
            acc = sums.setdefault(merged, {})
            for ma, ca in plus if sign > 0 else minus:
                for mb, cb in items:
                    mono = monomial_mul(ma, mb)
                    value = acc.get(mono)
                    acc[mono] = ca * cb if value is None else value + ca * cb
    return _from_sums(sums, nvars, field)


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
            _add_into(result, idxs, poly)
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
    return ExtForm(a.nvars, grade, _wedge_terms(a.terms, b.terms, a.nvars, a.field), a.field)


def wedge_all(forms: Sequence[ExtForm]) -> ExtForm:
    """Left-to-right wedge of a nonempty sequence."""
    if not forms:
        raise ValueError("empty wedge")
    return reduce(wedge, forms)


def euler_contract(a: ExtForm) -> ExtForm:
    """Interior product with the Euler vector field sum_i x_i d/dx_i.

    Grade drops by one, coefficient degree rises by one, and the map is a
    derivation of degree -1 that squares to zero.
    """
    if a.grade < 1:
        raise GradeError("cannot contract a grade-0 form")
    units = [tuple(int(i == k) for i in range(a.nvars)) for k in range(a.nvars)]
    sums: Dict[Tuple[int, ...], dict] = {}
    for idxs, poly in a.terms.items():
        plus = poly.terms.items()
        minus = [(m, -c) for m, c in plus]
        for pos, k in enumerate(idxs):
            acc = sums.setdefault(idxs[:pos] + idxs[pos + 1:], {})
            for m, c in minus if pos % 2 else plus:
                mono = monomial_mul(m, units[k])
                value = acc.get(mono)
                acc[mono] = c if value is None else value + c
    return ExtForm(a.nvars, a.grade - 1, _from_sums(sums, a.nvars, a.field), a.field)


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
        divided = poly_div_exact(coeff, Polynomial.variable(w.nvars, i, w.field))
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


@lru_cache(maxsize=None)
def _syzygy_span(nvars: int, degree: int, field) -> Tuple[Span, Tuple, Dict]:
    """The Span of the generators m * syzygy_form(j) for coefficient degree
    `degree`, a (j, m) label per generator, and each multi-index's column
    offset (monomial u on dx_s is column offsets[s] + its basis_index); it
    depends on nothing else, so it and its echelons are built once per shape."""
    n = nvars - 1
    index = basis_index(nvars, degree)
    width = len(index)
    offsets = {s: k * width for k, s in enumerate(combinations(range(nvars), n - 1))}
    rows = []
    labels = []
    for j in range(nvars):
        base = syzygy_form(nvars, j, field)
        for mono in monomial_basis(nvars, degree - 1):
            if j == n and mono[n]:
                continue  # fixes the gauge: A_n has no x_n term
            rows.append({offsets[s] + index[m]: c for s, poly in base.terms.items()
                         for m, c in poly.mul_monomial(mono).terms.items()})
            labels.append((j, mono))
    return Span(rows, len(offsets) * width, field), tuple(labels), offsets


def syzygy_decompose(w: ExtForm) -> Tuple[Polynomial, ...]:
    """Polynomials A_0..A_n with w == sum_j A_j * syzygy_form(j).

    Solved as one exact linear system over the monomial coefficient space,
    against the span _syzygy_span keeps for w's shape.
    By Koszul exactness the only relations among the generators
    m * syzygy_form(j) are the gauge (x_0 g, ..., x_n g), so leaving out the
    multiples of syzygy_form(n) by monomials holding x_n keeps the span and
    makes the generators independent: the solution, the one with no x_n in
    A_n, is unique.  The same exactness makes the span the Euler-null forms
    (for coefficient degree >= 1), so a failed solve means w is not Euler-null.
    """
    nvars = w.nvars
    n = nvars - 1
    if w.grade != n - 1:
        raise GradeError(f"expected grade {n - 1} on P^{n}, got {w.grade}")
    if w.is_zero():
        return tuple(Polynomial.zero(nvars, w.field) for _ in range(nvars))
    degree = w.coefficient_degree()
    if degree < 1:
        raise NoDecompositionError(
            "coefficient degree must be at least 1 to decompose"
        )
    span, labels, offsets = _syzygy_span(nvars, degree, w.field)
    index = basis_index(nvars, degree)
    target = [w.field.zero] * span.dim
    for idxs, poly in w.terms.items():
        for mono, coeff in poly.terms.items():
            target[offsets[idxs] + index[mono]] = coeff
    cert = solve_in_span(target, span)
    if cert is None:
        raise NoDecompositionError(
            "form is not Euler-null: it is outside the span of the syzygy forms"
        )
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
    return reduce(
        lambda acc, vector: _wedge_terms(
            acc, {(b,): p for b, p in enumerate(vector) if p}, nvars, field),
        vectors,
        {(): Polynomial.constant(nvars, 1, field)},
    )


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
    if any(len(v) != rank for v in (*sections, *offsets)):
        raise ValueError("module vectors of mixed lengths")
    if not rank:
        raise ValueError("module vectors of rank 0 have no wedge to expand")
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
    rhs = _vector_wedge(sections, nvars, field)
    for i in range(k):
        omitted = [s for t, s in enumerate(sections) if t != i]
        omitted.append(offsets[i])
        for idxs, poly in _vector_wedge(omitted, nvars, field).items():
            _add_into(rhs, idxs, -poly)
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
