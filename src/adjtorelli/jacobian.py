"""Jacobian ideal of a smooth hypersurface: graded membership with exact
certificates, quotient-ring dimensions, smoothness detection, and the
socle/pairing checks coming from Macaulay duality.

The ideal is generated in the single degree d-1 by the partial derivatives,
so membership in any graded piece is a finite span problem over the field.
Each graded piece of the Jacobian ideal is an incremental echelon over the
monomial basis, built lazily and cached on the hypersurface.  Cache fills
are idempotent (a piece's echelon depends only on its generators, taken in
one fixed order), so concurrent readers can only ever observe one value.
Reduction modulo F itself needs no linear algebra: {F} is a Groebner basis
of (F), so reduce_mod is the remainder of polynomial division by F.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import (
    FieldConstraintError,
    FieldMismatchError,
    HomogeneityError,
    NotSmoothError,
    VariableCountMismatchError,
)
from .exactla import Echelon, rref, sparsity_order
from .polyring import (
    Monomial,
    Polynomial,
    basis_index,
    check_piece_dim,
    monomial_basis,
    monomial_mul,
    poly_divmod,
    slot_polynomials,
)


@dataclass
class GradedPiece:
    """Echelon of labelled generators inside S_k plus bookkeeping.

    Generator g carries the label labels[g] = (slot, monomial): it is that
    monomial times the partial derivative dF/dx_slot, so a reduction's
    generator combination decodes into one multiplier per partial.
    """

    echelon: Echelon
    labels: Tuple
    quotient: Tuple[Monomial, ...]
    k: int

    def reduce(self, G: Polynomial) -> Tuple[Polynomial, Tuple[Polynomial, ...]]:
        """Residual of G in S_k modulo the span, and one multiplier per partial:
        G == residual + sum_j multiplier[j] * dF/dx_j."""
        residual, combo = self.echelon.reduce(_poly_vector(G, self.k))
        basis = monomial_basis(G.nvars, self.k)
        residual = Polynomial(G.nvars, {basis[i]: c for i, c in residual.items()}, G.field)
        labelled = ((self.labels[g], c) for g, c in combo.items())
        return residual, slot_polynomials(labelled, G.nvars, G.nvars, G.field)


def _poly_vector(poly: Polynomial, k: int) -> Dict[int, object]:
    index = basis_index(poly.nvars, k)
    return {index[m]: c for m, c in poly.terms.items()}


def _graded_piece(generators: Iterable, nvars: int, k: int, field) -> GradedPiece:
    """Tracked echelon of the (label, sparse row) generators, in the order given."""
    echelon = Echelon(field, track=True)
    labels = []
    for label, row in generators:
        echelon.insert(row)
        labels.append(label)
    basis = monomial_basis(nvars, k)
    quotient = tuple(basis[i] for i in echelon.nonpivot_columns(len(basis)))
    return GradedPiece(echelon, tuple(labels), quotient, k)


def _multiples(polys, nvars: int, shift: int, k: int, dropped=()):
    """Labelled generators m * polys[j] for deg m = shift, monomial-major, as
    sparse rows of S_k read straight off the terms of polys, without the
    columns in dropped."""
    if shift < 0:
        return
    shifts = monomial_basis(nvars, shift)  # before S_k: a budget error names it
    index = basis_index(nvars, k)
    terms = [poly.terms.items() for poly in polys]
    for mono in shifts:
        for j, items in enumerate(terms):
            yield (j, mono), {col: c for m, c in items
                              if (col := index[monomial_mul(m, mono)]) not in dropped}


def _pinned_count(monos, nvars: int, k: int) -> int:
    """How many degree-k monomials one of the distinct monomials monos
    divides: inclusion-exclusion over the lcms of nonempty subsets, each lcm
    of degree e <= k adding +-C(nvars-1+k-e, nvars-1), the number of
    degree-k monomials it divides.  An lcm only grows as a subset does, so a
    subset whose lcm passes degree k is not extended."""
    def count(lcm, start, sign):
        total = 0
        for j in range(start, len(monos)):
            joined = tuple(map(max, lcm, monos[j]))
            e = sum(joined)
            if e <= k:
                total += sign * comb(nvars - 1 + k - e, nvars - 1) + count(joined, j + 1, -sign)
        return total
    return count((0,) * nvars, 0, 1)


def is_smooth(F: Polynomial):
    """Decide smoothness of the hypersurface F = 0 in exact arithmetic.

    The partials have no common projective zero exactly when the quotient by
    the ideal they generate vanishes in degree k = (n+1)(d-2) + 1; the
    returned witness is that dimension (0 for a smooth hypersurface).

    A multiple m * dF/dx_j of a one-term partial is a scaled unit row, so its
    column is pinned with no arithmetic: reducing by that row deletes the
    column.  The other multiples, with the pinned columns dropped, go
    monomial-major into an untracked Echelon that pivots first on the
    columns the fewest of them hold (exactla.sparsity_order, counted off
    the partials' terms), which cuts fill-in; no list of them is kept.  The
    witness is dim S_k minus the pinned columns minus that rank.

    When no partial has two or more terms (a Fermat F, say), nothing is
    eliminated and no pinned column needs dropping, so the pinned columns
    are only counted (_pinned_count), never listed.  The count never costs
    more than the list: with m distinct one-term monomials, listing forms
    m * dim S_s products for s = k - d + 1 = n(d-2), and counting forms at
    most one lcm per subset, 2^m - 1.  When s = 0 (d = 2, or n = 0) each
    monomial pins only itself, so the count is m and forms no lcm.  For
    d >= 3, s >= n, so dim S_s >= C(2n, n) >= 2^n, and m <= n + 1 makes
    m * 2^n >= 2^m - 1.
    """
    d = F.homogeneous_degree()
    if d is None or d < 2:
        raise HomogeneityError("need a homogeneous polynomial of degree >= 2")
    nvars = F.nvars
    partials = [F.partial(i) for i in range(nvars)]
    k = nvars * (d - 2) + 1
    shift = k - (d - 1)
    check_piece_dim(nvars, shift)  # before S_k: a budget error names it
    check_piece_dim(nvars, k)
    ones = list(dict.fromkeys(m for f in partials if len(f.terms) == 1 for m in f.terms))
    others = [f for f in partials if len(f.terms) > 1]
    if not others:  # nothing to eliminate and no column to drop
        rank = _pinned_count(ones, nvars, k) if shift else len(ones)
    else:
        shifts = monomial_basis(nvars, shift)
        index = basis_index(nvars, k)
        pinned = {index[monomial_mul(m, mono)] for m in ones for mono in shifts}
        # counting the pinned columns too leaves the order of the others as it is
        echelon = Echelon(F.field, order=sparsity_order(
            index[monomial_mul(m, mono)] for f in others for m in f.terms for mono in shifts))
        for _, row in _multiples(others, nvars, shift, k, pinned):
            if row:
                echelon.insert(row)
        rank = len(pinned) + echelon.rank
    witness = comb(nvars - 1 + k, k) - rank
    return witness == 0, witness


def hilbert_expected(n: int, d: int, k: int) -> int:
    """Coefficient of t^k in (1 + t + ... + t^(d-2))^(n+1)."""
    if k < 0:
        return 0
    coeffs = [1] * (d - 1)
    poly = [1]
    for _ in range(n + 1):
        out = [0] * (len(poly) + len(coeffs) - 1)
        for i, a in enumerate(poly):
            if not a:
                continue
            for j, b in enumerate(coeffs):
                out[i + j] += a * b
        poly = out
    return poly[k] if k < len(poly) else 0


class Hypersurface:
    """A validated smooth hypersurface with cached graded ideal data."""

    def __init__(self, poly: Polynomial):
        d = poly.homogeneous_degree()
        if d is None or d < 2:
            raise HomogeneityError(
                "hypersurface needs a homogeneous polynomial of degree >= 2"
            )
        p = poly.field.characteristic
        if p:
            if d % p == 0 or (d - 1) % p == 0:
                raise FieldConstraintError(
                    f"prime field modulus {p} divides {d} or {d - 1}; "
                    "the Euler identity degenerates"
                )
        self.poly = poly
        self.field = poly.field
        self.nvars = poly.nvars
        self.n = poly.nvars - 1
        self.degree = d
        self.partials = tuple(poly.partial(i) for i in range(poly.nvars))
        self.socle_degree = self.nvars * (d - 2)
        smooth, witness = is_smooth(poly)
        self.smooth_witness = witness
        if not smooth:
            raise NotSmoothError(
                f"hypersurface is singular: {witness} independent directions "
                f"survive in degree {self.socle_degree + 1}"
            )
        self._ideal: Dict[int, GradedPiece] = {}
        # adjoint.sample_bundle's entries, keyed by (seed, trial); they hold
        # no reference back to this hypersurface
        self._bundles: Dict[Tuple[int, int], tuple] = {}

    def __repr__(self):
        return f"Hypersurface(n={self.n}, d={self.degree}, F={self.poly})"

    # ----- cached graded pieces -----------------------------------------

    def ideal_piece(self, k: int) -> GradedPiece:
        """Echelon of span{m * F_j : deg m = k - d + 1} inside S_k."""
        piece = self._ideal.get(k)
        if piece is None:
            generators = _multiples(self.partials, self.nvars, k - (self.degree - 1), k)
            piece = _graded_piece(generators, self.nvars, k, self.field)
            self._ideal[k] = piece
        return piece

    def quotient_basis(self, k: int) -> Tuple[Monomial, ...]:
        """Canonical monomial basis of S_k modulo the Jacobian ideal."""
        return self.ideal_piece(k).quotient

    def _check_input(self, G: Polynomial):
        if G.nvars != self.nvars:
            raise VariableCountMismatchError(
                f"{G.nvars} variables vs hypersurface in {self.nvars}"
            )
        if G.field != self.field:
            raise FieldMismatchError("polynomial over a different field")

    def _check_deformation(self, R: Polynomial):
        """The degree-d gate: R is over this ring and 0 or homogeneous of degree d."""
        self._check_input(R)
        if not R.is_zero() and R.homogeneous_degree() != self.degree:
            raise HomogeneityError(
                f"deformation polynomial must be homogeneous of degree {self.degree}"
            )


@dataclass(frozen=True)
class MembershipCertificate:
    """Polynomials g_j with G == sum_j g_j * dF/dx_j, exactly re-verifiable."""

    parts: Tuple[Polynomial, ...]

    def verify(self, h: Hypersurface, G: Polynomial) -> bool:
        total = Polynomial.zero(h.nvars, h.field)
        for part, partial in zip(self.parts, h.partials):
            total = total + part * partial
        return total == G


def graded_membership(G: Polynomial, h: Hypersurface) -> Optional[MembershipCertificate]:
    """Decide G in the Jacobian ideal, with an exact certificate on success.

    The ideal contains F itself (Euler identity), so membership modulo F and
    plain membership agree.  Degrees below d-1 hold no nonzero members.
    """
    h._check_input(G)
    if G.is_zero():
        return MembershipCertificate(
            tuple(Polynomial.zero(h.nvars, h.field) for _ in range(h.nvars))
        )
    k = G.homogeneous_degree()
    if k < h.degree - 1:
        return None
    residual, parts = h.ideal_piece(k).reduce(G)
    return None if residual else MembershipCertificate(parts)


def jacobian_ring_dim(h: Hypersurface, k: int) -> int:
    """Dimension of degree-k piece of the quotient by the Jacobian ideal."""
    if k < 0:
        return 0
    return comb(h.nvars - 1 + k, k) - h.ideal_piece(k).echelon.rank


def reduce_mod(h: Hypersurface, G: Polynomial) -> Polynomial:
    """Canonical representative of G modulo F: the remainder of dividing G by F.

    {F} alone is a Groebner basis of (F), so the remainder is the unique
    representative with no term divisible by LM(F); the map is linear,
    idempotent and deterministic.
    """
    h._check_input(G)
    return poly_divmod(G, h.poly)[1]


@dataclass(frozen=True)
class DeformationClass:
    """A degree-d class with its canonical representative modulo the ideal."""

    original: Polynomial
    representative: Polynomial
    certificate: MembershipCertificate  # witnesses original - representative

    def verify(self, h: Hypersurface) -> bool:
        return self.certificate.verify(h, self.original - self.representative)


def deformation_class(h: Hypersurface, R: Polynomial) -> DeformationClass:
    h._check_deformation(R)
    representative, parts = h.ideal_piece(h.degree).reduce(R)
    return DeformationClass(R, representative, MembershipCertificate(parts))


def pairing_matrix(h: Hypersurface, a: int) -> List[Tuple]:
    """Multiplication pairing of quotient pieces in degrees a and socle - a,
    as row tuples.

    Entry (i, j) is the socle coordinate of b_i * c_j after reduction into
    the canonical quotient complement in the socle degree.
    """
    sigma = h.socle_degree
    if not 0 <= a <= sigma:
        raise ValueError(f"degree {a} outside [0, {sigma}]")
    left = h.quotient_basis(a)
    right = h.quotient_basis(sigma - a)
    socle_piece = h.ideal_piece(sigma)
    socle_basis = socle_piece.quotient
    if len(socle_basis) != 1:
        raise NotSmoothError("socle is not one-dimensional")
    index = basis_index(h.nvars, sigma)
    socle_col = index[socle_basis[0]]
    coords = {}  # socle coordinate of each distinct product, reduced once
    rows = []
    for m1 in left:
        row = []
        for m2 in right:
            product = monomial_mul(m1, m2)
            if product not in coords:
                residual, _ = socle_piece.echelon.reduce({index[product]: h.field.one})
                coords[product] = residual.get(socle_col, h.field.zero)
            row.append(coords[product])
        rows.append(tuple(row))
    return rows


def macaulay_pairing_check(h: Hypersurface, a: int) -> bool:
    """True iff the multiplication pairing into the socle degree is perfect."""
    return pairing_is_perfect(pairing_matrix(h, a), h.field)


def pairing_is_perfect(rows, field) -> bool:
    """True iff a pairing matrix is square with rank equal to its size."""
    if any(len(row) != len(rows) for row in rows):
        return False
    return rref(rows, field)[2] == len(rows)
