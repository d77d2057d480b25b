"""Exact linear algebra built on one incremental row-echelon accumulator.

Echelon is the only elimination loop: generators are inserted one at a time
as sparse {column: value} rows, the reduced basis is maintained
incrementally, and optional combination tracking records every row as an
exact linear combination of the inserted generators, which is what turns a
membership decision into a re-verifiable certificate.  Each stored row's
pivot is its smallest column.  Reduced row echelon form is unique, so any
insertion order that lands on it gives bit-identical results.

Every row operation, on a reduced vector or on a stored row and on their
combinations, is one call of _sub_multiple, the only inner loop that
depends on the field.  rref reads the reduced form, pivots and rank of a
list of equal-length rows off an untracked Echelon; solve_in_span writes a
target over generators with a tracked one; polyring's gcd reads its
relation u * a == v * b off a tracked one whose columns are monomials (any
ordered, hashable column keys work).

Over GF(p) an Echelon's rows and combinations are raw ints in [0, p), as
in modular elimination generally; over the rationals they are Fractions.
Values pass through field.coerce at insert and reduce, so callers hand in
and get back field elements.

Over the rationals solve_in_span first decides modulo the word-size primes
SPAN_PRIMES.  When every generator raises the rank mod p the generators are
independent over Q too, so the solution is unique: a nonzero residual mod p
proves the target is outside the span, and a zero one gives the solution mod
p, which is CRT-combined across primes, rationally reconstructed (Wang 1981)
and returned only once SpanCertificate.verify passes over Q.  Anything else
falls back to the elimination over Q, so no answer or certificate changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import QQ, PrimeField

# the eight largest primes below 2^31, tried in this order
SPAN_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579,
               2147483563, 2147483549, 2147483543, 2147483497)
_SPAN_FIELDS = tuple(PrimeField(p) for p in SPAN_PRIMES)


@dataclass(frozen=True)
class SpanCertificate:
    """Coefficients expressing a target vector over a list of generators."""

    coefficients: Tuple

    def verify(self, target: Sequence, generators: Sequence[Sequence]) -> bool:
        """Exact recomputation of target - sum(c_i * g_i) == 0."""
        if len(self.coefficients) != len(generators):
            return False
        residual = list(target)
        for coeff, gen in zip(self.coefficients, generators):
            if not coeff:
                continue
            for k, value in enumerate(gen):
                if value:
                    residual[k] = residual[k] - coeff * value
        return not any(residual)


def rref(rows: Sequence[Sequence], field=QQ) -> Tuple[List[Tuple], Tuple[int, ...], int]:
    """Reduced row echelon form of equal-length rows, pivot columns, and rank.

    The rows go into an untracked Echelon; its stored rows, read in pivot
    order as field elements and padded with zero rows, are the reduced rows.
    """
    ncols = len(rows[0]) if rows else 0
    ech = Echelon(field)
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged rows")
        ech.insert(dict(enumerate(row)))
    pivots = ech.pivot_columns()
    reduced = [
        tuple(field.coerce(ech.rows[ech.pivot_rows[col]].get(j, 0)) for j in range(ncols))
        for col in pivots
    ]
    reduced += [(field.zero,) * ncols] * (len(rows) - len(pivots))
    return reduced, pivots, len(pivots)


class Echelon:
    """Incremental reduced row echelon basis with exact combination tracking.

    Rows are sparse column->value mappings.  After every insertion the stored
    rows form the unique reduced echelon basis of the span of everything
    inserted so far, with the pivot of each row being its smallest column.
    With track=True each row additionally carries its expression as a
    combination of inserted generators (indexed by insertion order).

    col_rows lists, for each non-pivot column, the stored rows that may hold
    it: a row holding the column is always listed, a row whose entry there
    cancelled may stay listed, and the set is dropped once the column
    becomes a pivot.
    """

    def __init__(self, field=QQ, track: bool = False):
        self.field = field
        self.track = track
        self.p = field.characteristic  # 0 over the rationals
        self.rows: List[Dict] = []
        self.combos: List[Dict] = []
        self.pivot_rows: Dict[int, int] = {}
        self.col_rows: Dict[int, set] = {}
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivot_columns(self) -> Tuple[int, ...]:
        return tuple(sorted(self.pivot_rows))

    def nonpivot_columns(self, dim: int) -> Tuple[int, ...]:
        return tuple(c for c in range(dim) if c not in self.pivot_rows)

    def _entries(self, vec: Dict) -> Dict:
        """A fresh copy of vec's nonzero entries in the stored representation."""
        coerce = self.field.coerce
        if not self.p:
            return {c: r for c, v in vec.items() if (r := coerce(v))}
        return {c: r for c, v in vec.items() if (r := coerce(v).value)}

    def reduce(self, vec: Dict) -> Tuple[Dict, Dict]:
        """Residual of vec modulo the current row space, plus the generator
        combination used: vec == residual + sum(combo[g] * generator_g)."""
        residual, combo = self._reduce(self._entries(vec))
        coerce = self.field.coerce
        return ({c: coerce(v) for c, v in residual.items()},
                {g: coerce(v) for g, v in combo.items()})

    def _reduce(self, vec: Dict) -> Tuple[Dict, Dict]:
        """reduce on a vector already in the stored representation, in place."""
        combo: Dict = {}
        for col in sorted(c for c in vec if c in self.pivot_rows):
            mult = vec.get(col)  # the row's 1 at col clears it
            if mult:
                ridx = self.pivot_rows[col]
                _sub_multiple(vec, mult, self.rows[ridx], self.p)
                if self.track:
                    _sub_multiple(combo, -mult, self.combos[ridx], self.p)
        return vec, combo

    def insert(self, vec: Dict) -> bool:
        """Insert one generator; returns True when the rank increased."""
        gen_idx = self.n_inserted
        self.n_inserted += 1
        residual, combo = self._reduce(self._entries(vec))
        if not residual:
            return False
        pivot = min(residual)
        lead = residual[pivot]
        p = self.p
        # combo is empty unless tracking
        if p:
            inv = pow(lead, -1, p)
            row = {c: v * inv % p for c, v in residual.items()}
            new_combo = {g: -v * inv % p for g, v in combo.items()}
        else:
            inv = 1 / lead
            row = {c: v * inv for c, v in residual.items()}
            new_combo = {g: -v * inv for g, v in combo.items()}
        if self.track:
            new_combo[gen_idx] = inv
        # keep existing rows reduced against the new pivot column
        col_rows = self.col_rows
        for ridx in sorted(col_rows.pop(pivot, ())):
            target = self.rows[ridx]
            factor = target.get(pivot)
            if factor:
                added = []
                _sub_multiple(target, factor, row, p, added)
                for col in added:
                    col_rows.setdefault(col, set()).add(ridx)
                if self.track:
                    _sub_multiple(self.combos[ridx], factor, new_combo, p)
        ridx = len(self.rows)
        self.rows.append(row)
        self.combos.append(new_combo)
        self.pivot_rows[pivot] = ridx
        for col in row:
            if col != pivot:
                col_rows.setdefault(col, set()).add(ridx)
        return True


def _sub_multiple(target: Dict, factor, source: Dict, p: int, added: Optional[list] = None):
    """target -= factor * source in place, mod p when p is nonzero; neither
    holds a 0 before or after.  Keys new to target are appended to added."""
    neg = -factor
    if p:
        for k, v in source.items():
            acc = target.get(k)
            if acc is None:
                target[k] = neg * v % p
                if added is not None:
                    added.append(k)
            elif acc := (acc - factor * v) % p:
                target[k] = acc
            else:
                del target[k]
        return
    for k, v in source.items():
        acc = target.get(k)
        if acc is None:
            target[k] = neg * v
            if added is not None:
                added.append(k)
        elif acc := acc - factor * v:
            target[k] = acc
        else:
            del target[k]


def solve_in_span(
    target: Sequence, generators: Sequence[Sequence], field=QQ
) -> Optional[SpanCertificate]:
    """Exact coefficients writing target over the generators, or None.

    Deterministic: generators are inserted in the given order into a reduced
    echelon with combination tracking, and the target is reduced against it.
    Over Q the answer is first sought modulo SPAN_PRIMES; whatever it finds
    is what that elimination would return.
    """
    dim = len(target)
    for g in generators:
        if len(g) != dim:
            raise ValueError("dimension mismatch between target and generators")
    if not field.characteristic:
        decided, cert = _solve_modular(target, generators)
        if decided:
            return cert
    ech = Echelon(field, track=True)
    for g in generators:
        ech.insert({i: v for i, v in enumerate(g) if v})
    residual, combo = ech.reduce({i: v for i, v in enumerate(target) if v})
    if residual:
        return None
    return SpanCertificate(
        tuple(combo.get(i, field.zero) for i in range(len(generators)))
    )


def _solve_modular(target, generators) -> Tuple[bool, Optional[SpanCertificate]]:
    """(True, answer) when the primes decide a span solve over Q, else
    (False, None).  A prime dividing a denominator is skipped."""
    goal = {i: v for i, v in enumerate(target) if v}
    residues = [0] * len(generators)
    modulus = 1
    for field in _SPAN_FIELDS:
        p = field.p
        ech = Echelon(field, track=True)
        try:
            for g in generators:
                if not ech.insert({i: v for i, v in enumerate(g) if v}):
                    return False, None  # dependent mod p, maybe over Q too
            residual, combo = ech.reduce(goal)
        except ZeroDivisionError:
            continue
        if residual:
            return True, None
        inv = pow(modulus, -1, p)
        for i, r in enumerate(residues):
            c = combo[i].value if i in combo else 0
            residues[i] = r + modulus * ((c - r) * inv % p)
        modulus *= p
        coefficients = tuple(_rational_reconstruct(r, modulus) for r in residues)
        if None not in coefficients:
            cert = SpanCertificate(coefficients)
            if cert.verify(target, generators):
                return True, cert
    return False, None


def _rational_reconstruct(u: int, m: int) -> Optional[Fraction]:
    """The fraction a/b == u mod m with |a|, |b| <= sqrt(m/2), if any."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return Fraction(r1, s1)
