"""Exact linear algebra built on one incremental row-echelon accumulator.

Echelon is the only elimination loop: generators are inserted one at a time
as sparse {column: value} rows, the reduced basis is maintained
incrementally, and optional combination tracking records every row as an
exact linear combination of the inserted generators, which is what turns a
membership decision into a re-verifiable certificate.  Each stored row's
pivot is its smallest column.  Reduced row echelon form is unique, so any
insertion order that lands on it gives bit-identical results.

rref reads a dense matrix's reduced form, pivots and rank off an untracked
Echelon; solve_in_span writes a target over generators with a tracked one;
polyring's gcd reads its relation u * a == v * b off a tracked one whose
columns are monomials (any ordered, hashable column keys work).

Over GF(p) an Echelon's rows and combinations are raw ints in [0, p), as
in modular elimination generally: values meet PrimeFieldElement only at
insert, reduce and rref, so callers see field elements.  Over the
rationals rows hold Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import QQ


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
                residual[k] = residual[k] - coeff * value
        return not any(residual)


class Matrix:
    """Dense row-major matrix over an exact field."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows * cols != len(entries):
            raise ValueError("entry count does not match dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(nrows, ncols, flat)

    @classmethod
    def identity(cls, n: int, field=QQ) -> "Matrix":
        return cls(
            n, n,
            [field.one if i == j else field.zero for i in range(n) for j in range(n)],
        )

    def row(self, i: int) -> Tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def rref(m: Matrix, field=QQ) -> Tuple[Matrix, Tuple[int, ...], int]:
    """Reduced row echelon form, pivot columns, and rank.

    The rows go into an untracked Echelon; its stored rows, read in pivot
    order as field elements and padded with zero rows, are the reduced row
    echelon form.
    """
    ech = Echelon(field)
    for i in range(m.rows):
        ech.insert({
            j: field.coerce(v) if isinstance(v, int) else v
            for j, v in enumerate(m.row(i)) if v
        })
    pivots = ech.pivot_columns()
    flat = []
    for col in pivots:
        row = ech.rows[ech.pivot_rows[col]]
        flat.extend(field.coerce(row.get(j, 0)) for j in range(m.cols))
    flat.extend([field.zero] * ((m.rows - len(pivots)) * m.cols))
    return Matrix(m.rows, m.cols, flat), pivots, len(pivots)


class Echelon:
    """Incremental reduced row echelon basis with exact combination tracking.

    Rows are sparse column->value mappings.  After every insertion the stored
    rows form the unique reduced echelon basis of the span of everything
    inserted so far, with the pivot of each row being its smallest column.
    With track=True each row additionally carries its expression as a
    combination of inserted generators (indexed by insertion order).

    Over GF(p) the stored rows and combinations hold plain ints in [0, p):
    insert and reduce take every incoming value through field.coerce, so an
    element of another field is still rejected, and reduce hands back field
    elements.  Over the rationals they hold Fractions as given.
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
        if not self.p:
            return {c: v for c, v in vec.items() if v}
        coerce = self.field.coerce
        return {c: r for c, v in vec.items() if (r := coerce(v).value)}

    def reduce(self, vec: Dict) -> Tuple[Dict, Dict]:
        """Residual of vec modulo the current row space, plus the generator
        combination used: vec == residual + sum(combo[g] * generator_g)."""
        residual, combo = self._reduce(self._entries(vec))
        if not self.p:
            return residual, combo
        coerce = self.field.coerce
        return ({c: coerce(v) for c, v in residual.items()},
                {g: coerce(v) for g, v in combo.items()})

    def _reduce(self, vec: Dict) -> Tuple[Dict, Dict]:
        """reduce on a vector already in the stored representation, in place."""
        p = self.p
        combo: Dict = {}
        hits = sorted(c for c in vec if c in self.pivot_rows)
        for col in hits:
            ridx = self.pivot_rows[col]
            if p:
                mult = vec.get(col)  # the row's 1 at col clears it
                if mult:
                    _sub_multiple(vec, mult, self.rows[ridx], p)
                    if self.track:
                        _sub_multiple(combo, p - mult, self.combos[ridx], p)
                continue
            mult = vec.pop(col, None)
            if mult is None or not mult:
                continue
            row = self.rows[ridx]
            for c2, v2 in row.items():
                if c2 == col:
                    continue
                acc = vec.get(c2)
                acc = -mult * v2 if acc is None else acc - mult * v2
                if acc:
                    vec[c2] = acc
                else:
                    vec.pop(c2, None)
            if self.track:
                for g, v2 in self.combos[ridx].items():
                    acc = combo.get(g)
                    acc = mult * v2 if acc is None else acc + mult * v2
                    if acc:
                        combo[g] = acc
                    else:
                        combo.pop(g, None)
        return vec, combo

    def _register(self, ridx: int, row: Dict):
        for col in row:
            self.col_rows.setdefault(col, set()).add(ridx)

    def _row_update(self, ridx: int, factor, pivot_row: Dict, pivot_combo: Dict):
        """rows[ridx] -= factor * pivot_row (and same on the combination)."""
        row = self.rows[ridx]
        p = self.p
        if p:
            for c2, v2 in pivot_row.items():
                acc = row.get(c2)
                if acc is None:
                    row[c2] = -factor * v2 % p
                    self.col_rows.setdefault(c2, set()).add(ridx)
                elif acc := (acc - factor * v2) % p:
                    row[c2] = acc
                else:
                    del row[c2]
                    self.col_rows[c2].discard(ridx)
            if self.track:
                _sub_multiple(self.combos[ridx], factor, pivot_combo, p)
            return
        for c2, v2 in pivot_row.items():
            acc = row.get(c2)
            acc = -factor * v2 if acc is None else acc - factor * v2
            if acc:
                if c2 not in row:
                    self.col_rows.setdefault(c2, set()).add(ridx)
                row[c2] = acc
            else:
                if c2 in row:
                    del row[c2]
                    self.col_rows[c2].discard(ridx)
        if self.track:
            combo = self.combos[ridx]
            for g, v2 in pivot_combo.items():
                acc = combo.get(g)
                acc = -factor * v2 if acc is None else acc - factor * v2
                if acc:
                    combo[g] = acc
                else:
                    combo.pop(g, None)

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
            row = {c: v / lead for c, v in residual.items()}
            new_combo = {g: -v / lead for g, v in combo.items() if v}
        if self.track:
            new_combo[gen_idx] = inv if p else self.field.one / lead
        # keep existing rows reduced against the new pivot column
        for ridx in sorted(self.col_rows.get(pivot, ())):
            factor = self.rows[ridx].get(pivot)
            if factor:
                self._row_update(ridx, factor, row, new_combo)
        ridx = len(self.rows)
        self.rows.append(row)
        self.combos.append(new_combo)
        self.pivot_rows[pivot] = ridx
        self._register(ridx, row)
        return True


def _sub_multiple(target: Dict, factor: int, source: Dict, p: int):
    """target -= factor * source on residues mod p, in place; neither holds a 0."""
    for k, v in source.items():
        acc = target.get(k)
        if acc is None:
            target[k] = -factor * v % p
        elif acc := (acc - factor * v) % p:
            target[k] = acc
        else:
            del target[k]


def solve_in_span(
    target: Sequence, generators: Sequence[Sequence], field=QQ
) -> Optional[SpanCertificate]:
    """Exact coefficients writing target over the generators, or None.

    Deterministic: generators are inserted in the given order into a reduced
    echelon with combination tracking, and the target is reduced against it.
    """
    dim = len(target)
    for g in generators:
        if len(g) != dim:
            raise ValueError("dimension mismatch between target and generators")
    ech = Echelon(field, track=True)
    for g in generators:
        ech.insert({i: v for i, v in enumerate(g) if v})
    residual, combo = ech.reduce({i: v for i, v in enumerate(target) if v})
    if residual:
        return None
    return SpanCertificate(
        tuple(combo.get(i, field.zero) for i in range(len(generators)))
    )
