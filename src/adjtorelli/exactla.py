"""Exact linear algebra built on one incremental row-echelon accumulator.

Echelon is the only elimination loop: generators are inserted one at a time
as sparse {column: value} rows, each stored row pivoting on its smallest
column or, given a column order, its first.  Untracked, it keeps the unique
reduced row echelon basis, which rref reads off.  Tracked, it is a row
echelon factor that never rewrites a stored row: each row records how its
generator was reduced, and a reduce turns that record into the target's
exact combination of the inserted generators, which is what turns a
membership decision into a re-verifiable certificate.  Rank, whether a
residual is zero, and the combination over the generators that raised the
rank (it is unique) depend only on the generators and their insertion order.

Every row operation, on a reduced vector, a stored row or a combination
record, is one call of _sub_multiple, the only inner loop that depends on
the field.  rref reads the reduced form, pivots and rank of a list of
equal-length rows off an untracked Echelon; solve_in_span writes a target
over a Span's generators with tracked ones; polyring's gcd reads its
relation u * a == v * b off a tracked one whose columns are monomials (any
ordered, hashable column keys work).

A Span holds fixed generators as sparse rows over one field together with
the tracked echelons its solves have built, one per prime.  Their column
order, sparsity_order, puts first the columns the fewest generators hold,
which keeps the factor sparse (Markowitz 1957); jacobian.is_smooth orders
its untracked echelon the same way.  A Span is the only generator input of
a span solve: a caller that solves many targets against one span passes the
same Span each time, and each echelon is built once.

Values are field elements: residues (ints in [0, p)) over GF(p), as in
modular elimination generally, and Fractions over the rationals.  Insert,
reduce and Span take any value field.coerce accepts, and over GF(p) any int
as its residue; rows, records, residuals and combinations hold field
elements.

Over the rationals solve_in_span first decides modulo the word-size primes
SPAN_PRIMES.  When every generator raises the rank mod p the generators are
independent over Q too, so the solution is unique: a nonzero residual mod p
proves the target is outside the span, and a zero one gives the solution mod
p, which is CRT-combined across primes, rationally reconstructed (Wang 1981)
and returned only once SpanCertificate.verify passes over Q.  Anything else
falls back to the elimination over Q, which no Span keeps, so no answer or
certificate changes.
"""

from __future__ import annotations

from collections import Counter, UserDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import QQ, PrimeField

# the eight largest primes below 2^31, tried in this order
SPAN_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579,
               2147483563, 2147483549, 2147483543, 2147483497)
_SPAN_FIELDS = tuple(PrimeField(p) for p in SPAN_PRIMES)
# what a Span over Q remembers of a prime that cannot decide its solves
_DEPENDENT = "dependent"  # a generator adds no rank mod p: eliminate over Q
_SKIP = "skip"  # p divides a generator's denominator: try the next prime


@dataclass(frozen=True)
class SpanCertificate:
    """Coefficients expressing a target vector over a list of generators."""

    coefficients: Tuple

    def verify(self, target: Sequence, span: Span) -> bool:
        """Exact recomputation of target - sum(c_i * g_i) == 0 over the
        span's generators, mod p over GF(p); target and coefficients may be
        any values the span's field coerces.  A target of another dimension
        is False."""
        if span.dim != len(target) or len(self.coefficients) != len(span):
            return False
        coerce, p = span.field.coerce, span.field.characteristic
        residual = {i: r for i, v in enumerate(target) if (r := coerce(v))}
        for i, coeff in enumerate(self.coefficients):
            if coeff := coerce(coeff):
                _sub_multiple(residual, coeff, span.rows[i], p)
        return not residual


class Span:
    """Fixed generators, given as sparse {column: value} rows of length dim
    over field, and what the span solves against them have built.

    Each row is kept as a fresh dict of its nonzero entries as field
    elements, so a caller's later change to its own rows changes nothing
    here.  The first solve that needs a prime builds the tracked Echelon of
    the rows modulo it and keeps it.  Over Q a prime can instead be
    remembered as of no use: a generator adds no rank mod p (solves then
    eliminate over Q, uncached), or p divides a denominator (solves skip
    it).  len() is the number of generators.
    """

    def __init__(self, rows: Sequence[Dict], dim: int, field=QQ):
        self.rows = [_entries(row, field) for row in rows]
        if any(row and (min(row) < 0 or max(row) >= dim) for row in self.rows):
            raise ValueError(f"a generator has a column outside range({dim})")
        self.dim = dim
        self.field = field
        self._echelons: Dict = {}  # p -> tracked Echelon, _DEPENDENT or _SKIP

    def __len__(self) -> int:
        return len(self.rows)

    def _echelon(self, field):
        """The tracked echelon of the rows over field, a GF(p); for a
        span over Q, _DEPENDENT or _SKIP when p cannot decide its solves."""
        state = self._echelons.get(field.p)
        if state is None:
            lifting = not self.field.characteristic
            ech = state = self._tracked(field)
            try:
                for row in self.rows:
                    if not ech.insert(row) and lifting:
                        state = _DEPENDENT  # maybe dependent over Q too
                        break
            except ZeroDivisionError:
                if not lifting:
                    raise
                state = _SKIP
            self._echelons[field.p] = state
        return state

    def _tracked(self, field):
        """An empty tracked Echelon over field in the rows' sparsity_order."""
        order = sparsity_order(c for row in self.rows for c in row)
        return Echelon(field, track=True, order=order)


def sparsity_order(columns) -> Dict:
    """The column order {column: rank} that puts first the columns the
    fewest rows hold, ties to the smaller column (Markowitz 1957); columns
    lists the columns of every row, each once per row that holds it."""
    return {c: (n, c) for c, n in Counter(columns).items()}


def rref(rows: Sequence[Sequence], field=QQ) -> Tuple[List[Tuple], Tuple[int, ...], int]:
    """Reduced row echelon form of equal-length rows, pivot columns, and rank.

    The rows go into an untracked Echelon, the form that back-substitutes;
    its stored rows, read in pivot order and padded with zero rows, are the
    reduced rows.
    """
    ncols = len(rows[0]) if rows else 0
    ech = Echelon(field)
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged rows")
        ech.insert(dict(enumerate(row)))
    pivots = ech.pivot_columns()
    zero = field.zero
    reduced = [tuple(ech.rows[ech.pivot_rows[col]].get(j, zero) for j in range(ncols))
               for col in pivots]
    reduced += [(zero,) * ncols] * (len(rows) - len(pivots))
    return reduced, pivots, len(pivots)


class Echelon:
    """Incremental row echelon basis of sparse rows, in one of two forms.

    Rows are sparse column->value mappings.  Each stored row has a 1 at its
    pivot, which is its smallest column or, given order (a {column: rank}
    map over every generator's columns), its least-ranked one, and a 0 at
    the pivot of every row stored before it.  Both forms give the same
    pivots, rank and residuals: a residual modulo the span is supported off
    the pivot columns, and that makes it unique.

    Untracked (the default), each insert also back-substitutes the new pivot
    into the stored rows, so they always form the unique reduced row echelon
    basis of the span; rref reads it off, and reduced rows stay short on
    dense input.  col_rows lists, for each non-pivot column, the stored rows
    that may hold it: a row holding the column is always listed, a row whose
    entry there cancelled may stay listed, and the set is dropped once the
    column becomes a pivot.

    Tracked (track=True), the echelon is a row echelon factor: a stored row
    is never changed again.  Row i records instead the index gens[i] of the
    generator it came from (generators are numbered in insertion order), its
    inverse lead invs[i] and the multipliers steps[i] = {row j: m_j} its own
    reduction used, so that row_i == invs[i] * (generator gens[i] -
    sum_j m_j * row_j).  reduce turns a target's multipliers into generator
    coefficients by one backward pass over that record; the result is the
    unique combination over the generators that raised the rank.
    """

    def __init__(self, field=QQ, track: bool = False, order: Optional[Dict] = None):
        self.field = field
        self.track = track
        self.order = order
        self.p = field.characteristic  # 0 over the rationals
        self.rows: List[Dict] = []
        self.pivots: List = []  # row i's pivot column
        self.pivot_rows: Dict[int, int] = {}
        self.col_rows: Dict[int, set] = {}
        self.gens: List[int] = []
        self.invs: List = []
        self.steps: List[Dict] = []
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivot_columns(self) -> Tuple[int, ...]:
        return tuple(sorted(self.pivot_rows))

    def nonpivot_columns(self, dim: int) -> Tuple[int, ...]:
        return tuple(c for c in range(dim) if c not in self.pivot_rows)

    def reduce(self, vec: Dict) -> Tuple[Dict, Dict]:
        """Residual of vec modulo the current row space, plus the generator
        combination used: vec == residual + sum(combo[g] * generator_g).
        The combination is empty untracked and built when first read."""
        residual, mults = self._reduce(_entries(vec, self.field))
        return residual, _Combination(self, mults) if self.track else {}

    def _reduce(self, vec: Dict) -> Tuple[Dict, Dict]:
        """reduce on a vector of nonzero field elements, in place:
        the residual and the multiplier of each stored row taken off it.

        Stored rows are visited in increasing order through a heap, which
        also takes the rows whose pivots a subtracted row brings in; row i is
        0 at the pivots of the rows before it, whatever the pivot rule, so no
        cleared pivot comes back.
        """
        pivot_rows, pivots, rows, p = self.pivot_rows, self.pivots, self.rows, self.p
        heap = [pivot_rows[c] for c in vec if c in pivot_rows]
        heapify(heap)
        added = [] if self.track else None
        mults: Dict = {}
        while heap:
            ridx = heappop(heap)
            mult = vec.get(pivots[ridx])  # the row's 1 at its pivot clears it
            if mult:
                mults[ridx] = mult
                _sub_multiple(vec, mult, rows[ridx], p, added)
                if added:
                    for c in added:
                        if c in pivot_rows:
                            heappush(heap, pivot_rows[c])
                    added.clear()
        return vec, mults

    def _combination(self, mults: Dict) -> Dict:
        """Generator coefficients of sum(mults[i] * row_i), consuming mults:
        rows from the last down, each passes its coefficient to its
        generator and, through its steps, to the rows before it."""
        p, gens, invs, steps = self.p, self.gens, self.invs, self.steps
        combo = {}
        for ridx in range(max(mults, default=-1), -1, -1):
            mult = mults.pop(ridx, None)
            if mult:
                coeff = mult * invs[ridx] % p if p else mult * invs[ridx]
                combo[gens[ridx]] = coeff
                _sub_multiple(mults, coeff, steps[ridx], p)
        return combo

    def insert(self, vec: Dict) -> bool:
        """Insert one generator; returns True when the rank increased."""
        gen_idx = self.n_inserted
        self.n_inserted += 1
        residual, mults = self._reduce(_entries(vec, self.field))
        if not residual:
            return False
        pivot = min(residual, key=self.order.__getitem__ if self.order else None)
        lead = residual[pivot]
        p = self.p
        if p:
            inv = pow(lead, -1, p)
            row = {c: v * inv % p for c, v in residual.items()}
        else:
            inv = 1 / lead
            row = {c: v * inv for c, v in residual.items()}
        ridx = len(self.rows)
        if self.track:
            self.gens.append(gen_idx)
            self.invs.append(inv)
            self.steps.append(mults)
        else:
            # keep the stored rows reduced against the new pivot column
            col_rows = self.col_rows
            for i in sorted(col_rows.pop(pivot, ())):
                target = self.rows[i]
                factor = target.get(pivot)
                if factor:
                    added = []
                    _sub_multiple(target, factor, row, p, added)
                    for col in added:
                        col_rows.setdefault(col, set()).add(i)
            for col in row:
                if col != pivot:
                    col_rows.setdefault(col, set()).add(ridx)
        self.rows.append(row)
        self.pivots.append(pivot)
        self.pivot_rows[pivot] = ridx
        return True


class _Combination(UserDict):
    """A tracked reduce's generator combination: its data is built from the
    row multipliers by Echelon._combination when first read."""

    def __init__(self, echelon: Echelon, mults: Dict):
        self._pending = echelon, mults

    @cached_property
    def data(self) -> Dict:
        echelon, mults = self._pending
        return echelon._combination(mults)


def _entries(vec: Dict, field) -> Dict:
    """A fresh copy of vec's nonzero entries as field elements; over GF(p)
    an int is taken as its residue."""
    coerce, p = field.coerce, field.characteristic
    if not p:
        return {c: r for c, v in vec.items() if (r := coerce(v))}
    return {c: r for c, v in vec.items() if (r := v % p if type(v) is int else coerce(v))}


def _sub_multiple(target: Dict, factor, source: Dict, p: int, added: Optional[list] = None):
    """target -= factor * source in place, mod p when p is nonzero and in
    the values' own field otherwise; neither holds a 0 before or after.
    Keys new to target are appended to added."""
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


def solve_in_span(target: Sequence, span: Span) -> Optional[SpanCertificate]:
    """Exact coefficients writing target over the span's generators, or None.

    The span's per-prime echelons are built by the first solve that needs
    them and reused by the next.  Deterministic: the answer is that of
    inserting the generators in order into a tracked echelon over the
    span's field and reducing the target against it.  Over Q the answer is
    first sought modulo SPAN_PRIMES; whatever it finds is what that
    elimination returns.
    """
    if span.dim != len(target):
        raise ValueError("target and span disagree on dimension")
    field = span.field
    goal = {i: v for i, v in enumerate(target) if v}
    if field.characteristic:
        residual, combo = span._echelon(field).reduce(goal)
    else:
        decided, cert = _solve_modular(target, goal, span)
        if decided:
            return cert
        ech = span._tracked(field)
        for row in span.rows:
            ech.insert(row)
        residual, combo = ech.reduce(goal)
    if residual:
        return None
    return SpanCertificate(tuple(combo.get(i, field.zero) for i in range(len(span))))


def _solve_modular(target, goal, span) -> Tuple[bool, Optional[SpanCertificate]]:
    """(True, answer) when the primes decide a span solve over Q, else
    (False, None).  A prime dividing a denominator is skipped."""
    residues = [0] * len(span)
    modulus = 1
    for field in _SPAN_FIELDS:
        ech = span._echelon(field)
        if ech is _DEPENDENT:
            return False, None
        if ech is _SKIP:
            continue
        p = field.p
        try:
            residual, combo = ech.reduce(goal)
        except ZeroDivisionError:
            continue  # p divides a denominator of the target
        if residual:
            return True, None
        inv = pow(modulus, -1, p)
        for i, r in enumerate(residues):
            residues[i] = r + modulus * ((combo.get(i, 0) - r) * inv % p)
        modulus *= p
        coefficients = tuple(_rational_reconstruct(r, modulus) for r in residues)
        if None not in coefficients:
            cert = SpanCertificate(coefficients)
            if cert.verify(target, span):
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
