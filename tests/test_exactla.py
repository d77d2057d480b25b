import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjtorelli.exactla import (
    SPAN_PRIMES,
    Echelon,
    Span,
    SpanCertificate,
    _PackedRows,
    rref,
    solve_in_span,
)
from adjtorelli.fields import QQ, PrimeField, PrimeFieldElement
from adjtorelli.jacobian import pairing_matrix
from adjtorelli.polyring import monomial_basis

F = Fraction


def as_span(gens, dim, field=QQ):
    """The Span of equal-length dense rows, each of length dim."""
    return Span([{j: v for j, v in enumerate(g) if v} for g in gens], dim, field)


def matrices(max_dim=5, elements=st.fractions(min_value=-6, max_value=6, max_denominator=3)):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(elements, min_size=c, max_size=c), min_size=r, max_size=r,
            )
        )
    )


def test_rref_identity_fixed_point():
    m = [tuple(F(int(i == j)) for j in range(3)) for i in range(3)]
    reduced, pivots, rank = rref(m)
    assert reduced == m
    assert pivots == (0, 1, 2)
    assert rank == 3


def test_rref_zero_matrix():
    m = [(F(0), F(0))] * 2
    reduced, pivots, rank = rref(m)
    assert reduced == m
    assert pivots == ()
    assert rank == 0


def test_rref_rank_one():
    m = [[F(1), F(2)], [F(2), F(4)]]
    _, pivots, rank = rref(m)
    assert rank == 1
    assert pivots == (0,)


def test_rref_rejects_ragged_rows():
    with pytest.raises(ValueError):
        rref([[F(1), F(2)], [F(1)]])


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    reduced, _, _ = rref(m)
    again, _, _ = rref(reduced)
    assert again == reduced


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    sympy = pytest.importorskip("sympy")
    _, _, rank = rref(m)
    nullity = len(sympy.Matrix(m).nullspace())
    assert rank + nullity == len(m[0])


def test_solve_in_span_standard_basis():
    cert = solve_in_span([F(1), F(1)], as_span([[F(1), F(0)], [F(0), F(1)]], 2))
    assert cert.coefficients == (F(1), F(1))


def test_solve_in_span_misses():
    assert solve_in_span([F(1), F(0)], as_span([[F(0), F(1)]], 2)) is None


def test_solve_in_span_zero_target():
    span = as_span([[F(1), F(2)], [F(3), F(4)]], 2)
    cert = solve_in_span([F(0), F(0)], span)
    assert cert.coefficients == (F(0), F(0))
    assert cert.verify([F(0), F(0)], span)


def test_solve_in_span_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_in_span([F(1)], as_span([[F(1), F(2)]], 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_certificates_reverify(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 5)
    gens = [
        [F(rng.randint(-4, 4)) for _ in range(dim)]
        for _ in range(rng.randint(1, 5))
    ]
    coeffs = [F(rng.randint(-3, 3)) for _ in gens]
    target = [
        sum((c * g[k] for c, g in zip(coeffs, gens)), F(0)) for k in range(dim)
    ]
    span = as_span(gens, dim)
    cert = solve_in_span(target, span)
    assert cert is not None
    assert cert.verify(target, span)


def test_verify_rejects_wrong_certificate():
    bogus = SpanCertificate((F(2), F(0)))
    assert not bogus.verify([F(1), F(1)], as_span([[F(1), F(0)], [F(0), F(1)]], 2))


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=4))
def test_echelon_agrees_with_dense_rref(m):
    """The untracked accumulator and rref must land on sympy's canonical RREF."""
    sympy = pytest.importorskip("sympy")
    cols = len(m[0])
    dense, pivots = sympy.Matrix(m).rref()
    ech = Echelon(QQ)
    for r in m:
        ech.insert({j: v for j, v in enumerate(r) if v})
    assert ech.rank == len(pivots)
    assert ech.pivot_columns() == pivots
    expected = [F(int(v.p), int(v.q)) for v in dense]
    # every stored row matches the corresponding nonzero row of sympy's RREF
    for pivot_col, ridx in ech.pivot_rows.items():
        start = pivots.index(pivot_col) * cols
        row = expected[start:start + cols]
        assert ech.rows[ridx] == {j: v for j, v in enumerate(row) if v}
    reduced, rref_pivots, rank = rref(m)
    assert (rref_pivots, rank) == (pivots, len(pivots))
    assert [v for r in reduced for v in r] == expected


def test_echelon_combination_tracking():
    """Reducing each generator leaves no residual, and its combination
    rebuilds it from the generators that raised the rank."""
    rng = random.Random(11)
    gens = [[F(rng.randint(-5, 5)) for _ in range(4)] for _ in range(6)]
    ech = Echelon(QQ, track=True)
    raising = [i for i, g in enumerate(gens) if ech.insert({j: v for j, v in enumerate(g) if v})]
    assert len(raising) == ech.rank == 4
    for g in gens:
        residual, combo = ech.reduce({j: v for j, v in enumerate(g) if v})
        assert not residual and set(combo) <= set(raising)
        rebuilt = [F(0)] * 4
        for g_idx, c in combo.items():
            for k in range(4):
                rebuilt[k] += c * gens[g_idx][k]
        assert rebuilt == g


@pytest.mark.parametrize("p", [7, 32003])
@settings(max_examples=40, deadline=None)
@given(m=matrices(elements=st.integers(min_value=-40_000, max_value=40_000)))
def test_echelon_agrees_with_dense_rref_mod_p(p, m):
    """Over GF(p) the stored residues, rref and reduce match sympy's GF(p) RREF."""
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    K = GF(p)
    field = PrimeField(p)
    cols = len(m[0])
    dense, pivots = DomainMatrix(
        [[K(v) for v in r] for r in m], (len(m), cols), K
    ).rref()
    expected = [K.to_int(v) % p for row in dense.to_list() for v in row]
    gens = [{j: field.coerce(v) for j, v in enumerate(r) if v % p} for r in m]
    ech, tracked = Echelon(field), Echelon(field, track=True)
    for g in gens:
        assert ech.insert(g) == tracked.insert(g)
    assert ech.pivot_columns() == tracked.pivot_columns() == tuple(pivots)
    for pivot_col, ridx in ech.pivot_rows.items():
        start = pivots.index(pivot_col) * cols
        row = expected[start:start + cols]
        assert ech.rows[ridx] == {j: v for j, v in enumerate(row) if v}
    reduced, rref_pivots, rank = rref(m, field)
    assert (rref_pivots, rank) == (tuple(pivots), len(pivots))
    entries = [v for r in reduced for v in r]
    assert all(isinstance(v, PrimeFieldElement) and v.modulus == p for v in entries)
    assert [v.value for v in entries] == expected
    target = {j: field.coerce(j + 1) for j in range(cols)}
    residual, combo = tracked.reduce(target)
    assert residual == ech.reduce(target)[0]
    values = list(residual.values()) + list(combo.values())
    assert all(isinstance(v, PrimeFieldElement) and v.modulus == p for v in values)
    rebuilt = dict(residual)
    for g_idx, c in combo.items():
        for j, v in gens[g_idx].items():
            rebuilt[j] = rebuilt.get(j, field.zero) + c * v
    assert {j: v for j, v in rebuilt.items() if v} == target


def test_prime_field_echelon_creates_no_elements(monkeypatch):
    """Over GF(p) the echelon works on residues: inserting creates no field
    elements, and a reduce creates only the ones it hands back."""
    field = PrimeField(32003)
    rng = random.Random(8)
    rows = [{rng.randrange(40): field.coerce(rng.randrange(1, 32003)) for _ in range(5)}
            for _ in range(30)]
    target = {c: field.coerce(rng.randrange(1, 32003)) for c in range(0, 40, 3)}
    created = [0]
    init = PrimeFieldElement.__init__

    def counting_init(self, value, modulus):
        created[0] += 1
        init(self, value, modulus)

    monkeypatch.setattr(PrimeFieldElement, "__init__", counting_init)
    ech = Echelon(field, track=True)
    for row in rows:
        ech.insert(row)
    assert created[0] == 0
    residual, combo = ech.reduce(target)
    assert combo
    assert created[0] <= len(residual) + len(combo)


@pytest.mark.parametrize("track", [False, True])
def test_a_prime_field_echelon_takes_ints_as_residues(track):
    """Over GF(p) an int entry is its residue mod p, as field.coerce reads
    it; an int that p divides is no entry."""
    field = PrimeField(7)
    rows = [{0: 9, 1: -1, 2: 14}, {1: 7 ** 30 + 3, 3: -8}, {0: 2, 1: 6, 3: 1}]
    ints, elements = Echelon(field, track=track), Echelon(field, track=track)
    for row in rows:
        assert ints.insert(row) == elements.insert(
            {c: field.coerce(v) for c, v in row.items()})
    assert ints.rows == elements.rows and ints.pivots == elements.pivots
    assert all(0 <= v < 7 for row in ints.rows for v in row.values())
    assert ints.reduce({2: 5, 3: -1})[0] == elements.reduce(
        {2: field.coerce(5), 3: field.coerce(-1)})[0]


def test_prime_field_echelon_rejects_other_modulus():
    field = PrimeField(32003)
    alien = {0: PrimeFieldElement(3, 7)}
    with pytest.raises(ValueError):
        Echelon(field, track=True).insert(alien)
    ech = Echelon(field, track=True)
    ech.insert({0: field.one, 1: field.coerce(2)})
    with pytest.raises(ValueError):
        ech.insert(alien)
    with pytest.raises(ValueError):
        ech.reduce(alien)


def test_rational_echelon_stores_fractions_and_rejects_floats():
    ech = Echelon(QQ)
    ech.insert({0: 2, 1: 1})
    assert ech.rows == [{0: F(1), 1: F(1, 2)}]
    assert all(type(v) is Fraction for v in ech.rows[0].values())
    residual, _ = ech.reduce({1: 3})
    assert residual == {1: F(3)} and type(residual[1]) is Fraction
    with pytest.raises(TypeError):
        Echelon(QQ).insert({0: 0.5})
    with pytest.raises(TypeError):
        ech.reduce({1: 0.5})


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(7)])
@pytest.mark.parametrize("seed", range(12))
def test_echelon_reduced_form_invariant(field, seed):
    """After every insert of a cancellation-heavy stream into an untracked
    echelon: each stored row has a 1 at its pivot and a 0 at every other
    pivot, and every row holding a non-pivot column is listed under it."""
    rng = random.Random(seed)
    cols = rng.randint(2, 9)
    gens = [{c: field.coerce(rng.choice((-1, 1, 2)))
             for c in rng.sample(range(cols), rng.randint(1, cols))}
            for _ in range(rng.randint(1, 14))]
    ech = Echelon(field)
    for gen in gens:
        ech.insert(gen)
        for pivot, ridx in ech.pivot_rows.items():
            row = ech.rows[ridx]
            assert row[pivot] == 1
            assert all(c not in row for c in ech.pivot_rows if c != pivot)
            for c in row:
                if c != pivot:
                    assert ridx in ech.col_rows[c]
        assert not set(ech.pivot_rows) & set(ech.col_rows)


ECHELON_FIELDS = [QQ, PrimeField(7), PrimeField(32003)]
MONOMIALS = monomial_basis(3, 2)  # column keys as the gcd's echelons use them


@st.composite
def echelon_streams(draw):
    """A field, generators with dependent and cancelling ones mixed in,
    targets in and out of their span, the column keys, and whether to pack."""
    field = draw(st.sampled_from(ECHELON_FIELDS))
    cols = draw(st.integers(min_value=1, max_value=len(MONOMIALS)))
    values = st.one_of(st.sampled_from((-1, 1, 2)), st.integers(-40_000, 40_000))
    vector = st.dictionaries(st.integers(0, cols - 1), values.map(field.coerce), max_size=cols)
    gens = draw(st.lists(vector, min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, len(gens) - 1)), draw(st.integers(0, len(gens) - 1))
        a, b = draw(values.map(field.coerce)), draw(values.map(field.coerce))
        combined = {c: a * gens[i].get(c, field.zero) + b * gens[j].get(c, field.zero)
                    for c in set(gens[i]) | set(gens[j])}
        gens.insert(draw(st.integers(0, len(gens))), combined)  # may cancel to zero
    targets = draw(st.lists(vector, max_size=3)) + gens[-2:]
    if draw(st.booleans()):
        gens, targets = ([{MONOMIALS[c]: v for c, v in vec.items()} for vec in vecs]
                         for vecs in (gens, targets))
        return field, gens, targets, False
    return field, gens, targets, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(echelon_streams())
def test_tracked_and_untracked_echelons_agree(stream):
    """The row echelon factor and the reduced form give the same insert
    verdicts, rank, pivots and residuals, and the factor's combination lies
    on the generators that raised the rank and rebuilds target - residual."""
    field, gens, targets, pack = stream
    tracked, untracked = Echelon(field, track=True), Echelon(field)
    raising = []
    for i, gen in enumerate(gens):
        verdict = tracked.insert(gen)
        assert untracked.insert(gen) == verdict
        if verdict:
            raising.append(i)
    assert tracked.rank == untracked.rank == len(raising)
    assert tracked.pivot_columns() == untracked.pivot_columns()
    if pack:
        tracked.pack()
        untracked.pack()
    for target in targets:
        residual, combo = tracked.reduce(target)
        assert residual == untracked.reduce(target)[0]
        assert not set(residual) & set(tracked.pivot_rows)
        assert set(combo) <= set(raising)
        rebuilt = dict(residual)
        for g, c in combo.items():
            for col, v in gens[g].items():
                rebuilt[col] = rebuilt.get(col, field.zero) + c * v
        assert {col: v for col, v in rebuilt.items() if v} == {
            col: v for col, v in target.items() if v}


@settings(max_examples=200, deadline=None)
@given(echelon_streams(), st.randoms(use_true_random=False))
def test_a_column_order_changes_no_verdict_or_combination(stream, rng):
    """A tracked echelon pivoting in a random column order gives the default
    one's insert verdicts and rank, a residual that is zero exactly when the
    default one's is, and the same combination for members; each of its
    residuals is 0 at its own pivots."""
    field, gens, targets, pack = stream
    columns = sorted({c for gen in gens for c in gen})
    rng.shuffle(columns)
    ordered = Echelon(field, track=True, order={c: i for i, c in enumerate(columns)})
    default = Echelon(field, track=True)
    for gen in gens:
        assert ordered.insert(gen) == default.insert(gen)
    assert ordered.rank == default.rank
    if pack:
        ordered.pack()
        default.pack()
    for target in targets:
        residual, combo = ordered.reduce(target)
        default_residual, default_combo = default.reduce(target)
        assert (not residual) == (not default_residual)
        assert not set(residual) & set(ordered.pivot_rows)
        if not residual:
            assert dict(combo) == dict(default_combo)


@settings(max_examples=200, deadline=None)
@given(echelon_streams(), st.randoms(use_true_random=False))
def test_a_column_order_on_an_untracked_echelon_changes_no_verdict(stream, rng):
    """An untracked echelon pivoting in a random column order gives the
    default one's insert verdicts and rank and keeps its reduced form; each
    residual is 0 at its pivots and differs from the target by a member."""
    field, gens, targets, pack = stream
    columns = sorted({c for gen in gens for c in gen})
    rng.shuffle(columns)
    ordered = Echelon(field, order={c: i for i, c in enumerate(columns)})
    default = Echelon(field)
    for gen in gens:
        assert ordered.insert(gen) == default.insert(gen)
    assert ordered.rank == default.rank
    for i, row in enumerate(ordered.rows):
        assert row[ordered.pivots[i]] == 1
        assert not set(row) & (set(ordered.pivot_rows) - {ordered.pivots[i]})
    if pack:
        ordered.pack()
        default.pack()
    for target in targets:
        residual, _ = ordered.reduce(target)
        assert not set(residual) & set(ordered.pivot_rows)
        difference = {c: target.get(c, field.zero) - residual.get(c, field.zero)
                      for c in set(target) | set(residual)}
        assert not default.reduce(difference)[0]
        assert (not residual) == (not default.reduce(target)[0])


# ----- span solves over Q decided modulo primes ----------------------------

P0, P1 = SPAN_PRIMES[:2]


@contextmanager
def counted_inserts():
    """Echelon inserts made inside the block, keyed by characteristic."""
    counts = Counter()
    insert = Echelon.insert

    def counting(self, vec):
        counts[self.p] += 1
        return insert(self, vec)

    Echelon.insert = counting
    try:
        yield counts
    finally:
        Echelon.insert = insert


def exact_solve(target, gens, field=QQ):
    """The answer of a tracked elimination over field: coefficients or None."""
    ech = Echelon(field, track=True)
    for g in gens:
        ech.insert({j: v for j, v in enumerate(g) if v})
    residual, combo = ech.reduce({j: v for j, v in enumerate(target) if v})
    if residual:
        return None
    return tuple(combo.get(i, field.zero) for i in range(len(gens)))


def solved(target, gens):
    """solve_in_span's answer as exact_solve spells it, plus the inserts."""
    span = as_span(gens, len(target))
    with counted_inserts() as counts:
        cert = solve_in_span(target, span)
    if cert is None:
        return None, counts
    assert all(type(c) is Fraction for c in cert.coefficients)
    assert cert.verify(target, span)
    return cert.coefficients, counts


small = st.fractions(min_value=-20, max_value=20, max_denominator=6)
entries = st.one_of(small, st.sampled_from([F(1, P0), F(-7, 3 * P0), F(P0, 2)]))
large = st.builds(F, st.integers(-2**90, 2**90), st.integers(1, 2**40))


@st.composite
def q_systems(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(entries, min_size=dim, max_size=dim)
    gens = draw(st.lists(row, max_size=dim))
    kind = draw(st.sampled_from(["as drawn", "repeat", "combination", "zero row"]))
    if kind == "zero row":
        gens.insert(draw(st.integers(0, len(gens))), [F(0)] * dim)
    elif gens and kind == "repeat":
        gens.append(list(draw(st.sampled_from(gens))))
    elif gens and kind == "combination":
        a, b = draw(small), draw(small)
        gens.append([a * u + b * v for u, v in zip(gens[0], gens[-1])])
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.one_of(small, large), min_size=len(gens),
                               max_size=len(gens)))
        target = [sum((c * g[k] for c, g in zip(coeffs, gens)), F(0)) for k in range(dim)]
    else:
        target = draw(row)
    return target, gens


@settings(max_examples=150, deadline=None)
@given(q_systems())
def test_span_solve_over_q_matches_exact_elimination(system):
    """Whatever the primes decide is what elimination over Q returns, and
    dependent generators always reach that elimination."""
    target, gens = system
    expected = exact_solve(target, gens)
    answer, counts = solved(target, gens)
    assert answer == expected
    if gens and rref(gens)[2] < len(gens):
        assert counts[0] == len(gens)


def test_span_solve_independent_generators_never_eliminate_over_q():
    gens = [[F(1), F(2), F(0), F(5, 3)], [F(0), F(1), F(3), F(-1)],
            [F(2), F(0), F(1, 7), F(1)]]
    inside = [F(3), F(3), F(22, 7), F(5, 3)]
    answer, counts = solved(inside, gens)
    assert answer == exact_solve(inside, gens) == (F(1), F(1), F(1))
    assert set(counts) == {P0}
    answer, counts = solved([F(1), F(0), F(0), F(0)], gens)
    assert answer is None and exact_solve([F(1), F(0), F(0), F(0)], gens) is None
    assert set(counts) == {P0}


def test_span_solve_skips_a_prime_dividing_a_denominator():
    gens = [[F(1), F(1, P0)], [F(0), F(1)]]
    target = [F(2), F(3)]
    answer, counts = solved(target, gens)
    assert answer == exact_solve(target, gens)
    assert counts[P1] == len(gens) and not counts[0]


def test_span_solve_combines_primes_for_large_coefficients():
    """Coefficients past one prime's reconstruction bound need CRT."""
    gens = [[F(1), F(2), F(3)], [F(0), F(1), F(-1)]]
    coeffs = (F(2**70 + 1, 3**30), F(-(5**40), 7))
    target = [sum((c * g[k] for c, g in zip(coeffs, gens)), F(0)) for k in range(3)]
    answer, counts = solved(target, gens)
    assert answer == exact_solve(target, gens) == coeffs
    assert len([p for p in SPAN_PRIMES if counts[p]]) > 1 and not counts[0]


def test_span_solve_unlucky_prime_still_gives_exact_answer():
    # independent over Q, dependent mod the first prime: eliminated over Q
    gens = [[F(1), F(0)], [F(1), F(P0)]]
    target = [F(2), F(P0)]
    answer, counts = solved(target, gens)
    assert answer == exact_solve(target, gens) == (F(1), F(1))
    assert counts[0] == len(gens)
    # outside the span over Q, but its residual vanishes mod the first prime
    gens = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
    target = [F(0), F(0), F(P0)]
    answer, counts = solved(target, gens)
    assert answer is None and exact_solve(target, gens) is None
    assert counts[P0] and counts[P1] and not counts[0]


def test_verify_skips_zero_generator_entries():
    class Loud(Fraction):
        def __rmul__(self, other):
            raise AssertionError("multiplied a zero entry")

    span = as_span([[F(1), Loud(0)], [Loud(0), F(1)]], 2)
    assert SpanCertificate((F(2), F(3))).verify([F(2), F(3)], span)
    assert not SpanCertificate((F(2), F(3))).verify([F(2), F(4)], span)


def test_verify_unpacks_only_rows_with_a_nonzero_coefficient(monkeypatch):
    unpacked = []
    getitem = _PackedRows.__getitem__

    def counting(self, i):
        unpacked.append(i)
        return getitem(self, i)

    span = as_span([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]], 2)
    monkeypatch.setattr(_PackedRows, "__getitem__", counting)
    assert SpanCertificate((F(0), F(3), F(0))).verify([F(0), F(3)], span)
    assert unpacked == [1]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_verify_is_false_on_ragged_generators(field):
    """Generators of another length than the target: a Span of another
    dimension."""
    one, zero = field.one, field.zero
    assert SpanCertificate((one,)).verify([one, zero], as_span([[one, zero]], 2, field))
    assert not SpanCertificate((one,)).verify([one, zero], Span([{0: one}], 1, field))
    assert not SpanCertificate((one,)).verify([one], Span([{0: one}], 2, field))


# ----- spans kept across solves ----------------------------------------------

GF7 = PrimeField(7)
# (field, generators, targets): the targets hold a "yes" and a "no" each
KEPT_SPANS = {
    "Q independent": (QQ, [[F(1), F(2), F(0), F(5, 3)], [F(0), F(1), F(3), F(-1)],
                           [F(2), F(0), F(1, 7), F(1)]],
                      [[F(3), F(3), F(22, 7), F(5, 3)], [F(1), F(0), F(0), F(0)]]),
    "Q dependent": (QQ, [[F(1), F(2), F(0)], [F(0), F(1), F(1, 3)], [F(1), F(4), F(2, 3)]],
                    [[F(1), F(3), F(1, 3)], [F(0), F(0), F(1)]]),
    "Q first prime skipped": (QQ, [[F(1), F(1, P0), F(0)], [F(0), F(1), F(0)]],
                              [[F(2), F(3), F(0)], [F(0), F(5, 2), F(1)]]),
    "GF7 independent": (GF7, [[1, 2, 0, 5], [0, 1, 3, 6], [2, 0, 4, 1]],
                        [[3, 3, 0, 5], [1, 0, 0, 0]]),
    "GF7 dependent": (GF7, [[1, 2, 0], [0, 1, 3], [1, 4, 6]],
                      [[1, 3, 3], [0, 0, 1]]),
}


@pytest.mark.parametrize("name", sorted(KEPT_SPANS))
def test_a_kept_span_answers_as_fresh_solves(name):
    field, gens, targets = KEPT_SPANS[name]
    gens = [[field.coerce(v) for v in g] for g in gens]
    targets = [[field.coerce(v) for v in t] for t in targets]
    dim = len(gens[0])
    span = as_span(gens, dim, field)
    fresh = [solve_in_span(t, as_span(gens, dim, field)) for t in targets]
    assert [c and c.coefficients for c in fresh] == [exact_solve(t, gens, field) for t in targets]
    assert fresh[0] is not None and fresh[0].verify(targets[0], span)
    assert fresh[1] is None
    with counted_inserts() as first:
        assert [solve_in_span(t, span) for t in targets] == fresh
    with counted_inserts() as again:
        assert [solve_in_span(t, span) for t in targets] == fresh
    assert len(span) == len(gens)
    # each prime's echelon, or its verdict, was built in the first round only
    assert sum(again[p] for p in again if p) == 0 and sum(first.values())
    if name == "Q dependent":
        assert again[0] == len(targets) * len(gens) and first[P0] == len(gens)
    if name == "Q first prime skipped":
        assert first[P0] == 1 and first[P1] == len(gens) and not first[0]


def test_a_span_refuses_a_target_of_another_dimension_or_field():
    """The field is the span's: a target in another prime field fails to
    coerce into it."""
    span = Span([{0: F(1)}], 2, QQ)
    with pytest.raises(ValueError):
        solve_in_span([F(1)], span)
    with pytest.raises(ValueError):
        solve_in_span([GF7.one, GF7.zero], span)
    with pytest.raises(ValueError):
        solve_in_span([GF7.one, GF7.zero], Span([{0: 1}], 2, PrimeField(11)))


def test_only_a_read_combination_runs_the_backward_pass(fermat_quartic, monkeypatch):
    """A "no" span solve, over GF(p) or decided modulo a prime over Q, and
    pairing_matrix read only residuals: neither runs Echelon._combination;
    a "yes" solve runs it once."""
    calls = [0]
    combination = Echelon._combination

    def counting(self, mults):
        calls[0] += 1
        return combination(self, mults)

    monkeypatch.setattr(Echelon, "_combination", counting)
    spans = {field: as_span([[field.coerce(v) for v in g] for g in ([1, 2, 0], [0, 1, 3])],
                            3, field) for field in (QQ, GF7)}
    for field, span in spans.items():
        assert solve_in_span([field.zero, field.zero, field.one], span) is None
    assert calls[0] == 0
    assert solve_in_span([GF7.coerce(v) for v in (1, 3, 3)], spans[GF7]) is not None
    assert calls[0] == 1
    pairing_matrix(fermat_quartic, 4)
    assert calls[0] == 1


@pytest.mark.parametrize("p", [7, 2 ** 61 - 1, 2 ** 89 - 1])
def test_a_packed_echelon_reduces_as_before(p):
    """pack() keeps what reduce reads, for residues in 32-bit, 64-bit and
    unbounded storage alike."""
    field = PrimeField(p)
    rng = random.Random(p % 1000)
    ech = Echelon(field, track=True)
    for _ in range(6):
        ech.insert({j: rng.randrange(p) for j in rng.sample(range(9), 4)})
    probes = [{j: rng.randrange(p) for j in rng.sample(range(9), 5)} for _ in range(5)]
    before = [ech.reduce(v) for v in probes]
    rank, pivots = ech.rank, ech.pivot_columns()
    ech.pack()
    assert [ech.reduce(v) for v in probes] == before
    assert (ech.rank, ech.pivot_columns()) == (rank, pivots)
