import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjtorelli import jacobian, polyring
from adjtorelli.errors import (
    FieldConstraintError,
    HomogeneityError,
    NotSmoothError,
)
from adjtorelli.fields import QQ, PrimeField
from adjtorelli.jacobian import (
    Hypersurface,
    _multiples,
    _pinned_count,
    deformation_class,
    graded_membership,
    hilbert_expected,
    is_smooth,
    jacobian_ring_dim,
    macaulay_pairing_check,
    pairing_is_perfect,
    pairing_matrix,
    reduce_mod,
)
from adjtorelli.exactla import Echelon, rref
from adjtorelli.polyring import Polynomial, basis_index, monomial_basis, monomial_mul

from conftest import fermat, random_homogeneous, x

QUARTIC_DIMS = [1, 4, 10, 16, 19, 16, 10, 4, 1, 0]


def bounded_monomial_count(nvars, degree, bound):
    """Brute force: monomials of the given degree with all exponents <= bound."""
    return sum(
        1
        for exps in product(range(bound + 1), repeat=nvars)
        if sum(exps) == degree
    )


# ----- smoothness -------------------------------------------------------------

def test_fermat_quartic_smooth():
    smooth, witness = is_smooth(fermat(4, 4))
    assert smooth and witness == 0


def test_cone_quartic_singular():
    smooth, witness = is_smooth(x(0) ** 4 + x(1) ** 4 + x(2) ** 4)
    assert not smooth and witness > 0


def test_fermat_cubic_smooth():
    smooth, witness = is_smooth(fermat(4, 3))
    assert smooth and witness == 0


def test_is_smooth_rejects_inhomogeneous():
    with pytest.raises(HomogeneityError):
        is_smooth(x(0) ** 4 + x(1))


def plain_smoothness_witness(F):
    """dim S_k minus the rank of every multiple m * dF/dx_j, inserted in
    generator order into an Echelon with no column order and no pinning."""
    d, nvars = F.homogeneous_degree(), F.nvars
    k = nvars * (d - 2) + 1
    index = basis_index(nvars, k)
    partials = [F.partial(j) for j in range(nvars)]
    echelon = Echelon(F.field)
    for mono in monomial_basis(nvars, k - d + 1):
        for partial in partials:
            echelon.insert({index[monomial_mul(m, mono)]: c for m, c in partial.terms.items()})
    return len(index) - echelon.rank


@st.composite
def smoothness_cases(draw):
    """A small F of one of four shapes: diagonal (every partial has one
    term), x0^d + x1^d plus a form in the other variables, a form missing
    the last variable (a zero partial), or a form singular at [0:..:0:1]."""
    field = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(32003)]))
    nvars = draw(st.integers(2, 5))
    d = draw(st.integers(2, {2: 5, 3: 5, 4: 4, 5: 3}[nvars]))
    basis = monomial_basis(nvars, d)
    nonzero = st.integers(1, 6).flatmap(lambda a: st.sampled_from((a, -a)))
    shape = draw(st.sampled_from(["diagonal", "mixed", "missing", "singular"]))
    if shape == "diagonal":
        terms = {tuple(d * (i == j) for i in range(nvars)): draw(nonzero)
                 for j in range(nvars)}
    else:
        allowed = {
            "mixed": [m for m in basis if m[0] == m[1] == 0],
            "missing": [m for m in basis if m[-1] == 0],
            "singular": [m for m in basis if m[-1] < d - 1],
        }[shape]
        chosen = draw(st.lists(st.sampled_from(allowed), min_size=shape != "mixed",
                               max_size=6, unique=True)) if allowed else []
        terms = {m: draw(nonzero) for m in chosen}
        if shape == "mixed":  # x0^d + x1^d + g(x2..xn), g often with its own powers
            for j in range(nvars):
                if j < 2 or draw(st.booleans()):
                    terms[tuple(d * (i == j) for i in range(nvars))] = draw(nonzero)
    return Polynomial(nvars, terms, field)


@settings(max_examples=200, deadline=None)
@given(smoothness_cases())
def test_smoothness_witness_matches_a_plain_elimination(F):
    """Pinned one-term columns and the sparsity-ordered echelon give the
    witness of inserting every multiple into a plain echelon."""
    smooth, witness = is_smooth(F)
    assert witness == plain_smoothness_witness(F)
    assert smooth == (witness == 0)


def test_multiples_are_raw_residues_over_a_prime_field():
    """Rows of multiples over GF(p) hold residues, ints in [1, p)."""
    field = PrimeField(7)
    F = fermat(3, 4, field) + 3 * x(0, 3, field) * x(1, 3, field) ** 3
    partials = [F.partial(i) for i in range(3)]
    values = [v for _, row in _multiples(partials, 3, 2, 5) for v in row.values()]
    assert values and all(type(v) is int and 0 < v < 7 for v in values)


def test_fermat_smoothness_inserts_nothing(monkeypatch):
    """On the Fermat (4,5) over GF(32003) every partial has one term, so
    every column is pinned and no echelon insert is made."""
    inserts = []
    monkeypatch.setattr(Echelon, "insert", lambda self, vec: inserts.append(vec))
    assert is_smooth(fermat(5, 5, PrimeField(32003))) == (True, 0)
    assert inserts == []


def listed_pinned_count(F):
    """How many degree-k columns the one-term partials' multiples pin,
    counted off the set of them."""
    d, nvars = F.homogeneous_degree(), F.nvars
    k = nvars * (d - 2) + 1
    ones = [m for j in range(nvars) if len((f := F.partial(j)).terms) == 1 for m in f.terms]
    return len({monomial_mul(u, mono) for u in ones for mono in monomial_basis(nvars, k - d + 1)})


def check_one_term_partials(F):
    """Every partial of F has one term or is zero: the inclusion-exclusion
    count is the listed set's size and the witness a plain elimination's."""
    d, nvars = F.homogeneous_degree(), F.nvars
    partials = [F.partial(j) for j in range(nvars)]
    assert all(len(f.terms) <= 1 for f in partials)
    ones = list(dict.fromkeys(m for f in partials for m in f.terms))
    assert _pinned_count(ones, nvars, nvars * (d - 2) + 1) == listed_pinned_count(F)
    smooth, witness = is_smooth(F)
    assert witness == plain_smoothness_witness(F)
    assert smooth == (witness == 0)
    return witness


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, PrimeField(7), PrimeField(32003)]), st.integers(1, 5),
       st.data())
def test_diagonal_smoothness_counts_the_pinned_columns(field, nvars, data):
    d = data.draw(st.integers(2, {1: 9, 2: 6, 3: 5, 4: 4, 5: 3}[nvars]))
    coeffs = data.draw(st.lists(st.integers(-40, 40).filter(bool), min_size=nvars,
                                max_size=nvars))
    F = Polynomial(nvars, {tuple(d * (i == j) for i in range(nvars)): c
                           for j, c in enumerate(coeffs)}, field)
    if not F.is_zero():
        check_one_term_partials(F)


@pytest.mark.parametrize("F, witness", [
    (Polynomial(4, {(2, 2, 0, 0): 1}), None),
    (Polynomial(4, {(2, 1, 1, 1): 1}), None),
    (fermat(5, 5, PrimeField(5)), 4845),  # every partial vanishes
    (fermat(4, 3, PrimeField(3)), 56),
], ids=["x0^2*x1^2", "x0^2*x1*x2*x3", "fermat-quintic-gf5", "fermat-cubic-gf3"])
def test_one_term_smoothness_counts_the_pinned_columns(F, witness):
    found = check_one_term_partials(F)
    assert witness is None or found == witness


def test_fermat_smoothness_forms_no_monomial_product(monkeypatch):
    """On the Fermat (4,5) the pinned columns are counted, not listed."""
    F = fermat(5, 5, PrimeField(32003))
    calls = []
    for module in (jacobian, polyring):
        monkeypatch.setattr(module, "monomial_mul", lambda a, b: calls.append((a, b)))
    assert is_smooth(F) == (True, 0)
    assert calls == []


def test_hypersurface_rejects_singular():
    with pytest.raises(NotSmoothError):
        Hypersurface(x(0) ** 4 + x(1) ** 4 + x(2) ** 4)


def test_prime_field_guard():
    field = PrimeField(3)  # 3 divides d - 1 = 3 for a quartic
    with pytest.raises(FieldConstraintError):
        Hypersurface(fermat(4, 4, field))


def test_euler_identity_on_hypersurface(fermat_quartic):
    h = fermat_quartic
    total = Polynomial.zero(h.nvars, h.field)
    for i in range(h.nvars):
        total = total + Polynomial.variable(h.nvars, i) * h.partials[i]
    assert total == h.degree * h.poly


# ----- graded membership --------------------------------------------------------

def test_membership_single_generator(fermat_quartic):
    from fractions import Fraction

    G = x(0) ** 3 * x(1)
    cert = graded_membership(G, fermat_quartic)
    assert cert is not None
    assert cert.parts[0] == x(1) * Fraction(1, 4)
    assert str(cert.parts[0]) == "1/4*x1"
    assert cert.verify(fermat_quartic, G)


def test_membership_square_free_monomial_fails(fermat_quartic):
    assert graded_membership(x(0) * x(1) * x(2) * x(3), fermat_quartic) is None


def test_membership_of_f_itself(fermat_quartic):
    cert = graded_membership(fermat_quartic.poly, fermat_quartic)
    assert cert is not None
    assert cert.verify(fermat_quartic, fermat_quartic.poly)


def test_membership_below_generator_degree(fermat_quartic):
    """Below degree d-1 the ideal piece has no generator, so every nonzero G
    there is a non-member, over Q and GF(p): each monomial and a dense sum."""
    rng = random.Random(5)
    for h in (fermat_quartic, Hypersurface(fermat(4, 4, PrimeField(7))),
              Hypersurface(fermat(4, 4, PrimeField(32003)))):
        for k in range(h.degree - 1):
            monomials = [Polynomial.from_monomial(4, m, field=h.field)
                         for m in monomial_basis(4, k)]
            for G in monomials + [random_homogeneous(4, k, rng, h.field)]:
                assert G.is_zero() or graded_membership(G, h) is None
    zero_cert = graded_membership(Polynomial.zero(4), fermat_quartic)
    assert zero_cert is not None


def test_membership_monomial_criterion_oracle(fermat_quartic):
    """On a Fermat hypersurface a monomial lies in the ideal iff some
    exponent reaches d - 1; random monomials must agree with that rule."""
    h = fermat_quartic
    rng = random.Random(31)
    for _ in range(60):
        degree = rng.randint(3, h.socle_degree)
        mono = random.Random(rng.random()).choice(monomial_basis(4, degree))
        member = graded_membership(Polynomial.from_monomial(4, mono), h)
        expected = any(e >= h.degree - 1 for e in mono)
        assert (member is not None) == expected


def test_membership_certificates_reverify_on_randoms(fermat_quartic):
    h = fermat_quartic
    rng = random.Random(47)
    for _ in range(10):
        combo = Polynomial.zero(4)
        for j in range(4):
            combo = combo + random_homogeneous(4, 2, rng) * h.partials[j]
        cert = graded_membership(combo, h)
        assert cert is not None and cert.verify(h, combo)


# ----- dimensions ----------------------------------------------------------------

def test_quartic_dimension_table(fermat_quartic):
    dims = [jacobian_ring_dim(fermat_quartic, k) for k in range(10)]
    assert dims == QUARTIC_DIMS


def test_quartic_dims_match_bounded_monomial_count(fermat_quartic):
    """Fermat quotient basis = monomials with every exponent <= d - 2."""
    for k in range(10):
        assert jacobian_ring_dim(fermat_quartic, k) == \
            bounded_monomial_count(4, k, 2)


def test_hilbert_expected_table():
    values = [hilbert_expected(3, 4, k) for k in range(10)]
    assert values == QUARTIC_DIMS
    assert hilbert_expected(3, 4, 9) == 0
    assert hilbert_expected(3, 4, 0) == 1
    assert hilbert_expected(4, 5, 100) == 0


def test_hilbert_matches_actual_for_smooth(fermat_quartic):
    h = fermat_quartic
    for k in range(h.socle_degree + 2):
        assert jacobian_ring_dim(h, k) == hilbert_expected(h.n, h.degree, k)


def test_hilbert_symmetry(fermat_quartic):
    h = fermat_quartic
    sigma = h.socle_degree
    for k in range(sigma + 1):
        assert jacobian_ring_dim(h, k) == jacobian_ring_dim(h, sigma - k)


def test_socle_is_one_dimensional(fermat_quartic):
    assert jacobian_ring_dim(fermat_quartic, fermat_quartic.socle_degree) == 1


# ----- reduction -------------------------------------------------------------------

def test_reduce_mod_kills_f(fermat_quartic):
    assert reduce_mod(fermat_quartic, fermat_quartic.poly).is_zero()


def test_reduce_mod_below_degree_is_identity(fermat_quartic):
    g = x(0) ** 2 * x(1)
    assert reduce_mod(fermat_quartic, g) == g


def test_reduce_mod_well_defined(fermat_quartic):
    h = fermat_quartic
    g = x(0) ** 5
    assert reduce_mod(h, h.poly * x(0) + g) == reduce_mod(h, g)


def test_reduce_mod_idempotent(fermat_quartic):
    h = fermat_quartic
    rng = random.Random(13)
    for _ in range(10):
        g = random_homogeneous(4, 6, rng)
        once = reduce_mod(h, g)
        assert reduce_mod(h, once) == once
        # difference is certified to lie in (F)
        diff = g - once
        if not diff.is_zero():
            from adjtorelli.polyring import poly_div_exact
            assert poly_div_exact(diff, h.poly) is not None


def _principal_residual(h, G):
    """Residual of G on the reduced echelon of F * S_(k-d): reduction modulo F
    as linear algebra, the reference reduce_mod must agree with."""
    k = G.homogeneous_degree()
    index, basis = basis_index(h.nvars, k), monomial_basis(h.nvars, k)
    echelon = Echelon(h.field)
    for mono in monomial_basis(h.nvars, k - h.degree):
        echelon.insert({index[m]: c for m, c in h.poly.mul_monomial(mono).terms.items()})
    residual, _ = echelon.reduce({index[m]: c for m, c in G.terms.items()})
    return Polynomial(h.nvars, {basis[i]: c for i, c in residual.items()}, h.field)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(32003)], ids=str)
def test_reduce_mod_matches_principal_echelon_residual(field):
    rng = random.Random(31)
    smooth = 0
    while smooth < 3:
        try:
            h = Hypersurface(random_homogeneous(3, 4, rng, field))
        except NotSmoothError:
            continue
        smooth += 1
        for k in (4, 5, 6, 7):
            G = random_homogeneous(3, k, rng, field)
            assert reduce_mod(h, G) == _principal_residual(h, G)


def test_deformation_class_certificate(fermat_quartic):
    h = fermat_quartic
    R = h.poly * 3 + x(0) * x(1) * x(2) * x(3)
    cls = deformation_class(h, R)
    assert cls.representative == x(0) * x(1) * x(2) * x(3)
    assert cls.verify(h)


# ----- duality pairing ----------------------------------------------------------

def test_pairing_trivial_degrees(fermat_quartic):
    assert macaulay_pairing_check(fermat_quartic, 0)
    assert macaulay_pairing_check(fermat_quartic, fermat_quartic.socle_degree)


def test_pairing_middle_degree_full_rank(fermat_quartic):
    h = fermat_quartic
    assert macaulay_pairing_check(h, 4)
    m = pairing_matrix(h, 4)
    assert (len(m), len(m[0])) == (19, 19)
    assert rref(m)[2] == 19


def test_pairing_matrix_reduces_each_product_once(fermat_quartic, monkeypatch):
    """One reduce per distinct product monomial, and the entries of reducing
    every product b_i * c_j on its own."""
    h = fermat_quartic
    sigma = h.socle_degree
    piece = h.ideal_piece(sigma)
    index = basis_index(h.nvars, sigma)
    socle_col = index[piece.quotient[0]]
    expected, distinct = {}, {}
    for a in range(sigma + 1):
        left, right = h.quotient_basis(a), h.quotient_basis(sigma - a)
        expected[a] = [
            tuple(piece.echelon.reduce({index[monomial_mul(m1, m2)]: QQ.one})[0]
                  .get(socle_col, QQ.zero) for m2 in right)
            for m1 in left
        ]
        distinct[a] = len({monomial_mul(m1, m2) for m1 in left for m2 in right})
    reduces = [0]
    reduce = Echelon.reduce

    def counting(self, vec):
        reduces[0] += 1
        return reduce(self, vec)

    monkeypatch.setattr(Echelon, "reduce", counting)
    for a in range(sigma + 1):
        reduces[0] = 0
        assert pairing_matrix(h, a) == expected[a]
        assert reduces[0] == distinct[a]
    assert distinct[4] == 85 and sum(distinct.values()) == 381


@pytest.mark.parametrize("rows, perfect", [
    ([], True),
    ([[1]], True),
    ([[1, 0], [0, 1]], True),
    ([[1, 0]], False),
    ([[1], [0]], False),
    ([[1, 0, 0], [0, 1, 0]], False),
    ([[1, 2], [2, 4]], False),
])
def test_pairing_is_perfect_needs_square_full_rank(rows, perfect):
    assert pairing_is_perfect(rows, QQ) is perfect


@pytest.mark.parametrize("a", range(9))
def test_pairing_perfect_everywhere(fermat_quartic, a):
    assert macaulay_pairing_check(fermat_quartic, a)


def test_pairing_degree_out_of_range(fermat_quartic):
    with pytest.raises(ValueError):
        macaulay_pairing_check(fermat_quartic, 9)


# ----- prime field agreement ------------------------------------------------------

def test_prime_field_membership_agrees_with_rationals():
    field = PrimeField(1_000_003)
    h = Hypersurface(fermat(4, 4, field))
    hq = Hypersurface(fermat(4, 4))
    for mono in monomial_basis(4, 4):
        over_p = graded_membership(
            Polynomial.from_monomial(4, mono, 1, field), h
        )
        over_q = graded_membership(Polynomial.from_monomial(4, mono), hq)
        assert (over_p is None) == (over_q is None)
