import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adjtorelli.errors import (
    FieldMismatchError,
    HomogeneityError,
    VariableCountMismatchError,
)
from adjtorelli.fields import QQ, PrimeField
from adjtorelli.polyring import (
    MAX_COEFF_BITS,
    MAX_PIECE_DIM,
    Polynomial,
    check_piece_dim,
    euler_pair,
    gcd_many,
    grlex_key,
    monomial_basis,
    multivariate_gcd,
    poly_div_exact,
)

from conftest import fermat, random_homogeneous, x


def small_poly(nvars=3, max_degree=3):
    """Hypothesis strategy for sparse polynomials with small terms."""
    monos = [m for k in range(max_degree + 1) for m in monomial_basis(nvars, k)]
    return st.dictionaries(
        st.sampled_from(monos),
        st.fractions(min_value=-9, max_value=9, max_denominator=4),
        max_size=5,
    ).map(lambda terms: Polynomial(nvars, terms))


# ----- addition -----------------------------------------------------------

def test_add_inverse_cancels():
    assert (x(0) + (-x(0))).is_zero()


def test_add_collects_like_terms():
    cubed = x(0) ** 3
    assert cubed + cubed == 2 * cubed


def test_add_merges_disjoint_supports():
    lhs = x(0) ** 2 + x(1) ** 2
    assert lhs + x(0) * x(1) == x(0) ** 2 + x(0) * x(1) + x(1) ** 2


def test_add_rejects_mixed_nvars():
    with pytest.raises(VariableCountMismatchError):
        Polynomial.variable(3, 0) + Polynomial.variable(4, 0)


def test_add_rejects_mixed_fields():
    with pytest.raises(FieldMismatchError):
        Polynomial.variable(4, 0) + Polynomial.variable(4, 0, PrimeField(101))


# ----- multiplication -----------------------------------------------------

def test_mul_of_variables():
    assert x(0) * x(1) == Polynomial.from_monomial(4, (1, 1, 0, 0))


def test_mul_difference_of_squares():
    assert (x(0) + x(1)) * (x(0) - x(1)) == x(0) ** 2 - x(1) ** 2


def test_mul_monomial_product():
    product = x(0) * (x(0) * x(1) * x(2) * x(3))
    assert product == Polynomial.from_monomial(4, (2, 1, 1, 1))


# ----- partial derivatives ------------------------------------------------

def test_partial_power_rule():
    assert (x(0) ** 3 * x(1)).partial(0) == 3 * x(0) ** 2 * x(1)


def test_partial_of_missing_variable():
    assert (x(1) ** 4).partial(0).is_zero()


def test_partial_of_fermat():
    assert fermat(4, 4).partial(2) == 4 * x(2) ** 3


def test_partial_index_out_of_range():
    with pytest.raises(IndexError):
        x(0).partial(4)


# ----- monomial enumeration -------------------------------------------------

def test_monomial_basis_line():
    assert monomial_basis(2, 1) == ((1, 0), (0, 1))


def test_monomial_basis_count_p3_degree4():
    basis = monomial_basis(4, 4)
    assert len(basis) == 35 == comb(7, 3)


def test_monomial_basis_degree_zero():
    assert monomial_basis(3, 0) == ((0, 0, 0),)


@pytest.mark.parametrize("nvars,k", [(2, 5), (3, 4), (4, 3), (5, 2)])
def test_monomial_basis_shape(nvars, k):
    basis = monomial_basis(nvars, k)
    assert len(basis) == comb(nvars - 1 + k, k)
    assert len(set(basis)) == len(basis)
    assert all(sum(m) == k for m in basis)
    keys = [grlex_key(m) for m in basis]
    assert keys == sorted(keys, reverse=True)


def test_piece_budget_is_checked_before_enumerating():
    check_piece_dim(6, 19)  # smoothness piece of a quintic fourfold: 42504
    with pytest.raises(ValueError, match="degree-25 piece in 6 variables"):
        check_piece_dim(6, 25)  # 142506
    with pytest.raises(ValueError, match=f"more than {MAX_PIECE_DIM} monomials"):
        check_piece_dim(10 ** 9, 10 ** 9)
    check_piece_dim(2, MAX_PIECE_DIM - 1)  # exactly MAX_PIECE_DIM monomials
    with pytest.raises(ValueError):
        monomial_basis(2, MAX_PIECE_DIM)
    with pytest.raises(ValueError, match="degree-1000000 piece"):
        (x(0) + x(1)) ** 10 ** 6
    assert x(0) ** 10 ** 12 == Polynomial.from_monomial(4, (10 ** 12, 0, 0, 0))


def test_power_of_a_number_is_bounded_in_bits():
    half = MAX_COEFF_BITS // 2
    assert Polynomial.constant(4, 3) ** half == Polynomial.constant(4, 3 ** half)
    assert Polynomial.constant(4, -1) ** 10 ** 12 == Polynomial.constant(4, 1)
    with pytest.raises(ValueError, match=f"more than {MAX_COEFF_BITS} bits"):
        Polynomial.constant(4, Fraction(1, 2)) ** (half + 1)
    gf = PrimeField(101)
    power = Polynomial.constant(4, 3, gf) ** 10 ** 12
    assert power == Polynomial.constant(4, pow(3, 10 ** 12, 101), gf)


# ----- Euler pairing --------------------------------------------------------

def test_euler_pair_degree_two():
    f = x(0) * x(1)
    assert euler_pair(f) == 2 * f


def test_euler_pair_fermat():
    F = fermat(4, 4)
    assert euler_pair(F) == 4 * F


def test_euler_pair_constant():
    assert euler_pair(Polynomial.constant(4, 7)).is_zero()


def test_euler_pair_rejects_inhomogeneous():
    with pytest.raises(HomogeneityError):
        euler_pair(x(0) + x(1) ** 2)


# ----- ring axioms (randomized) ---------------------------------------------

@settings(max_examples=40, deadline=None)
@given(small_poly(), small_poly(), small_poly())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(small_poly())
def test_partials_commute(f):
    for i in range(2):
        for j in range(i + 1, 3):
            assert f.partial(i).partial(j) == f.partial(j).partial(i)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=100))
def test_euler_identity_random_homogeneous(degree, seed):
    rng = random.Random(seed)
    f = random_homogeneous(4, degree, rng)
    assert euler_pair(f) == degree * f


# ----- exact division and gcd ----------------------------------------------

def test_poly_div_exact_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        a = random_homogeneous(3, rng.randint(0, 3), rng)
        b = random_homogeneous(3, rng.randint(1, 2), rng)
        if b.is_zero():
            continue
        assert poly_div_exact(a * b, b) == a


def test_poly_div_exact_detects_nondivisor():
    assert poly_div_exact(x(0) ** 2 + x(1) ** 2, x(0)) is None


def test_gcd_random_pairs_against_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(p, symbols):
        total = 0
        for mono, coeff in p.terms.items():
            term = sympy.Integer(coeff.value) if p.field.characteristic \
                else sympy.Rational(coeff)
            for s, e in zip(symbols, mono):
                term *= s ** e
            total += term
        return total

    def sympy_gcd(a, b):
        """sympy's gcd of a and b as a monic package polynomial."""
        symbols = sympy.symbols(f"x0:{a.nvars}")
        p = a.field.characteristic
        extra = {"modulus": p} if p else {}
        g = sympy.Poly(sympy.gcd(to_sympy(a, symbols), to_sympy(b, symbols), **extra),
                       *symbols, **extra)
        terms = {m: a.field.coerce(int(c) if p else Fraction(int(c.p), int(c.q)))
                 for m, c in g.terms()}
        g = Polynomial(a.nvars, terms, a.field)
        return g.scale(a.field.one / g.coefficient(g.leading_monomial()))

    rng = random.Random(2024)
    cases = [(3, QQ)] * 8 + [(4, QQ)] * 4 + [(4, PrimeField(32003))]
    for nvars, field in cases:
        common = random_homogeneous(nvars, 1, rng, field)
        a = random_homogeneous(nvars, 2, rng, field) * common
        b = random_homogeneous(nvars, 2, rng, field) * common
        if a.is_zero() or b.is_zero():
            continue
        ours = multivariate_gcd(a, b)
        assert ours.total_degree() >= 1
        assert ours == sympy_gcd(a, b)


def test_gcd_of_coprime_randoms_is_one():
    rng = random.Random(99)
    for _ in range(10):
        a = random_homogeneous(4, 4, rng)
        b = random_homogeneous(4, 4, rng)
        g = multivariate_gcd(a, b)
        assert g == Polynomial.constant(4, 1)


def test_gcd_many_shared_variable():
    polys = [4 * x(0) * x(1) ** 3, -4 * x(0) * x(2) ** 3, 4 * x(0) * x(3) ** 3]
    assert gcd_many(polys) == x(0)


def test_gcd_rejects_inhomogeneous_input():
    with pytest.raises(HomogeneityError):
        multivariate_gcd(x(0) ** 2 + x(1), x(0))
    with pytest.raises(HomogeneityError):
        gcd_many([x(0) ** 2 + x(1)])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from([QQ, PrimeField(32003)]),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=10 ** 6),
)
def test_gcd_keeps_every_common_factor(field, nvars, dg, da, db, seed):
    rng = random.Random(seed)
    g, a, b = (random_homogeneous(nvars, k, rng, field) for k in (dg, da, db))
    assume(not g.is_zero())
    ga, gb = g * a, g * b
    result = multivariate_gcd(ga, gb)
    assert poly_div_exact(result, g) is not None
    assert poly_div_exact(ga, result) is not None
    assert poly_div_exact(gb, result) is not None


# ----- canonical form --------------------------------------------------------

def test_zero_coefficients_never_stored():
    p = Polynomial(3, {(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
    assert list(p.terms) == [(0, 1, 0)]


def test_homogeneous_degree_detection():
    assert fermat(4, 4).homogeneous_degree() == 4
    assert Polynomial.zero(4).homogeneous_degree() is None
    with pytest.raises(HomogeneityError):
        (x(0) + x(1) ** 2).homogeneous_degree()


def test_str_is_canonical_and_sorted():
    p = x(2) ** 2 - 3 * x(0) * x(1)
    assert str(p) == "-3*x0*x1 + x2^2"


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(91)  # 7 * 13
    with pytest.raises(ValueError):
        PrimeField(2)


def test_field_descriptor_roundtrip():
    from adjtorelli.fields import field_from_name

    assert field_from_name("q").name == "q"
    assert field_from_name("p:101").p == 101
    with pytest.raises(ValueError):
        field_from_name("gf64")
