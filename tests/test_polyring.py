import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adjtorelli.errors import (
    FieldMismatchError,
    HomogeneityError,
    VariableCountMismatchError,
)
from adjtorelli.extforms import ExtForm
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
    poly_divmod,
    slot_polynomials,
    _evaluate_on_line,
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


def _recursive_basis(nvars, k):
    """The reference order: the first exponent descending, then the rest in
    the same order."""
    if nvars == 1:
        return [(k,)]
    return [(e,) + rest for e in range(k, -1, -1) for rest in _recursive_basis(nvars - 1, k - e)]


@pytest.mark.parametrize("nvars", range(1, 7))
def test_monomial_basis_keeps_the_recursive_order(nvars):
    for k in range(7):
        assert monomial_basis(nvars, k) == tuple(_recursive_basis(nvars, k))


def test_monomial_basis_enumerates_many_variables_without_recursion():
    basis = monomial_basis(3000, 1)  # past the interpreter's recursion limit
    assert len(basis) == 3000
    assert basis[0][0] == basis[-1][-1] == 1


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


def field_poly(field, nvars=3, homogeneous=False):
    """Hypothesis strategy for sparse polynomials over field with small integer
    coefficients, of one degree in 0..4 or of mixed degrees up to 4."""
    def build(terms):
        return Polynomial(nvars, {m: field.coerce(c) for m, c in terms.items()}, field)

    def terms(monos):
        return st.dictionaries(st.sampled_from(monos), st.integers(-9, 9), max_size=8)

    if homogeneous:
        return st.integers(0, 4).flatmap(
            lambda k: terms(monomial_basis(nvars, k)).map(build))
    monos = [m for k in range(5) for m in monomial_basis(nvars, k)]
    return terms(monos).map(build)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(32003)], ids=str)
@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "mixed"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_poly_divmod_identity_and_remainder_support(field, homogeneous, data):
    f = data.draw(field_poly(field, homogeneous=homogeneous))
    g = data.draw(field_poly(field, homogeneous=homogeneous))
    assume(not g.is_zero())
    q, r = poly_divmod(f, g)
    assert q * g + r == f
    lead = g.leading_monomial()
    assert not any(all(a <= b for a, b in zip(lead, m)) for m in r.terms)
    assert poly_divmod(f + q * g, g)[1] == r  # the remainder is unique


PRIMES = (7, 32003)


def integer_terms(nvars=3, max_degree=3):
    """Hypothesis strategy for {monomial: int} maps whose coefficients include
    0, p, -1, p - 1 and other values that wrap modulo each of PRIMES."""
    monos = [m for k in range(max_degree + 1) for m in monomial_basis(nvars, k)]
    wrapping = [c for p in PRIMES for c in (p, -p, p - 1, p + 1, 2 * p, (p + 1) // 2)]
    coeffs = st.one_of(st.integers(-9, 9), st.sampled_from(wrapping))
    return st.dictionaries(st.sampled_from(monos), coeffs, max_size=6)


def assert_canonical(poly, p):
    """poly's terms are residues in [1, p), or nonzero Fractions when p is 0."""
    for c in poly.terms.values():
        if p:
            assert type(c) is int and 0 < c < p
        else:
            assert type(c) is Fraction and c


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(a_terms=integer_terms(), b_terms=integer_terms(),
       scalar=st.sampled_from([0, 1, -1, 2, *PRIMES, PRIMES[0] + 3]),
       mono=st.sampled_from(monomial_basis(3, 2)),
       base=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       direction=st.lists(st.integers(-9, 9), min_size=3, max_size=3))
# (x0 + x1) * (x0 + (p - 1)*x1) has x0*x1 coefficient p: it cancels only mod p;
# the cubes' derivatives and negations leave [1, p) unless reduced
@example(a_terms={(1, 0, 0): 1, (0, 1, 0): 1, (3, 0, 0): 6},
         b_terms={(1, 0, 0): 1, (0, 1, 0): 6},
         scalar=7, mono=(1, 1, 0), base=[1, 2, 3], direction=[0, 1, -1])
@example(a_terms={(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 3): 32002},
         b_terms={(1, 0, 0): 1, (0, 1, 0): 32002},
         scalar=32003, mono=(0, 0, 2), base=[-1, 0, 9], direction=[9, 9, 9])
def test_gfp_arithmetic_is_rational_arithmetic_reduced_mod_p(
        p, a_terms, b_terms, scalar, mono, base, direction):
    gf = PrimeField(p)
    a_q, b_q = Polynomial(3, a_terms), Polynomial(3, b_terms)
    a_p, b_p = Polynomial(3, a_terms, gf), Polynomial(3, b_terms, gf)

    def agree(over_p, over_q):
        assert_canonical(over_q, 0)
        assert_canonical(over_p, p)
        assert over_p == Polynomial(over_q.nvars, over_q.terms, gf)

    agree(a_p * b_p, a_q * b_q)
    agree(a_p + b_p, a_q + b_q)
    agree(a_p - b_p, a_q - b_q)
    agree(-a_p, -a_q)
    for i in range(3):
        agree(a_p.partial(i), a_q.partial(i))
    agree(a_p.scale(scalar), a_q.scale(scalar))
    agree(a_p.mul_monomial(mono), a_q.mul_monomial(mono))
    # b's terms go to both slots, so a label may repeat and its values add up
    pairs = [((0, m), c) for m, c in a_terms.items()]
    pairs += [((i % 2, m), c) for i, (m, c) in enumerate(b_terms.items())]
    for over_p, over_q in zip(
            slot_polynomials([(label, gf.coerce(c)) for label, c in pairs], 2, 3, gf),
            slot_polynomials([(label, Fraction(c)) for label, c in pairs], 2, 3)):
        agree(over_p, over_q)
    if a_q:
        top = sum(a_q.leading_monomial())
        k_q, l_q = (Polynomial(3, {m: c for m, c in t.items() if sum(m) == top})
                    for t in (a_terms, b_terms))
        k_p, l_p = Polynomial(3, k_q.terms, gf), Polynomial(3, l_q.terms, gf)
        form_q, form_p = (ExtForm(3, 2, {(0, 1): k, (1, 2): l}, field)
                          for k, l, field in ((k_q, l_q, QQ), (k_p, l_p, gf)))
        for idxs in ((0, 1), (1, 2)):
            agree(form_p.scale(scalar).coefficient(idxs), form_q.scale(scalar).coefficient(idxs))
        if k_q.terms[k_q.leading_monomial()] % p:  # the monic gcd reduces mod p
            u, v = x(0, 3) + 2 * x(1, 3) - x(2, 3), x(1, 3) + 3 * x(2, 3)  # coprime mod any p
            gcd_q = multivariate_gcd(k_q * u, k_q * v)
            agree(multivariate_gcd(k_p * Polynomial(3, u.terms, gf),
                                   k_p * Polynomial(3, v.terms, gf)), gcd_q)
            assert gcd_q.terms[gcd_q.leading_monomial()] == 1
    on_line = _evaluate_on_line(a_q, base, direction)
    agree(_evaluate_on_line(a_p, base, direction), on_line)
    for t in (0, 1, -2):  # against evaluating a at the point base + t * direction
        point = [b + t * v for b, v in zip(base, direction)]
        assert sum(c * t ** m[0] for m, c in on_line.terms.items()) == sum(
            c * prod(xi ** e for xi, e in zip(point, m)) for m, c in a_q.terms.items())
    if b_q:  # b with its leading coefficient set to 1 divides over the integers
        g_terms = {**b_terms, b_q.leading_monomial(): 1}
        quotients = poly_divmod(a_p, Polynomial(3, g_terms, gf))
        for over_p, over_q in zip(quotients, poly_divmod(a_q, Polynomial(3, g_terms))):
            agree(over_p, over_q)


def test_constructor_coerces_coefficients_into_the_field():
    gf7 = PrimeField(7)
    assert Polynomial(2, {(1, 0): 7}, gf7).is_zero()
    assert Polynomial(2, {(1, 0): 10}, gf7) == Polynomial(2, {(1, 0): 3}, gf7)
    assert Polynomial(2, {(1, 0): Fraction(1, 2)}, gf7) == Polynomial(2, {(1, 0): 4}, gf7)
    assert type(Polynomial(2, {(1, 0): 2}).terms[(1, 0)]) is Fraction
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): 0.5})
    with pytest.raises(ZeroDivisionError):
        Polynomial(2, {(1, 0): Fraction(1, 14)}, gf7)


def test_poly_divmod_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(x(0), Polynomial.zero(4))


def test_gcd_random_pairs_against_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(p, symbols):
        total = 0
        for mono, coeff in p.terms.items():
            term = sympy.Integer(coeff) if p.field.characteristic \
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
        lead = g.coefficient(g.leading_monomial())
        return g.scale(pow(lead, -1, p) if p else 1 / lead)

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
