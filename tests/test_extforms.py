import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adjtorelli.adjoint import sample_bundle
from adjtorelli.errors import (
    GradeError,
    NoDecompositionError,
    NonEulerNullError,
    RankOneConditionError,
)
from adjtorelli.exactla import Echelon
from adjtorelli.extforms import (
    ExtForm,
    _syzygy_span,
    _vector_wedge,
    basis_one_form,
    divide_by_fundamental,
    euler_contract,
    fundamental_form,
    relift_expand,
    syzygy_decompose,
    syzygy_form,
    wedge,
    wedge_all,
)
from adjtorelli.fields import QQ, PrimeField
from adjtorelli.polyring import Polynomial, monomial_basis, poly_div_exact

from conftest import random_homogeneous, x


def dx(nvars, *idxs):
    return ExtForm(nvars, len(idxs), {tuple(idxs): Polynomial.constant(nvars, 1)})


def random_form(nvars, grade, coeff_degree, rng, terms=3):
    subsets = list(combinations(range(nvars), grade))
    picked = {}
    for _ in range(terms):
        key = subsets[rng.randrange(len(subsets))]
        poly = random_homogeneous(nvars, coeff_degree, rng, bound=3)
        picked[key] = picked.get(key, Polynomial.zero(nvars)) + poly
    return ExtForm(nvars, grade, {k: p for k, p in picked.items() if not p.is_zero()})


# ----- wedge ---------------------------------------------------------------

def test_wedge_of_coordinate_differentials():
    w = wedge(dx(3, 0), dx(3, 1))
    assert w.terms == {(0, 1): Polynomial.constant(3, 1)}


def test_wedge_alternation():
    assert wedge(dx(3, 0), dx(3, 0)).is_zero()


def test_wedge_eta_pair_hand_expansion():
    # (x0 dx1 - x1 dx0) ^ (x0 dx2 - x2 dx0), expanded by hand
    w = wedge(basis_one_form(3, 0, 1), basis_one_form(3, 0, 2))
    expected = ExtForm(3, 2, {
        (1, 2): x(0, 3) ** 2,
        (0, 2): -(x(0, 3) * x(1, 3)),
        (0, 1): x(0, 3) * x(2, 3),
    })
    assert w == expected


def test_wedge_grade_overflow():
    with pytest.raises(GradeError):
        wedge(dx(2, 0, 1), dx(2, 0))


def test_wedge_graded_anticommutativity():
    rng = random.Random(3)
    for _ in range(25):
        nvars = rng.randint(2, 5)
        p = rng.randint(1, max(1, nvars - 1))
        q = rng.randint(1, max(1, nvars - p))
        a = random_form(nvars, p, rng.randint(0, 2), rng)
        b = random_form(nvars, q, rng.randint(0, 2), rng)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (p * q) % 2:
            rhs = -rhs
        assert lhs == rhs


# ----- Euler contraction ----------------------------------------------------

def test_contraction_kills_basis_one_forms():
    for nvars in (3, 4, 5):
        for i in range(nvars):
            for j in range(i + 1, nvars):
                assert euler_contract(basis_one_form(nvars, i, j)).is_zero()


def test_contraction_of_volume_is_fundamental():
    for nvars in (3, 4, 5):
        volume = dx(nvars, *range(nvars))
        assert euler_contract(volume) == fundamental_form(nvars)


def test_contraction_squares_to_zero_on_fundamental():
    for nvars in (3, 4, 5):
        assert euler_contract(fundamental_form(nvars)).is_zero()


def test_contraction_grade_zero_rejected():
    with pytest.raises(GradeError):
        euler_contract(ExtForm(3, 0, {(): Polynomial.constant(3, 1)}))


def test_contraction_is_derivation():
    rng = random.Random(17)
    for _ in range(40):
        nvars = rng.randint(2, 5)
        p = rng.randint(1, nvars - 1)
        q = rng.randint(1, nvars - p)
        a = random_form(nvars, p, rng.randint(0, 2), rng)
        b = random_form(nvars, q, rng.randint(0, 2), rng)
        lhs = euler_contract(wedge(a, b))
        rhs = wedge(euler_contract(a), b)
        second = wedge(a, euler_contract(b))
        rhs = rhs + (-second if p % 2 else second)
        assert lhs == rhs


def test_contraction_squared_vanishes():
    rng = random.Random(29)
    for _ in range(40):
        nvars = rng.randint(2, 5)
        grade = rng.randint(2, nvars)
        form = random_form(nvars, grade, rng.randint(0, 2), rng)
        assert euler_contract(euler_contract(form)).is_zero()


# ----- the named forms -------------------------------------------------------

def test_fundamental_form_p2_explicit():
    expected = ExtForm(3, 2, {
        (1, 2): x(0, 3),
        (0, 2): -x(1, 3),
        (0, 1): x(2, 3),
    })
    assert fundamental_form(3) == expected


def test_syzygy_form_p2_j0():
    expected = ExtForm(3, 1, {(2,): -x(1, 3), (1,): x(2, 3)})
    assert syzygy_form(3, 0) == expected


@pytest.mark.parametrize("nvars", [3, 4, 5])
def test_syzygy_gauge_relation(nvars):
    total = ExtForm.zero(nvars, nvars - 2)
    for j in range(nvars):
        total = total + syzygy_form(nvars, j).poly_mul(
            Polynomial.variable(nvars, j)
        )
    assert total.is_zero()


@pytest.mark.parametrize("nvars", [3, 4, 5])
def test_syzygy_forms_euler_null(nvars):
    for j in range(nvars):
        assert euler_contract(syzygy_form(nvars, j)).is_zero()


# ----- quotient by the fundamental form --------------------------------------

def test_divide_fundamental_identity():
    for nvars in (3, 4, 5):
        assert divide_by_fundamental(fundamental_form(nvars)) == \
            Polynomial.constant(nvars, 1)


def test_divide_fundamental_eta_wedge():
    w = wedge(basis_one_form(3, 0, 1), basis_one_form(3, 0, 2))
    assert divide_by_fundamental(w) == x(0, 3)


def test_divide_fundamental_rejects_non_euler_null():
    with pytest.raises(NonEulerNullError):
        divide_by_fundamental(dx(3, 1, 2))


def test_divide_fundamental_roundtrip():
    rng = random.Random(41)
    for _ in range(30):
        nvars = rng.randint(3, 5)
        p = random_homogeneous(nvars, rng.randint(0, 2), rng, bound=4)
        form = fundamental_form(nvars).poly_mul(p)
        assert divide_by_fundamental(form) == p


# ----- syzygy decomposition ---------------------------------------------------

def test_decompose_single_syzygy_form():
    parts = syzygy_decompose(syzygy_form(4, 1))
    expected = [Polynomial.zero(4) for _ in range(4)]
    expected[1] = Polynomial.constant(4, 1)
    assert list(parts) == expected


def test_decompose_zero_form():
    parts = syzygy_decompose(ExtForm.zero(4, 2))
    assert all(p.is_zero() for p in parts)


def test_decompose_roundtrip_on_eta_wedges():
    # wedges of two basis one-forms on P^3 decompose and re-assemble exactly
    pairs = list(combinations(range(4), 2))
    for (a, b) in combinations(range(len(pairs)), 2):
        w = wedge(
            basis_one_form(4, *pairs[a]),
            basis_one_form(4, *pairs[b]),
        )
        if w.is_zero():
            continue
        parts = syzygy_decompose(w)
        rebuilt = ExtForm.zero(4, 2)
        for j, part in enumerate(parts):
            rebuilt = rebuilt + syzygy_form(4, j).poly_mul(part)
        assert rebuilt == w


def test_decompose_rejects_non_euler_null():
    """A constant form stops at the coefficient-degree gate; a degree-1 form
    that is not Euler-null is refused by the failed span solve."""
    cases = [(dx(4, 0, 2), "coefficient degree must be at least 1")]
    cases += [
        (ExtForm(4, 2, {(0, 1): x(2, 4, field)}, field),
         "form is not Euler-null: it is outside the span of the syzygy forms")
        for field in (QQ, PrimeField(3))
    ]
    for form, message in cases:
        assert not euler_contract(form).is_zero()
        with pytest.raises(NoDecompositionError, match=message):
            syzygy_decompose(form)


def test_decompose_on_the_projective_line():
    # grade 0 on P^1: x0 == 0 * syzygy_form(0) + 1 * syzygy_form(1)
    parts = syzygy_decompose(ExtForm(2, 0, {(): x(0, 2)}))
    assert parts == (Polynomial.zero(2), Polynomial.constant(2, 1))
    assert syzygy_form(2, 1) == ExtForm(2, 0, {(): x(0, 2)})


def test_decompose_gauge_kernel_is_coordinate_multiples():
    """Kernel of the assembly map is spanned by (x0*g, ..., xn*g)."""
    sympy = pytest.importorskip("sympy")
    nvars, coeff_degree = 4, 2
    subsets = tuple(combinations(range(nvars), nvars - 2))
    monos = monomial_basis(nvars, coeff_degree)
    width = len(monos)
    lower = monomial_basis(nvars, coeff_degree - 1)

    def flatten(form):
        """Dense coordinates over (multi-index, monomial) pairs."""
        return [form.coefficient(s).terms.get(m, Fraction(0)) for s in subsets for m in monos]

    columns = []
    for j in range(nvars):
        for mono in lower:
            form = syzygy_form(nvars, j).poly_mul(
                Polynomial.from_monomial(nvars, mono)
            )
            columns.append(flatten(form))
    matrix = sympy.Matrix(
        [[col[r] for col in columns] for r in range(len(subsets) * width)]
    )
    kernel = matrix.nullspace()
    # expected kernel dimension: one copy of each degree-0 g, i.e. g constant
    assert len(kernel) == 1
    vec = [Fraction(int(v.p), int(v.q)) for v in kernel[0]]
    parts = []
    for j in range(nvars):
        chunk = vec[j * len(lower):(j + 1) * len(lower)]
        parts.append(Polynomial(nvars, dict(zip(lower, chunk))))
    # strip the common scalar: parts must be (x0, x1, x2, x3) * g
    g = poly_div_exact(parts[0], Polynomial.variable(nvars, 0))
    assert g is not None
    for j in range(nvars):
        assert parts[j] == Polynomial.variable(nvars, j) * g


def test_decompose_over_q_fixes_the_gauge_and_eliminates_nothing_over_q(
        fermat_quartic, monkeypatch):
    """Leaving out the x_n-multiples of syzygy_form(n) makes the generators
    independent, so each solve over Q is decided modulo the first prime and
    the returned A_n holds no x_n."""
    bundle, _ = sample_bundle(fermat_quartic, seed=0, trial=0)
    rational_inserts = [0]
    insert = Echelon.insert

    def counting(self, vec):
        rational_inserts[0] += not self.p
        return insert(self, vec)

    monkeypatch.setattr(Echelon, "insert", counting)
    n = fermat_quartic.n
    for w in bundle.omit_forms:
        parts = syzygy_decompose(w)
        assert all(mono[n] == 0 for mono in parts[n].terms)
        total = ExtForm.zero(n + 1, n - 1)
        for j, part in enumerate(parts):
            total = total + syzygy_form(n + 1, j).poly_mul(part)
        assert total == w
    assert rational_inserts[0] == 0


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_a_second_decomposition_of_a_shape_inserts_nothing(field, monkeypatch):
    """The syzygy span of a shape, with its echelons, is built once: a later
    decomposition of that shape only reduces against it."""
    w, other = (wedge(basis_one_form(4, *a, field), basis_one_form(4, *b, field))
                for a, b in (((0, 1), (0, 2)), ((1, 3), (0, 2))))
    inserts = [0]
    insert = Echelon.insert

    def counting(self, vec):
        inserts[0] += 1
        return insert(self, vec)

    monkeypatch.setattr(Echelon, "insert", counting)
    _syzygy_span.cache_clear()
    first = syzygy_decompose(w)
    assert inserts[0]
    inserts[0] = 0
    assert syzygy_decompose(w) == first
    parts = syzygy_decompose(other)
    assert inserts[0] == 0
    rebuilt = ExtForm.zero(4, 2, field)
    for j, part in enumerate(parts):
        rebuilt = rebuilt + syzygy_form(4, j, field).poly_mul(part)
    assert rebuilt == other


def test_decompose_matches_pairwise_coefficient_identity():
    """Coefficients of the omitted pair {j,k} match the decomposition."""
    rng = random.Random(57)
    pairs = list(combinations(range(4), 2))
    for _ in range(10):
        a, b = rng.sample(range(len(pairs)), 2)
        w = wedge(basis_one_form(4, *pairs[a]), basis_one_form(4, *pairs[b]))
        if w.is_zero():
            continue
        parts = syzygy_decompose(w)
        for j in range(4):
            for k in range(j + 1, 4):
                omitted = tuple(t for t in range(4) if t not in (j, k))
                expected = parts[j] * Polynomial.variable(4, k) - \
                    Polynomial.variable(4, j) * parts[k]
                if (j + k) % 2:
                    expected = -expected
                assert w.coefficient(omitted) == expected


# ----- lifting expansion identity --------------------------------------------

def c1(v):
    return Polynomial.constant(1, v)


def test_relift_all_zero_offsets_changes_nothing():
    s = [(c1(1), c1(0)), (c1(0), c1(1))]
    zeros = [(c1(0), c1(0)), (c1(0), c1(0))]
    report = relift_expand(s, zeros)
    assert report.expansion_holds
    assert report.annihilating_pattern is None


def test_relift_two_term_example():
    s = [(c1(1), c1(0)), (c1(0), c1(1))]
    offsets = [(c1(1), c1(0)), (c1(0), c1(0))]
    report = relift_expand(s, offsets)
    assert report.expansion_holds
    assert report.annihilating_pattern is not None


def test_relift_rejects_rank_two_offsets():
    s = [(c1(1), c1(0)), (c1(0), c1(1))]
    offsets = [(c1(1), c1(0)), (c1(0), c1(1))]
    with pytest.raises(RankOneConditionError):
        relift_expand(s, offsets)


def test_relift_rejects_rank_zero_vectors():
    with pytest.raises(ValueError, match="rank 0"):
        relift_expand([(), ()], [(), ()])


def test_vector_wedge_matches_the_form_wedge():
    """Module vectors of rank nvars wedge like grade-1 forms in nvars coordinates."""
    rng = random.Random(83)
    for _ in range(30):
        nvars = rng.randint(2, 5)
        vectors = [
            tuple(random_homogeneous(nvars, degree, rng, bound=2) for _ in range(nvars))
            for degree in (rng.randint(0, 2) for _ in range(rng.randint(1, nvars)))
        ]
        forms = [ExtForm(nvars, 1, {(b,): p for b, p in enumerate(v)}) for v in vectors]
        assert _vector_wedge(vectors, nvars, QQ) == wedge_all(forms).terms


# ----- raw accumulation against a per-pair reference -------------------------

GF7, GF32003 = PrimeField(7), PrimeField(32003)
# 3 * 5 - 1 = 14 and 2 * 16002 - 1 = 32003: sums of products of these cancel
# modulo 7 or 32003 but not over Q
COEFFS = [1, -1, 2, 3, 4, 5, 16001, 16002, -16002]


def reference_wedge(left, right):
    """The exterior product with one Polynomial per pair of terms and one per
    partial sum, each sign read off the inversions of the concatenated indices."""
    result = {}
    for ia, pa in left.items():
        for ib, pb in right.items():
            if set(ia) & set(ib):
                continue
            product = pa * pb
            if sum(a > b for a in ia for b in ib) % 2:
                product = -product
            merged = tuple(sorted(ia + ib))
            total = result.pop(merged, Polynomial.zero(pa.nvars, pa.field)) + product
            if total:
                result[merged] = total
    return result


def reference_contract(terms, nvars):
    """iota_E term by term: x_k times the coefficient, dx_k removed with sign
    (-1)^(its position), one Polynomial per contribution and partial sum."""
    result = {}
    for idxs, poly in terms.items():
        for pos, k in enumerate(idxs):
            contrib = poly * Polynomial.variable(nvars, k, poly.field)
            reduced = idxs[:pos] + idxs[pos + 1:]
            total = result.pop(reduced, Polynomial.zero(nvars, poly.field))
            total = total - contrib if pos % 2 else total + contrib
            if total:
                result[reduced] = total
    return result


def residues(terms, field):
    """{multi-index: {monomial: value}} of a map over Q with integer
    coefficients, read in field: reduced mod p, zeros and empty indices dropped."""
    p = field.characteristic
    out = {}
    for idxs, poly in terms.items():
        kept = {m: r for m, c in poly.terms.items() if (r := int(c) % p if p else c)}
        if kept:
            out[idxs] = kept
    return out


def values(terms):
    """{multi-index: {monomial: value}} of a map, residues as ints."""
    return {idxs: {m: getattr(c, "value", c) for m, c in poly.terms.items()}
            for idxs, poly in terms.items()}


def forms_over(spec, nvars, field):
    grade, terms = spec
    return ExtForm(nvars, grade, {i: Polynomial(nvars, t, field) for i, t in terms.items()},
                   field)


@st.composite
def form_specs(draw, nvars, min_grade=0):
    """(grade, {multi-index: {monomial: int}}): a form of one coefficient
    degree, with at most three terms of at most three monomials each."""
    grade = draw(st.integers(min_grade, nvars))
    monos = monomial_basis(nvars, draw(st.integers(0, 2)))
    keys = draw(st.lists(st.sampled_from(list(combinations(range(nvars), grade))),
                         max_size=3, unique=True))
    return grade, {key: draw(st.dictionaries(st.sampled_from(monos), st.sampled_from(COEFFS),
                                             max_size=3))
                   for key in keys}


FIELDS = st.sampled_from([QQ, GF7, GF32003])


@st.composite
def wedge_cases(draw):
    nvars = draw(st.integers(1, 4))
    return draw(FIELDS), nvars, draw(form_specs(nvars)), draw(form_specs(nvars))


@settings(max_examples=300, deadline=None)
@given(wedge_cases())
@example((GF7, 2, (1, {(0,): {(1, 0): 3}, (1,): {(1, 0): 1}}),
          (1, {(1,): {(0, 1): 5}, (0,): {(0, 1): 1}})))  # 15 - 1 cancels mod 7 only
@example((GF32003, 2, (1, {(0,): {(1, 0): 2}, (1,): {(1, 0): 1}}),
          (1, {(1,): {(0, 1): 16002}, (0,): {(0, 1): 1}})))  # 32004 - 1
@example((QQ, 2, (1, {(0,): {(1, 0): 3}, (1,): {(1, 0): 1}}),
          (1, {(1,): {(0, 1): 5}, (0,): {(0, 1): 1}})))
@example((GF7, 3, (2, {(0, 1): {(1, 0, 0): 1}}), (2, {(1, 2): {(0, 1, 0): 1}})))  # grade 4 > 3
@example((GF32003, 3, (1, {(0,): {(1, 0, 0): 1}}), (1, {})))  # an empty factor
def test_wedge_matches_a_per_pair_reference(case):
    """Raw sums per merged index give the per-pair Polynomial loop's wedge:
    signs included, every coefficient reduced mod p and none of them zero.
    Over GF(p) the reference runs on the same integers over Q and is reduced."""
    field, nvars, left, right = case
    a, b = forms_over(left, nvars, field), forms_over(right, nvars, field)
    if a.grade + b.grade > nvars:
        with pytest.raises(GradeError):
            wedge(a, b)
        return
    expected = reference_wedge(forms_over(left, nvars, QQ).terms,
                               forms_over(right, nvars, QQ).terms)
    assert values(wedge(a, b).terms) == residues(expected, field)


@st.composite
def vector_cases(draw):
    nvars, rank = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    monos = [monomial_basis(nvars, degree) for degree in range(3)]
    vectors = [[draw(st.dictionaries(st.sampled_from(monos[degree]), st.sampled_from(COEFFS),
                                     max_size=2)) for _ in range(rank)]
               for degree in draw(st.lists(st.integers(0, 2), max_size=4))]
    return draw(FIELDS), nvars, vectors


@settings(max_examples=300, deadline=None)
@given(vector_cases())
@example((GF7, 1, [[{(1,): 3}, {(1,): 1}], [{(1,): 1}, {(1,): 5}]]))  # 15 - 1
@example((GF32003, 1, [[{(1,): 2}, {(1,): 1}], [{(1,): 1}, {(1,): 16002}]]))
@example((QQ, 2, [[{(1, 0): 1}], [{(0, 1): 2}]]))  # two vectors of rank 1
@example((GF7, 2, [[{(1, 0): 1}, {(0, 1): 3}], [{}, {}]]))  # a zero vector
@example((GF32003, 2, []))  # the empty wedge is the unit
def test_vector_wedge_matches_a_per_pair_reference(case):
    field, nvars, specs = case
    def fold(field):
        acc = {(): Polynomial.constant(nvars, 1, field)}
        for spec in specs:
            vector = {(b,): Polynomial(nvars, t, field) for b, t in enumerate(spec)}
            acc = reference_wedge(acc, {b: p for b, p in vector.items() if p})
        return acc
    vectors = [[Polynomial(nvars, t, field) for t in spec] for spec in specs]
    assert values(_vector_wedge(vectors, nvars, field)) == residues(fold(QQ), field)


@st.composite
def contract_cases(draw):
    nvars = draw(st.integers(1, 4))
    return draw(FIELDS), nvars, draw(form_specs(nvars, min_grade=1))


@settings(max_examples=300, deadline=None)
@given(contract_cases())
@example((GF7, 3, (2, {(0, 1): {(0, 0, 1): 3}, (0, 2): {(0, 1, 0): 4}})))  # -3 - 4
@example((GF32003, 3, (2, {(0, 1): {(0, 0, 1): 16002}, (0, 2): {(0, 1, 0): 16001}})))
@example((QQ, 3, (2, {(0, 1): {(0, 0, 1): 3}, (0, 2): {(0, 1, 0): 4}})))
@example((GF7, 2, (2, {})))  # the zero form
def test_euler_contract_matches_a_per_pair_reference(case):
    field, nvars, spec = case
    expected = reference_contract(forms_over(spec, nvars, QQ).terms, nvars)
    assert values(euler_contract(forms_over(spec, nvars, field)).terms) == \
        residues(expected, field)


def _random_module_vector(rank, rng, nvars=2):
    return tuple(
        Polynomial.constant(nvars, rng.randint(-3, 3)) for _ in range(rank)
    )


def test_relift_identity_and_constructed_span_search():
    rng = random.Random(73)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = n + 1
        rank = k + rng.randint(0, 2)
        sections = [_random_module_vector(rank, rng) for _ in range(k)]
        # place the top wedge in the offset span: last section is c * e_w
        w_idx = rng.randrange(rank)
        c = rng.choice([1, 2, -1, 3])
        last = [Polynomial.constant(2, 0)] * rank
        last[w_idx] = Polynomial.constant(2, c)
        sections[-1] = tuple(last)
        offsets = []
        for i in range(k - 1):
            vec = [Polynomial.constant(2, 0)] * rank
            vec[w_idx] = Polynomial.constant(2, rng.randint(-2, 2))
            offsets.append(tuple(vec))
        final = [Polynomial.constant(2, 0)] * rank
        final[w_idx] = Polynomial.constant(2, c if n % 2 == 0 else -c)
        offsets.append(tuple(final))
        report = relift_expand(sections, offsets)
        assert report.expansion_holds
        assert report.annihilating_pattern is not None


def test_wedge_rejects_mixed_coordinate_spaces():
    from adjtorelli.errors import VariableCountMismatchError

    with pytest.raises(VariableCountMismatchError):
        wedge(dx(3, 0), dx(4, 0))


def test_extform_rejects_mixed_coefficient_degrees():
    with pytest.raises(ValueError, match="mixed"):
        ExtForm(3, 1, {
            (0,): Polynomial.variable(3, 1),
            (1,): Polynomial.constant(3, 1),
        })


def test_extform_rejects_unsorted_multi_index():
    with pytest.raises(ValueError):
        ExtForm(3, 2, {(1, 0): Polynomial.constant(3, 1)})
