import gc
import io
import random
import weakref
from dataclasses import fields
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjtorelli import adjoint, cli
from adjtorelli.adjoint import (
    AdjointBundle,
    ImageCertificate,
    build_bundle,
    canonical_adjoint,
    epsilon_sign,
    eta_basis_pairs,
    fixed_divisor_witness,
    image_membership,
    monomial_to_adjoint,
    pair_row,
    sample_bundle,
    subsystem_sign_check,
    trial_rng,
    wsystem_from_coords,
)
from adjtorelli.errors import (
    DegenerateBundleError,
    DependentSystemError,
    HomogeneityError,
    HypothesisViolationError,
)
from adjtorelli.exactla import Echelon, rref, solve_in_span
from adjtorelli.extforms import (
    ExtForm,
    basis_one_form,
    divide_by_fundamental,
    wedge_all,
)
from adjtorelli.fields import QQ, PrimeField
from adjtorelli.jacobian import Hypersurface, graded_membership, reduce_mod
from adjtorelli.parsing import load_problem
from adjtorelli.polyring import (
    Polynomial,
    basis_index,
    monomial_basis,
    poly_div_exact,
    poly_divmod,
    slot_polynomials,
)

from conftest import fermat, random_homogeneous, x

DATA = Path(__file__).parent / "data"


def eta_system(*pairs, nvars=4):
    return wsystem_from_coords(nvars, [pair_row(nvars, i, j) for i, j in pairs])


# ----- W-systems -----------------------------------------------------------

def test_eta_coordinates_roundtrip():
    coords = [(1, 0, -2, 0, 3, 0), (0, 1, 1, 1, 0, 0), (0, 0, 0, 0, 1, -1)]
    system = wsystem_from_coords(4, coords)
    assert [tuple(int(c) for c in row) for row in system.coords] == coords


def test_pair_row_is_the_directed_one_form():
    # x_a dx_b - x_b dx_a: the basis form for a < b, its negative for a > b
    pairs = eta_basis_pairs(4)
    for a, b in pairs:
        assert pair_row(4, a, b) == tuple(int(p == (a, b)) for p in pairs)
        assert pair_row(4, b, a) == tuple(-int(p == (a, b)) for p in pairs)
    system = eta_system((1, 0), (2, 0), (3, 0))
    assert system.forms == tuple(-basis_one_form(4, 0, j) for j in (1, 2, 3))


def summed_one_form(nvars, row, field):
    """sum_k c_k * basis_one_form(pair_k): the W-form as a sum of basis forms."""
    form = ExtForm.zero(nvars, 1, field)
    for c, (i, j) in zip(row, eta_basis_pairs(nvars)):
        form = form + basis_one_form(nvars, i, j, field).scale(c)
    return form


def test_coords_and_forms_build_the_same_system():
    """Each W-form, one Euler contraction of its row's constant 2-form, is
    the sum of scaled basis one-forms; checked on a fixed and random rows."""
    def check(nvars, rows, field):
        system = wsystem_from_coords(nvars, rows, field)
        assert system.forms == tuple(summed_one_form(nvars, row, field) for row in rows)
        assert system.coords == tuple(tuple(field.coerce(c) for c in row) for row in rows)

    fixed = [(1, 0, -2, 0, 3, 0), (0, 1, 1, 1, 0, 0), (0, 0, 0, 0, 1, -1)]
    rng = random.Random(11)
    for field in (QQ, PrimeField(7)):
        check(4, fixed, field)
        for nvars in (3, 4, 5):
            width = len(eta_basis_pairs(nvars))
            compared = 0
            for _ in range(6):
                rows = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(nvars - 1)]
                try:
                    check(nvars, rows, field)
                except DependentSystemError:
                    continue  # a random draw may be dependent; skip only those
                compared += 1
            assert compared > 0, (nvars, field)


def test_dependent_system_rejected():
    with pytest.raises(DependentSystemError):
        eta_system((0, 1), (0, 2), (0, 1))
    rows = [(1, 0, -2, 0, 3, 0), (0, 1, 1, 1, 0, 0), (1, 1, -1, 1, 3, 0)]
    with pytest.raises(DependentSystemError):
        wsystem_from_coords(4, rows)


def test_wrong_count_rejected():
    with pytest.raises(DependentSystemError):
        eta_system((0, 1), (0, 2))
    with pytest.raises(DependentSystemError):
        wsystem_from_coords(4, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    with pytest.raises(ValueError, match="coordinates per form"):
        wsystem_from_coords(4, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="empty system") as info:
        wsystem_from_coords(4, [])
    assert type(info.value) is ValueError


# ----- bundle construction ----------------------------------------------------

def test_bundle_on_eta_0j_system(fermat_quartic):
    bundle = build_bundle(fermat_quartic, eta_system((0, 1), (0, 2), (0, 3)))
    assert bundle.top_poly == x(0) ** 2
    assert not bundle.degenerate
    assert [str(p) for p in bundle.subsystem] == \
        ["4*x0*x1^3", "-4*x0*x2^3", "4*x0*x3^3"]


def test_bundle_requires_degree_above_two():
    quadric = Hypersurface(fermat(4, 2))
    with pytest.raises(HypothesisViolationError):
        build_bundle(quadric, eta_system((0, 1), (0, 2), (0, 3)))


def test_bundle_subsystem_lies_in_ideal(fermat_quartic):
    h = fermat_quartic
    for trial in range(12):
        bundle, _ = sample_bundle(h, seed=5, trial=trial)
        assert not bundle.degenerate
        for omega in bundle.subsystem:
            cert = graded_membership(omega, h)
            assert cert is not None and cert.verify(h, omega)


def test_bundle_decomposition_reassembles(fermat_quartic):
    from adjtorelli.extforms import syzygy_form

    bundle, _ = sample_bundle(fermat_quartic, seed=8, trial=0)
    for omit, row in zip(bundle.omit_forms, bundle.coeff_rows):
        rebuilt = ExtForm.zero(4, 2)
        for j, part in enumerate(row):
            rebuilt = rebuilt + syzygy_form(4, j).poly_mul(part)
        assert rebuilt == omit


def test_bundle_top_form_is_the_full_wedge(fermat_quartic):
    bundles = [sample_bundle(fermat_quartic, seed=5, trial=t)[0] for t in range(3)]
    bundles.append(build_bundle(fermat_quartic, eta_system((0, 1), (0, 2), (0, 3))))
    for bundle in bundles:
        assert bundle.top_form == wedge_all(bundle.system.forms)


def test_gauge_shift_changes_nothing_mod_f(fermat_quartic):
    h = fermat_quartic
    bundle, _ = sample_bundle(h, seed=21, trial=0)
    rng = random.Random(99)
    for row, omega in zip(bundle.coeff_rows, bundle.subsystem):
        g = Polynomial.constant(4, rng.randint(1, 7))
        shifted = [
            part + Polynomial.variable(4, j) * g
            for j, part in enumerate(row)
        ]
        total = Polynomial.zero(4)
        for part, partial in zip(shifted, h.partials):
            total = total + part * partial
        assert reduce_mod(h, total) == omega


# ----- canonical adjoint --------------------------------------------------------

def test_canonical_adjoint_of_f_vanishes(fermat_quartic):
    bundle = build_bundle(fermat_quartic, eta_system((0, 1), (0, 2), (0, 3)))
    assert canonical_adjoint(bundle, fermat_quartic.poly).is_zero()


def test_canonical_adjoint_monomial_case(fermat_quartic):
    bundle = build_bundle(fermat_quartic, eta_system((0, 1), (0, 2), (0, 3)))
    R = x(0) * x(1) * x(2) * x(3)
    assert canonical_adjoint(bundle, R) == x(0) ** 3 * x(1) * x(2) * x(3)


def test_canonical_adjoint_zero_r(fermat_quartic):
    bundle = build_bundle(fermat_quartic, eta_system((0, 1), (0, 2), (0, 3)))
    assert canonical_adjoint(bundle, Polynomial.zero(4)).is_zero()


def test_canonical_adjoint_degree_mismatch(fermat_quartic):
    bundle = build_bundle(fermat_quartic, eta_system((0, 1), (0, 2), (0, 3)))
    with pytest.raises(HomogeneityError):
        canonical_adjoint(bundle, x(0) ** 3)


# ----- image membership ----------------------------------------------------------

def test_image_membership_for_ideal_r(fermat_quartic):
    h = fermat_quartic
    R = x(0) ** 3 * x(1)
    bundle, _ = sample_bundle(h, seed=0, trial=0)
    cert = image_membership(bundle, R)
    assert cert is not None
    assert cert.verify(bundle, R)
    assert all(
        s.is_zero() or s.homogeneous_degree() == 2 for s in cert.multipliers
    )


def test_image_membership_for_nonideal_r(fermat_quartic):
    bundle, _ = sample_bundle(fermat_quartic, seed=0, trial=0)
    assert image_membership(bundle, x(0) * x(1) * x(2) * x(3)) is None


def test_image_membership_r_equals_f(fermat_quartic):
    h = fermat_quartic
    bundle, _ = sample_bundle(h, seed=0, trial=1)
    cert = image_membership(bundle, h.poly)
    assert cert is not None
    assert all(s.is_zero() for s in cert.multipliers)
    assert cert.principal == bundle.top_poly
    assert cert.verify(bundle, h.poly)


def test_image_membership_rejects_degenerate(fermat_quartic):
    # a triple of one-forms supported on three coordinates wedges to zero
    system = eta_system((0, 1), (0, 2), (1, 2))
    bundle = build_bundle(fermat_quartic, system)
    assert bundle.degenerate
    with pytest.raises(DegenerateBundleError):
        image_membership(bundle, x(0) ** 3 * x(1))


SAMPLED_HYPERSURFACES = pytest.mark.parametrize("name, field", [
    ("fermat4.prob", QQ),
    ("fermat4.prob", PrimeField(7)),
    ("fermat5.prob", PrimeField(32003)),
    ("sparse5.prob", PrimeField(32003)),
], ids=["fermat4-q", "fermat4-gf7", "fermat5-gf32003", "sparse5-gf32003"])


@SAMPLED_HYPERSURFACES
def test_image_span_lies_in_the_jacobian_ideal(name, field):
    """Every image generator m * omega_i and m * F is in J_(n+d-1): omega_i
    is sum_j A_ij F_j minus a multiple of F, and F is in J by Euler's
    identity, d being invertible in the field.  So P*R outside J is outside
    the image, which is how image_membership answers no."""
    F, _ = load_problem(DATA / name).build(field)
    h = Hypersurface(F)
    for trial in range(2):
        bundle, _ = sample_bundle(h, seed=0, trial=trial)
        _, labels = adjoint._image_span(bundle)
        assert len(labels) == (h.n * len(monomial_basis(h.nvars, 2))
                               + len(monomial_basis(h.nvars, h.n - 1)))
        slots = bundle.subsystem + (h.poly,)
        for slot, mono in labels:
            G = slots[slot].mul_monomial(mono)
            cert = graded_membership(G, h)
            assert cert is not None and cert.verify(h, G)


@SAMPLED_HYPERSURFACES
def test_every_image_generator_raises_the_rank(name, field):
    """The m * omega_i and m * F of a sampled bundle are linearly
    independent, so an image certificate is the unique combination of them:
    the span solve of c*F*P can only return zero multipliers and c*P."""
    F, _ = load_problem(DATA / name).build(field)
    h = Hypersurface(F)
    for trial in range(3):
        bundle, _ = sample_bundle(h, seed=0, trial=trial)
        span, _ = adjoint._image_span(bundle)
        echelon = Echelon(field)
        assert all(echelon.insert(row) for row in span.rows)


@SAMPLED_HYPERSURFACES
def test_a_multiple_of_f_has_zero_multipliers_and_principal_c_times_p(name, field):
    """R = c*F, R = 0 among them, goes through the span solve like any R."""
    F, _ = load_problem(DATA / name).build(field)
    h = Hypersurface(F)
    bundle, _ = sample_bundle(h, seed=0, trial=1)
    for c in (1, -3, 5, 0):
        R = F * field.coerce(c)
        cert = image_membership(bundle, R)
        assert cert is not None and cert.verify(bundle, R)
        assert all(s.is_zero() for s in cert.multipliers)
        assert cert.principal == bundle.top_poly * field.coerce(c)


def test_an_image_no_over_gfp_builds_no_image_span():
    """Over GF(p) a P*R outside J is a no read off J_(n+d-1): the bundle's
    image span stays empty until a P*R inside J needs it."""
    field = PrimeField(7)
    h = Hypersurface(fermat(4, 4, field))
    bundle, _ = sample_bundle(h, seed=0, trial=0)
    assert image_membership(bundle, x(0, 4, field) * x(1, 4, field)
                            * x(2, 4, field) * x(3, 4, field)) is None
    assert not bundle.image_span
    yes_r = x(0, 4, field) ** 3 * x(1, 4, field) + 2 * x(2, 4, field) ** 3 * x(3, 4, field)
    cert = image_membership(bundle, yes_r)
    assert cert is not None and cert.verify(bundle, yes_r)
    assert bundle.image_span


def _image_by_span_solve(bundle, R):
    """image_membership's answer from the full span solve of P*R alone."""
    h = bundle.hypersurface
    span, labels = adjoint._image_span(bundle)
    index = basis_index(h.nvars, h.n + h.degree - 1)
    target = [h.field.zero] * span.dim
    for mono, c in (bundle.top_poly * R).terms.items():
        target[index[mono]] = c
    cert = solve_in_span(target, span)
    if cert is None:
        return None
    *multipliers, principal = slot_polynomials(
        zip(labels, cert.coefficients), h.n + 1, h.nvars, h.field)
    return ImageCertificate(tuple(multipliers), principal)


def _kernel_outside_j(bundle):
    """A basis of the R in the span of the degree-d quotient monomials (so
    outside J unless 0) with P*R in the image: the rows of the rref of
    [P*q reduced modulo the image | identity] whose left part is 0."""
    h = bundle.hypersurface
    span, _ = adjoint._image_span(bundle)
    image = Echelon(h.field)
    for row in span.rows:
        image.insert(row)
    index = basis_index(h.nvars, h.n + h.degree - 1)
    quotient = h.quotient_basis(h.degree)
    rows = []
    for i, mono in enumerate(quotient):
        product = bundle.top_poly.mul_monomial(mono)
        residual, _ = image.reduce({index[m]: c for m, c in product.terms.items()})
        rows.append([residual.get(c, 0) for c in range(span.dim)]
                    + [int(i == j) for j in range(len(quotient))])
    return [
        Polynomial(h.nvars, dict(zip(quotient, row[span.dim:])), h.field)
        for row in rref(rows, h.field)[0]
        if not any(row[:span.dim]) and any(row[span.dim:])
    ]


# a Fermat quartic: name -> (nvars, field)
QUARTICS = {"quartic-q": (4, QQ), "quartic-gf7": (4, PrimeField(7)),
            "plane-quartic-gf5": (3, PrimeField(5))}
# (quartic, seed, trial), or (quartic, "monomial", base monomial)
IMAGE_CASES = (
    [("quartic-q", 0, t) for t in range(3)]
    + [("quartic-q", "monomial", m) for m in monomial_basis(4, 2)]
    + [("quartic-gf7", 0, t) for t in range(3)]
    + [("plane-quartic-gf5", 1, t) for t in range(6)]
)
@lru_cache(maxsize=None)
def _quartic(name):
    nvars, field = QUARTICS[name]
    return Hypersurface(fermat(nvars, 4, field))


@lru_cache(maxsize=None)
def _image_case(case):
    """The case's bundle and the basis _kernel_outside_j gives for it."""
    name, seed, value = case
    h = _quartic(name)
    bundle = (build_bundle(h, monomial_to_adjoint(h.nvars, value, h.field))
              if seed == "monomial" else sample_bundle(h, seed, value)[0])
    return bundle, _kernel_outside_j(bundle)


def test_some_plane_quartic_bundles_put_p_r_in_the_image_for_r_outside_j():
    """Outside the theorem's n >= 3, over GF(5), K_W = {R : P*R in the image}
    is larger than J_d on trials 2, 4 and 5 of seed 1, by 2 dimensions each;
    on the Fermat quartic surface it is J_d."""
    kernels = {case: len(_image_case(case)[1]) for case in IMAGE_CASES}
    assert {case for case, dim in kernels.items() if dim} == {
        ("plane-quartic-gf5", 1, t) for t in (2, 4, 5)}
    assert set(kernels.values()) == {0, 2}


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(IMAGE_CASES),
    parts=st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
                   min_size=4, max_size=4),
    outside=st.lists(st.tuples(st.integers(0, 18), st.integers(-2, 2)), max_size=2),
    kernel=st.lists(st.integers(-2, 2), min_size=2, max_size=2),
)
def test_image_membership_agrees_with_the_full_span_solve(case, parts, outside, kernel):
    """R = sum_j g_j * dF/dx_j (g_j linear), plus terms on the degree-d
    quotient basis, plus a combination of the R outside J with P*R in the
    image: image_membership answers None exactly when the full span solve of
    P*R does, and otherwise with its certificate.  So a no decided from P*R
    outside J never changes an answer, and one decided from R outside J
    would (on the plane quartic bundles above)."""
    bundle, kernel_basis = _image_case(case)
    h = bundle.hypersurface
    nvars, field = h.nvars, h.field
    zero = Polynomial.zero(nvars, field)
    R = zero
    for row, partial in zip(parts, h.partials):
        R = R + sum((c * x(i, nvars, field) for i, c in zip(range(nvars), row)), zero) * partial
    quotient = h.quotient_basis(h.degree)
    for i, c in outside:
        R = R + Polynomial.from_monomial(nvars, quotient[i % len(quotient)], c, field)
    for c, G in zip(kernel, kernel_basis):
        R = R + c * G
    cert, expected = image_membership(bundle, R), _image_by_span_solve(bundle, R)
    assert (cert is None) == (expected is None)
    if cert is not None:
        assert cert.verify(bundle, R)
        if poly_divmod(bundle.top_poly * R, h.poly)[1]:  # not a multiple of F
            assert cert == expected


# ----- explicit adjoint systems for monomials --------------------------------------

def test_monomial_to_adjoint_p2_example():
    system = monomial_to_adjoint(3, (1, 0, 0))
    P = divide_by_fundamental(wedge_all(system.forms))
    assert P == Polynomial.variable(3, 0)


@pytest.mark.parametrize("nvars", [3, 4, 5])
def test_monomial_to_adjoint_exhaustive(nvars):
    n = nvars - 1
    for mono in monomial_basis(nvars, n - 1):
        system = monomial_to_adjoint(nvars, mono)
        P = divide_by_fundamental(wedge_all(system.forms))
        M = Polynomial.from_monomial(nvars, mono)
        assert P == M or P == -M


def test_monomial_to_adjoint_recursion_shape():
    system = monomial_to_adjoint(4, (1, 1, 0, 0))
    assert len(system.forms) == 3
    # coordinate 2 is the first absent one, so the final appended form
    # pairs the first divisor coordinate 0 with it
    coords = system.coords[-1]
    pairs = eta_basis_pairs(4)
    support = [pairs[i] for i, c in enumerate(coords) if c]
    assert support == [(0, 2)]


def test_monomial_to_adjoint_rejects_wrong_degree():
    with pytest.raises(HomogeneityError):
        monomial_to_adjoint(4, (1, 1, 1, 0))


# ----- fixed divisors ----------------------------------------------------------------

def test_engineered_common_factor_is_detected(fermat_quartic):
    bundle = build_bundle(fermat_quartic, eta_system((0, 1), (0, 2), (0, 3)))
    witness = fixed_divisor_witness(bundle)
    assert witness == x(0)
    for omega in bundle.subsystem:
        assert poly_div_exact(omega, witness) is not None


def test_generic_bundles_have_no_fixed_divisor(fermat_quartic):
    for trial in range(10):
        bundle, _ = sample_bundle(fermat_quartic, seed=3, trial=trial)
        assert fixed_divisor_witness(bundle) is None


def test_fixed_divisor_rejects_degenerate(fermat_quartic):
    bundle = build_bundle(fermat_quartic, eta_system((0, 1), (0, 2), (1, 2)))
    with pytest.raises(DegenerateBundleError):
        fixed_divisor_witness(bundle)


# ----- the global sign -----------------------------------------------------------------

def test_epsilon_signs(fermat_quartic, fermat_quintic):
    # by direct expansion of (volume omitting j) ^ dF and one contraction,
    # the sign alternates with the projective dimension: (-1)^(n+1)
    assert epsilon_sign(fermat_quartic) == 1
    assert epsilon_sign(fermat_quintic) == -1
    p2 = Hypersurface(fermat(3, 4))
    assert epsilon_sign(p2) == -1


def test_sign_cross_check_on_bundles(fermat_quartic):
    for trial in range(8):
        bundle, _ = sample_bundle(fermat_quartic, seed=14, trial=trial)
        assert subsystem_sign_check(bundle)
    explicit = build_bundle(fermat_quartic, eta_system((0, 1), (0, 2), (0, 3)))
    assert subsystem_sign_check(explicit)


# ----- span of the full subsystem family ------------------------------------------------

def test_eta_pair_subsystems_span_coordinate_partials(fermat_quartic):
    """Every x_k * dF/dx_j with k != j lies in the span of the subsystem
    polynomials of all eta-basis pairs, modulo F."""
    from adjtorelli.exactla import Span, solve_in_span
    from adjtorelli.extforms import syzygy_decompose, wedge
    from adjtorelli.jacobian import _poly_vector

    h = fermat_quartic
    pairs = eta_basis_pairs(4)
    spanning = []
    for a, b in combinations(range(len(pairs)), 2):
        w = wedge(
            basis_one_form(4, *pairs[a]), basis_one_form(4, *pairs[b])
        )
        if w.is_zero():
            continue
        parts = syzygy_decompose(w)
        omega = Polynomial.zero(4)
        for part, partial in zip(parts, h.partials):
            omega = omega + part * partial
        spanning.append(omega)
    spanning.append(h.poly)
    width = len(monomial_basis(4, 4))

    def dense(p):
        out = [h.field.zero] * width
        for idx, c in _poly_vector(p, 4).items():
            out[idx] = c
        return out

    span = Span([_poly_vector(p, 4) for p in spanning], width, h.field)
    for j in range(4):
        for k in range(4):
            if j == k:
                continue
            target = Polynomial.variable(4, k) * h.partials[j]
            assert solve_in_span(dense(target), span) is not None


def test_image_membership_over_q_eliminates_nothing_over_q(fermat_quartic, monkeypatch):
    """The image span solve over Q is decided modulo primes: neither a yes
    nor a no inserts into a rational echelon."""
    h = fermat_quartic
    bundle, _ = sample_bundle(h, seed=0, trial=0)
    rational_inserts = [0]
    insert = Echelon.insert

    def counting(self, vec):
        rational_inserts[0] += not self.p
        return insert(self, vec)

    monkeypatch.setattr(Echelon, "insert", counting)
    in_ideal = x(0) ** 3 * x(1) + 2 * x(2) ** 3 * x(3)
    yes = image_membership(bundle, in_ideal)
    no = image_membership(bundle, x(0) * x(1) * x(2) * x(3))
    assert rational_inserts[0] == 0
    assert yes is not None and yes.verify(bundle, in_ideal)
    assert no is None


def test_reduction_modulo_f_uses_no_echelon(monkeypatch):
    """reduce_mod divides by F: it neither inserts into nor reduces on any
    Echelon."""
    h = Hypersurface(fermat(4, 4))  # fresh, so nothing is cached on it
    calls = [0]
    insert, reduce = Echelon.insert, Echelon.reduce

    def counting_insert(self, vec):
        calls[0] += 1
        return insert(self, vec)

    def counting_reduce(self, vec):
        calls[0] += 1
        return reduce(self, vec)

    monkeypatch.setattr(Echelon, "insert", counting_insert)
    monkeypatch.setattr(Echelon, "reduce", counting_reduce)
    rng = random.Random(3)
    for k in (4, 5, 6):
        G = random_homogeneous(4, k, rng)
        assert poly_div_exact(G - reduce_mod(h, G), h.poly) is not None
    assert calls[0] == 0


# ----- sampling determinism ---------------------------------------------------------------

def _without_hypersurface(bundle):
    return tuple(getattr(bundle, f.name) for f in fields(AdjointBundle)[1:] if f.compare)


def test_sampling_is_deterministic(fermat_quartic):
    sample_bundle(fermat_quartic, seed=4, trial=2)
    hit, att_hit = sample_bundle(fermat_quartic, seed=4, trial=2)
    fresh, att_fresh = sample_bundle(Hypersurface(fermat(4, 4)), seed=4, trial=2)
    assert hit.hypersurface is fermat_quartic
    assert att_hit == att_fresh
    assert _without_hypersurface(hit) == _without_hypersurface(fresh)


def test_bundle_cache_keeps_no_reference_to_the_hypersurface():
    h = Hypersurface(fermat(4, 4))
    gc.disable()
    try:
        for trial in range(2):
            sample_bundle(h, seed=0, trial=trial)
        no_r = x(0) * x(1) * x(2) * x(3)
        assert image_membership(sample_bundle(h, seed=0, trial=0)[0], no_r) is None
        assert len(h._bundles) == 2
        # the last kept field is image_span: trial 0's is filled
        assert [bool(kept[-1]) for kept, _ in h._bundles.values()] == [True, False]
        ref = weakref.ref(h)
        del h
        assert ref() is None  # freed by reference counting alone
    finally:
        gc.enable()


def test_bundle_cache_is_bounded_and_evicts_the_oldest(monkeypatch):
    assert adjoint.MAX_CACHED_BUNDLES >= 12  # the 4 seeds x 3 trials of a sweep
    monkeypatch.setattr(adjoint, "MAX_CACHED_BUNDLES", 3)
    h = Hypersurface(fermat(4, 4))
    first, attempts = sample_bundle(h, seed=0, trial=0)
    for trial in range(1, 4):
        sample_bundle(h, seed=0, trial=trial)
    assert list(h._bundles) == [(0, 1), (0, 2), (0, 3)]
    again, attempts_again = sample_bundle(h, seed=0, trial=0)
    assert attempts_again == attempts
    assert _without_hypersurface(again) == _without_hypersurface(first)
    assert len(h._bundles) == 3


def test_a_bundle_builds_its_image_span_once(monkeypatch):
    """The image span and its per-prime echelons are built by the first
    image_membership and kept: later ones, on the bundle or on the copy
    sample_bundle returns, insert nothing and answer the same."""
    h = Hypersurface(fermat(4, 4))
    bundle, _ = sample_bundle(h, seed=0, trial=0)
    inserts = [0]
    insert = Echelon.insert

    def counting(self, vec):
        inserts[0] += 1
        return insert(self, vec)

    monkeypatch.setattr(Echelon, "insert", counting)
    yes_r, no_r = x(0) ** 3 * x(1) + 2 * x(2) ** 3 * x(3), x(0) * x(1) * x(2) * x(3)
    yes = image_membership(bundle, yes_r)
    built = inserts[0]
    assert built and yes is not None and yes.verify(bundle, yes_r)
    copy, _ = sample_bundle(h, seed=0, trial=0)
    assert image_membership(copy, yes_r) == yes
    assert image_membership(bundle, no_r) is None
    assert inserts[0] == built
    span, labels = bundle.image_span[0]
    assert len(span) == len(labels) == 3 * 10 + 10
    assert copy.image_span is bundle.image_span
    assert bundle == build_bundle(h, bundle.system)  # the span is not compared
    assert "image_span" not in repr(bundle)


def test_the_image_span_factor_is_sparser_in_its_column_order():
    """A Span's echelon pivots first on the columns the fewest generators
    hold.  On the Fermat quintic threefold's image span over GF(32003)
    (seed 0, trial 0) its stored rows hold about half the entries of a
    factor pivoting on each row's smallest column, at the same rank."""
    field = PrimeField(32003)
    bundle, _ = sample_bundle(Hypersurface(fermat(5, 5, field)), seed=0, trial=0)
    span, _ = adjoint._image_span(bundle)
    default = Echelon(field, track=True)
    for row in span.rows:
        default.insert(row)
    ordered = span._echelon(field)
    assert ordered.rank == default.rank == len(span) == 95
    stored, default_stored = sum(map(len, ordered.rows)), sum(map(len, default.rows))
    assert stored < 0.6 * default_stored  # 10497 against 19865 entries


@pytest.mark.parametrize("field", ["q", "p:32003"])
def test_torelli_reports_are_the_same_on_a_warm_hypersurface(field, monkeypatch):
    """Cached bundles and image spans change no byte of a torelli report."""
    files = ["fermat4_trivial.prob", "fermat4.prob"]

    def report(name):
        out = io.StringIO()
        argv = ["torelli", str(DATA / name), "--field", field, "--trials", "3",
                "--json", "--certificates"]
        assert cli.main(argv, out) == 0
        return out.getvalue()

    cold = [report(name) for name in files]
    shared = []

    def one_hypersurface(F):
        if not shared:
            shared.append(Hypersurface(F))
        return shared[0]

    monkeypatch.setattr(cli.jacobian_mod, "Hypersurface", one_hypersurface)
    assert [report(name) for name in files + files] == cold + cold
    assert all(kept[-1] for kept, _ in shared[0]._bundles.values())  # image spans


def test_trial_streams_differ():
    assert trial_rng(0, 0).random() != trial_rng(0, 1).random()
    assert trial_rng(0, 1).random() != trial_rng(1, 0).random()
