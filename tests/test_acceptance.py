"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact; there are no tolerances anywhere.  The quartic
family runs over the rationals in well under the five-minute budget and the
degree-5 spot checks stay far inside theirs.
"""

import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from adjtorelli.adjoint import (
    build_bundle,
    epsilon_sign,
    fixed_divisor_witness,
    monomial_to_adjoint,
    sample_bundle,
    sample_wsystem,
    subsystem_sign_check,
    trial_rng,
)
from adjtorelli.errors import DependentSystemError
from adjtorelli.extforms import (
    ExtForm,
    basis_one_form,
    divide_by_fundamental,
    euler_contract,
    fundamental_form,
    relift_expand,
    syzygy_form,
    wedge,
    wedge_all,
)
from adjtorelli.jacobian import (
    Hypersurface,
    graded_membership,
    is_smooth,
    jacobian_ring_dim,
    macaulay_pairing_check,
    pairing_matrix,
    reduce_mod,
)
from adjtorelli.exactla import rref
from adjtorelli.polyring import Polynomial, monomial_basis
from adjtorelli.torelli import check, monomial_product_criterion

from conftest import fermat, golden_commands, random_homogeneous, subprocess_env, x

DATA = Path(__file__).parent / "data"
QUARTIC_DIMS = [1, 4, 10, 16, 19, 16, 10, 4, 1, 0]


def announce(number, message):
    print(f"criterion {number}: PASS - {message}")


@pytest.fixture(scope="module")
def bundles_50(fermat_quartic):
    bundles = []
    for trial in range(50):
        bundle, _ = sample_bundle(fermat_quartic, seed=1000, trial=trial)
        assert not bundle.degenerate
        bundles.append(bundle)
    return bundles


def _smooth_non_fermat_quartic():
    base = fermat(4, 4)
    product = Polynomial.from_monomial(4, (1, 1, 1, 1))
    candidates = [base + product, base + 2 * product, base + product * 3]
    for candidate in candidates:
        smooth, _ = is_smooth(candidate)
        if smooth:
            return Hypersurface(candidate)
    raise AssertionError("no smooth perturbation found")


def test_criterion_1_hilbert_function_reproduction(fermat_quartic):
    dims = [jacobian_ring_dim(fermat_quartic, k) for k in range(10)]
    assert dims == QUARTIC_DIMS
    other = _smooth_non_fermat_quartic()
    other_dims = [jacobian_ring_dim(other, k) for k in range(10)]
    assert other_dims == QUARTIC_DIMS
    announce(1, f"quotient dimensions {dims} on both quartics, exact")


def test_criterion_2_macaulay_duality(fermat_quartic):
    h = fermat_quartic
    assert h.socle_degree == 8
    assert jacobian_ring_dim(h, 8) == 1
    for a in (2, 3, 4):
        matrix = pairing_matrix(h, a)
        _, _, rank = rref(matrix)
        assert rank == min(len(matrix), len(matrix[0]))
        assert macaulay_pairing_check(h, a)
    announce(2, "socle dimension 1 at degree 8; perfect pairing at a=2,3,4")


def test_criterion_3_equivalence_suite(fermat_quartic):
    h = fermat_quartic
    deformations = [
        Polynomial.from_monomial(4, mono) for mono in monomial_basis(4, 4)
    ]
    rng = random.Random(20_24)
    deformations += [
        poly for poly in (random_homogeneous(4, 4, rng) for _ in range(20))
        if not poly.is_zero()
    ]
    disagreements = 0
    for R in deformations:
        report = check(h, R, trials=3, seed=0)
        if not report.consistency:
            disagreements += 1
    assert disagreements == 0
    announce(3, f"{len(deformations)} deformations x 3 trials, "
                "conditions agree everywhere, zero tolerance")


def test_criterion_4_product_criterion_and_construction(fermat_quartic):
    h = fermat_quartic
    for mono in monomial_basis(4, 4):
        R = Polynomial.from_monomial(4, mono)
        via_products, _ = monomial_product_criterion(h, R)
        direct = graded_membership(R, h) is not None
        assert via_products == direct
    for nvars in (4, 3):
        n = nvars - 1
        for mono in monomial_basis(nvars, n - 1):
            system = monomial_to_adjoint(nvars, mono)
            extracted = divide_by_fundamental(wedge_all(system.forms))
            M = Polynomial.from_monomial(nvars, mono)
            assert extracted == M or extracted == -M
    announce(4, "product criterion matches ideal membership on all 35 "
                "monomials; constructive systems hit +/-M on 10 + 3 cases")


def _random_form(nvars, grade, coeff_degree, rng, terms=3):
    subsets = list(combinations(range(nvars), grade))
    picked = {}
    for _ in range(terms):
        key = subsets[rng.randrange(len(subsets))]
        poly = random_homogeneous(nvars, coeff_degree, rng, bound=3)
        picked[key] = picked.get(key, Polynomial.zero(nvars)) + poly
    return ExtForm(nvars, grade, {k: p for k, p in picked.items() if not p.is_zero()})


def test_criterion_5_exterior_algebra_invariants():
    rng = random.Random(5_5_5)
    for _ in range(1000):
        nvars = rng.randint(2, 5)
        p = rng.randint(1, nvars - 1)
        q = rng.randint(1, nvars - p)
        a = _random_form(nvars, p, rng.randint(0, 2), rng)
        b = _random_form(nvars, q, rng.randint(0, 2), rng)
        lhs = euler_contract(wedge(a, b))
        second = wedge(a, euler_contract(b)) if b.grade else None
        rhs = wedge(euler_contract(a), b)
        rhs = rhs + (-second if p % 2 else second)
        assert lhs == rhs
    for _ in range(1000):
        nvars = rng.randint(2, 5)
        grade = rng.randint(2, nvars)
        form = _random_form(nvars, grade, rng.randint(0, 2), rng)
        assert euler_contract(euler_contract(form)).is_zero()
    for _ in range(1000):
        nvars = rng.randint(2, 5)
        poly = random_homogeneous(nvars, rng.randint(0, 2), rng)
        assert divide_by_fundamental(
            fundamental_form(nvars).poly_mul(poly)
        ) == poly
    for nvars in (2, 3, 4, 5):
        gauge = ExtForm.zero(nvars, nvars - 2)
        for j in range(nvars):
            gauge = gauge + syzygy_form(nvars, j).poly_mul(
                Polynomial.variable(nvars, j)
            )
        assert gauge.is_zero()
        assert euler_contract(fundamental_form(nvars)).is_zero()
        for i in range(nvars):
            for j in range(i + 1, nvars):
                assert euler_contract(basis_one_form(nvars, i, j)).is_zero()
    announce(5, "derivation law, double contraction, fundamental quotient "
                "(1000 randomized cases each) and the fixed identities, exact")


def test_criterion_6_subsystem_membership_and_gauge(fermat_quartic, bundles_50):
    h = fermat_quartic
    rng = random.Random(66)
    for bundle in bundles_50:
        for row, omega in zip(bundle.coeff_rows, bundle.subsystem):
            cert = graded_membership(omega, h)
            assert cert is not None and cert.verify(h, omega)
            g = Polynomial.constant(4, rng.randint(1, 9))
            shifted_total = Polynomial.zero(4)
            for j, part in enumerate(row):
                shifted = part + Polynomial.variable(4, j) * g
                shifted_total = shifted_total + shifted * h.partials[j]
            assert reduce_mod(h, shifted_total) == omega
    announce(6, "50 bundles: every subsystem polynomial certified in the "
                "ideal; gauge shifts leave the reduction unchanged")


def test_criterion_7_sign_cross_check(fermat_quartic, fermat_quintic, bundles_50):
    assert epsilon_sign(fermat_quartic) == 1
    assert epsilon_sign(fermat_quintic) == -1
    for bundle in bundles_50:
        assert subsystem_sign_check(bundle)
    announce(7, "signs from the closed form (-1)^(n+1) (n=3: +1, n=4: -1); wedge "
                "cross-check exact on all 50 bundles")


def test_criterion_8_lifting_expansion_identity():
    rng = random.Random(888)
    count = 0
    for n in (1, 2, 3, 4):
        for _ in range(50):
            k = n + 1
            rank = k + rng.randint(0, 2)
            sections = [
                tuple(Polynomial.constant(2, rng.randint(-3, 3))
                      for _ in range(rank))
                for _ in range(k)
            ]
            w_idx = rng.randrange(rank)
            place_in_span = count % 2 == 0
            if place_in_span:
                c = rng.choice([1, 2, -1, 3])
                last = [Polynomial.constant(2, 0)] * rank
                last[w_idx] = Polynomial.constant(2, c)
                sections[-1] = tuple(last)
            offsets = []
            for _ in range(k - 1):
                vec = [Polynomial.constant(2, 0)] * rank
                vec[w_idx] = Polynomial.constant(2, rng.randint(-2, 2))
                offsets.append(tuple(vec))
            final = [Polynomial.constant(2, 0)] * rank
            if place_in_span:
                final[w_idx] = Polynomial.constant(2, c if n % 2 == 0 else -c)
            else:
                final[w_idx] = Polynomial.constant(2, rng.randint(-2, 2))
            offsets.append(tuple(final))
            report = relift_expand(sections, offsets)
            assert report.expansion_holds
            if place_in_span:
                assert report.annihilating_pattern is not None
            count += 1
    assert count == 200
    announce(8, "expansion identity exact on 200 instances (n=1..4); sign "
                "search succeeds whenever the wedge is placed in the span")


def test_criterion_9_fixed_divisor_genericity(fermat_quartic):
    h = fermat_quartic
    occurrences = []
    none_count = 0
    for index in range(100):
        rng = trial_rng(900, index)
        while True:
            try:
                system = sample_wsystem(h.nvars, rng, h.field,
                                        provenance=f"census({index})")
                break
            except DependentSystemError:
                continue
        bundle = build_bundle(h, system)
        if bundle.degenerate:
            occurrences.append((index, system.coords, "degenerate"))
            continue
        witness = fixed_divisor_witness(bundle)
        if witness is None:
            none_count += 1
        else:
            occurrences.append((index, system.coords, str(witness)))
    for occurrence in occurrences:
        print(f"  fixed-divisor occurrence: {occurrence}")
    assert none_count >= 95
    announce(9, f"{none_count}/100 sampled systems have no fixed divisor "
                f"({len(occurrences)} logged occurrences)")


GOLDEN_COMMANDS = {name: golden_commands()[name] for name in (
    "golden_torelli.json", "golden_jacobian.json", "golden_adjoint.json")}


def test_criterion_10_cli_determinism():
    for name, argv in GOLDEN_COMMANDS.items():
        expected = (DATA / name).read_bytes()
        runs = []
        for hashseed in ("1", "31337"):
            result = subprocess.run(
                [sys.executable, "-m", "adjtorelli", *argv],
                cwd=DATA, env=subprocess_env(hashseed), capture_output=True,
            )
            assert result.returncode == 0, result.stderr.decode()
            runs.append(result.stdout)
        assert runs[0] == runs[1] == expected
    announce(10, "three golden reports byte-identical across consecutive "
                 "runs and hash seeds")
