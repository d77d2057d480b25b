import random

import pytest

from adjtorelli.errors import HomogeneityError, HypothesisViolationError
from adjtorelli.fields import QQ, PrimeField
from adjtorelli.jacobian import Hypersurface, graded_membership
from adjtorelli.polyring import Polynomial, monomial_basis
from adjtorelli.torelli import (
    NONTRIVIAL,
    TRIVIAL,
    check,
    monomial_product_criterion,
)

from conftest import fermat, x


def test_ideal_r_is_trivial_on_every_trial(fermat_quartic):
    report = check(fermat_quartic, x(0) ** 3 * x(1), trials=3, seed=0)
    assert report.verdict == TRIVIAL
    assert report.r_in_jacobian
    assert report.consistency
    for trial in report.trials:
        assert not trial.degenerate
        assert trial.in_image and trial.in_jacobian
        assert trial.image_certificate.verify is not None


def test_nonideal_r_is_nontrivial_on_every_trial(fermat_quartic):
    report = check(fermat_quartic, x(0) * x(1) * x(2) * x(3), trials=3, seed=0)
    assert report.verdict == NONTRIVIAL
    assert not report.r_in_jacobian
    assert report.consistency
    for trial in report.trials:
        assert trial.in_image is False
        assert trial.in_jacobian is False


def test_r_equals_f_is_trivial(fermat_quartic):
    report = check(fermat_quartic, fermat_quartic.poly, trials=2, seed=7)
    assert report.verdict == TRIVIAL
    assert report.consistency
    assert report.reduced_representative.is_zero()


def test_rejects_low_dimension():
    surface = Hypersurface(fermat(3, 4))  # n = 2
    with pytest.raises(HypothesisViolationError, match="dimension"):
        check(surface, fermat(3, 4))


def test_rejects_low_degree():
    cubic = Hypersurface(fermat(4, 3))
    with pytest.raises(HypothesisViolationError, match="degree"):
        check(cubic, fermat(4, 3))


def test_rejects_wrong_r_degree(fermat_quartic):
    with pytest.raises(HomogeneityError):
        check(fermat_quartic, x(0) ** 3)


def test_report_is_deterministic(fermat_quartic):
    R = x(0) ** 2 * x(1) * x(2)
    first = check(fermat_quartic, R, trials=3, seed=11)
    second = check(fermat_quartic, R, trials=3, seed=11)
    assert first == second


def test_product_criterion_witness(fermat_quartic):
    ok, witness = monomial_product_criterion(
        fermat_quartic, x(0) * x(1) * x(2) * x(3)
    )
    assert not ok
    assert witness == (1, 1, 0, 0)


def test_product_criterion_accepts_ideal_member(fermat_quartic):
    ok, witness = monomial_product_criterion(fermat_quartic, x(0) ** 3 * x(1))
    assert ok and witness is None


def test_product_criterion_on_f(fermat_quartic):
    ok, _ = monomial_product_criterion(fermat_quartic, fermat_quartic.poly)
    assert ok


def test_product_criterion_matches_membership_exhaustively(fermat_quartic):
    h = fermat_quartic
    for mono in monomial_basis(4, 4):
        R = Polynomial.from_monomial(4, mono)
        direct = graded_membership(R, h) is not None
        via_products, _ = monomial_product_criterion(h, R)
        assert direct == via_products


def test_product_criterion_matches_membership_on_quintic(fermat_quintic):
    h = fermat_quintic
    rng = random.Random(505)
    monos = monomial_basis(5, 5)
    for _ in range(50):
        mono = monos[rng.randrange(len(monos))]
        R = Polynomial.from_monomial(5, mono)
        direct = graded_membership(R, h) is not None
        via_products, _ = monomial_product_criterion(h, R)
        assert direct == via_products


def test_fixed_divisor_gcd_runs_once_per_bundle(monkeypatch):
    from adjtorelli import adjoint

    h = Hypersurface(fermat(4, 4))  # a cold bundle cache
    gcd_calls = []
    built = []
    gcd_many, build_bundle = adjoint.gcd_many, adjoint.build_bundle

    def counted_gcd(polys):
        gcd_calls.append(1)
        return gcd_many(polys)

    def recorded_build(h, system):
        bundle = build_bundle(h, system)
        built.append(bundle)
        return bundle

    monkeypatch.setattr(adjoint, "gcd_many", counted_gcd)
    monkeypatch.setattr(adjoint, "build_bundle", recorded_build)
    R = x(0) * x(1) * x(2) * x(3)
    report = check(h, R, trials=3, seed=0)
    assert len(report.trials) == 3
    assert len(built) >= 3 and not any(b.degenerate for b in built)
    assert len(gcd_calls) == len(built)
    # the second run on h takes every bundle from its cache
    built.clear()
    gcd_calls.clear()
    assert check(h, R, trials=3, seed=0) == report
    assert built == [] and gcd_calls == []


@pytest.mark.parametrize("field, exponents", [
    (QQ, (3, 1, 0, 0)),             # R in J
    (QQ, (1, 1, 1, 1)),             # R outside J
    (PrimeField(7), (1, 1, 1, 1)),
])
def test_warm_and_cold_hypersurfaces_give_equal_reports(field, exponents):
    R = Polynomial(4, {exponents: field.coerce(1)}, field)
    h = Hypersurface(fermat(4, 4, field))
    cold = check(h, R, trials=3, seed=2)
    assert len(h._bundles) == 3
    assert check(h, R, trials=3, seed=2) == cold
