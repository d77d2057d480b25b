"""Equivalence checker for triviality of infinitesimal deformations.

For a smooth hypersurface of degree d > 3 in projective dimension n >= 3 and
a degree-d polynomial R, four conditions are equivalent: vanishing of the
period-map differential on the class of R, membership of R in the Jacobian
ideal, image membership of the canonical adjoint P*R for generic W-systems,
and membership of P*R itself in the Jacobian ideal.  The first is imported
from the literature as documentation of the second; the remaining three are
decided here, each yes with an exact certificate.

Any disagreement between the ideal membership of R and a non-degenerate
trial is a theorem violation, i.e. an implementation bug, and is surfaced
as consistency=False rather than averaged away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .adjoint import (
    canonical_adjoint,
    fixed_divisor_witness,
    image_membership,
    sample_bundle,
)
from .errors import HomogeneityError, HypothesisViolationError
from .jacobian import (
    Hypersurface,
    MembershipCertificate,
    deformation_class,
    graded_membership,
)
from .polyring import Polynomial, monomial_basis

TRIVIAL = "trivial-deformation"
NONTRIVIAL = "nontrivial-deformation"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class TrialOutcome:
    """One generic-W trial of the adjoint-side conditions."""

    index: int
    provenance: str
    attempts: int
    degenerate: bool
    divisor_witness: Optional[Polynomial]
    in_image: Optional[bool]
    image_certificate: Optional[object]
    in_jacobian: Optional[bool]
    jacobian_certificate: Optional[MembershipCertificate]
    base_poly: Optional[Polynomial]
    adjoint_poly: Optional[Polynomial]


@dataclass(frozen=True)
class TorelliReport:
    """Verdicts for one (hypersurface, R) pair with full trial data."""

    r_in_jacobian: bool
    r_certificate: Optional[MembershipCertificate]
    reduced_representative: Polynomial
    trials: Tuple[TrialOutcome, ...]
    verdict: str
    consistency: bool
    seed: int
    trials_requested: int


def _validate(h: Hypersurface, R: Polynomial):
    if h.n < 3:
        raise HypothesisViolationError(
            f"projective dimension must be at least 3, got n = {h.n}"
        )
    if h.degree <= 3:
        raise HypothesisViolationError(
            f"hypersurface degree must exceed 3, got d = {h.degree}"
        )
    h._check_deformation(R)
    if R.is_zero():
        raise HomogeneityError(
            f"deformation polynomial must be homogeneous of degree {h.degree}"
        )


def check(h: Hypersurface, R: Polynomial, trials: int = 3, seed: int = 0) -> TorelliReport:
    """Evaluate the equivalent triviality conditions for (h, R).

    Ideal membership of R is decided once, by reducing R to its canonical
    representative (zero exactly for members); the adjoint-side conditions are
    evaluated on `trials` independently sampled W-systems.  The whole run is
    deterministic in (h, R, trials, seed).
    """
    _validate(h, R)
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    r_class = deformation_class(h, R)
    r_in_jacobian = r_class.representative.is_zero()
    r_certificate = r_class.certificate if r_in_jacobian else None
    outcomes = []
    for t in range(trials):
        bundle, attempts = sample_bundle(h, seed, t)
        witness = None if bundle.degenerate else fixed_divisor_witness(bundle)
        usable = not bundle.degenerate and witness is None
        image_cert = adjoint_poly = jac_cert = None
        if usable:
            image_cert = image_membership(bundle, R)
            adjoint_poly = canonical_adjoint(bundle, R)
            jac_cert = graded_membership(adjoint_poly, h)
        outcomes.append(TrialOutcome(
            index=t,
            provenance=bundle.system.provenance,
            attempts=attempts,
            degenerate=not usable,
            divisor_witness=witness,
            in_image=image_cert is not None if usable else None,
            image_certificate=image_cert,
            in_jacobian=jac_cert is not None if usable else None,
            jacobian_certificate=jac_cert,
            base_poly=bundle.top_poly if usable else None,
            adjoint_poly=adjoint_poly,
        ))
    usable = [o for o in outcomes if not o.degenerate]
    consistency = all(
        o.in_image == r_in_jacobian and o.in_jacobian == r_in_jacobian
        for o in usable
    )
    if not usable:
        verdict = INDETERMINATE
    else:
        verdict = TRIVIAL if r_in_jacobian else NONTRIVIAL
    return TorelliReport(
        r_in_jacobian=r_in_jacobian,
        r_certificate=r_certificate,
        reduced_representative=r_class.representative,
        trials=tuple(outcomes),
        verdict=verdict,
        consistency=consistency,
        seed=seed,
        trials_requested=trials,
    )


def monomial_product_criterion(h: Hypersurface, R: Polynomial):
    """Triviality via products with every degree n-1 monomial.

    Returns (True, None) when R * M lies in the Jacobian ideal for every
    monomial M of degree n-1, else (False, M) with the first failing
    monomial in canonical order.  Each such monomial arises as the base
    polynomial of an explicit adjoint system (see monomial_to_adjoint), and
    the result always agrees with plain ideal membership of R.
    """
    if h.degree <= 3:
        raise HypothesisViolationError(
            f"criterion needs hypersurface degree > 3, got d = {h.degree}"
        )
    h._check_deformation(R)
    if R.is_zero():
        raise HomogeneityError(
            f"deformation polynomial must be homogeneous of degree {h.degree}"
        )
    for mono in monomial_basis(h.nvars, h.n - 1):
        if graded_membership(R.mul_monomial(mono), h) is None:
            return False, mono
    return True, None
