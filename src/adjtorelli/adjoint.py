"""The adjoint-form pipeline on a smooth hypersurface.

A run starts from n independent Euler-null one-forms with linear
coefficients (a W-system).  Each form has a coordinate row over the
basis_one_form basis and is built as one Euler contraction iota_E(alpha) of
the constant 2-form alpha with that row.  From it we compute:

* the n partial wedges omitting one form, then the top wedge of all n forms
  as the last partial wedge times the last form, and its base polynomial P
  of degree n-1 (the top wedge equals P times the fundamental form);
* the partial wedges' decompositions over the syzygy forms, and the degree
  n+d-3 subsystem polynomials
  omega_i = sum_j A[i][j] * dF/dx_j, reduced modulo F;
* for a degree-d polynomial R, the canonical adjoint P*R and the image
  membership test deciding whether P*R lies in the span of the subsystem
  polynomials times degree-2 multipliers, modulo F, with exact multiplier
  certificates.  The span lies in the Jacobian ideal, so over GF(p) a P*R
  outside the ideal is a no before it is built.  It depends on the bundle
  alone, so its generators and solve echelons are kept on the bundle.

Reducing modulo F is division by F (polyring.poly_divmod): {F} is a
Groebner basis of (F), so the remainder is the unique representative.

The subsystem polynomials always land in the Jacobian ideal, and the wedge
of the i-th partial wedge with dF reproduces epsilon * omega_i times the
fundamental form modulo F for one global sign epsilon = (-1)^(n+1);
epsilon_sign returns that closed form and subsystem_sign_check, the
cross-check, is exposed for tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from dataclasses import field as dataclass_field
from itertools import combinations
from typing import Optional, Tuple

from .errors import (
    DegenerateBundleError,
    DependentSystemError,
    FieldMismatchError,
    HomogeneityError,
    HypothesisViolationError,
    VariableCountMismatchError,
)
from .exactla import Span, rref, solve_in_span
from .extforms import (
    ExtForm,
    divide_by_fundamental,
    euler_contract,
    fundamental_form,
    syzygy_decompose,
    wedge,
    wedge_all,
)
from .fields import QQ
from .jacobian import Hypersurface, _poly_vector, reduce_mod
from .polyring import (
    Monomial,
    Polynomial,
    basis_index,
    gcd_many,
    monomial_basis,
    slot_polynomials,
)

COEFFICIENT_RANGE = 5  # sampled coordinates are uniform in [-5, 5]
MAX_RESAMPLES = 10
MAX_CACHED_BUNDLES = 64  # sampled bundles kept per hypersurface, oldest evicted


def eta_basis_pairs(nvars: int) -> Tuple[Tuple[int, int], ...]:
    """Index pairs (i, j), i < j, of the Euler-null linear one-form basis."""
    return tuple(combinations(range(nvars), 2))


@dataclass(frozen=True)
class WSystem:
    """n independent Euler-null one-forms with linear coefficients."""

    forms: Tuple[ExtForm, ...]
    coords: Tuple[Tuple, ...]  # rows over eta_basis_pairs order
    provenance: str

    @property
    def nvars(self) -> int:
        return self.forms[0].nvars

    @property
    def field(self):
        return self.forms[0].field


def pair_row(nvars: int, a: int, b: int) -> Tuple[int, ...]:
    """Coordinates of x_a dx_b - x_b dx_a: +-1 at the pair's index over
    eta_basis_pairs, negative when a > b."""
    pair, sign = ((a, b), 1) if a < b else ((b, a), -1)
    return tuple(sign if p == pair else 0 for p in eta_basis_pairs(nvars))


def wsystem_from_coords(nvars: int, rows, field=QQ, provenance: str = "explicit") -> WSystem:
    """The W-system whose forms have the given coordinate rows over
    eta_basis_pairs; the rows must be n independent vectors."""
    pairs = eta_basis_pairs(nvars)
    coords = []
    for row in rows:
        if len(row) != len(pairs):
            raise ValueError(f"expected {len(pairs)} coordinates per form")
        coords.append(tuple(field.coerce(c) for c in row))
    if not coords:
        raise ValueError("empty system")
    if len(coords) != nvars - 1:
        raise DependentSystemError(f"need exactly {nvars - 1} one-forms, got {len(coords)}")
    _, _, matrix_rank = rref(coords, field)
    if matrix_rank != len(coords):
        raise DependentSystemError("one-forms are linearly dependent")
    forms = tuple(
        euler_contract(ExtForm(nvars, 2, {
            pair: Polynomial.constant(nvars, c, field) for c, pair in zip(row, pairs)
        }, field))
        for row in coords
    )
    return WSystem(forms, tuple(coords), provenance)


def sample_wsystem(nvars: int, rng: random.Random, field=QQ,
                   provenance: str = "sampled") -> WSystem:
    """Draw one W-system with coordinates uniform in the integer box.

    May raise DependentSystemError; callers resample on a fresh draw from
    the same stream.
    """
    pairs = eta_basis_pairs(nvars)
    rows = [
        [rng.randint(-COEFFICIENT_RANGE, COEFFICIENT_RANGE) for _ in pairs]
        for _ in range(nvars - 1)
    ]
    return wsystem_from_coords(nvars, rows, field, provenance)


@dataclass(frozen=True)
class AdjointBundle:
    """Everything one W-system determines on a fixed hypersurface."""

    hypersurface: Hypersurface
    system: WSystem
    top_form: ExtForm                     # wedge of all n forms, grade n
    top_poly: Polynomial                  # P with top_form == P * fundamental
    omit_forms: Tuple[ExtForm, ...]       # wedge omitting the i-th form
    coeff_rows: Tuple[Tuple[Polynomial, ...], ...]  # syzygy decompositions
    subsystem: Tuple[Polynomial, ...]     # omega_i reduced modulo F
    degenerate: bool                      # top_poly == 0
    fixed_divisor: Optional[Polynomial]   # nonconstant gcd of the subsystem
    # (Span, labels) of the image generators once image_membership has built
    # them; shared by every copy sample_bundle returns, left out of == and repr
    image_span: list = dataclass_field(default_factory=list, compare=False, repr=False)


def build_bundle(h: Hypersurface, system: WSystem) -> AdjointBundle:
    """Run the pipeline for one W-system.

    Requires degree > 2 (which makes the one-form liftings unique) and
    n >= 2.  The degenerate flag is set when the base polynomial vanishes;
    the subsystem is still populated but callers should resample.  Otherwise,
    unless every subsystem polynomial vanishes, the subsystem's gcd is taken
    here, once, and kept when it is nonconstant.
    """
    if h.degree <= 2:
        raise HypothesisViolationError("pipeline needs hypersurface degree > 2")
    if h.n < 2:
        raise HypothesisViolationError("pipeline needs projective dimension >= 2")
    if system.nvars != h.nvars:
        raise VariableCountMismatchError("system and hypersurface disagree on n")
    if system.field != h.field:
        raise FieldMismatchError("system and hypersurface over different fields")
    forms = system.forms
    omit_forms = tuple(
        wedge_all([f for t, f in enumerate(forms) if t != i])
        for i in range(len(forms))
    )
    # wedge_all is a left fold, so this is wedge_all(forms) without redoing it
    top_form = wedge(omit_forms[-1], forms[-1])
    top_poly = divide_by_fundamental(top_form)
    coeff_rows = tuple(syzygy_decompose(w) for w in omit_forms)
    subsystem = []
    for row in coeff_rows:
        total = Polynomial.zero(h.nvars, h.field)
        for a, partial in zip(row, h.partials):
            total = total + a * partial
        subsystem.append(reduce_mod(h, total))
    degenerate = top_poly.is_zero()
    fixed_divisor = None
    if not degenerate and any(subsystem):
        g = gcd_many(subsystem)
        fixed_divisor = g if g.total_degree() else None
    return AdjointBundle(
        hypersurface=h,
        system=system,
        top_form=top_form,
        top_poly=top_poly,
        omit_forms=omit_forms,
        coeff_rows=coeff_rows,
        subsystem=tuple(subsystem),
        degenerate=degenerate,
        fixed_divisor=fixed_divisor,
    )


def canonical_adjoint(bundle: AdjointBundle, R: Polynomial) -> Polynomial:
    """reduce_mod(P * R): the canonical adjoint polynomial of degree n+d-1."""
    h = bundle.hypersurface
    h._check_deformation(R)
    return reduce_mod(h, bundle.top_poly * R)


@dataclass(frozen=True)
class ImageCertificate:
    """P*R == sum_i multipliers[i] * omega_i + principal * F, exactly."""

    multipliers: Tuple[Polynomial, ...]   # degree-2 polynomials, one per omega_i
    principal: Polynomial                 # degree n-1, the multiplier of F

    def verify(self, bundle: AdjointBundle, R: Polynomial) -> bool:
        h = bundle.hypersurface
        total = self.principal * h.poly
        for s, omega in zip(self.multipliers, bundle.subsystem):
            total = total + s * omega
        return total == bundle.top_poly * R


def image_membership(bundle: AdjointBundle, R: Polynomial) -> Optional[ImageCertificate]:
    """Decide P*R in span{m * omega_i : deg m = 2} modulo F.

    Returns the degree-2 multiplier certificate on success, None otherwise.
    The span lies in J (F does, by Euler's identity), so over GF(p) P*R outside
    J is a no, read off h's cached ideal piece before any span is built (R is
    not tested); otherwise one solve in the span of the m * omega_i and m * F,
    decided modulo primes over Q, answers, for a multiple of F too.
    """
    if bundle.degenerate:
        raise DegenerateBundleError("cannot test image membership: base polynomial is 0")
    h = bundle.hypersurface
    h._check_deformation(R)
    n, nvars, field = h.n, h.nvars, h.field
    adjoint = bundle.top_poly * R
    k = n + h.degree - 1
    if field.characteristic and h.ideal_piece(k).echelon.reduce(_poly_vector(adjoint, k))[0]:
        return None
    span, labels = _image_span(bundle)
    index = basis_index(nvars, k)
    target = [field.zero] * span.dim
    for mono, c in adjoint.terms.items():
        target[index[mono]] = c
    cert = solve_in_span(target, span)
    if cert is None:
        return None
    *multipliers, principal = slot_polynomials(
        zip(labels, cert.coefficients), n + 1, nvars, field
    )
    return ImageCertificate(tuple(multipliers), principal)


def _image_span(bundle: AdjointBundle):
    """The Span of m * omega_i (deg m = 2) and m * F (deg m = n-1) inside
    S_(n+d-1), from sparse rows, with a (slot, monomial) label per
    generator; built by the first call and kept in bundle.image_span."""
    if not bundle.image_span:
        h = bundle.hypersurface
        index = basis_index(h.nvars, h.n + h.degree - 1)
        slots = [(omega, 2) for omega in bundle.subsystem] + [(h.poly, h.n - 1)]
        labels = []
        rows = []
        for slot, (poly, shift) in enumerate(slots):
            for mono in monomial_basis(h.nvars, shift):
                labels.append((slot, mono))
                rows.append({index[m]: c for m, c in poly.mul_monomial(mono).terms.items()})
        bundle.image_span.append((Span(rows, len(index), h.field), tuple(labels)))
    return bundle.image_span[0]


def monomial_to_adjoint(nvars: int, mono: Monomial, field=QQ) -> WSystem:
    """One-forms whose top wedge extracts the given degree n-1 monomial.

    Recursive construction: pick a coordinate absent from the monomial and
    one dividing it, solve the smaller problem in the coordinates without
    the absent one, then append the one-form pairing those two coordinates.
    The extracted base polynomial equals the monomial up to sign.
    """
    n = nvars - 1
    if n < 2:
        raise HypothesisViolationError("construction needs projective dimension >= 2")
    mono = tuple(mono)
    if len(mono) != nvars or sum(mono) != n - 1:
        raise HomogeneityError(
            f"need a degree {n - 1} monomial in {nvars} variables"
        )

    def rec(active, counts):
        if len(active) == 3:
            a = next(v for v in active if counts[v])
            rest = [v for v in active if v != a]
            return [(a, rest[0]), (a, rest[1])]
        absent = next(v for v in active if not counts[v])
        j = next(v for v in active if counts[v])
        lowered = dict(counts)
        lowered[j] -= 1
        pairs = rec(tuple(v for v in active if v != absent), lowered)
        pairs.append((j, absent))
        return pairs

    counts = {i: e for i, e in enumerate(mono)}
    rows = [pair_row(nvars, a, b) for a, b in rec(tuple(range(nvars)), counts)]
    return wsystem_from_coords(nvars, rows, field)


def fixed_divisor_witness(bundle: AdjointBundle) -> Optional[Polynomial]:
    """A nonconstant common divisor of the subsystem polynomials, if any.

    build_bundle computes it by iterated multivariate gcd over the field.
    None certifies that the subsystem has no common polynomial factor, hence
    cuts no fixed divisor out of the hypersurface.
    """
    if bundle.degenerate:
        raise DegenerateBundleError("no divisor data on a degenerate bundle")
    if not any(bundle.subsystem):
        raise DegenerateBundleError("all subsystem polynomials vanish")
    return bundle.fixed_divisor


def gradient_form(h: Hypersurface) -> ExtForm:
    """dF = sum_j (dF/dx_j) dx_j as a grade-1 form."""
    return ExtForm(
        h.nvars, 1,
        {(j,): h.partials[j] for j in range(h.nvars) if not h.partials[j].is_zero()},
        h.field,
    )


def epsilon_sign(h: Hypersurface) -> int:
    """The global sign with syzygy_form(j) ^ dF == sign * F_j * fundamental
    modulo F for every j: the closed form (-1)^nvars."""
    return (-1) ** h.nvars


def subsystem_sign_check(bundle: AdjointBundle) -> bool:
    """omega-free cross-check: omit_forms[i] ^ dF == eps * omega_i * fundamental
    modulo F for every i."""
    h = bundle.hypersurface
    eps = epsilon_sign(h)
    psi = fundamental_form(h.nvars, h.field)
    df = gradient_form(h)
    for omit, omega in zip(bundle.omit_forms, bundle.subsystem):
        delta = wedge(omit, df) - psi.poly_mul(omega).scale(eps)
        for poly in delta.terms.values():
            if not reduce_mod(h, poly).is_zero():
                return False
    return True


def trial_rng(seed: int, trial: int) -> random.Random:
    """Deterministic PRNG stream keyed only by (seed, trial index)."""
    return random.Random(seed * 1_000_003 + trial)


def sample_bundle(h: Hypersurface, seed: int, trial: int):
    """Sample W-systems until the bundle is usable, with a resample cap.

    A draw is rejected when the forms are dependent, the base polynomial
    vanishes, or the subsystem has a common divisor.  Returns the accepted
    bundle and the number of attempts consumed; after the cap the last
    buildable bundle is returned and callers must inspect it.

    The bundle depends only on (F, seed, trial), so each (seed, trial) is
    sampled once per hypersurface: the result is kept on h, without its
    hypersurface field so that h is still freed by reference counting, and a
    later call returns an equal bundle around h with the same attempt count.
    At most MAX_CACHED_BUNDLES entries are kept; the oldest goes first.
    """
    key = (seed, trial)
    entry = h._bundles.get(key)
    if entry is None:
        bundle, attempts = _resample(h, seed, trial)
        if len(h._bundles) >= MAX_CACHED_BUNDLES:
            h._bundles.pop(next(iter(h._bundles)), None)
        kept = tuple(getattr(bundle, f.name) for f in fields(AdjointBundle)[1:])
        entry = h._bundles[key] = kept, attempts
    kept, attempts = entry
    return AdjointBundle(h, *kept), attempts


def _resample(h: Hypersurface, seed: int, trial: int):
    rng = trial_rng(seed, trial)
    last = None
    for attempt in range(MAX_RESAMPLES + 1):
        provenance = f"sampled(seed={seed}, trial={trial}, attempt={attempt})"
        try:
            system = sample_wsystem(h.nvars, rng, h.field, provenance)
        except DependentSystemError:
            continue
        last = bundle = build_bundle(h, system)
        if not bundle.degenerate and fixed_divisor_witness(bundle) is None:
            return bundle, attempt + 1
    if last is None:
        raise DependentSystemError(
            f"no independent system found in {MAX_RESAMPLES + 1} draws"
        )
    return last, MAX_RESAMPLES + 1
