"""Command-line front end.

Four subcommands over a shared problem-file format:

    torelli   evaluate the deformation-triviality equivalences for (F, R)
    jacobian  graded quotient dimensions and ideal membership of R
    adjoint   run the pipeline for one explicit W-system
    macaulay  socle dimension and duality pairings

One driver reads the field and the problem file, runs the command's handler
on (F, R) and emits the report; a handler returns its input extras,
verdicts, certificates and exit code.

Exit codes, mapped from error classes by `_EXITS`: 0 success, 1 input error
(syntax, bad flag, unreadable file), 2 hypothesis violation, 3 internal
inconsistency (an equivalence trial disagreed with ideal membership, or a
pipeline step that cannot fail on valid inputs did).

JSON reports (--json) are emitted with sorted keys and no volatile content,
so identical inputs produce byte-identical output; wall-clock timings
(parse_s, check_s) are opt-in via --timings.  Certificates can be large and
are included only under --certificates, which the three commands that
produce them accept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from . import adjoint as adjoint_mod
from . import jacobian as jacobian_mod
from . import torelli as torelli_mod
from .errors import (DegenerateBundleError, FieldMismatchError, GradeError,
                     HomogeneityError, HypothesisViolationError, NoDecompositionError,
                     NonDivisibleError, NonEulerNullError, NotSmoothError, ParseError,
                     RankOneConditionError, VariableCountMismatchError)
from .fields import field_from_name
from .parsing import load_problem

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_INCONSISTENT = 3

# First match wins; every error class of the package is a ValueError.
_EXITS = (
    ((HypothesisViolationError, NotSmoothError, HomogeneityError),
     EXIT_HYPOTHESIS, "hypothesis violation"),
    ((DegenerateBundleError, FieldMismatchError, GradeError, NoDecompositionError,
      NonDivisibleError, NonEulerNullError, RankOneConditionError,
      VariableCountMismatchError), EXIT_INCONSISTENT, "internal error"),
    ((ValueError, OSError), EXIT_INPUT, "input error"),
)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjtorelli",
        description="Exact adjoint-form and deformation-triviality computations "
                    "on smooth projective hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("file", help="problem file (lines: n = ..., F = ..., R = ...)")
        p.add_argument("--field", default="q",
                       help="coefficient field: q (rationals) or p:PRIME")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report")
        return p

    def certified(p):
        p.add_argument("--certificates", action="store_true",
                       help="include exact certificates in the report")
        return p

    p = certified(command("torelli", "deformation-triviality equivalence suite"))
    p.add_argument("--trials", type=int, default=3, help="generic W trials (default 3)")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")

    p = certified(command("jacobian", "quotient dimensions and membership"))
    p.add_argument("--degree", type=int, default=None,
                   help="graded degree to inspect (default: the degree of F)")

    p = certified(command("adjoint", "pipeline for one explicit W-system"))
    p.add_argument("--w", required=True,
                   help="comma-separated one-form basis pairs, e.g. 01,02,03 or 0-1,0-2,0-3")

    p = command("macaulay", "socle and duality pairing checks")
    p.add_argument("--a", default=None,
                   help="comma-separated pairing degrees (default: all 0..socle)")
    return parser


def _parse_pairs(text: str, nvars: int):
    pairs = []
    for token in text.split(","):
        token = token.strip()
        left, dash, right = token.partition("-")
        if not dash and len(token) == 2:
            left, right = token
        try:
            i, j = int(left), int(right)
        except ValueError:
            raise ParseError(f"--w: cannot read one-form pair {token!r}") from None
        if not 0 <= i < nvars or not 0 <= j < nvars or i == j:
            raise ParseError(f"pair ({i},{j}) out of range for {nvars} coordinates")
        pairs.append((i, j))
    return pairs


def _emit(report: dict, as_json: bool, stream) -> None:
    if as_json:
        stream.write(json.dumps(report, sort_keys=True, indent=2))
        stream.write("\n")
        return
    _emit_human(report, stream)


def _emit_human(report: dict, stream, prefix: str = "") -> None:
    width = max((len(k) for k in report), default=0)
    for key, value in report.items():
        if isinstance(value, dict):
            stream.write(f"{prefix}{key}:\n")
            _emit_human(value, stream, prefix + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            stream.write(f"{prefix}{key}:\n")
            for item in value:
                _emit_human(item, stream, prefix + "  ")
                stream.write(f"{prefix}  --\n")
        else:
            stream.write(f"{prefix}{key.ljust(width)} : {value}\n")


def _cert_parts(cert) -> Optional[list]:
    return None if cert is None else [str(p) for p in cert.parts]


def _trial_certificates(image_cert, adjoint_cert) -> dict:
    """The certificates of one W-system trial, shared by torelli and adjoint."""
    return {
        "image_multipliers":
            [str(p) for p in image_cert.multipliers] if image_cert else None,
        "image_principal": str(image_cert.principal) if image_cert else None,
        "adjoint_membership": _cert_parts(adjoint_cert),
    }


def cmd_torelli(args, F, R):
    if R is None:
        raise ParseError("torelli needs an R = <expr> line in the problem file")
    report = torelli_mod.check(jacobian_mod.Hypersurface(F), R,
                               trials=args.trials, seed=args.seed)
    trials = [
        {
            "trial": o.index,
            "provenance": o.provenance,
            "attempts": o.attempts,
            "degenerate": o.degenerate,
            "fixed_divisor": str(o.divisor_witness) if o.divisor_witness else None,
            "in_image": o.in_image,
            "in_jacobian_ideal": o.in_jacobian,
        }
        for o in report.trials
    ]
    verdicts = {
        "r_in_jacobian_ideal": report.r_in_jacobian,
        "verdict": report.verdict,
        "consistency": report.consistency,
        "reduced_representative": str(report.reduced_representative),
        "trials": trials,
    }
    certificates = {
        "r_membership": _cert_parts(report.r_certificate),
        "trials": [
            {"trial": o.index,
             **_trial_certificates(o.image_certificate, o.jacobian_certificate)}
            for o in report.trials
        ],
    }
    code = EXIT_OK if report.consistency else EXIT_INCONSISTENT
    return {"trials": args.trials, "seed": args.seed}, verdicts, certificates, code


def cmd_jacobian(args, F, R):
    h = jacobian_mod.Hypersurface(F)
    degree = args.degree if args.degree is not None else h.degree
    if degree < 0:
        raise ParseError("--degree must be non-negative")
    dim = jacobian_mod.jacobian_ring_dim(h, degree)
    expected = jacobian_mod.hilbert_expected(h.n, h.degree, degree)
    cert = jacobian_mod.graded_membership(R, h) if R is not None else None
    verdicts = {
        "smooth": True,
        "smooth_witness_dimension": h.smooth_witness,
        "socle_degree": h.socle_degree,
        "degree": degree,
        "quotient_dimension": dim,
        "expected_dimension": expected,
        "r_in_jacobian_ideal": cert is not None if R is not None else None,
    }
    return {"degree": degree}, verdicts, {"r_membership": _cert_parts(cert)}, EXIT_OK


def cmd_adjoint(args, F, R):
    h = jacobian_mod.Hypersurface(F)
    pairs = _parse_pairs(args.w, h.nvars)
    if len(pairs) != h.n:
        raise ParseError(f"--w needs exactly {h.n} pairs, got {len(pairs)}")
    rows = [adjoint_mod.pair_row(h.nvars, i, j) for i, j in pairs]
    system = adjoint_mod.wsystem_from_coords(h.nvars, rows, h.field)
    bundle = adjoint_mod.build_bundle(h, system)
    witness = None if bundle.degenerate else adjoint_mod.fixed_divisor_witness(bundle)
    sub_certs = [jacobian_mod.graded_membership(omega, h) for omega in bundle.subsystem]
    image_cert = adjoint_poly = adjoint_cert = None
    tested = R is not None and not bundle.degenerate
    if tested:
        image_cert = adjoint_mod.image_membership(bundle, R)
        adjoint_poly = adjoint_mod.canonical_adjoint(bundle, R)
        adjoint_cert = jacobian_mod.graded_membership(adjoint_poly, h)
    verdicts = {
        "degenerate": bundle.degenerate,
        "base_polynomial": str(bundle.top_poly),
        "subsystem": [str(p) for p in bundle.subsystem],
        "subsystem_in_jacobian_ideal": [c is not None for c in sub_certs],
        "fixed_divisor": str(witness) if witness else None,
        "canonical_adjoint": str(adjoint_poly) if adjoint_poly is not None else None,
        "in_image": image_cert is not None if tested else None,
        "in_jacobian_ideal": adjoint_cert is not None if tested else None,
    }
    certificates = {
        "subsystem_membership": [_cert_parts(c) for c in sub_certs],
        **_trial_certificates(image_cert, adjoint_cert),
    }
    return {"w": args.w}, verdicts, certificates, EXIT_OK


def cmd_macaulay(args, F, R):
    h = jacobian_mod.Hypersurface(F)
    sigma = h.socle_degree
    if args.a is None:
        degrees = list(range(sigma + 1))
    else:
        degrees = []
        for token in args.a.split(","):
            try:
                degrees.append(int(token))
            except ValueError:
                raise ParseError(f"--a: cannot read degree {token!r}") from None
    pairings = []
    for a in degrees:
        rows = jacobian_mod.pairing_matrix(h, a)
        pairings.append({
            "a": a,
            "left_dimension": len(rows),
            "right_dimension": len(rows[0]) if rows else 0,
            "perfect": jacobian_mod.pairing_is_perfect(rows, h.field),
        })
    verdicts = {
        "socle_degree": sigma,
        "socle_dimension": jacobian_mod.jacobian_ring_dim(h, sigma),
        "pairings": pairings,
    }
    return {}, verdicts, None, EXIT_OK


_HANDLERS = {
    "torelli": cmd_torelli,
    "jacobian": cmd_jacobian,
    "adjoint": cmd_adjoint,
    "macaulay": cmd_macaulay,
}


def _run(args, stream) -> int:
    started = time.perf_counter()
    field = field_from_name(args.field)
    problem = load_problem(args.file)
    F, R = problem.build(field)
    parsed = time.perf_counter()
    extras, verdicts, certificates, code = _HANDLERS[args.command](args, F, R)
    finished = time.perf_counter()
    report = {
        "command": args.command,
        "input": {"file": os.path.basename(args.file), "n": problem.n,
                  "field": args.field, "F": str(F),
                  "R": str(R) if R is not None else None, **extras},
        "verdicts": verdicts,
    }
    if getattr(args, "certificates", False):
        report["certificates"] = certificates
    if args.timings:
        report["timings"] = {
            "parse_s": round(parsed - started, 6),
            "check_s": round(finished - parsed, 6),
        }
    _emit(report, args.json, stream)
    return code


def main(argv=None, stream=None) -> int:
    stream = stream or sys.stdout
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return _run(args, stream)
    except (ValueError, OSError) as exc:
        code, label = next((code, label) for classes, code, label in _EXITS
                           if isinstance(exc, classes))
        sys.stderr.write(f"{label}: {exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
