"""Seeded input streams and independent oracles for the benchmark.

Nothing here imports the package under test.  Polynomials are plain dicts
{exponent tuple: int coefficient}; the workloads convert them into the
package's own types (or into problem-file text) before handing them over, so
the program only ever sees the generated inputs.

Every stream is a pure function of (seed, index): the same seed gives the
same inputs on every machine and every commit.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from typing import Dict, List, Tuple

Poly = Dict[Tuple[int, ...], int]


def monomials(nvars: int, degree: int) -> List[Tuple[int, ...]]:
    """All exponent tuples of one total degree, in a fixed order."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for v in combo:
            exps[v] += 1
        out.append(tuple(exps))
    return out


def add_into(acc: Poly, poly: Poly) -> None:
    for mono, c in poly.items():
        value = acc.get(mono, 0) + c
        if value:
            acc[mono] = value
        else:
            acc.pop(mono, None)


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            value = out.get(mono, 0) + ca * cb
            if value:
                out[mono] = value
            else:
                out.pop(mono, None)
    return out


def partial(f: Poly, i: int) -> Poly:
    out: Poly = {}
    for mono, c in f.items():
        if mono[i]:
            lowered = list(mono)
            lowered[i] -= 1
            out[tuple(lowered)] = c * mono[i]
    return out


def fermat(nvars: int, degree: int) -> Poly:
    return {tuple(degree if j == i else 0 for j in range(nvars)): 1
            for i in range(nvars)}


def random_dense(rng: random.Random, nvars: int, degree: int, bound: int = 5) -> Poly:
    """Every monomial gets an integer coefficient uniform in [-bound, bound]."""
    poly = {m: rng.randint(-bound, bound) for m in monomials(nvars, degree)}
    return {m: c for m, c in poly.items() if c}


def random_monomial(rng: random.Random, nvars: int, degree: int) -> Poly:
    mono = rng.choice(monomials(nvars, degree))
    return {mono: rng.choice([c for c in range(-9, 10) if c])}


def random_sparse(rng: random.Random, nvars: int, degree: int, terms: int) -> Poly:
    chosen = rng.sample(monomials(nvars, degree), terms)
    return {m: rng.choice([c for c in range(-9, 10) if c]) for m in chosen}


def partials_combination(rng: random.Random, f: Poly, nvars: int) -> Poly:
    """sum_j L_j * dF/dx_j with random nonzero linear forms L_j: always in J."""
    while True:
        total: Poly = {}
        for j in range(nvars):
            linear = {m: rng.randint(-3, 3) for m in monomials(nvars, 1)}
            add_into(total, mul({m: c for m, c in linear.items() if c}, partial(f, j)))
        if total:
            return total


def to_text(poly: Poly) -> str:
    """Problem-file expression for a polynomial with integer coefficients."""
    pieces = []
    for mono in sorted(poly, reverse=True):
        c = poly[mono]
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mono) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        if not pieces:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces) or "0"


# ----- oracles --------------------------------------------------------------


def fermat_in_jacobian(poly: Poly, degree: int, p: int = 0) -> bool:
    """R in J(Fermat) iff every monomial of R has an exponent >= d - 1.

    The Jacobian ideal of sum x_i^d is the monomial ideal (x_i^(d-1)) in any
    characteristic not dividing d.
    """
    return all(max(m) >= degree - 1 for m, c in poly.items() if (c % p if p else c))


def fermat_reduced(poly: Poly, degree: int, p: int = 0) -> Poly:
    """Canonical representative of R modulo J(Fermat): drop the J monomials."""
    out = {}
    for m, c in poly.items():
        c = c % p if p else c
        if c and max(m) < degree - 1:
            out[m] = c
    return out
