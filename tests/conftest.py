import os
import random
from pathlib import Path

import pytest

from adjtorelli.fields import QQ
from adjtorelli.jacobian import Hypersurface
from adjtorelli.polyring import Polynomial, monomial_basis


SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_COMMANDS_FILE = Path(__file__).resolve().parent / "data" / "golden_commands.txt"


def golden_commands():
    """Golden file name -> adjtorelli argv, from tests/data/golden_commands.txt,
    one space-separated line each after the '#' comment lines."""
    commands = {}
    for line in GOLDEN_COMMANDS_FILE.read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            golden, *argv = line.split()
            assert golden not in commands, golden
            commands[golden] = argv
    return commands


def subprocess_env(hashseed):
    """Environment for running ``python -m adjtorelli`` from any directory.

    The checkout's ``src`` goes first on ``PYTHONPATH`` as an absolute path,
    so the subprocess imports this package whatever its working directory and
    whether or not the package is installed; inherited entries follow it.
    """
    inherited = os.environ.get("PYTHONPATH")
    path = str(SRC) if not inherited else os.pathsep.join([str(SRC), inherited])
    return dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)


def x(i, nvars=4, field=QQ):
    return Polynomial.variable(nvars, i, field)


def fermat(nvars, degree, field=QQ):
    return sum(
        (Polynomial.variable(nvars, i, field) ** degree for i in range(nvars)),
        Polynomial.zero(nvars, field),
    )


def random_homogeneous(nvars, degree, rng: random.Random, field=QQ, bound=5):
    terms = {
        m: field.coerce(rng.randint(-bound, bound))
        for m in monomial_basis(nvars, degree)
    }
    return Polynomial(nvars, terms, field)


@pytest.fixture(scope="session")
def fermat_quartic():
    return Hypersurface(fermat(4, 4))


@pytest.fixture(scope="session")
def fermat_quintic():
    return Hypersurface(fermat(5, 5))
