import inspect
import io
import json
import random
import signal
import subprocess
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjtorelli import cli, errors, torelli
from adjtorelli.cli import main
from adjtorelli.errors import ParseError
from adjtorelli.parsing import (
    MAX_NESTING,
    parse_polynomial,
    parse_problem_text,
)
from adjtorelli.polyring import MAX_COEFF_BITS, MAX_PIECE_DIM, Polynomial

from conftest import fermat, random_homogeneous, subprocess_env, x

DATA = Path(__file__).parent / "data"


# ----- expression parsing ---------------------------------------------------

def test_parse_fermat_quartic():
    assert parse_polynomial("x0^4 + x1^4 + x2^4 + x3^4", 4) == fermat(4, 4)


def test_parse_monomial_product():
    assert parse_polynomial("x0*x1*x2*x3", 4) == \
        Polynomial.from_monomial(4, (1, 1, 1, 1))


def test_parse_rational_coefficients():
    from fractions import Fraction
    assert parse_polynomial("1/2*x0 - 3*x1", 2) == \
        x(0, 2) * Fraction(1, 2) - 3 * x(1, 2)


def test_parse_parentheses_and_unary_minus():
    assert parse_polynomial("-(x0 - x1)^2", 2) == \
        -(x(0, 2) - x(1, 2)) ** 2


def test_parse_requires_homogeneous_when_asked():
    with pytest.raises(ParseError, match="homogeneous"):
        parse_polynomial("x0 + x1^2", 2, require_homogeneous=True)


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_polynomial("2x0", 2)


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError, match="x9"):
        parse_polynomial("x9 + x0", 2)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x0 + ^", 2)
    assert info.value.column == 6


def test_parse_bounds_parenthesis_nesting():
    nested = "(" * MAX_NESTING + "x0" + ")" * MAX_NESTING
    assert parse_polynomial(nested, 2) == x(0, 2)
    with pytest.raises(ParseError, match="nested deeper") as info:
        parse_polynomial("(" * 3000 + "x0" + ")" * 3000, 2)
    assert info.value.column == MAX_NESTING + 1


def test_parse_rejects_division_by_variable():
    with pytest.raises(ParseError):
        parse_polynomial("x0/2", 2)


def test_print_parse_roundtrip_on_randoms():
    rng = random.Random(1234)
    for _ in range(25):
        degree = rng.randint(0, 4)
        p = random_homogeneous(4, degree, rng)
        assert parse_polynomial(str(p), 4) == p
    mixed = x(0) ** 3 - x(1) * x(2) * x(3) + 2 * x(2) ** 3
    assert parse_polynomial(str(mixed), 4) == mixed


# ----- problem files ----------------------------------------------------------

def test_parse_problem_file():
    problem = parse_problem_text(
        "# comment\nn = 3\nF = x0^4 + x1^4 + x2^4 + x3^4\nR = x0*x1*x2*x3\n"
    )
    assert problem.n == 3 and problem.nvars == 4
    F, R = problem.build()
    assert F == fermat(4, 4)
    assert R == Polynomial.from_monomial(4, (1, 1, 1, 1))


def test_problem_file_requires_f():
    with pytest.raises(ParseError, match="missing 'F"):
        parse_problem_text("n = 3\n")


def test_problem_file_rejects_unknown_key():
    with pytest.raises(ParseError, match="unknown key"):
        parse_problem_text("n = 3\nF = x0^4\nQ = x1\n")


def test_problem_file_errors_name_the_line_of_f_and_r():
    with pytest.raises(ParseError) as info:
        parse_problem_text("n = 3\nF = x0^4 + x1\n").build()
    assert info.value.line == 2
    assert "(line 2, column 5)" in str(info.value)  # where the value starts
    with pytest.raises(ParseError) as info:
        parse_problem_text("n = 3\n\nF = x0^4 + x1^4 + x2^4 + x3^4\nR = x0 + ^\n").build()
    assert info.value.line == 4
    # columns count from the start of the line, not of the value
    with pytest.raises(ParseError) as info:
        parse_problem_text("n = 3\nF = x0^4 + x1^4 + x2^4 + x3^4\nR = x0^4 + ^\n").build()
    assert (info.value.line, info.value.column) == (3, 12)


def test_problem_file_rejects_duplicates():
    with pytest.raises(ParseError, match="duplicate"):
        parse_problem_text("n = 1\nn = 2\nF = x0^2\n")


# ----- command drivers ----------------------------------------------------------

class Capture:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)

    @property
    def text(self):
        return "".join(self.chunks)


def run_cli(*argv):
    out = Capture()
    code = main(list(argv), stream=out)
    return code, out.text


def test_torelli_command_verdict():
    code, text = run_cli(
        "torelli", str(DATA / "fermat4.prob"), "--trials", "3", "--seed", "0",
        "--json",
    )
    assert code == 0
    report = json.loads(text)
    assert report["verdicts"]["verdict"] == "nontrivial-deformation"
    assert report["verdicts"]["consistency"] is True
    assert len(report["verdicts"]["trials"]) == 3


def test_jacobian_command_dimension():
    code, text = run_cli(
        "jacobian", str(DATA / "fermat4.prob"), "--degree", "4", "--json",
    )
    assert code == 0
    report = json.loads(text)
    assert report["verdicts"]["quotient_dimension"] == 19
    assert report["verdicts"]["expected_dimension"] == 19


def test_adjoint_command_pipeline():
    code, text = run_cli(
        "adjoint", str(DATA / "fermat4.prob"), "--w", "01,02,03", "--json",
    )
    assert code == 0
    report = json.loads(text)
    assert report["verdicts"]["base_polynomial"] == "x0^2"
    assert report["verdicts"]["subsystem_in_jacobian_ideal"] == [True, True, True]
    # reversed pairs negate every form: the base polynomial flips sign and
    # the subsystem, a wedge of two of the three forms, stays the same
    for w in ("10,20,30", "1-0,2-0,3-0"):
        code, text = run_cli("adjoint", str(DATA / "fermat4.prob"), "--w", w, "--json")
        assert code == 0
        reversed_report = json.loads(text)
        assert reversed_report["verdicts"]["base_polynomial"] == "-x0^2"
        assert (reversed_report["verdicts"]["subsystem"]
                == report["verdicts"]["subsystem"])


def test_macaulay_command(tmp_path):
    code, text = run_cli(
        "macaulay", str(DATA / "fermat4.prob"), "--a", "0,2,4", "--json",
    )
    assert code == 0
    report = json.loads(text)
    assert report["verdicts"]["socle_dimension"] == 1
    assert all(p["perfect"] for p in report["verdicts"]["pairings"])


def test_certificates_flag_includes_multipliers():
    code, text = run_cli(
        "torelli", str(DATA / "fermat4.prob"), "--json", "--certificates",
    )
    assert code == 0
    report = json.loads(text)
    assert "certificates" in report
    assert report["certificates"]["r_membership"] is None  # R not in the ideal


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("n = 3\nF = x0^4 +\n")
    code, _ = run_cli("jacobian", str(bad))
    assert code == 1
    code, _ = run_cli("torelli", str(DATA / "fermat4.prob"), "--trials", "-2")
    assert code == 1
    code, _ = run_cli("macaulay", str(DATA / "fermat4.prob"), "--certificates")
    assert code == 1
    capsys.readouterr()
    # a flag error names no source position
    code, _ = run_cli("jacobian", str(DATA / "fermat4.prob"), "--degree", "-1")
    assert code == 1
    assert capsys.readouterr().err == "input error: --degree must be non-negative\n"
    # a non-numeric flag value names the flag and the token
    code, _ = run_cli("adjoint", str(DATA / "fermat4.prob"), "--w", "a-1,02,03")
    assert code == 1
    assert capsys.readouterr().err == "input error: --w: cannot read one-form pair 'a-1'\n"
    code, _ = run_cli("macaulay", str(DATA / "fermat4.prob"), "--a", "x")
    assert code == 1
    assert capsys.readouterr().err == "input error: --a: cannot read degree 'x'\n"
    code, _ = run_cli("jacobian", str(DATA / "fermat4.prob"), "--field", "p:abc")
    assert code == 1
    assert capsys.readouterr().err == "input error: unknown field descriptor 'p:abc'\n"


class CpuLimitExceeded(Exception):
    """Not a ValueError or OSError, so cli.main lets it through."""


@contextmanager
def cpu_limit(seconds):
    """Raise CpuLimitExceeded once the process has spent ``seconds`` more CPU."""
    def expire(signum, frame):
        raise CpuLimitExceeded(f"more than {seconds} s of CPU")
    previous = signal.signal(signal.SIGVTALRM, expire)
    signal.setitimer(signal.ITIMER_VIRTUAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)


FERMAT4 = "n = 3\nF = x0^4 + x1^4 + x2^4 + x3^4\n"
BUDGET = f"has more than {MAX_PIECE_DIM} monomials"
# each would need a graded piece far past polyring.MAX_PIECE_DIM
OVERSIZED = {
    "jacobian-degree": (FERMAT4, ("--degree", "100000"),
                        f"the degree-99997 piece in 4 variables {BUDGET}"),
    "monomial-power": ("n = 3\nF = x0^999999 + x1^999999 + x2^999999 + x3^999999\n", (),
                       f"the degree-2999991 piece in 4 variables {BUDGET}"),
    "sum-power": ("n = 3\nF = (x0+x1+x2+x3)^100000\n", (),
                  f"the degree-100000 piece in 4 variables {BUDGET} (line 2, column 19)"),
    "many-coordinates": ("n = 400\nF = x0^4\n", (),
                         f"the degree-800 piece in 401 variables {BUDGET}"),
    "huge-n": ("n = 100000000\nF = x0^4\n", (),
               f"n + 1 = 100000001 coordinates exceed the budget of {MAX_PIECE_DIM} "
               "monomials per graded piece (line 1, column 5)"),
    "number-power": ("n = 3\nF = 3^14001*x0^4 + x1^4 + x2^4 + x3^4\n", (),
                     f"the power's coefficient would have more than {MAX_COEFF_BITS} "
                     "bits (line 2, column 7)"),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_problems_fail_fast(name, tmp_path, capsys):
    text, flags, message = OVERSIZED[name]
    prob = tmp_path / "big.prob"
    prob.write_text(text)
    with cpu_limit(1.0):
        code, out = run_cli("jacobian", str(prob), *flags)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_missing_file_exit_code(tmp_path, capsys):
    code, _ = run_cli("jacobian", "no-such-file.prob")
    assert code == 1
    capsys.readouterr()
    code, _ = run_cli("jacobian", str(tmp_path))
    assert code == 1
    assert capsys.readouterr().err.startswith("input error: [Errno")


# every error class of the package, pinned to the exit code main returns
EXIT_CODES = {
    errors.ParseError: 1,
    errors.FieldConstraintError: 1,
    errors.DependentSystemError: 1,
    errors.HypothesisViolationError: 2,
    errors.NotSmoothError: 2,
    errors.HomogeneityError: 2,
    errors.DegenerateBundleError: 3,
    errors.FieldMismatchError: 3,
    errors.GradeError: 3,
    errors.NoDecompositionError: 3,
    errors.NonDivisibleError: 3,
    errors.NonEulerNullError: 3,
    errors.RankOneConditionError: 3,
    errors.VariableCountMismatchError: 3,
}


def test_every_error_class_has_one_exit_code(monkeypatch, capsys):
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__}
    assert set(EXIT_CODES) == defined
    labels = {1: "input error", 2: "hypothesis violation", 3: "internal error"}
    for cls, expected in [*EXIT_CODES.items(), (ValueError, 1), (OSError, 1)]:
        def fail(path, cls=cls):
            raise cls("boom")
        monkeypatch.setattr(cli, "load_problem", fail)
        code, _ = run_cli("jacobian", str(DATA / "fermat4.prob"))
        assert code == expected, cls
        assert capsys.readouterr().err == f"{labels[expected]}: boom\n", cls


def test_internal_fault_mid_pipeline_exit_code(monkeypatch, capsys):
    def degenerate(bundle, R):
        raise errors.DegenerateBundleError("base polynomial is 0")
    monkeypatch.setattr(torelli, "image_membership", degenerate)
    code, text = run_cli("torelli", str(DATA / "fermat4.prob"), "--trials", "1")
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == "internal error: base polynomial is 0\n"


def test_hypothesis_violation_exit_code(tmp_path):
    cubic = tmp_path / "cubic.prob"
    cubic.write_text("n = 3\nF = x0^3 + x1^3 + x2^3 + x3^3\nR = x0*x1*x2\n")
    code, _ = run_cli("torelli", str(cubic))
    assert code == 2
    wrong_degree = tmp_path / "wrong_degree.prob"
    wrong_degree.write_text("n = 3\nF = x0^4 + x1^4 + x2^4 + x3^4\nR = x0*x1*x2\n")
    code, _ = run_cli("torelli", str(wrong_degree))
    assert code == 2


def test_singular_hypersurface_exit_code(tmp_path):
    cone = tmp_path / "cone.prob"
    cone.write_text("n = 3\nF = x0^4 + x1^4 + x2^4\n")
    code, _ = run_cli("jacobian", str(cone))
    assert code == 2


def test_human_output_is_default():
    code, text = run_cli("jacobian", str(DATA / "fermat4.prob"), "--degree", "8")
    assert code == 0
    assert "quotient_dimension" in text
    assert "{" not in text.splitlines()[0]


GOLDEN_COMMANDS = {
    "golden_torelli.json": ["torelli", "fermat4.prob", "--trials", "3",
                            "--seed", "0", "--json"],
    "golden_jacobian.json": ["jacobian", "fermat4.prob", "--degree", "4",
                             "--json"],
    "golden_adjoint.json": ["adjoint", "fermat4.prob", "--w", "01,02,03",
                            "--json"],
    # certificates depend on the order generators enter each span
    "golden_torelli_certificates.json": ["torelli", "fermat4_trivial.prob",
                                         "--json", "--certificates"],
    "golden_adjoint_certificates.json": ["adjoint", "fermat4.prob", "--w",
                                         "01,02,03", "--json", "--certificates"],
}


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_COMMANDS))
def test_golden_reports_are_stable(golden_name):
    """Byte-identical output across repeated runs and hash seeds."""
    argv = GOLDEN_COMMANDS[golden_name]
    expected = (DATA / golden_name).read_bytes()
    outputs = []
    for hashseed in ("0", "4242"):
        result = subprocess.run(
            [sys.executable, "-m", "adjtorelli", *argv],
            cwd=DATA, env=subprocess_env(hashseed), capture_output=True,
        )
        assert result.returncode == 0, result.stderr.decode()
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0] == expected


def test_adjoint_without_r_reports_null_memberships(tmp_path):
    prob = tmp_path / "plain.prob"
    prob.write_text("n = 3\nF = x0^4 + x1^4 + x2^4 + x3^4\n")
    code, text = run_cli("adjoint", str(prob), "--w", "01,12,23", "--json")
    assert code == 0
    report = json.loads(text)
    assert report["verdicts"]["in_image"] is None
    assert report["verdicts"]["in_jacobian_ideal"] is None


def test_prime_field_flag_runs():
    code, text = run_cli(
        "jacobian", str(DATA / "fermat4.prob"), "--degree", "4",
        "--field", "p:1000003", "--json",
    )
    assert code == 0
    assert json.loads(text)["verdicts"]["quotient_dimension"] == 19


def test_timings_flag_adds_section():
    for command, *flags in (["torelli", "--trials", "1"], ["jacobian"],
                            ["adjoint", "--w", "01,02,03"], ["macaulay", "--a", "0"]):
        code, text = run_cli(
            command, str(DATA / "fermat4.prob"), *flags, "--json", "--timings",
        )
        assert code == 0
        assert set(json.loads(text)["timings"]) == {"parse_s", "check_s"}, command


# ----- fuzzing the command line ---------------------------------------------------

# Small exponents, and exponents past every size budget.  Exponents in between
# can stay inside the budget and still take minutes to expand (README, Scale).
EXPONENTS = st.one_of(st.integers(0, 4), st.integers(10 ** 5, 10 ** 12))
ATOMS = st.one_of(
    st.integers(0, 10 ** 6).map(str),
    st.builds("{}/{}".format, st.integers(0, 99), st.integers(0, 99)),
    st.builds("x{}".format, st.integers(0, 3)),
)
EXPRESSIONS = st.recursive(ATOMS, lambda inner: st.one_of(
    st.builds("{} {} {}".format, inner, st.sampled_from("+-*"), inner),
    st.builds("({})".format, inner),
    st.builds("{}^{}".format, inner, EXPONENTS),
    st.builds("-{}".format, inner),
), max_leaves=8)
PROBLEMS = st.one_of(
    st.builds("n = {}\nF = {}\n{}".format, st.sampled_from([1, 2, 400, 10 ** 8]),
              EXPRESSIONS, st.one_of(st.just(""), EXPRESSIONS.map("R = {}\n".format))),
    EXPRESSIONS.map("n = 2\nF = x0^3 + x1^3 + x2^3\nR = {}\n".format),
)
COMMANDS = (["torelli", "--trials", "1"], ["jacobian"], ["adjoint", "--w", "01,02"],
            ["macaulay"])
LABELS = ("input error", "hypothesis violation", "internal error")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(PROBLEMS)
def test_cli_never_escapes_generated_problems(text):
    with tempfile.TemporaryDirectory() as tmp:
        prob = Path(tmp) / "fuzz.prob"
        prob.write_text(text)
        for command, *flags in COMMANDS:
            err = io.StringIO()
            with redirect_stderr(err), cpu_limit(5.0):
                code, _ = run_cli(command, str(prob), *flags)
            assert 0 <= code <= 3, (command, text)
            if code:
                label, sep, message = err.getvalue().partition(": ")
                assert label in LABELS and sep and message, (command, text)
                assert message.count("\n") == 1 and message.endswith("\n")
