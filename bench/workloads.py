"""The benchmark's workloads: set-up, one op, and the correctness check of an op.

Each workload turns a seeded stream of plain inputs (see inputs.py) into
calls on the package's public functions.  Ops look every function up on its
module at call time, so the traced run's wrappers see them.  Checks run
outside the timed interval, on the checker's own Hypersurface, so they can
neither warm the program's caches nor show up in its timings; each returns
a list of problems, empty when the op's answer is right.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import sys

import inputs

PACKAGE = "adjtorelli"
MODULES = ("adjoint", "cli", "exactla", "extforms", "fields", "jacobian",
           "parsing", "polyring", "torelli")
TRIVIAL = "trivial-deformation"
NONTRIVIAL = "nontrivial-deformation"
# The seeds the ops pass to the package, cycled: the W-systems they draw change
# an op's cost by up to a third, so they stay fixed and --seed varies F and R.
CHECK_SEEDS = (0, 1, 2, 3)


class Package(dict):
    """One import of the package: its modules by short name.

    Two imports can live side by side (the traced run keeps a wrapped one
    and a plain one); activate() puts this one back into sys.modules so
    that imports made at call time inside the package resolve to it.
    """

    def __init__(self):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        super().__init__((name, importlib.import_module(f"{PACKAGE}.{name}"))
                         for name in MODULES)
        self.modules = {m: mod for m, mod in sys.modules.items()
                        if m == PACKAGE or m.startswith(PACKAGE + ".")}

    def activate(self):
        sys.modules.update(self.modules)


def to_poly(mods, poly, nvars, field):
    return mods["polyring"].Polynomial(
        nvars, {m: field.coerce(c) for m, c in poly.items()}, field)


def plain(poly):
    """Coefficients of a package polynomial as Fractions or residues."""
    return {m: getattr(c, "value", c) for m, c in poly.terms.items()}


class Workload:
    name = ""
    why = ""
    trace_ops = 1  # ops in a traced run; fixed, so its counters repeat exactly

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def rng(self, index):
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def item(self, index):
        """Plain inputs of op number index; index 0 is the set-up warm-up."""
        raise NotImplementedError

    def setup(self, mods):
        """Shared state for the ops, ending with one untimed warm-up op."""
        raise NotImplementedError

    def prepare(self, state, item):
        """The op's arguments in the package's own types (outside timing)."""
        raise NotImplementedError

    def op(self, state, args):
        raise NotImplementedError

    def checker(self, mods):
        """Independent state for checking answers, built outside set-up."""
        raise NotImplementedError

    def check(self, checker, item, args, result):
        raise NotImplementedError


class FermatChecker:
    """A Hypersurface of its own plus the W-system bundles a check needs."""

    def __init__(self, mods, F):
        self.mods = mods
        self.h = mods["jacobian"].Hypersurface(F)
        self.bundles = {}

    def bundle(self, seed, trial):
        key = (seed, trial)
        if key not in self.bundles:
            self.bundles[key] = self.mods["adjoint"].sample_bundle(self.h, seed, trial)[0]
        return self.bundles[key]


def _trial_problems(checker, R, expected, seed, trial, in_image, in_jacobian,
                    image_cert, jacobian_cert):
    """Problems with one non-degenerate trial of a torelli check."""
    problems = []
    if in_image != expected or in_jacobian != expected:
        problems.append(f"trial {trial}: image {in_image}, jacobian {in_jacobian}, "
                        f"oracle {expected}")
    if not expected:
        if image_cert is not None or jacobian_cert is not None:
            problems.append(f"trial {trial}: certificate on a no answer")
        return problems
    bundle = checker.bundle(seed, trial)
    if image_cert is None or not image_cert.verify(bundle, R):
        problems.append(f"trial {trial}: image certificate does not verify")
    adjoint = checker.mods["adjoint"].canonical_adjoint(bundle, R)
    if jacobian_cert is None or not jacobian_cert.verify(checker.h, adjoint):
        problems.append(f"trial {trial}: adjoint membership certificate does not verify")
    return problems


class QuarticSweep(Workload):
    name = "quartic_sweep"
    why = ("many R against one Fermat quartic over Q via torelli.check: "
           "image membership dominates and rebuilds one span per R")
    trace_ops = 12
    NVARS, DEGREE = 4, 4
    F_TEXT = "x0^4 + x1^4 + x2^4 + x3^4"

    def item(self, index):
        rng = self.rng(index)
        kind = index % 3
        if kind == 0:
            R = inputs.random_monomial(rng, self.NVARS, self.DEGREE)
        elif kind == 1:
            R = inputs.random_dense(rng, self.NVARS, self.DEGREE)
        else:
            R = inputs.partials_combination(
                rng, inputs.fermat(self.NVARS, self.DEGREE), self.NVARS)
        return {"R": R, "seed": CHECK_SEEDS[index % len(CHECK_SEEDS)]}

    def setup(self, mods):
        F = mods["parsing"].parse_polynomial(self.F_TEXT, self.NVARS, mods["fields"].QQ)
        state = {"mods": mods, "h": mods["jacobian"].Hypersurface(F)}
        self.op(state, self.prepare(state, self.item(0)))
        return state

    def prepare(self, state, item):
        h = state["h"]
        return h, to_poly(state["mods"], item["R"], self.NVARS, h.field), item["seed"]

    def op(self, state, args):
        h, R, seed = args
        return state["mods"]["torelli"].check(h, R, trials=3, seed=seed)

    def checker(self, mods):
        return FermatChecker(mods, mods["parsing"].parse_polynomial(
            self.F_TEXT, self.NVARS, mods["fields"].QQ))

    def check(self, checker, item, args, report):
        _, R, seed = args
        expected = inputs.fermat_in_jacobian(item["R"], self.DEGREE)
        reduced = inputs.fermat_reduced(item["R"], self.DEGREE)
        problems = []
        if not report.consistency:
            problems.append("inconsistent report")
        if report.r_in_jacobian != expected:
            problems.append(f"R in J: {report.r_in_jacobian}, oracle {expected}")
        cert = report.r_certificate
        if (cert is not None) != expected or (cert and not cert.verify(checker.h, R)):
            problems.append("R membership certificate missing, extra or wrong")
        if plain(report.reduced_representative) != reduced:
            problems.append("reduced representative differs from the oracle")
        deformation = checker.mods["jacobian"].deformation_class(checker.h, R)
        if not deformation.verify(checker.h) or plain(deformation.representative) != reduced:
            problems.append("deformation class does not verify")
        usable = [o for o in report.trials if not o.degenerate]
        if report.verdict != (TRIVIAL if expected else NONTRIVIAL) or not usable:
            problems.append(f"verdict {report.verdict}")
        for o in usable:
            if o.base_poly != checker.bundle(seed, o.index).top_poly:
                problems.append(f"trial {o.index}: base polynomial differs")
            problems += _trial_problems(checker, R, expected, seed, o.index, o.in_image,
                                        o.in_jacobian, o.image_certificate,
                                        o.jacobian_certificate)
        return problems


class FourfoldCli(Workload):
    name = "fourfold_cli"
    why = ("the adjtorelli torelli command in-process on a Fermat quintic "
           "fourfold over GF(32003): parsing, a fresh hypersurface and bundle, JSON")
    trace_ops = 8
    NVARS, DEGREE, PRIME = 5, 5, 32003
    F_TEXT = "x0^5 + x1^5 + x2^5 + x3^5 + x4^5"

    def item(self, index):
        rng = self.rng(index)
        kind = index % 3
        if kind == 0:
            R = inputs.random_monomial(rng, self.NVARS, self.DEGREE)
        elif kind == 1:
            R = inputs.random_sparse(rng, self.NVARS, self.DEGREE, 6)
        else:
            R = inputs.partials_combination(
                rng, inputs.fermat(self.NVARS, self.DEGREE), self.NVARS)
        return {"R": R, "seed": CHECK_SEEDS[index % len(CHECK_SEEDS)], "index": index}

    def setup(self, mods):
        state = {"mods": mods}
        self.op(state, self.prepare(state, self.item(0)))
        return state

    def prepare(self, state, item):
        path = os.path.join(self.workdir, f"op{item['index']}.prob")
        with open(path, "w", encoding="utf-8") as out:
            out.write(f"# {self.name} op {item['index']}\nn = {self.NVARS - 1}\n"
                      f"F = {self.F_TEXT}\nR = {inputs.to_text(item['R'])}\n")
        return ["torelli", path, "--field", f"p:{self.PRIME}", "--trials", "1",
                "--seed", str(item["seed"]), "--json", "--certificates"]

    def op(self, state, argv):
        stream = io.StringIO()
        code = state["mods"]["cli"].main(argv, stream)
        return code, stream.getvalue()

    def checker(self, mods):
        field = mods["fields"].PrimeField(self.PRIME)
        return FermatChecker(mods, mods["parsing"].parse_polynomial(
            self.F_TEXT, self.NVARS, field))

    def check(self, checker, item, argv, result):
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        mods, h, p = checker.mods, checker.h, self.PRIME
        report = json.loads(text)
        verdicts, certs = report["verdicts"], report["certificates"]

        def parse(expr):
            return mods["parsing"].parse_polynomial(expr, self.NVARS, h.field)

        R = parse(report["input"]["R"])
        expected = inputs.fermat_in_jacobian(item["R"], self.DEGREE, p)
        problems = []
        if plain(R) != {m: c % p for m, c in item["R"].items() if c % p}:
            problems.append("R echoed differently from the problem file")
        if verdicts["consistency"] is not True:
            problems.append("inconsistent report")
        if verdicts["r_in_jacobian_ideal"] != expected:
            problems.append(f"R in J: {verdicts['r_in_jacobian_ideal']}, oracle {expected}")
        if verdicts["verdict"] != (TRIVIAL if expected else NONTRIVIAL):
            problems.append(f"verdict {verdicts['verdict']}")
        if plain(parse(verdicts["reduced_representative"])) != \
                inputs.fermat_reduced(item["R"], self.DEGREE, p):
            problems.append("reduced representative differs from the oracle")
        parts = certs["r_membership"]
        membership = mods["jacobian"].MembershipCertificate
        if (parts is not None) != expected or \
                (parts and not membership(tuple(map(parse, parts))).verify(h, R)):
            problems.append("R membership certificate missing, extra or wrong")
        seed = int(argv[argv.index("--seed") + 1])
        for trial, cert in zip(verdicts["trials"], certs["trials"]):
            if trial["degenerate"]:
                continue
            image = jacobian = None
            if cert["image_multipliers"] is not None:
                image = mods["adjoint"].ImageCertificate(
                    tuple(map(parse, cert["image_multipliers"])),
                    parse(cert["image_principal"]))
            if cert["adjoint_membership"] is not None:
                jacobian = membership(tuple(map(parse, cert["adjoint_membership"])))
            problems += _trial_problems(checker, R, expected, seed, trial["trial"],
                                        trial["in_image"], trial["in_jacobian_ideal"],
                                        image, jacobian)
        return problems


WORKLOADS = {w.name: w for w in (QuarticSweep, FourfoldCli)}
