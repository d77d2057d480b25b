"""In-memory span tracer installed from outside the package.

The traced run replaces public functions at the names their callers look
up (a module attribute such as adjtorelli.torelli.image_membership, or a
method on a class) with wrappers that record a span: name, op id, parent,
start and end.  Spans stay in a list and are written out at the end; self
time is a span's duration minus that of its direct children.  The package
is single-threaded and does no I/O in these calls, so busy time and counts
are all there is to record.

Counters are deterministic functions of the inputs: two traced runs at one
seed give the same counts, so a later change can tell a change in work from
timing noise.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import comb
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []        # [name, op, parent index, start ns, end ns]
        self.stack = []
        self.op = 0
        self.counts = Counter()  # work counters, and the largest call shapes
        self.paused = 0

    @contextmanager
    def pause(self):
        """Suspend recording, e.g. while the benchmark checks an answer."""
        self.paused += 1
        try:
            yield
        finally:
            self.paused -= 1

    @contextmanager
    def span(self, name):
        if self.paused:
            yield
            return
        record = [name, self.op, self.stack[-1] if self.stack else -1, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[3] = perf_counter_ns()
        try:
            yield
        finally:
            record[4] = perf_counter_ns()
            self.stack.pop()

    def wrap(self, name, fn, note=None):
        """fn inside a span; note(tracer, args, result, before) records counts."""
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            before = self.counts.copy() if note else None
            with self.span(name):
                result = fn(*args, **kwargs)
            if note:
                note(self, args, result, before)
            return result
        return traced

    # ----- aggregation ----------------------------------------------------

    def times(self):
        """Total inclusive and self seconds per span name, and call counts."""
        inclusive = defaultdict(int)
        child = defaultdict(int)
        calls = Counter()
        for name, _, parent, start, end in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(int)
        for idx, (name, _, _, start, end) in enumerate(self.spans):
            own[name] += end - start - child[idx]
        to_s = 1e-9
        return ({k: v * to_s for k, v in inclusive.items()},
                {k: v * to_s for k, v in own.items()},
                calls)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for idx, (name, op, parent, start, end) in enumerate(self.spans):
                out.write(json.dumps({"id": idx, "op": op, "name": name,
                                      "parent": parent, "start_ns": start,
                                      "end_ns": end}) + "\n")


# ----- what the traced run wraps --------------------------------------------


def _note_smooth(tracer, args, result, before):
    F = args[0]
    d = F.homogeneous_degree()
    k = F.nvars * (d - 2) + 1
    cols = comb(F.nvars - 1 + k, k)
    tracer.counts["jacobian.smooth_cols"] = max(tracer.counts["jacobian.smooth_cols"], cols)
    tracer.counts["jacobian.smooth_rank"] = max(tracer.counts["jacobian.smooth_rank"],
                                                cols - result[1])


def _note_ideal_piece(tracer, args, result, before):
    # A fill builds an echelon; a cache hit inserts nothing.
    filled = tracer.counts["exactla.echelon_inserts"] > before["exactla.echelon_inserts"]
    tracer.counts["jacobian.ideal_piece_fills" if filled else "jacobian.ideal_piece_hits"] += 1


def _note_sample_bundle(tracer, args, result, before):
    tracer.counts["adjoint.bundle_attempts"] += result[1]


def _note_image(tracer, args, result, before):
    if result is not None:
        tracer.counts["adjoint.image_yes"] += 1


def _note_solve(tracer, args, result, before):
    target, generators = args[0], args[1]
    rows, cols = len(generators), len(target)
    counts = tracer.counts
    if rows * cols > counts["exactla.solve_in_span.rows"] * counts["exactla.solve_in_span.cols"]:
        tracer.counts["exactla.solve_in_span.rows"] = rows
        tracer.counts["exactla.solve_in_span.cols"] = cols
    parent = tracer.spans[tracer.stack[-1]][0] if tracer.stack else None
    if parent == "extforms.syzygy_decompose":
        tracer.counts["extforms.syzygy_decompose.cols"] = max(
            tracer.counts["extforms.syzygy_decompose.cols"], cols)


# (span name, every attribute path callers look it up by, note)
SPANS = (
    ("cli.main", ("cli.main",), None),
    ("parsing.load", ("cli.load_problem", "parsing.ProblemFile.build"), None),
    ("torelli.check", ("torelli.check",), None),
    ("jacobian.hypersurface", ("jacobian.Hypersurface.__init__",), None),
    ("jacobian.smooth", ("jacobian.is_smooth",), _note_smooth),
    ("jacobian.ideal_piece", ("jacobian.Hypersurface.ideal_piece",), _note_ideal_piece),
    ("jacobian.membership", ("jacobian.graded_membership", "torelli.graded_membership"), None),
    ("jacobian.reduce_mod", ("jacobian.reduce_mod", "adjoint.reduce_mod"), None),
    ("jacobian.deformation_class", ("torelli.deformation_class",), None),
    ("adjoint.sample_bundle", ("torelli.sample_bundle",), _note_sample_bundle),
    ("adjoint.build_bundle", ("adjoint.build_bundle",), None),
    ("adjoint.divisor_witness", ("adjoint.fixed_divisor_witness",
                                 "torelli.fixed_divisor_witness"), None),
    ("adjoint.canonical_adjoint", ("torelli.canonical_adjoint",), None),
    ("adjoint.image_membership", ("torelli.image_membership",), _note_image),
    ("exactla.solve_in_span", ("adjoint.solve_in_span", "extforms.solve_in_span"), _note_solve),
    ("exactla.rref", ("adjoint.rref", "jacobian.rref"), None),
    ("extforms.wedge", ("adjoint.wedge_all", "adjoint.wedge"), None),
    ("extforms.divide_fundamental", ("adjoint.divide_by_fundamental",), None),
    ("extforms.syzygy_decompose", ("adjoint.syzygy_decompose",), None),
    ("polyring.gcd", ("adjoint.gcd_many",), None),
)

def _resolve(mods, path):
    head, *rest = path.split(".")
    owner = mods[head]
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1]


def install(tracer, mods):
    """Wrap the package's functions in place; mods maps short names to modules."""
    for name, paths, note in SPANS:
        for path in paths:
            owner, attr = _resolve(mods, path)
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))
    counts = tracer.counts
    gcd = mods["polyring"].multivariate_gcd

    def counted_gcd(*args):
        if not tracer.paused:
            counts["polyring.gcd_calls"] += 1
        return gcd(*args)

    # Echelon.insert reduces its generator first; count only the other reduces.
    echelon = mods["exactla"].Echelon
    insert, reduce = echelon.insert, echelon.reduce
    inside = [0]

    def counted_insert(self, vec):
        inside[0] += 1
        try:
            useful = insert(self, vec)
        finally:
            inside[0] -= 1
        if not tracer.paused:
            counts["exactla.echelon_inserts"] += 1
            counts["exactla.echelon_inserts_useful"] += useful
        return useful

    def counted_reduce(self, vec):
        if not inside[0] and not tracer.paused:
            counts["exactla.echelon_reduces"] += 1
        return reduce(self, vec)

    mods["polyring"].multivariate_gcd = counted_gcd
    echelon.insert, echelon.reduce = counted_insert, counted_reduce


# (metric, unit, better, source): a source "kind:key" reads the inclusive
# seconds, self seconds or calls of a span, or a counter; two sources make a ratio.
LAYER_METRICS = (
    ("adjoint.image_membership_s", "s", "lower", ("incl:adjoint.image_membership",)),
    ("adjoint.image_membership_calls", "count", "lower", ("calls:adjoint.image_membership",)),
    ("adjoint.image_yes_frac", "ratio", "higher",
     ("count:adjoint.image_yes", "calls:adjoint.image_membership")),
    ("exactla.solve_in_span_s", "s", "lower", ("incl:exactla.solve_in_span",)),
    ("exactla.solve_in_span_calls", "count", "lower", ("calls:exactla.solve_in_span",)),
    ("exactla.solve_in_span.rows", "count", "lower", ("count:exactla.solve_in_span.rows",)),
    ("exactla.solve_in_span.cols", "count", "lower", ("count:exactla.solve_in_span.cols",)),
    ("exactla.echelon_inserts", "count", "lower", ("count:exactla.echelon_inserts",)),
    ("exactla.echelon_inserts_useful_frac", "ratio", "higher",
     ("count:exactla.echelon_inserts_useful", "count:exactla.echelon_inserts")),
    ("exactla.echelon_reduces", "count", "lower", ("count:exactla.echelon_reduces",)),
    ("exactla.rref_s", "s", "lower", ("incl:exactla.rref",)),
    ("exactla.rref_calls", "count", "lower", ("calls:exactla.rref",)),
    ("jacobian.smooth_s", "s", "lower", ("incl:jacobian.smooth",)),
    ("jacobian.smooth_rank", "count", "lower", ("count:jacobian.smooth_rank",)),
    ("jacobian.smooth_cols", "count", "lower", ("count:jacobian.smooth_cols",)),
    ("jacobian.ideal_piece_s", "s", "lower", ("incl:jacobian.ideal_piece",)),
    ("jacobian.ideal_piece_fills", "count", "lower", ("count:jacobian.ideal_piece_fills",)),
    ("jacobian.ideal_piece_hits", "count", "higher", ("count:jacobian.ideal_piece_hits",)),
    ("jacobian.membership_s", "s", "lower", ("incl:jacobian.membership",)),
    ("jacobian.membership_calls", "count", "lower", ("calls:jacobian.membership",)),
    ("jacobian.reduce_mod_s", "s", "lower", ("incl:jacobian.reduce_mod",)),
    ("jacobian.reduce_mod_calls", "count", "lower", ("calls:jacobian.reduce_mod",)),
    ("jacobian.deformation_class_s", "s", "lower", ("incl:jacobian.deformation_class",)),
    ("adjoint.sample_bundle_s", "s", "lower", ("incl:adjoint.sample_bundle",)),
    ("adjoint.build_bundle_s", "s", "lower", ("incl:adjoint.build_bundle",)),
    ("adjoint.build_bundle_calls", "count", "lower", ("calls:adjoint.build_bundle",)),
    ("adjoint.bundle_attempts", "count", "lower", ("count:adjoint.bundle_attempts",)),
    ("adjoint.bundle_accept_frac", "ratio", "higher",
     ("calls:adjoint.sample_bundle", "count:adjoint.bundle_attempts")),
    ("adjoint.divisor_witness_s", "s", "lower", ("incl:adjoint.divisor_witness",)),
    ("adjoint.canonical_adjoint_s", "s", "lower", ("incl:adjoint.canonical_adjoint",)),
    ("extforms.wedge_s", "s", "lower", ("incl:extforms.wedge",)),
    ("extforms.divide_fundamental_s", "s", "lower", ("incl:extforms.divide_fundamental",)),
    ("extforms.syzygy_decompose_s", "s", "lower", ("incl:extforms.syzygy_decompose",)),
    ("extforms.syzygy_decompose.cols", "count", "lower",
     ("count:extforms.syzygy_decompose.cols",)),
    ("polyring.gcd_s", "s", "lower", ("incl:polyring.gcd",)),
    ("polyring.gcd_calls", "count", "lower", ("count:polyring.gcd_calls",)),
    ("parsing.load_s", "s", "lower", ("incl:parsing.load",)),
    ("cli.self_s", "s", "lower", ("self:cli.main",)),
    ("torelli.check_self_s", "s", "lower", ("self:torelli.check",)),
)


def layer_metrics(tracer):
    """Per-layer values over the whole traced run: set-up plus every op."""
    inclusive, own, calls = tracer.times()
    tables = {"incl": inclusive, "self": own, "calls": calls, "count": tracer.counts}

    def read(source):
        kind, key = source.split(":", 1)
        return tables[kind].get(key, 0)

    values = {}
    for name, unit, _, sources in LAYER_METRICS:
        if len(sources) == 1:
            value = read(sources[0])
        else:
            numerator, denominator = map(read, sources)
            value = numerator / denominator if denominator else 0.0
        values[name] = (value, unit)
    return values
