"""In-memory span tracer for the benchmark's traced passes.

Spans are recorded from outside the engine: each traced name is replaced,
for the length of one pass, at the module where its caller looks it up
(callers import names directly, e.g. ``from .groebner import buchberger``).
A name that no longer exists is skipped, and the metrics built only on it
are reported as absent.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values()),
        default=0,
    )


def _on_reduce(counts, result, args):
    if result.is_zero:
        counts["zero_reductions"] += 1
    counts["max_coeff_bits"] = max(counts["max_coeff_bits"], _coeff_bits(args[0]), _coeff_bits(result))


def _on_mcm(counts, result, args):
    counts["pairs_pushed"] += len(result)


def _on_jn(counts, result, args):
    counts["generators_built"] += len(result.generators)


def _on_fan(counts, result, args):
    counts["cones_swept"] += len(result)


def _on_fan_buchberger(counts, result, args):
    counts["fan_buchberger_calls"] += 1


# (module, attribute where the caller looks the name up, span name, count hook)
SITES = (
    ("nashfan.cli", "verify_paper", "nash.verify_paper", None),
    ("nashfan.cli", "nash_fan", "nash.nash_fan", None),
    ("nashfan.cli", "groebner_fan", "fan.groebner_fan", _on_fan),
    ("nashfan.cli", "jn_generators", "nash.jn_generators", _on_jn),
    ("nashfan.cli", "buchberger", "groebner.buchberger", None),
    ("nashfan.cli", "fan_figure", "render.fan_figure", None),
    ("nashfan.nash", "jn_generators", "nash.jn_generators", _on_jn),
    ("nashfan.nash", "buchberger", "groebner.buchberger", None),
    ("nashfan.nash", "groebner_fan", "fan.groebner_fan", _on_fan),
    ("nashfan.nash", "standard_monomials", "groebner.standard_monomials", None),
    ("nashfan.nash", "cone_of_basis", "fan.cone_of_basis", None),
    ("nashfan.fan", "buchberger", "groebner.buchberger", _on_fan_buchberger),
    ("nashfan.fan", "cone_of_basis", "fan.cone_of_basis", None),
    ("nashfan.fan", "cone_from_inequalities", "lattice.cone_from_inequalities", None),
    ("nashfan.groebner", "_reduce", "groebner._reduce", _on_reduce),
    ("nashfan.groebner", "normal_form", "groebner.normal_form", None),
    ("nashfan.groebner", "min_common_multiples", "semigroup.min_common_multiples", _on_mcm),
    ("nashfan.algebra", "Poly.__mul__", "algebra.poly_mul", None),
    ("nashfan.algebra", "Poly.__rmul__", "algebra.poly_mul", None),
)

# The benchmark's own span around each in-process CLI call.
CLI_SPAN = "cli.main"


class PassStats:
    """Self time and call count per span name, plus counters, for one pass."""

    def __init__(self, spans, counts):
        child = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_s = defaultdict(float)
        self.calls = Counter()
        for i, (name, start, end, parent, op) in enumerate(spans):
            self.self_s[name] += end - start - child[i]
            self.calls[name] += 1
        self.counts = counts


def _ratio(a, b):
    return a / b if b else 0.0


# (metric, unit, span names it is built on, value of one pass)
LAYER_METRICS = (
    ("groebner.buchberger_s", "s", ("groebner.buchberger",), lambda p: p.self_s["groebner.buchberger"]),
    ("groebner.buchberger_calls", "count", ("groebner.buchberger",), lambda p: p.calls["groebner.buchberger"]),
    ("groebner.reduce_calls", "count", ("groebner._reduce",), lambda p: p.calls["groebner._reduce"]),
    ("groebner.zero_reductions", "count", ("groebner._reduce",), lambda p: p.counts["zero_reductions"]),
    ("groebner.useful_reduce_ratio", "ratio", ("groebner._reduce",),
     lambda p: _ratio(p.calls["groebner._reduce"] - p.counts["zero_reductions"], p.calls["groebner._reduce"])),
    ("groebner.pairs_pushed", "count", ("semigroup.min_common_multiples",), lambda p: p.counts["pairs_pushed"]),
    ("groebner.reduce_s", "s", ("groebner._reduce",), lambda p: p.self_s["groebner._reduce"]),
    ("groebner.max_coeff_bits", "bits", ("groebner._reduce",), lambda p: p.counts["max_coeff_bits"]),
    ("groebner.standard_monomials_s", "s", ("groebner.standard_monomials",),
     lambda p: p.self_s["groebner.standard_monomials"]),
    ("groebner.normal_form_calls", "count", ("groebner.normal_form",), lambda p: p.calls["groebner.normal_form"]),
    ("nash.verify_self_s", "s", ("nash.verify_paper",), lambda p: p.self_s["nash.verify_paper"]),
    ("nash.nash_fan_self_s", "s", ("nash.nash_fan",), lambda p: p.self_s["nash.nash_fan"]),
    ("nash.jn_generators_s", "s", ("nash.jn_generators",), lambda p: p.self_s["nash.jn_generators"]),
    ("nash.generators_built", "count", ("nash.jn_generators",), lambda p: p.counts["generators_built"]),
    ("algebra.poly_mul_calls", "count", ("algebra.poly_mul",), lambda p: p.calls["algebra.poly_mul"]),
    ("algebra.poly_mul_s", "s", ("algebra.poly_mul",), lambda p: p.self_s["algebra.poly_mul"]),
    ("fan.groebner_fan_self_s", "s", ("fan.groebner_fan",), lambda p: p.self_s["fan.groebner_fan"]),
    ("fan.cones_swept", "count", ("fan.groebner_fan",), lambda p: p.counts["cones_swept"]),
    ("fan.buchberger_per_cone", "calls/cone", ("fan.groebner_fan", "groebner.buchberger"),
     lambda p: _ratio(p.counts["fan_buchberger_calls"], p.counts["cones_swept"])),
    ("fan.cone_of_basis_s", "s", ("fan.cone_of_basis",), lambda p: p.self_s["fan.cone_of_basis"]),
    ("lattice.cone_from_inequalities_s", "s", ("lattice.cone_from_inequalities",),
     lambda p: p.self_s["lattice.cone_from_inequalities"]),
    ("semigroup.mcm_calls", "count", ("semigroup.min_common_multiples",),
     lambda p: p.calls["semigroup.min_common_multiples"]),
    ("semigroup.mcm_s", "s", ("semigroup.min_common_multiples",),
     lambda p: p.self_s["semigroup.min_common_multiples"]),
    ("render.fan_figure_s", "s", ("render.fan_figure",), lambda p: p.self_s["render.fan_figure"]),
    ("cli.self_s", "s", (CLI_SPAN,), lambda p: p.self_s[CLI_SPAN]),
)


def _resolve(module, path):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, path
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    """Collects spans (name, start, end, parent index, operation id) per pass."""

    def __init__(self):
        self.passes = []          # (spans, counts) of each finished traced pass
        self.spans = []
        self.counts = Counter()
        self.stack = []
        self.op = None
        self.installed_spans = {CLI_SPAN}

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self.counts, result, args)
            return result

        return traced

    @contextmanager
    def traced_pass(self):
        """Install every site for one pass; restore the originals afterwards."""
        self.spans, self.counts, self.stack = [], Counter(), []
        saved = []
        try:
            for module, path, name, hook in SITES:
                owner, attr = _resolve(module, path)
                if owner is None or not hasattr(owner, attr):
                    continue
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, hook))
                self.installed_spans.add(name)
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self.passes.append((self.spans, self.counts))

    def absent(self) -> list:
        return [
            metric for metric, _, needs, _ in LAYER_METRICS
            if not all(n in self.installed_spans for n in needs)
        ]

    def layer_metrics(self) -> dict:
        """Median over traced passes of each layer metric; absent ones read 0."""
        stats = [PassStats(spans, counts) for spans, counts in self.passes]
        absent = set(self.absent())
        return {
            metric: {"value": 0 if metric in absent else statistics.median(value(p) for p in stats),
                     "unit": unit}
            for metric, unit, _, value in LAYER_METRICS
        }

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "passes": [
                {"spans": spans, "counts": dict(counts)} for spans, counts in self.passes
            ],
            "absent": self.absent(),
        }
