"""The benchmark's tools still run against the engine they measure.

bench/spans.py wraps engine functions by name for its traced passes and
reports a per-layer metric as absent when a name is gone; bench/counts.py
patches ``_reduce`` and ``min_common_multiples`` around one ``buchberger``
run on ``jn_generators``.  These tests turn a rename or a changed signature
into a failure here instead of a metric that silently reads 0 or a tool
that no longer runs.  They read bench/ and change nothing there.
"""

import importlib.util
from pathlib import Path

import nashfan.nash as nash_module
from nashfan.lattice import Cone2
from nashfan.nash import a3_semigroup, jn_generators

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    spans = load_bench("spans")
    tracer = spans.Tracer()
    with tracer.traced_pass():
        pass
    assert tracer.absent() == []


def test_phase_counts_run_and_repeat():
    counts = load_bench("counts")
    first, second = counts.phase_counts(2), counts.phase_counts(2)
    assert first == second
    assert first["insert"]["reduce_calls"] == len(jn_generators(a3_semigroup(), 2).generators)


def test_traced_pass_counts_the_engine_calls():
    """One traced pass around verify_paper(2) and nash_fan at n = 2 runs
    every count hook on the engine's own call forms, the division kernel's
    difference form included, and counts kernel and buchberger calls."""
    spans = load_bench("spans")
    tracer = spans.Tracer()
    with tracer.traced_pass():
        nash_module.verify_paper(2)
        nash_module.nash_fan(Cone2((0, 1), (7, -3)), 2)
    metrics = tracer.layer_metrics()
    assert metrics["groebner.reduce_calls"]["value"] > 0
    assert metrics["groebner.buchberger_calls"]["value"] > 0
