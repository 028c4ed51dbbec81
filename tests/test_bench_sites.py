"""The benchmark tracer still finds every engine name it patches.

bench/spans.py wraps engine functions by name for its traced passes and
reports a per-layer metric as absent when a name is gone; this test turns
such a rename into a failure here instead of a metric that silently reads 0.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    spans = load_spans()
    tracer = spans.Tracer()
    with tracer.traced_pass():
        pass
    assert tracer.absent() == []
