"""One benchmark run in its own process: build a workload's inputs, time
passes over its operations in-process, and check every output.

Started by run.py from the root of a checkout.  Prints ``op 1`` or
``op 0`` for each checked operation as it goes, and a JSON summary as the
last line.  With ``--setup-only`` it stops once the inputs are ready.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
sys.path.insert(0, SRC)

from click.testing import CliRunner  # noqa: E402

import nashfan  # noqa: E402
from nashfan import cli, groebner  # noqa: E402
from nashfan.algebra import MatrixOrdering, Poly  # noqa: E402
from nashfan.groebner import MarkedBasis, standard_monomials  # noqa: E402
from nashfan.nash import a3_semigroup  # noqa: E402

from spans import CLI_SPAN, Tracer  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402

if not os.path.abspath(nashfan.__file__).startswith(SRC + os.sep):
    sys.exit(f"nashfan was imported from {nashfan.__file__}, not from {SRC}")

ORACLE = os.path.join(HERE, "oracle.json")
FIXTURE = os.path.join(HERE, "fixtures", "gb_j7.json")
GUARD_ARGS = ["gb", "--n", "7", "--format", "json"]

A3_TOWER = [["verify", "--n-max", "7", "--format", "json"]]
CYCLIC_SWEEP = [
    ["nash", "--cone", f"0,1,{d},-{k}", "--n", "2", "--format", "json"]
    for d, k in ((5, 2), (7, 3), (9, 4), (5, 3), (7, 2), (11, 4))
] + [
    ["nash", "--cone", "0,1,7,-3", "--n", "3", "--format", "json"],
    ["fan", "--n", "3", "--format", "svg"],
]
QUERIES = 200


def matches(expected, actual) -> bool:
    """Equal on every field of expected; keys only actual has are ignored."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and matches(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(matches(e, a) for e, a in zip(expected, actual)))
    return type(expected) is type(actual) and expected == actual


def output_ok(args, result, expected: str) -> bool:
    if result.exit_code != 0 or result.exception is not None:
        return False
    if "svg" in args:
        return result.stdout_bytes == expected.encode()
    try:
        return matches(json.loads(expected), json.loads(result.stdout))
    except ValueError:
        return False


class CliOp:
    def __init__(self, args, expected):
        self.id = " ".join(args)
        self.args = args
        self.expected = expected

    def __call__(self, invoke):
        return invoke(self.args)

    def check(self, result) -> bool:
        return output_ok(self.args, result, self.expected)


class NormalFormOp:
    """normal_form(f) against GB(J_7), where f = sum h_i g_i + r."""

    def __init__(self, index, f, r, basis):
        self.id = f"normal_form#{index}"
        self.f, self.r, self.basis = f, r, basis

    def __call__(self, invoke):
        return groebner.normal_form(self.f, self.basis)

    def check(self, result) -> bool:
        return result == self.r


def load_fixture():
    with open(FIXTURE) as fh:
        data = json.load(fh)
    ordering = MatrixOrdering(tuple(tuple(r) for r in data["ordering"]), a3_semigroup())
    return data, MarkedBasis.from_json(ordering, data)


def normal_form_queries(basis, rng):
    """Seeded queries: three multiples of basis elements, plus a remainder
    on four standard monomials for every odd query (zero otherwise)."""
    sg = basis.sg
    std = sorted(standard_monomials(basis))

    def coeff():
        return rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))

    def monomial():
        a, b, c = (rng.randrange(3) for _ in range(3))
        return (a + 3 * b + c, 4 * b + c)     # a*u + b*u^3v^4 + c*uv

    ops = []
    for q in range(QUERIES):
        r = Poly.zero(sg)
        if q % 2:
            r = Poly(sg, {e: coeff() for e in rng.sample(std, 4)})
        f = r
        for g, _ in rng.sample(basis.elements, 3):
            h = Poly(sg, {monomial(): coeff(), monomial(): coeff()})
            f = f + h * g
        ops.append(NormalFormOp(q, f, r, basis))
    return ops


def build(workload, seed):
    rng = random.Random(seed)
    if workload == "a3_normal_form":
        _, basis = load_fixture()
        return normal_form_queries(basis, rng)
    with open(ORACLE) as fh:
        oracle = json.load(fh)
    commands = A3_TOWER if workload == "a3_tower" else rng.sample(CYCLIC_SWEEP, len(CYCLIC_SWEEP))
    return [CliOp(args, oracle[" ".join(args)]) for args in commands]


def one_pass(ops, invoke, tracer=None, probe=None):
    """Time every operation, then check the outputs outside the timed span.

    With a probe, the probe's own time is taken out of every time, and the
    mean probe time of the pass is returned as well (None without one).
    """
    times, outputs = [], []
    clock = time.perf_counter

    def probed():
        return probe.busy if probe is not None else 0.0

    busy, count = probed(), probe.count if probe is not None else 0
    start = clock()
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        b = probed()
        t = clock()
        try:
            out = op(invoke)
        except Exception as exc:     # an operation that raises counts as failed
            out = exc
        times.append(clock() - t - (probed() - b))
        outputs.append(out)
    wall = clock() - start - (probed() - busy)
    probe_s = None
    if probe is not None:
        if probe.count == count:     # a pass shorter than the probe interval
            probe.tick()
        probe_s = (probe.busy - busy) / (probe.count - count)
    failed = 0
    for op, out in zip(ops, outputs):
        ok = not isinstance(out, Exception) and op.check(out)
        failed += not ok
        print(f"op {int(ok)}", flush=True)
    return wall, times, failed, probe_s


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("a3_tower", "cyclic_sweep", "a3_normal_form"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    ops = build(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    runner = CliRunner()

    def invoke(cli_args):
        return runner.invoke(cli.main, cli_args)

    tracer = Tracer() if args.trace else None
    probe = SpeedProbe()
    walls, raw_walls, probe_times, traced_walls, op_times = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        unit = time.perf_counter()
        with probe:
            wall, times, bad, probe_s = one_pass(ops, invoke, probe=probe)
        scale = REFERENCE_S / probe_s
        walls.append(wall * scale)
        op_times.extend(t * scale for t in times)
        raw_walls.append(wall)
        probe_times.append(probe_s)
        attempted += len(ops)
        failed += bad
        if tracer is not None:
            with tracer.traced_pass():
                wall, _, bad, _ = one_pass(ops, tracer.wrap(CLI_SPAN, invoke), tracer)
            traced_walls.append(wall)
            attempted += len(ops)
            failed += bad
        now = time.perf_counter()
        if now - start + (now - unit) > args.seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    summary = {
        "ready": ready,
        "walls": walls,
        "raw_walls": raw_walls,
        "probe_times": probe_times,
        "op_times": op_times,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_kb": peak_rss_kb,
        "guard_ok": None,
    }
    if args.workload == "a3_normal_form":
        data, _ = load_fixture()
        summary["guard_ok"] = output_ok(GUARD_ARGS, invoke(GUARD_ARGS), json.dumps(data))
    if tracer is not None:
        summary["traced_walls"] = traced_walls
        summary["layers"] = tracer.layer_metrics()
        summary["absent"] = tracer.absent()
        if args.spans_out:
            os.makedirs(os.path.dirname(args.spans_out), exist_ok=True)
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
