"""Record the benchmark's correctness oracle and normal-form fixture.

Run from the repository root at the commit whose outputs become the
reference:

    python3 bench/record_oracle.py

It writes ``bench/oracle.json`` (the stdout of every CLI operation of the
a3_tower and cyclic_sweep workloads) and ``bench/fixtures/gb_j7.json``
(the stdout of ``gb --n 7 --format json``).  Both are committed; the
benchmark compares against them and never rewrites them.
"""

from __future__ import annotations

import json
import os

from click.testing import CliRunner

from worker import A3_TOWER, CYCLIC_SWEEP, FIXTURE, GUARD_ARGS, ORACLE, cli


def stdout_of(args) -> str:
    result = CliRunner().invoke(cli.main, args)
    if result.exit_code != 0:
        raise SystemExit(f"nashfan {' '.join(args)} exited with {result.exit_code}")
    return result.stdout


def main():
    oracle = {" ".join(args): stdout_of(args) for args in A3_TOWER + CYCLIC_SWEEP}
    with open(ORACLE, "w") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        fh.write(stdout_of(GUARD_ARGS))


if __name__ == "__main__":
    main()
