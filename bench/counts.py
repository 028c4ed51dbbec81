"""Phase split of the division-kernel calls in one Buchberger run on A3.

    python3 bench/counts.py [n]        (from the repository root; n defaults to 7)

``buchberger`` calls ``_reduce`` once per generator (reduce-on-insert),
then once per pushed S-pair until the queue drains, then in the tail
inter-reduction passes.  The calls therefore split by position: the first
len(generators), the next pairs-pushed, and the rest.  The benchmark's
``groebner.reduce_calls`` and ``groebner.zero_reductions`` count all three
phases (and, on a3_tower, every n from 1 and the colon checks), while the
S-pair-only figure counts the middle phase alone.  The run is made twice
and must give the same counts.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.abspath("src"))

from nashfan import groebner  # noqa: E402
from nashfan.nash import a3_ordering, a3_semigroup, jn_generators  # noqa: E402


def phase_counts(n: int) -> dict:
    zero, pushed = [], [0]
    reduce, mcm = groebner._reduce, groebner.min_common_multiples

    def counted_reduce(*args):
        result = reduce(*args)
        zero.append(result.is_zero)
        return result

    def counted_mcm(*args):
        result = mcm(*args)
        pushed[0] += len(result)
        return result

    sg = a3_semigroup()
    ideal = jn_generators(sg, n)
    groebner._reduce, groebner.min_common_multiples = counted_reduce, counted_mcm
    try:
        groebner.buchberger(ideal, a3_ordering(sg))
    finally:
        groebner._reduce, groebner.min_common_multiples = reduce, mcm
    g, p = len(ideal.generators), pushed[0]
    phases = {"insert": zero[:g], "s_pairs": zero[g:g + p], "tail": zero[g + p:], "all": zero}
    return {name: {"reduce_calls": len(z), "zero_reductions": sum(z)} for name, z in phases.items()}


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    first, second = phase_counts(n), phase_counts(n)
    print(json.dumps({"n": n, "phases": first, "repeat": first == second}, indent=1))
    return 0 if first == second else 1


if __name__ == "__main__":
    sys.exit(main())
