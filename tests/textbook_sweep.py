"""Compare `solve`'s minimum with the textbook reference DP
(`reference.textbook_min_cost`) beyond tier-1's sizes.

It runs 300 generated programs at each of d = 2, 3 and 4, of 1 to 2000
statements, every third jump-heavy, with INFINITY edge entries and
restricted allowed sets, half of them with every vertex narrowed below
d; then every certify-small and pipeline-small-d instance of the
benchmark at seeds 1 to 3, whose workload code it imports and does not
change.  It prints a count per group and exits 1 on any mismatch.

    PYTHONPATH=src python tests/textbook_sweep.py [--count 300]
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "benchmark")]

from reference import textbook_min_cost  # noqa: E402
from splcsp import gen, solver  # noqa: E402
from splcsp.solver import PcspInstance  # noqa: E402
from splcsp.spl import decompose  # noqa: E402


def generated(domain: int, count: int):
    for seed in range(count):
        jumpy = seed % 3 == 0
        config = gen.GenConfig(
            seed=seed, size=1 + (seed * 37) % 2000, p_break=0.2 if jumpy else 0.075, p_continue=0.2 if jumpy else 0.075
        )
        d = decompose(gen.gen_random_program(config))
        inst = gen.random_instance(d.cfg, domain, seed=seed, inf_prob=0.02 if seed % 4 < 2 else 0.002, restrict_prob=0.3)
        if seed % 2:
            rng = np.random.default_rng([domain, seed])
            allowed = {
                v: rng.choice(domain, size=int(rng.integers(max(1, domain - 2), domain)), replace=False).tolist()
                for v in range(d.cfg.vertex_count)
            }
            inst = PcspInstance(d.cfg, domain, inst.edge_stack[inst.edge_rows], inst.vertex_costs, allowed)
        yield d, inst


def benchmark_pairs(name: str, seed: int):
    """Every (decomposition, instance) that workload ``name`` solves at
    ``seed``, caught by a `solve` that records its arguments."""
    from tracing import plain_api
    from workloads import WORKLOADS

    seen = []

    def recording_solve(instance, decomp):
        seen.append((decomp, instance))
        return solver.solve(instance, decomp)

    plain = plain_api()
    api = SimpleNamespace(**{**vars(plain), "solve": recording_solve})
    workload = WORKLOADS[name]
    for case in workload.make_cases(seed, plain):
        workload.run(api, case)
    return seen


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=300, help="generated programs per domain size")
    args = parser.parse_args()
    groups = [(f"gen d={domain}", lambda domain=domain: generated(domain, args.count)) for domain in (2, 3, 4)]
    groups += [
        (f"{name} seed {seed}", lambda name=name, seed=seed: benchmark_pairs(name, seed))
        for name in ("certify-small", "pipeline-small-d")
        for seed in (1, 2, 3)
    ]
    bad = 0
    for label, pairs in groups:
        start = time.perf_counter()
        count = finite = narrowed = 0
        for decomp, inst in pairs():
            want = textbook_min_cost(inst, decomp)
            got = solver.solve(inst, decomp).min_cost
            if got != want:
                bad += 1
                print(f"MISMATCH {label} #{count}: solve {got}, textbook {want}")
            count += 1
            finite += math.isfinite(want)
            narrowed += max(map(len, inst.allowed)) < inst.d
        print(f"{label}: {count} instances, {finite} finite, {narrowed} with k < d, "
              f"{time.perf_counter() - start:.1f} s")
    print("all equal" if not bad else f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
