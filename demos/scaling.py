"""
Linear scaling of the solver
============================

Generate random programs of doubling sizes, time only the solve call,
and print the mean runtime per size.  Doubling the program roughly
doubles the time; the ratios hover around 2 instead of growing.
"""

import time

from splcsp import GenConfig, decompose, gen_random_program, random_instance, solve

sizes, trials = [50, 100, 200, 400, 800], 5
mean_ns = {}
for size in sizes:
    total = 0
    for trial in range(trials):
        seed = size * 1009 + trial
        decomp = decompose(gen_random_program(GenConfig(seed=seed, size=size)))
        inst = random_instance(decomp.cfg, 2, seed=seed + 1, inf_prob=0.0, restrict_prob=0.0)
        start = time.perf_counter_ns()
        solve(inst, decomp)
        total += time.perf_counter_ns() - start
    mean_ns[size] = total / trials

print(f"{'size':>6} {'mean solve':>12}")
for size in sizes:
    print(f"{size:>6} {mean_ns[size] / 1e6:>10.2f} ms")

print("\ndoubling ratios:")
for a, b in zip(sizes, sizes[1:]):
    print(f"  {a:>4} -> {b:<4} {mean_ns[b] / mean_ns[a]:.2f}x")
