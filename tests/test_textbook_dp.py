"""`reference.textbook_min_cost`, the DP as the paper states it on full
(d, d, d, d) tables, against the oracle on the random suites that
check `solve` against it, and against `solve` on generated programs up
to size 200, with every domain size whole (k = d) and narrowed (k < d).
``tests/textbook_sweep.py`` runs the same comparison at larger sizes
and on the benchmark's instances."""

import math

import numpy as np
import pytest

from reference import textbook_min_cost
from splcsp import gen
from splcsp.solver import PcspInstance, oracle_solve, solve
from splcsp.spl import decompose
from test_batched_forward import SHARED_CLASS_PROGRAMS, decompose_source
from test_narrow_domains import narrow_suite


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("domain", [3, 4, 8])
def test_textbook_dp_matches_the_oracle_on_narrow_domains(domain, seed):
    for d, inst in narrow_suite(domain, seed):
        assert textbook_min_cost(inst, d) == oracle_solve(inst).min_cost


@pytest.mark.parametrize("src", SHARED_CLASS_PROGRAMS)
def test_textbook_dp_matches_the_oracle_on_shared_classes(src):
    d = decompose_source(src)
    for domain in [2, 3] if 3 ** d.cfg.vertex_count <= 1 << 20 else [2]:
        for seed in range(6):
            inst = gen.random_instance(d.cfg, domain, seed=seed, high=6, inf_prob=0.1, restrict_prob=0.5)
            assert textbook_min_cost(inst, d) == oracle_solve(inst).min_cost


def generated_suite(domain, count=100):
    """``count`` generated programs of 1 to 199 statements, every third
    jump-heavy, each with a random instance at d = ``domain`` that has
    INFINITY edge entries and restricted allowed sets; in every other
    one, every vertex allows fewer than d values (k < d)."""
    out = []
    for seed in range(count):
        jumpy = seed % 3 == 0
        config = gen.GenConfig(
            seed=seed, size=1 + 2 * seed % 199, p_break=0.2 if jumpy else 0.075, p_continue=0.2 if jumpy else 0.075
        )
        d = decompose(gen.gen_random_program(config))
        inst = gen.random_instance(d.cfg, domain, seed=seed, inf_prob=0.05 if seed % 4 < 2 else 0.005, restrict_prob=0.3)
        if seed % 2:
            rng = np.random.default_rng([domain, seed])
            allowed = {
                v: rng.choice(domain, size=int(rng.integers(1, domain)), replace=False).tolist()
                for v in range(d.cfg.vertex_count)
            }
            inst = PcspInstance(d.cfg, domain, inst.edge_stack[inst.edge_rows], inst.vertex_costs, allowed)
        out.append((d, inst))
    return out


@pytest.mark.parametrize("domain", [2, 3, 4])
def test_textbook_dp_matches_solve_on_generated_programs(domain):
    finite = {False: 0, True: 0}
    for seed, (d, inst) in enumerate(generated_suite(domain)):
        narrow = max(map(len, inst.allowed)) < domain
        assert narrow == bool(seed % 2)
        want = textbook_min_cost(inst, d)
        assert solve(inst, d).min_cost == want
        finite[narrow] += math.isfinite(want)
    assert min(finite.values()) >= 10
