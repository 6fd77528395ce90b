"""End-to-end checks of the package's headline guarantees.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per guarantee.  The slow entries state their own time budgets.
"""

import math
import statistics
import time

import numpy as np

from splcsp import lang, solver
from splcsp.gen import GenConfig, gen_random_program, random_instance
from splcsp.instances import (
    BankSpec,
    LospreSpec,
    build_bank_selection,
    build_graph_coloring,
    build_lospre,
    lospre_objective,
)
from splcsp.solver import (
    INFINITY,
    PcspInstance,
    as_csp,
    evaluate,
    oracle_solve,
    solve,
)
from splcsp.spl import BREAK, CONTINUE, Cfg, decompose

EUCLID = """\
while x >= 1 do
  if x >= y then
    x := x - y;
    break
  else
    y := y - x;
    continue
  fi
od
"""


def decompose_source(src):
    return decompose(lang.parse_program(src))


def random_suite(count, inf_prob=0.15, restrict_prob=0.3, high=10):
    """Deterministic stream of (decomposition, instance) pairs small
    enough for the oracle: sizes 1..12, domains 2 and 3."""
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        size = seed % 12 + 1
        d = 2 + seed % 2
        decomp = decompose(gen_random_program(GenConfig(seed=seed, size=size)))
        if d ** decomp.cfg.vertex_count > 1 << 16:
            d = 2
        if d ** decomp.cfg.vertex_count > 1 << 16:
            continue
        inst = random_instance(
            decomp.cfg,
            d,
            seed=seed,
            high=high,
            inf_prob=inf_prob,
            restrict_prob=restrict_prob,
        )
        out.append((decomp, inst))
    return out


def test_four_vertex_coloring_minima():
    graph = Cfg.from_json(
        {"vertex_count": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 1]]}
    )
    two = build_graph_coloring(graph, 2)
    three = build_graph_coloring(graph, 3)
    oracle_solve(two)  # warm-up outside the timed region
    t0 = time.perf_counter()
    assert oracle_solve(two).min_cost == 1
    assert oracle_solve(three).min_cost == 0
    assert time.perf_counter() - t0 < 1e-3


def test_euclid_decomposition_shape():
    d = decompose_source(EUCLID)
    root = d.nodes[d.root]
    assert root.kind == "loop"
    (par,) = root.children
    assert d.nodes[par].kind == "parallel"
    left, right = d.nodes[par].children
    assert [d.nodes[c].kind for c in d.nodes[left].children] == ["epsilon", "break"]
    assert [d.nodes[c].kind for c in d.nodes[right].children] == [
        "epsilon",
        "continue",
    ]
    cfg = d.cfg
    assert cfg.vertex_count == 10
    assert len(cfg.edges) == 9
    _, _, b, c = cfg.specials
    assert not {b, c} & {e.dst for e in cfg.edges}


def test_solver_equals_oracle_on_thousand_programs():
    t0 = time.perf_counter()
    suite = random_suite(1000)
    checked = 0
    for decomp, inst in suite:
        got = solve(inst, decomp)
        want = oracle_solve(inst)
        assert got.min_cost == want.min_cost, (
            f"vertices={inst.cfg.vertex_count} d={inst.d}: "
            f"solve={got.min_cost} oracle={want.min_cost}"
        )
        if got.assignment is None:
            assert got.min_cost == INFINITY
        else:
            assert evaluate(inst, got.assignment) == got.min_cost
        checked += 1
    assert checked >= 1000
    assert time.perf_counter() - t0 < 60


def test_loop_back_and_exit_edges_carry_cost():
    d = decompose_source(
        "while p do if q then s; break else s; continue fi od"
    )
    root = d.nodes[d.root]
    assert root.kind == "loop"
    (child,) = root.children
    _, _, b1, c1 = d.nodes[child].specials
    s, t, _, _ = root.specials
    # the child's continue target loops back to S; its break target
    # exits to T; both edges exist and their costs count
    edges = {(e.src, e.dst): e for e in d.cfg.edges}
    assert (c1, s) in edges and (b1, t) in edges
    one = np.ones((2, 2))
    inst = PcspInstance(
        d.cfg, 2, edge_costs={(c1, s): one, (b1, t): one}
    )
    got = solve(inst, d)
    want = oracle_solve(inst)
    assert got.min_cost == want.min_cost == 2


def test_duplicate_break_edge_counted_once():
    d = decompose_source("while p do if q then break else break fi od")
    par = next(n for n in d.nodes if n.kind == "parallel")
    s1, _, b1, _ = par.specials
    assert par.duplicates == ((s1, b1),)
    assert {(e.src, e.dst): e for e in d.cfg.edges}[(s1, b1)].label == BREAK
    inst = PcspInstance(d.cfg, 2, edge_costs={(s1, b1): np.ones((2, 2))})
    got = solve(inst, d)
    want = oracle_solve(inst)
    assert got.min_cost == want.min_cost == 1


def test_bank_selection_hoisting_beats_per_access():
    src = "if phi then\n  a1;\n  skip\nelse\n  a2;\n  skip\nfi;\na3"
    d = decompose_source(src)
    access = {e.dst for e in d.cfg.edges if e.text in ("a1", "a2", "a3")}
    spec = BankSpec(banks=1, preassigned={v: 0 for v in access})
    inst = build_bank_selection(d.cfg, spec)
    assert solve(inst, d).min_cost == 2
    assert oracle_solve(inst).min_cost == 2
    adhoc = {
        v: (0 if v in access else spec.unknown)
        for v in range(d.cfg.vertex_count)
    }
    assert evaluate(inst, adhoc) == 3


def test_lospre_objective_equality_on_random_tuples():
    import random as pyrandom

    rng = pyrandom.Random(2024)
    checked = 0
    while checked < 200:
        size = rng.randint(1, 15)
        decomp = decompose(
            gen_random_program(GenConfig(seed=rng.randint(0, 1 << 30), size=size))
        )
        cfg = decomp.cfg
        n = cfg.vertex_count
        keys = [(e.src, e.dst) for e in cfg.edges]
        spec = LospreSpec(
            use=frozenset(v for v in range(n) if rng.random() < 0.3),
            invalidating=frozenset(v for v in range(n) if rng.random() < 0.2),
            edge_costs={k: rng.randrange(5) for k in keys},
            vertex_costs={v: rng.randrange(4) for v in range(n)},
        )
        inst = build_lospre(cfg, spec)
        members = {v for v in range(n) if rng.random() < 0.5}
        indicator = {v: int(v in members) for v in range(n)}
        assert evaluate(inst, indicator) == lospre_objective(cfg, spec, members)
        checked += 1
    assert checked == 200


def test_every_vertex_charged_exactly_once():
    for seed in range(100):
        decomp = decompose(
            gen_random_program(GenConfig(seed=seed, size=seed % 20 + 1))
        )
        n = decomp.cfg.vertex_count
        inst = PcspInstance(decomp.cfg, 2, None, np.ones((n, 2)))
        assert solve(inst, decomp).min_cost == n


def test_solve_time_scales_linearly(monkeypatch):
    # The doubling window applies to a work count, the elements of the
    # sums each solve forms through `solver._sum_min`, which no host
    # load moves.  Part of solve's wall time is per batch, and batch
    # counts grow more slowly than node counts, so the wall-clock
    # ratio has only an upper bound.
    real_sum_min = solver._sum_min

    def counting_sum_min(a, b, axis, dtype):
        work[-1] += math.prod(np.broadcast_shapes(a.shape, b.shape))
        return real_sum_min(a, b, axis, dtype)

    monkeypatch.setattr(solver, "_sum_min", counting_sum_min)
    t0 = time.perf_counter()
    sizes, trials = [100, 200, 500, 1000, 2000, 4000], 20
    # one solve per (size, trial), in that order; only `solve` is timed
    work: list[int] = []
    times: list[int] = []
    for size in sizes:
        for trial in range(trials):
            seed = size * 1009 + trial
            decomp = decompose(gen_random_program(GenConfig(seed=seed, size=size)))
            inst = random_instance(decomp.cfg, 2, seed=seed + 1, inf_prob=0.0, restrict_prob=0.0)
            work.append(0)
            start = time.perf_counter_ns()
            solve(inst, decomp)
            times.append(time.perf_counter_ns() - start)

    # the median of each size's trials: one trial slowed by host load
    # moves a mean, not a median
    def median(values, size):
        first = sizes.index(size) * trials
        return statistics.median(values[first : first + trials])

    for n in (100, 500, 2000):
        ratio = median(work, 2 * n) / median(work, n)
        assert 1.5 <= ratio <= 3.0, f"size {n} -> {2 * n}: work ratio {ratio:.2f}"
        ratio = median(times, 2 * n) / median(times, n)
        assert ratio <= 3.0, f"size {n} -> {2 * n}: time ratio {ratio:.2f}"
    assert time.perf_counter() - t0 < 120


def test_hard_constraint_reduction_detects_satisfiability():
    for decomp, inst in random_suite(300, inf_prob=0.1, restrict_prob=0.3, high=2):
        hard = as_csp(inst)
        got = solve(hard, decomp)
        want = oracle_solve(hard)
        assert (got.min_cost == 0) == (want.min_cost == 0)
        if got.min_cost != 0:
            assert got.min_cost == INFINITY == want.min_cost
        else:
            assert evaluate(hard, got.assignment) == 0
