"""`solve` on narrowed domains.

When every vertex allows fewer than d values, the forward pass runs on
axes of length k, the size of the largest allowed set: a vertex's axis
holds its allowed values in increasing order, padded with INFINITY, and
the backtrack maps each position back to its value.
"""

import gc
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from reference import allowed_mask
from splcsp import gen, lang, solver
from splcsp.instances import BankSpec, RegAllocSpec, build_bank_selection, build_regalloc
from splcsp.solver import INFINITY, PcspInstance, Solution, evaluate, oracle_solve, solve
from splcsp.spl import decompose


def narrow_suite(domain, seed, count=24):
    """``count`` small programs, every other one jump-heavy, each with
    a random instance at d = ``domain`` whose allowed sets hold at most
    d/2 values, about 10% INFINITY edge entries, and, in every third
    instance, one value at each of the root's specials."""
    rng = np.random.default_rng([domain, seed])
    out = []
    while len(out) < count:
        jumpy = len(out) % 2 == 0
        config = gen.GenConfig(
            seed=int(rng.integers(1 << 30)),
            size=int(rng.integers(1, 9)),
            p_break=0.3 if jumpy else 0.075,
            p_continue=0.3 if jumpy else 0.075,
        )
        d = decompose(gen.gen_random_program(config))
        n = d.cfg.vertex_count
        allowed = {
            v: rng.choice(domain, size=int(rng.integers(1, domain // 2 + 1)), replace=False).tolist()
            for v in range(n)
        }
        if len(out) % 3 == 0:
            for v in d.nodes[d.root].specials:
                allowed[v] = allowed[v][:1]
        if math.prod(map(len, allowed.values())) > 1 << 16:
            continue
        edges = rng.integers(0, 10, size=(len(d.cfg.edges), domain, domain)).astype(float)
        edges[rng.random(edges.shape) < 0.1] = INFINITY
        vertex = rng.integers(0, 10, size=(n, domain))
        out.append((d, PcspInstance(d.cfg, domain, edges, vertex, allowed)))
    return out


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("domain", [3, 4, 8])
def test_narrow_solve_matches_the_oracle(domain, seed):
    for d, inst in narrow_suite(domain, seed):
        assert max(map(len, inst.allowed)) <= domain // 2
        got = solve(inst, d)
        assert got.min_cost == oracle_solve(inst).min_cost
        if got.assignment is not None:
            assert evaluate(inst, got.assignment) == got.min_cost


@pytest.mark.parametrize("domain", [3, 4, 8])
def test_narrow_one_row_blocks_give_the_same_solution(monkeypatch, domain):
    suite = narrow_suite(domain, seed=7)
    whole = [solve(inst, d) for d, inst in suite]
    monkeypatch.setattr(solver, "_BLOCK", 1)
    assert [solve(inst, d) for d, inst in suite] == whole


@pytest.mark.parametrize("domain", [3, 4, 8])
def test_infeasible_narrow_instance_has_no_witness(domain):
    # every allowed pair on the edge is INFINITY and every other entry
    # is free, so reading a value outside an allowed set would give 0
    d = decompose(lang.parse_program("a"))
    src, dst = d.cfg.edges[0].src, d.cfg.edges[0].dst
    table = np.zeros((domain, domain))
    table[np.ix_([0, domain - 1], [1])] = INFINITY
    inst = PcspInstance(d.cfg, domain, {(src, dst): table}, None, {src: [0, domain - 1], dst: [1]})
    assert solve(inst, d) == Solution(INFINITY, None) == oracle_solve(inst)


def connected_half(cfg, start):
    """The first half of the CFG's vertices reached breadth first from
    ``start`` over edges in either direction, neighbours in order."""
    adjacent = [set() for _ in range(cfg.vertex_count)]
    for e in cfg.edges:
        adjacent[e.src].add(e.dst)
        adjacent[e.dst].add(e.src)
    half = cfg.vertex_count // 2
    seen, queue = {start}, deque([start])
    while queue and len(seen) < half:
        for w in sorted(adjacent[queue.popleft()]):
            if w not in seen and len(seen) < half:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


@pytest.mark.parametrize("variables, registers, domain, widest", [("abc", 2, 44, 13), ("abcd", 1, 48, 5)])
def test_wide_register_allocation_solves_in_little_memory(variables, registers, domain, widest):
    # a 98-vertex CFG, each lifetime a connected half of it.  On axes of
    # all d values, solve peaked at 129 MiB at d=44 and 182 MiB at d=48
    tree = gen.gen_random_program(gen.GenConfig(seed=3, size=60))
    d = decompose(lang.parse_program(lang.pretty_print(tree)))
    n = d.cfg.vertex_count
    lifetimes = {v: connected_half(d.cfg, j * n // len(variables)) for j, v in enumerate(variables)}
    inst = build_regalloc(d.cfg, RegAllocSpec(lifetimes, registers))
    assert (n, inst.d, max(map(len, inst.allowed))) == (98, domain, widest)
    gc.collect()
    tracemalloc.start()
    try:
        got = solve(inst, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.min_cost == 0 == evaluate(inst, got.assignment)
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_narrowed_edge_rows_are_one_per_distinct_row_and_sets():
    # two variables and one register: 8 placements, at most 3 allowed
    # at a vertex and four distinct allowed sets, so the one shared
    # switch table becomes at most 16 rows of 3 x 3, one row index per
    # edge of the graph
    tree = gen.gen_random_program(gen.GenConfig(seed=3, size=60))
    d = decompose(tree)
    n = d.cfg.vertex_count
    inst = build_regalloc(d.cfg, RegAllocSpec({"x": connected_half(d.cfg, 0), "y": connected_half(d.cfg, n // 2)}, 1))
    vm, stack, rows, k = solver._narrowed(inst)
    assert (inst.d, k, vm.shape) == (8, 3, (n, 3))
    assert stack.shape[1:] == (3, 3) and len(stack) <= 16
    assert rows.shape == inst.edge_rows.shape
    # an edge's row is its table on its ends' allowed values, padded
    padded = [vals + vals[-1:] * (k - len(vals)) for vals in inst.allowed]
    for e, r, narrow in zip(d.cfg.edges, inst.edge_rows, rows):
        assert (stack[narrow] == inst.edge_stack[r][np.ix_(padded[e.src], padded[e.dst])]).all()
    # a vertex's padding is INFINITY, its allowed values keep their costs
    for v, vals in enumerate(inst.allowed):
        assert np.isinf(vm[v, len(vals):]).all() and (vm[v, : len(vals)] == 0).all()


def test_nothing_is_narrowed_when_some_vertex_allows_every_value():
    d = decompose(lang.parse_program("a; b"))
    inst = gen.random_instance(d.cfg, 3, seed=1, restrict_prob=0.5)
    assert max(map(len, inst.allowed)) == 3
    vm, stack, rows, k = solver._narrowed(inst)
    assert (k, vm.shape) == (3, (d.cfg.vertex_count, 3))
    assert stack is inst.edge_stack and rows is inst.edge_rows


def test_equal_allowed_sets_share_one_tuple():
    d = decompose(gen.gen_random_program(gen.GenConfig(seed=3, size=20)))
    inst = PcspInstance(d.cfg, 3, allowed={0: [2, 1], 1: (1, 2), 2: [0, 1, 2], 4: {1, 2}})
    assert inst.allowed[0] == (1, 2)
    assert inst.allowed[0] is inst.allowed[1] is inst.allowed[4]
    assert inst.allowed[2] is inst.allowed[3]
    n = d.cfg.vertex_count
    spec = RegAllocSpec({"x": connected_half(d.cfg, 0), "y": connected_half(d.cfg, n - 1)}, 1)
    built = build_regalloc(d.cfg, spec)
    live = [frozenset(var for var, vs in spec.lifetimes.items() if v in vs) for v in range(n)]
    for u in range(n):
        for v in range(n):
            assert (built.allowed[u] is built.allowed[v]) == (live[u] == live[v])


def test_allowed_sets_are_stored_once_with_an_index_per_vertex():
    d = decompose(gen.gen_random_program(gen.GenConfig(seed=3, size=20)))
    n = d.cfg.vertex_count
    inst = PcspInstance(d.cfg, 3, allowed={0: [2, 1], 1: (1, 2), 2: [0, 1, 2], 4: {1, 2}, 5: [0]})
    assert inst.sets == ((0, 1, 2), (1, 2), (0,))
    assert inst.set_of.dtype == np.int32 and not inst.set_of.flags.writeable
    assert inst.set_of.tolist() == [1, 1, 0, 0, 1, 2] + [0] * (n - 6)
    assert "allowed" not in inst.__dict__
    for v in range(n):
        assert inst.allowed[v] is inst.sets[inst.set_of[v]]


@pytest.mark.parametrize("seed", range(6))
def test_unnarrowed_costs_are_the_vertex_costs_plus_the_allowed_mask(seed):
    rng = np.random.default_rng(seed)
    d = decompose(gen.gen_random_program(gen.GenConfig(seed=seed, size=30)))
    n, domain = d.cfg.vertex_count, int(rng.integers(2, 9))
    allowed = {
        v: rng.choice(domain, size=int(rng.integers(1, domain + 1)), replace=False).tolist()
        for v in range(1, n)
        if rng.random() < 0.5
    }
    inst = PcspInstance(d.cfg, domain, None, rng.integers(0, 10, size=(n, domain)), allowed)
    vm, stack, rows, k = solver._narrowed(inst)
    assert k == domain
    assert (vm == inst.vertex_costs + allowed_mask(inst)).all()


def test_solving_never_makes_the_allowed_sets():
    # on full axes (the bank instance pins some vertices) and narrowed
    # ones (every vertex of the allocation allows at most 3 of 8 values)
    d = decompose(gen.gen_random_program(gen.GenConfig(seed=4, size=200)))
    n = d.cfg.vertex_count
    bank = build_bank_selection(d.cfg, BankSpec(2, preassigned={v: v % 2 for v in range(1, n, 7)}))
    regalloc = build_regalloc(d.cfg, RegAllocSpec({"x": connected_half(d.cfg, 0), "y": connected_half(d.cfg, n // 2)}, 1))
    for inst in (bank, regalloc):
        sol = solve(inst, d)
        assert evaluate(inst, sol.assignment) == sol.min_cost
        assert evaluate(inst, {v: 0 for v in range(n)}) == INFINITY
        assert "allowed" not in inst.__dict__
