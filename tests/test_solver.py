import dataclasses
import itertools
import json
import math
import re
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import allowed_mask, dp_tables, node_graph
from splcsp import gen, lang, solver
from splcsp.instances import build_graph_coloring
from splcsp.solver import (
    INFINITY,
    BudgetExceededError,
    InstanceMismatchError,
    PartialAssignmentError,
    PcspInstance,
    Solution,
    as_csp,
    evaluate,
    instance_from_json,
    instance_to_json,
    oracle_solve,
    solve,
)
from splcsp.spl import Cfg, decompose


def decompose_source(src):
    return decompose(lang.parse_program(src))


def single_edge_instance(allowed=None):
    """One statement: 4 vertices, one edge (0, 1).

    Edge table [[0, 5], [7, 1]], vertex costs chosen so every total is
    distinct: v0 [1, 0], v1 [0, 2], v2 [0, 3], v3 [4, 0].
    """
    d = decompose_source("a")
    inst = PcspInstance(
        d.cfg,
        2,
        edge_costs={(0, 1): [[0, 5], [7, 1]]},
        vertex_costs=[[1, 0], [0, 2], [0, 3], [4, 0]],
        allowed=allowed,
    )
    return inst, d


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_by_hand():
    inst, _ = single_edge_instance()
    assert evaluate(inst, {0: 0, 1: 0, 2: 0, 3: 1}) == 1
    assert evaluate(inst, {0: 1, 1: 1, 2: 0, 3: 1}) == 3
    assert evaluate(inst, {0: 1, 1: 0, 2: 1, 3: 0}) == 0 + 0 + 3 + 4 + 7


def test_evaluate_requires_total_assignment():
    inst, _ = single_edge_instance()
    with pytest.raises(PartialAssignmentError):
        evaluate(inst, {0: 0, 1: 0})
    with pytest.raises(ValueError):
        evaluate(inst, {0: 0, 1: 2, 2: 0, 3: 0})


def test_evaluate_respects_allowed_sets():
    inst, _ = single_edge_instance(allowed={0: [1]})
    assert evaluate(inst, {0: 0, 1: 0, 2: 0, 3: 1}) == INFINITY
    assert evaluate(inst, {0: 1, 1: 1, 2: 0, 3: 1}) == 3


def test_evaluate_hits_infinite_entries():
    d = decompose_source("a")
    inst = PcspInstance(d.cfg, 2, edge_costs={(0, 1): [[INFINITY, 0], [0, 0]]})
    assert evaluate(inst, {0: 0, 1: 0, 2: 0, 3: 0}) == INFINITY
    assert evaluate(inst, {0: 0, 1: 1, 2: 0, 3: 0}) == 0


def test_evaluate_refuses_values_that_are_not_integers():
    d = decompose_source("a")
    inst = PcspInstance(d.cfg, 2, vertex_costs=[[0, 5]] * d.cfg.vertex_count)
    for bad in (0.9, 1.0, "1"):
        with pytest.raises((TypeError, ValueError)):
            evaluate(inst, {0: bad, 1: 0, 2: 0, 3: 0})
    assert evaluate(inst, {0: np.int64(1), 1: np.uint8(0), 2: 0, 3: 0}) == 5


# ---------------------------------------------------------------------------
# instance validation


def test_domain_must_be_positive():
    d = decompose_source("a")
    with pytest.raises(ValueError):
        PcspInstance(d.cfg, 0)


def test_rejects_costs_for_missing_edges_and_vertices():
    d = decompose_source("a")
    with pytest.raises(InstanceMismatchError):
        PcspInstance(d.cfg, 2, edge_costs={(2, 3): [[0, 0], [0, 0]]})
    with pytest.raises(InstanceMismatchError):
        PcspInstance(d.cfg, 2, vertex_costs={9: [0, 0]})
    with pytest.raises(InstanceMismatchError):
        PcspInstance(d.cfg, 2, allowed={9: [0]})


def test_rejects_malformed_tables():
    d = decompose_source("a")
    with pytest.raises(ValueError):
        PcspInstance(d.cfg, 2, edge_costs={(0, 1): [[0, 0, 0], [0, 0, 0]]})
    with pytest.raises(ValueError):
        PcspInstance(d.cfg, 2, edge_costs={(0, 1): [[-1, 0], [0, 0]]})
    with pytest.raises(ValueError):
        PcspInstance(d.cfg, 2, edge_costs={(0, 1): [[0.5, 0], [0, 0]]})
    with pytest.raises(ValueError):
        PcspInstance(d.cfg, 2, vertex_costs=np.zeros((4, 3)))


@pytest.mark.parametrize("bad", [-1, 0.5, math.nan])
def test_callable_costs_are_checked_like_tables(bad):
    d = decompose_source("a")
    with pytest.raises(ValueError):
        PcspInstance(d.cfg, 2, edge_costs=lambda e, a, b: bad if (a, b) == (1, 0) else 0)
    with pytest.raises(ValueError):
        PcspInstance(d.cfg, 2, vertex_costs=lambda v, a: bad if v == 2 else 0)


def test_callable_costs_count_toward_the_overflow_limit():
    d = decompose_source("a; b")
    priced = d.cfg.edges[:2]
    with pytest.raises(solver.CostOverflowError):
        PcspInstance(d.cfg, 2, edge_costs=lambda e, a, b: 2**52 if e in priced else 0)


def test_callable_costs_equal_their_table_form():
    d = decompose_source("while p do if q then a; break else b fi od")

    def edge(e, a, b):
        return INFINITY if (a, b) == (2, 0) else (7 * e.src + 3 * e.dst + 2 * a + b) % 5

    def vertex(v, a):
        return (v + 2 * a) % 4

    called = PcspInstance(d.cfg, 3, edge, vertex)
    tabled = PcspInstance(
        d.cfg,
        3,
        {
            (e.src, e.dst): [[edge(e, a, b) for b in range(3)] for a in range(3)]
            for e in d.cfg.edges
        },
        [[vertex(v, a) for a in range(3)] for v in range(d.cfg.vertex_count)],
    )
    assert called.edge_tables.keys() == tabled.edge_tables.keys()
    for key, tab in tabled.edge_tables.items():
        assert called.edge_tables[key].tolist() == tab.tolist()
    assert called.vertex_costs.tolist() == tabled.vertex_costs.tolist()


def test_rejects_bad_allowed_sets():
    d = decompose_source("a")
    with pytest.raises(ValueError):
        PcspInstance(d.cfg, 2, allowed={0: []})
    with pytest.raises(ValueError):
        PcspInstance(d.cfg, 2, allowed={0: [2]})
    with pytest.raises(ValueError):
        PcspInstance(d.cfg, 2, allowed={0: [-1]})


def test_solve_rejects_foreign_decomposition():
    inst, _ = single_edge_instance()
    other = decompose_source("a; b")
    with pytest.raises(InstanceMismatchError):
        solve(inst, other)


# ---------------------------------------------------------------------------
# solve on frozen cases


def test_solve_single_edge():
    inst, d = single_edge_instance()
    sol = solve(inst, d)
    assert sol.min_cost == 1
    assert sol.assignment == {0: 0, 1: 0, 2: 0, 3: 1}
    assert evaluate(inst, sol.assignment) == sol.min_cost


def test_solve_single_edge_with_pinned_vertex():
    inst, d = single_edge_instance(allowed={0: [1]})
    sol = solve(inst, d)
    assert sol.min_cost == 3
    assert sol.assignment == {0: 1, 1: 1, 2: 0, 3: 1}


def test_solve_unsatisfiable_reports_infinity():
    d = decompose_source("a")
    inst = PcspInstance(
        d.cfg,
        2,
        edge_costs={(0, 1): [[INFINITY, INFINITY], [INFINITY, INFINITY]]},
    )
    sol = solve(inst, d)
    assert sol.min_cost == INFINITY
    assert sol.assignment is None
    assert oracle_solve(inst) == sol


def test_solution_json():
    assert Solution(3, {1: 0, 0: 2}).to_json() == {
        "min_cost": 3,
        "assignment": {"0": 2, "1": 0},
    }
    assert Solution(INFINITY, None).to_json() == {
        "min_cost": "inf",
        "assignment": None,
    }


# ---------------------------------------------------------------------------
# dp tables


def test_dp_tables_shapes_and_atom_contents():
    inst, d = single_edge_instance(allowed={0: [1]})
    tabs = dp_tables(inst, d)
    assert len(tabs) == len(d.nodes)
    assert all(t.shape == (2, 2, 2, 2) for t in tabs)
    root = tabs[d.root]
    # the atom's table is the edge table on the (S, T) axes with the
    # disallowed S value masked out
    assert np.isinf(root[0]).all()
    expect = np.array([[7.0, 1.0]])
    assert (root[1, :, 0, 0] == expect).all()


def brute_node_table(inst, decomp, i):
    """Reference for dp_tables: enumerate the node's own subgraph."""
    node = decomp.nodes[i]
    g = node_graph(decomp, i)
    specials = node.specials
    internal = sorted(g.vertices - set(specials))
    dd = inst.d
    out = np.empty((dd, dd, dd, dd))
    for quad in itertools.product(range(dd), repeat=4):
        if any(
            quad[j] not in inst.allowed[specials[j]] for j in range(4)
        ):
            out[quad] = INFINITY
            continue
        value = dict(zip(specials, quad))
        best = INFINITY
        pools = [sorted(inst.allowed[v]) for v in internal]
        for combo in itertools.product(*pools):
            value.update(zip(internal, combo))
            total = 0.0
            for key in g.edges:
                total += inst.edge_tables[key][value[key[0]], value[key[1]]]
            for v in internal:
                total += inst.vertex_costs[v, value[v]]
            best = min(best, total)
        out[quad] = best
    return out


@pytest.mark.filterwarnings("ignore::splcsp.spl.OpenProgramWarning")
@pytest.mark.parametrize(
    "src",
    [
        "a",
        "break",
        "a; b",
        "if p then a; b else c fi",
        "while p do a od",
        "while p do if q then break else continue fi od",
        "a; while p do b; break od; c",
        # parallel nodes that collapse an edge held by both branches
        "if p then a else b fi",
        "while p do if q then break else break fi od",
        "while p do if q then continue else continue fi od",
        "if p then a else while q do b od fi",
        "if p then while q do a od else while r do b od fi",
        "while p do if q then break else if r then break else "
        "if s then break else break fi fi fi od",
    ],
)
def test_dp_tables_match_exhaustive_subproblems(src):
    d = decompose_source(src)
    rng = np.random.default_rng(zlib.crc32(src.encode()))
    inst = gen.random_instance(d.cfg, 2, seed=int(rng.integers(1 << 30)),
                               inf_prob=0.2, restrict_prob=0.3)
    tabs = dp_tables(inst, d)
    for i in range(len(d.nodes)):
        expect = brute_node_table(inst, d, i)
        got = tabs[i]
        assert ((got == expect) | (np.isinf(got) & np.isinf(expect))).all(), i


# the programs of the test above, without the filterwarnings mark
_DP_PROGRAMS = next(
    mark.args[1]
    for mark in test_dp_tables_match_exhaustive_subproblems.pytestmark
    if mark.name == "parametrize"
)


@pytest.mark.filterwarnings("ignore::splcsp.spl.OpenProgramWarning")
@pytest.mark.parametrize("domain", [3, 4])
@pytest.mark.parametrize("src", _DP_PROGRAMS)
def test_dp_tables_match_exhaustive_subproblems_on_narrow_domains(src, domain):
    # every allowed set is smaller than d, so the forward pass runs on
    # narrowed axes; vertex 0 allows d - 1 values, so they are longer
    # than 1 and the tables must be scattered back to (d, d, d, d)
    d = decompose_source(src)
    rng = np.random.default_rng([zlib.crc32(src.encode()), domain])
    base = gen.random_instance(d.cfg, domain, seed=int(rng.integers(1 << 30)), inf_prob=0.2, restrict_prob=0.0)
    allowed = {
        v: rng.choice(domain, size=domain - 1 if v == 0 else int(rng.integers(1, domain)), replace=False).tolist()
        for v in range(d.cfg.vertex_count)
    }
    inst = PcspInstance(d.cfg, domain, base.edge_stack, base.vertex_costs, allowed)
    tabs = dp_tables(inst, d)
    for i in range(len(d.nodes)):
        expect = brute_node_table(inst, d, i)
        got = tabs[i]
        assert got.shape == (domain,) * 4
        assert ((got == expect) | (np.isinf(got) & np.isinf(expect))).all(), i


# ---------------------------------------------------------------------------
# oracle


def test_oracle_budget():
    d = decompose_source("a; b; c")
    inst = PcspInstance(d.cfg, 2)
    with pytest.raises(BudgetExceededError) as err:
        oracle_solve(inst, budget=8)
    assert err.value.combinations == 2 ** d.cfg.vertex_count
    assert err.value.budget == 8


def test_oracle_breaks_ties_lexicographically_small():
    d = decompose_source("a; b")
    inst = PcspInstance(d.cfg, 3, allowed={0: [2], 3: [1, 2]})
    sol = oracle_solve(inst)
    assert sol.min_cost == 0
    assert sol.assignment == {0: 2, 1: 0, 2: 0, 3: 1, 4: 0}


def test_oracle_breaks_ties_lexicographically_large():
    # 2**13 assignments with one vertex in the middle pinned: every
    # other vertex takes its first value
    d = decompose_source("; ".join("abcdefghij"))
    n = d.cfg.vertex_count
    assert 2 ** n > 4096
    inst = PcspInstance(d.cfg, 2, allowed={5: [1]})
    sol = oracle_solve(inst)
    assert sol.assignment == {v: (1 if v == 5 else 0) for v in range(n)}


def tie_heavy_instances():
    """Random instances with costs in 0..1, so that many assignments
    tie, with INFINITY entries and restricted allowed sets."""
    out = []
    for seed in range(24):
        d = decompose(gen.gen_random_program(gen.GenConfig(seed=seed, size=1 + seed % 3)))
        domain = 3 if 3 ** d.cfg.vertex_count <= 1 << 10 else 2
        out.append(
            gen.random_instance(
                d.cfg, domain, seed=seed, low=0, high=1, inf_prob=0.2, restrict_prob=0.3
            )
        )
    return out


@pytest.mark.parametrize("chunk", [1, 7])
def test_oracle_witness_does_not_depend_on_chunk_size(monkeypatch, chunk):
    cfg = decompose_source("a; b; c").cfg
    never = np.full((2, 2), INFINITY)
    infeasible = PcspInstance(cfg, 2, {(e.src, e.dst): never for e in cfg.edges})
    instances = tie_heavy_instances() + [infeasible]
    want = [oracle_solve(inst) for inst in instances]
    monkeypatch.setattr(solver, "_CHUNK", chunk)
    got = [oracle_solve(inst) for inst in instances]
    assert got == want
    assert want[-1] == Solution(INFINITY, None)
    # the lexicographically first minimum, found the slow way
    for inst, sol in zip(instances, want):
        if sol.assignment is not None:
            combos = itertools.product(*inst.allowed)
            first = min(combos, key=lambda c: evaluate(inst, dict(enumerate(c))))
            assert sol.assignment == dict(enumerate(first))


def brute_first_minimum(inst):
    """The lexicographically first minimum, by `itertools.product`."""
    costs = {c: evaluate(inst, dict(enumerate(c))) for c in itertools.product(*inst.allowed)}
    best = min(costs.values())
    if math.isinf(best):
        return Solution(INFINITY, None)
    return Solution(best, dict(enumerate(min(costs, key=costs.get))))


def chain_cfg(statements):
    return decompose_source("; ".join(f"s{i}" for i in range(statements))).cfg


@pytest.mark.parametrize("chunk", [2, 4, 16, 1 << 16])
def test_oracle_first_minimum_across_block_boundaries(monkeypatch, chunk):
    monkeypatch.setattr(solver, "_CHUNK", chunk)
    cfg = chain_cfg(5)
    n = cfg.vertex_count
    # every cost zero: the first block's first assignment
    flat = PcspInstance(cfg, 2, vertex_costs=[[0, 0]] * n)
    # vertex 0 prefers 1: the first assignment of the second half
    late = PcspInstance(cfg, 2, vertex_costs=[[1, 0]] + [[0, 0]] * (n - 1))
    # the last assignment of the first half ties with the very last one
    edge = PcspInstance(cfg, 2, vertex_costs=[[0, 0]] + [[1, 0]] * (n - 1))
    # only the very last assignment is finite
    last = PcspInstance(cfg, 2, vertex_costs=[[INFINITY, 0]] * n)
    for inst in (flat, late, edge, last):
        assert oracle_solve(inst) == brute_first_minimum(inst)
    assert oracle_solve(flat).assignment == dict.fromkeys(range(n), 0)
    assert oracle_solve(late).assignment == {0: 1, **dict.fromkeys(range(1, n), 0)}
    assert oracle_solve(edge).assignment == {0: 0, **dict.fromkeys(range(1, n), 1)}
    assert oracle_solve(last) == Solution(0, dict.fromkeys(range(n), 1))
    for inst in tie_heavy_instances():
        assert oracle_solve(inst) == brute_first_minimum(inst)


def test_oracle_on_a_coloring_graph_with_self_loops():
    graph = Cfg.from_json({"vertex_count": 5, "edges": [[0, 1], [1, 1], [1, 2], [2, 0], [3, 3], [3, 4]]})
    for colors in (1, 2, 3):
        inst = build_graph_coloring(graph, colors)
        assert oracle_solve(inst) == brute_first_minimum(inst)
    # a self-loop always conflicts; with three colors nothing else does
    assert oracle_solve(build_graph_coloring(graph, 3)).min_cost == 2
    assert oracle_solve(build_graph_coloring(graph, 1)).min_cost == 6
    pinned = PcspInstance(graph, 3, {(1, 1): [[0, 0, 0], [0, 0, 0], [0, 0, 5]]}, allowed={1: [2]})
    assert oracle_solve(pinned) == Solution(5, {0: 0, 1: 2, 2: 0, 3: 0, 4: 0})


def test_oracle_with_most_of_forty_vertices_pinned():
    rng = np.random.default_rng(5)
    cfg = chain_cfg(40)
    n = cfg.vertex_count
    assert n >= 40
    free = {3, 11, 12, 20, 29, 35, n - 1}
    allowed = {v: [int(rng.integers(3))] for v in range(n) if v not in free}
    allowed[11] = [0, 2]
    edges = rng.integers(0, 4, size=(len(cfg.edges), 3, 3)).astype(float)
    # INFINITY only next to a free vertex, so some assignment is finite
    for tab, e in zip(edges, cfg.edges):
        if {e.src, e.dst} & free:
            tab[rng.random((3, 3)) < 0.1] = INFINITY
    inst = PcspInstance(cfg, 3, edges, rng.integers(0, 4, size=(n, 3)), allowed)
    assert math.prod(map(len, inst.allowed)) == 2 * 3**6
    want = brute_first_minimum(inst)
    assert want.assignment is not None
    assert oracle_solve(inst) == want
    # every vertex pinned: one assignment, priced by evaluate
    one = PcspInstance(cfg, 3, edges, rng.integers(0, 4, size=(n, 3)), {v: [v % 3] for v in range(n)})
    assert oracle_solve(one) == brute_first_minimum(one)


@pytest.mark.parametrize("chunk", [1, 7])
def test_oracle_with_pinned_vertices_does_not_depend_on_chunk_size(monkeypatch, chunk):
    instances = []
    for seed in range(12):
        d = decompose(gen.gen_random_program(gen.GenConfig(seed=seed, size=2 + seed % 3)))
        domain = 3 if 3 ** d.cfg.vertex_count <= 1 << 12 else 2
        inst = gen.random_instance(d.cfg, domain, seed=seed, high=2, inf_prob=0.2, restrict_prob=0.3)
        # pin every third vertex, and the last one, on top
        allowed = dict(enumerate(inst.allowed))
        for v in [*range(seed % 3, d.cfg.vertex_count, 3), d.cfg.vertex_count - 1]:
            allowed[v] = allowed[v][-1:]
        instances.append(PcspInstance(d.cfg, domain, inst.edge_stack, inst.vertex_costs, allowed))
    want = [oracle_solve(inst) for inst in instances]
    monkeypatch.setattr(solver, "_CHUNK", chunk)
    assert [oracle_solve(inst) for inst in instances] == want
    for inst, sol in zip(instances, want):
        assert sol == brute_first_minimum(inst)


def test_oracle_memory_stays_within_a_few_chunks():
    # 20 vertices, 22 edges, no restricted set: 2**20 assignments
    decomp = decompose(gen.gen_random_program(gen.GenConfig(seed=33, size=9)))
    inst = gen.random_instance(decomp.cfg, 2, seed=33, inf_prob=0.1, restrict_prob=0.0)
    assert math.prod(map(len, inst.allowed)) == 1 << 20
    want = oracle_solve(inst)
    tracemalloc.start()
    try:
        assert oracle_solve(inst) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * solver._CHUNK * 8, peak
    assert want.min_cost == solve(inst, decomp).min_cost


# ---------------------------------------------------------------------------
# solve matches the oracle


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(2, 3))
def test_solve_matches_oracle(seed, size, domain):
    tree = gen.gen_random_program(gen.GenConfig(seed=seed, size=size))
    d = decompose(tree)
    if domain ** d.cfg.vertex_count > 1 << 16:
        domain = 2
    if domain ** d.cfg.vertex_count > 1 << 16:
        return
    inst = gen.random_instance(
        d.cfg, domain, seed=seed, inf_prob=0.15, restrict_prob=0.3
    )
    got = solve(inst, d)
    want = oracle_solve(inst)
    assert got.min_cost == want.min_cost
    if got.assignment is not None:
        assert evaluate(inst, got.assignment) == want.min_cost


def test_loop_witness_survives_packed_index_above_255():
    # at d=17, with the loop child's T and C both in {15, 16}, the
    # backtrack reads each from its own argmin array and the witness
    # attains the oracle's minimum (the name is from an older packed
    # (T, C) index, which passed 255 here)
    d = decompose_source("while p do a od")
    loop = next(node for node in d.nodes if node.kind == "loop")
    _, ct, _, cc = d.nodes[loop.children[0]].specials
    n = d.cfg.vertex_count
    allowed = {v: [15, 16] if v in (ct, cc) else [0, 1] for v in range(n)}
    rng = np.random.default_rng(17)
    edge_costs = {
        (e.src, e.dst): rng.integers(0, 20, size=(17, 17)).tolist()
        for e in d.cfg.edges
    }
    vertex_costs = rng.integers(0, 20, size=(n, 17))
    inst = PcspInstance(d.cfg, 17, edge_costs, vertex_costs, allowed)
    got = solve(inst, d)
    assert got.min_cost == oracle_solve(inst).min_cost
    assert evaluate(inst, got.assignment) == got.min_cost


@pytest.mark.filterwarnings("ignore::splcsp.spl.OpenProgramWarning")
@pytest.mark.parametrize("domain", [4, 5, 9, 16, 17])
@pytest.mark.parametrize(
    "src",
    [
        "while p do a od",
        "while p do if q then break else a fi od",
        "while p do a; continue od",
        "while p do if q then break else continue fi od; b",
    ],
)
def test_solve_matches_oracle_at_larger_domains(src, domain):
    d = decompose_source(src)
    n = d.cfg.vertex_count
    rng = np.random.default_rng(domain)
    for _ in range(3):
        edge_costs = {}
        for e in d.cfg.edges:
            tab = rng.integers(0, 10, size=(domain, domain)).astype(float)
            tab[rng.random((domain, domain)) < 0.1] = INFINITY
            edge_costs[(e.src, e.dst)] = tab
        # two or three values per vertex, spread over the whole domain
        allowed = {
            v: rng.choice(domain, size=int(rng.integers(2, 4)), replace=False).tolist()
            for v in range(n)
        }
        inst = PcspInstance(
            d.cfg, domain, edge_costs, rng.integers(0, 10, size=(n, domain)), allowed
        )
        got = solve(inst, d)
        want = oracle_solve(inst)
        assert got.min_cost == want.min_cost
        if got.assignment is not None:
            assert evaluate(inst, got.assignment) == got.min_cost


def masks_decide_instance(d, domain, rng, allowed=None):
    """Random instance whose disallowed values are the cheap ones.

    Each vertex allows one or two values (at most domain - 1) unless
    ``allowed`` fixes its set.  A disallowed value costs nothing, on the
    vertex and on every edge entry it takes part in, so a mask that is
    never applied shows up as a minimum that is too low.
    """
    n = d.cfg.vertex_count
    allowed = dict(allowed or {})
    for v in range(n):
        if v not in allowed:
            k = int(rng.integers(1, min(2, domain - 1) + 1))
            allowed[v] = rng.choice(domain, size=k, replace=False).tolist()
    ok = np.zeros((n, domain), dtype=bool)
    for v, vals in allowed.items():
        ok[v, vals] = True
    vertex_costs = np.where(ok, rng.integers(3, 10, size=(n, domain)), 0)
    edge_costs = {
        (e.src, e.dst): np.where(
            ok[e.src][:, None] & ok[e.dst][None, :],
            rng.integers(0, 10, size=(domain, domain)),
            0,
        )
        for e in d.cfg.edges
    }
    return PcspInstance(d.cfg, domain, edge_costs, vertex_costs, allowed)


@pytest.mark.parametrize("domain", [2, 3, 4])
@pytest.mark.parametrize(
    "src",
    [
        # the dead statement's S is the break atom's untouched T
        "while p do a; break; b od",
        # the body's T is never reached by an edge inside the body
        "while p do if q then break else continue fi; c od",
        "while p do while q do if r then break else a fi od; "
        "if s then continue else b fi od",
    ],
)
def test_deferred_masks_match_oracle(src, domain):
    d = decompose_source(src)
    rng = np.random.default_rng([domain, len(src)])
    for _ in range(4):
        inst = masks_decide_instance(d, domain, rng)
        got = solve(inst, d)
        want = oracle_solve(inst)
        assert got.min_cost == want.min_cost
        assert evaluate(inst, got.assignment) == got.min_cost


@pytest.mark.parametrize("domain", [2, 3, 4])
@pytest.mark.parametrize("src", ["a; while p do b od", "while p do a; continue od"])
def test_root_break_and_continue_masks_apply(src, domain):
    # a closed program's root B and C meet no edge: only the root's
    # final minimum sees their allowed sets
    d = decompose_source(src)
    _, _, rb, rc = d.nodes[d.root].specials
    rng = np.random.default_rng(domain)
    inst = masks_decide_instance(d, domain, rng, {rb: [domain - 1], rc: [domain - 1]})
    got = solve(inst, d)
    assert got.min_cost == oracle_solve(inst).min_cost
    assert got.assignment[rb] == got.assignment[rc] == domain - 1
    assert evaluate(inst, got.assignment) == got.min_cost


def test_jump_free_solve_memory_stays_small():
    # no break or continue: every table is at most d x d x 1 x 1 and
    # the series argmin works on d**3 cells, not d**5
    tree = gen.gen_random_program(
        gen.GenConfig(seed=16, size=60, p_break=0.0, p_continue=0.0)
    )
    kinds = {type(node) for node in lang.walk(tree)}
    assert {lang.If, lang.While} <= kinds
    assert not kinds & {lang.Break, lang.Continue}
    d = decompose(tree)
    inst = gen.random_instance(d.cfg, 16, seed=16, inf_prob=0.0)
    tracemalloc.start()
    try:
        got = solve(inst, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert evaluate(inst, got.assignment) == got.min_cost
    assert peak < 4 * 2**20


def test_widest_nodes_form_their_sum_in_blocks():
    # the body's series and loop nodes see T, B and C all touched, so
    # their sums have d**5 cells (8 MiB of float64 at d=16); formed
    # whole, with argmin's copy, the peak passes 25 MiB
    d = decompose_source("while p do a; if q then break else continue fi; b od")
    inst = gen.random_instance(d.cfg, 16, seed=3, inf_prob=0.0)
    tracemalloc.start()
    try:
        got = solve(inst, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert evaluate(inst, got.assignment) == got.min_cost
    assert peak < 4 * 2**20


@pytest.mark.parametrize("src", ["while p do break od", "while p do if q then break else a fi od"])
def test_loop_memory_follows_its_body_table(src):
    # at d=32, the break body's table is d x 1 x d x 1, so the loop's
    # sums have d**3 cells (256 KiB); the if body's has T too, and its
    # d**4 sums are formed a few rows at a time.  Adding both back
    # edges into one d**4 array, whatever the body touches, peaked at
    # 16 MiB on each
    d = decompose_source(src)
    inst = gen.random_instance(d.cfg, 32, seed=3, inf_prob=0.0)
    tracemalloc.start()
    try:
        got = solve(inst, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert evaluate(inst, got.assignment) == got.min_cost
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("domain", [2, 3, 4])
@pytest.mark.parametrize(
    "src",
    [
        "while p do a; if q then break else continue fi; b od",
        "while p do while q do if r then break else a fi od; "
        "if s then continue else b fi od",
        "while p do break od",
    ],
)
def test_one_row_blocks_give_the_same_solution(monkeypatch, src, domain):
    d = decompose_source(src)
    inst = gen.random_instance(d.cfg, domain, seed=domain, inf_prob=0.15, restrict_prob=0.3)
    whole = solve(inst, d)
    monkeypatch.setattr(solver, "_BLOCK", 1)
    blocked = solve(inst, d)
    assert blocked == whole
    assert blocked.min_cost == oracle_solve(inst).min_cost


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "src",
    [
        "while p do if q then break else break fi od",
        "if p then while q do a od else skip fi",
        "while p do if q then continue else if r then continue else continue fi fi od",
        "while p do a; if q then break else break fi; b od; c",
        "while p do while q do if r then continue else continue fi od; "
        "if s then break else break fi od",
    ],
)
def test_solve_does_not_read_duplicates(src, seed):
    # the first leaf or loop in node order that holds an edge pays for
    # it, so the parallel nodes' record of collapsed edges is not needed
    d = decompose_source(src)
    assert any(node.duplicates for node in d.nodes)
    bare = dataclasses.replace(d, nodes=tuple(dataclasses.replace(node, duplicates=()) for node in d.nodes))
    inst = gen.random_instance(d.cfg, 3, seed=seed, inf_prob=0.1, restrict_prob=0.2)
    got = solve(inst, bare)
    assert got == solve(inst, d)
    assert got.min_cost == oracle_solve(inst).min_cost


def test_straight_line_at_large_domain_matches_viterbi():
    domain = 24
    d = decompose_source("; ".join(f"s{k}" for k in range(30)))
    cfg = d.cfg
    n = cfg.vertex_count
    rng = np.random.default_rng(24)
    allowed = {
        v: rng.choice(domain, size=int(rng.integers(1, domain + 1)), replace=False).tolist()
        for v in range(n)
        if rng.random() < 0.5
    }
    inst = PcspInstance(
        cfg,
        domain,
        {(e.src, e.dst): rng.integers(0, 100, size=(domain, domain)) for e in cfg.edges},
        rng.integers(0, 100, size=(n, domain)),
        allowed,
    )
    # the edges form one path from the entry: run Viterbi along it
    cost = inst.vertex_costs + allowed_mask(inst)
    succ = {e.src: e.dst for e in cfg.edges}
    assert len(succ) == 30
    v = cfg.entry
    best = cost[v]
    while v in succ:
        w = succ[v]
        best = (best[:, None] + inst.edge_tables[(v, w)]).min(axis=0) + cost[w]
        v = w
    assert v == cfg.exit
    touched = {e.src for e in cfg.edges} | {e.dst for e in cfg.edges}
    want = best.min() + sum(cost[u].min() for u in range(n) if u not in touched)
    got = solve(inst, d)
    assert got.min_cost == want
    assert evaluate(inst, got.assignment) == want


def test_deep_nesting_decomposes_and_solves():
    depth = 2000
    text = (
        "".join(f"while p{k} do\n" for k in range(depth))
        + "a\n"
        + "od\n" * depth
    )
    d = decompose(lang.parse_program(text))
    assert sum(node.kind == "loop" for node in d.nodes) == depth
    inst = gen.random_instance(d.cfg, 2, seed=depth, inf_prob=0.0)
    got = solve(inst, d)
    assert evaluate(inst, got.assignment) == got.min_cost


def test_solve_deterministic():
    d = decompose_source("while p do if q then a else b; c fi od")
    inst = gen.random_instance(d.cfg, 3, seed=11)
    first = solve(inst, d)
    second = solve(inst, d)
    assert first == second


# ---------------------------------------------------------------------------
# exact integer costs


def test_refuses_costs_that_float64_cannot_sum_exactly():
    d = decompose_source("a; b")
    first, second = [(e.src, e.dst) for e in d.cfg.edges][:2]
    edge_costs = {
        first: [[2**53 + 1] * 2] * 2,
        second: [[2**53] * 2] * 2,
    }
    with pytest.raises(solver.CostOverflowError):
        PcspInstance(d.cfg, 2, edge_costs)
    # vertex rows count too; INFINITY is a hard constraint, not a cost
    PcspInstance(d.cfg, 2, vertex_costs={0: [INFINITY, 2**52], 1: [0, INFINITY]})
    with pytest.raises(solver.CostOverflowError):
        PcspInstance(d.cfg, 2, vertex_costs={0: [INFINITY, 2**52], 1: [1, 0]})
    assert issubclass(solver.CostOverflowError, ValueError)


def test_costs_at_the_overflow_limit_stay_exact():
    d = decompose_source("if p then a else b fi; while q do c; break od")
    keys = [(e.src, e.dst) for e in d.cfg.edges]
    n = d.cfg.vertex_count
    rng = np.random.default_rng(52)
    # per-edge maxima that add up to exactly 2**52, odd entries included
    highs = [(1 << 52) // len(keys) - 1] * len(keys)
    highs[0] += (1 << 52) - sum(highs)
    tables = {}
    for key, high in zip(keys, highs):
        tab = [[int(x) for x in row] for row in rng.integers(high // 2, high, size=(2, 2))]
        tab[1][1] = high
        tables[key] = tab
    inst = PcspInstance(d.cfg, 2, tables)
    got = solve(inst, d)

    def exact(assignment):
        return sum(tables[src, dst][assignment[src]][assignment[dst]] for src, dst in keys)

    best = min(exact(dict(enumerate(combo))) for combo in itertools.product(range(2), repeat=n))
    assert got.min_cost == best
    assert exact(got.assignment) == best
    assert oracle_solve(inst).min_cost == best

    tables[keys[0]][1][1] += 1
    with pytest.raises(solver.CostOverflowError):
        PcspInstance(d.cfg, 2, tables)


# ---------------------------------------------------------------------------
# shared edge tables


def test_shared_edge_table_is_validated_once_and_stays_separate():
    d = decompose_source("a; b; c")
    keys = [(e.src, e.dst) for e in d.cfg.edges]
    shared = np.array([[0.0, 2.0], [3.0, 0.0]])
    twin = shared.copy()
    edge_costs = {k: shared for k in keys[:-1]}
    edge_costs[keys[-1]] = twin
    inst = PcspInstance(d.cfg, 2, edge_costs)
    tabs = [inst.edge_tables[k] for k in keys]
    assert all(tab is tabs[0] for tab in tabs[:-1])
    assert tabs[-1] is not tabs[0]
    assert tabs[0] is not shared
    for tab in tabs:
        assert not tab.flags.writeable
        assert tab.tolist() == [[0.0, 2.0], [3.0, 0.0]]
    shared[0, 1] = 9.0
    assert inst.edge_tables[keys[0]][0, 1] == 2.0
    with pytest.raises(ValueError):
        PcspInstance(d.cfg, 2, {k: [[0, -1], [0, 0]] for k in keys})


# ---------------------------------------------------------------------------
# hard-constraint reduction


def test_as_csp_tables():
    inst, _ = single_edge_instance(allowed={0: [1]})
    hard = as_csp(inst)
    tab = hard.edge_tables[(0, 1)]
    assert tab.tolist() == [[0.0, INFINITY], [INFINITY, INFINITY]]
    assert hard.vertex_costs[0].tolist() == [INFINITY, 0.0]
    assert hard.allowed == inst.allowed


def test_as_csp_satisfiability():
    d = decompose_source("a; b")
    sat = PcspInstance(d.cfg, 2, edge_costs=lambda e, a, b: int(a == b))
    sol = solve(as_csp(sat), d)
    assert sol.min_cost == 0
    assert evaluate(sat, sol.assignment) == 0
    unsat = PcspInstance(d.cfg, 2, edge_costs=lambda e, a, b: 1)
    assert solve(as_csp(unsat), d).min_cost == INFINITY


# ---------------------------------------------------------------------------
# serialization


def test_instance_json_round_trip():
    inst, d = single_edge_instance(allowed={0: [1]})
    obj = instance_to_json(inst)
    back = instance_from_json(d.cfg, obj)
    assert back.d == inst.d
    for key, tab in inst.edge_tables.items():
        assert (back.edge_tables[key] == tab).all()
    assert (back.vertex_costs == inst.vertex_costs).all()
    assert back.allowed == inst.allowed
    # the JSON itself is plain data
    json.dumps(obj)


def test_instance_json_models():
    d = decompose_source("a; b")
    inst = instance_from_json(
        d.cfg,
        {
            "domain_size": 2,
            "edge_costs": {"model": "disagree", "cost": 4},
            "vertex_costs": {"model": "constant", "cost": 1},
        },
    )
    for tab in inst.edge_tables.values():
        assert tab.tolist() == [[0.0, 4.0], [4.0, 0.0]]
    assert (inst.vertex_costs == 1).all()

    equal = instance_from_json(
        d.cfg, {"domain_size": 2, "edge_costs": {"model": "equal"}}
    )
    for tab in equal.edge_tables.values():
        assert tab.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    rand = instance_from_json(
        d.cfg,
        {"domain_size": 3, "edge_costs": {"model": "random", "seed": 5, "high": 4}},
    )
    again = instance_from_json(
        d.cfg,
        {"domain_size": 3, "edge_costs": {"model": "random", "seed": 5, "high": 4}},
    )
    tabs = list(rand.edge_tables.values())
    assert ((tabs[0] >= 0) & (tabs[0] <= 4)).all()
    # per-edge tables differ, reruns do not
    assert not (tabs[0] == tabs[1]).all()
    for key in rand.edge_tables:
        assert (rand.edge_tables[key] == again.edge_tables[key]).all()


@pytest.mark.parametrize(
    "params, named",
    [
        ({"high": float("inf")}, "random model high"),  # what json.loads reads 1e400 as
        ({"high": 2.7}, "random model high"),
        ({"low": True, "high": 2}, "random model low"),
        ({"low": None}, "random model low"),
        ({"seed": "1"}, "random model seed"),
        ({"seed": -1}, "random model seed"),
        ({"low": 5, "high": 1}, "random model low and high"),
        ({"low": -1}, "random model low and high"),
        ({"high": 2**52 + 1}, "random model low and high"),
        ({"inf_prob": 2.0}, "random model inf_prob"),
        ({"inf_prob": -0.5}, "random model inf_prob"),
        ({"inf_prob": float("nan")}, "random model inf_prob"),
        ({"inf_prob": True}, "random model inf_prob"),
        ({"inf_prob": "0.5"}, "random model inf_prob"),
    ],
)
def test_random_model_refuses_bad_parameters(params, named):
    d = decompose_source("a")
    with pytest.raises(ValueError, match=re.escape(named)):
        instance_from_json(d.cfg, {"domain_size": 2, "edge_costs": {"model": "random", **params}})


@pytest.mark.parametrize(
    "params, table",
    [
        ({"low": 3, "high": 3}, [[3.0, 3.0], [3.0, 3.0]]),
        ({"low": 0, "high": 0, "inf_prob": 1}, [[INFINITY, INFINITY], [INFINITY, INFINITY]]),
        ({"low": 2**52, "high": 2**52, "inf_prob": 0}, [[2.0**52, 2.0**52], [2.0**52, 2.0**52]]),
    ],
)
def test_random_model_accepts_its_bounds(params, table):
    d = decompose_source("a")
    inst = instance_from_json(d.cfg, {"domain_size": 2, "edge_costs": {"model": "random", **params}})
    assert inst.edge_tables[(0, 1)].tolist() == table


def test_instance_json_explicit_tables_and_inf():
    d = decompose_source("a")
    inst = instance_from_json(
        d.cfg,
        {
            "domain_size": 2,
            "edge_costs": [
                {"src": 0, "dst": 1, "table": [[0, "inf"], [3, 0]]}
            ],
            "vertex_costs": [{"v": 2, "costs": [0, 5]}],
            "allowed": {"3": [0]},
        },
    )
    assert inst.edge_tables[(0, 1)].tolist() == [[0.0, INFINITY], [3.0, 0.0]]
    assert inst.vertex_costs[2].tolist() == [0.0, 5.0]
    assert inst.allowed[3] == (0,)


def test_instance_json_rejects_junk():
    d = decompose_source("a")
    with pytest.raises(ValueError):
        instance_from_json(d.cfg, {"domain_size": 2, "edge_costs": {"model": "nope"}})
    with pytest.raises(ValueError):
        instance_from_json(
            d.cfg,
            {"domain_size": 2, "edge_costs": [
                {"src": 0, "dst": 1, "table": [[0, 0.5], [0, 0]]}
            ]},
        )


_TABLE = [[0, 5], [7, 1]]


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"domain_size": 2.5}, r"^domain_size must be an integer, got 2\.5$"),
        ({"domain_size": True}, r"^domain_size must be an integer, got True$"),
        ({"domain_size": "2"}, r"^domain_size must be an integer, got '2'$"),
        ({"allowed": {"0": [0.7]}}, r"^allowed value must be an integer, got 0\.7$"),
        ({"allowed": {"0": [False]}}, r"^allowed value must be an integer, got False$"),
        ({"edge_costs": [{"src": 0.9, "dst": 1, "table": _TABLE}]}, r"^edge src must be an integer, got 0\.9$"),
        ({"edge_costs": [{"src": 0, "dst": "1", "table": _TABLE}]}, r"^edge dst must be an integer, got '1'$"),
        ({"vertex_costs": [{"v": 1.0, "costs": [0, 1]}]}, r"^vertex v must be an integer, got 1\.0$"),
    ],
)
def test_json_indices_must_be_integers(obj, message):
    d = decompose_source("a")
    with pytest.raises(ValueError, match=message):
        instance_from_json(d.cfg, {"domain_size": 2, **obj})


@pytest.mark.parametrize("allowed", [[[0]], {"0": 0}, {"0": "01"}])
def test_json_allowed_must_map_vertices_to_lists(allowed):
    d = decompose_source("a")
    with pytest.raises(ValueError, match="^allowed must map vertices to lists of values$"):
        instance_from_json(d.cfg, {"domain_size": 2, "allowed": allowed})


@pytest.mark.parametrize(
    "obj, message",
    [
        ("x", r"^an instance must be a JSON object, got str$"),
        ([1, 2], r"^an instance must be a JSON object, got list$"),
        ({"edge_costs": None}, r"^an instance needs domain_size$"),
        ({"domain_size": 2, "edge_costs": [5]}, r"^edge_costs must be a list of objects with src, dst, table$"),
        ({"domain_size": 2, "edge_costs": [{"src": 0, "dst": 1}]}, r"^edge_costs must be a list of objects"),
        ({"domain_size": 2, "edge_costs": 5}, r"^edge_costs must be a list of objects"),
        ({"domain_size": 2, "vertex_costs": [{"v": 0}]}, r"^vertex_costs must be a list of objects with v, costs$"),
        ({"domain_size": 2, "vertex_costs": 5}, r"^vertex_costs must be a cost model or a list$"),
        ({"domain_size": 2, "vertex_costs": [[0, 0], 5]}, r"^vertex_costs entry 1 must be a list of 2 costs$"),
        ({"domain_size": 2, "vertex_costs": [{"v": 0, "costs": 5}]}, r"^vertex_costs entry 0 must be a list"),
    ],
)
def test_json_refusals_name_their_field(obj, message):
    d = decompose_source("a; b; c")
    with pytest.raises(ValueError, match=message):
        instance_from_json(d.cfg, obj)


@pytest.mark.parametrize("key", [" 3", "3 ", "+2", "03", "1_0", "1.5", "", "-0", "three"])
def test_json_allowed_keys_are_plain_vertex_numbers(key):
    d = decompose_source("a; b; c")
    with pytest.raises(ValueError, match=f"^allowed key must be a vertex number, got {re.escape(repr(key))}$"):
        instance_from_json(d.cfg, {"domain_size": 2, "allowed": {key: [0]}})


def test_edge_costs_that_are_no_array_are_refused_by_shape():
    d = decompose_source("a")
    with pytest.raises(ValueError, match=r"^edge costs must be 1x2x2$"):
        PcspInstance(d.cfg, 2, edge_costs=5)


def test_allowed_values_are_not_truncated():
    d = decompose_source("a")
    with pytest.raises(TypeError):
        PcspInstance(d.cfg, 2, allowed={0: [0.7]})
    inst = PcspInstance(d.cfg, 2, allowed={0: [np.int64(1)], 1: np.array([0], dtype=np.uint8)})
    assert inst.allowed[:2] == ((1,), (0,))
    assert all(type(a) is int for a in inst.allowed[0] + inst.allowed[1])
    assert allowed_mask(inst)[:2].tolist() == [[INFINITY, 0.0], [0.0, INFINITY]]


# ---------------------------------------------------------------------------
# the stacked edge-cost store


def test_array_form_equals_mapping_form():
    d = decompose_source("while p do if q then a; break else b fi od; c")
    keys = [(e.src, e.dst) for e in d.cfg.edges]
    rng = np.random.default_rng(3)
    stack = rng.integers(0, 9, size=(len(keys), 3, 3)).astype(float)
    stack[rng.random(stack.shape) < 0.2] = INFINITY
    by_array = PcspInstance(d.cfg, 3, stack, allowed={1: [0, 2]})
    by_key = PcspInstance(d.cfg, 3, dict(zip(keys, stack.tolist())), allowed={1: [0, 2]})
    assert by_array.edge_stack.shape == (len(keys), 3, 3)
    assert list(by_array.edge_rows) == keys
    for k in keys:
        assert by_array.edge_tables[k].tolist() == by_key.edge_tables[k].tolist()
    assert solve(by_array, d) == solve(by_key, d) == oracle_solve(by_key)
    # the instance holds its own copy
    stack[0, 0, 0] = 99.0
    assert by_array.edge_stack[0, 0, 0] != 99.0
    assert not by_array.edge_stack.flags.writeable
    with pytest.raises(ValueError, match=r"edge costs must be \d+x3x3"):
        PcspInstance(d.cfg, 3, stack[:-1])
    with pytest.raises(ValueError, match=re.escape(f"edge table {keys[1]} must be 3x3")):
        PcspInstance(d.cfg, 3, [t if i != 1 else t[:2] for i, t in enumerate(stack.tolist())])


def test_shared_tables_share_one_row():
    d = decompose_source("a; b; c; d")
    keys = [(e.src, e.dst) for e in d.cfg.edges]
    shared = [[0, 1], [1, 0]]
    inst = PcspInstance(d.cfg, 2, {k: shared for k in keys[1:]})
    # the edge left out gets its own zero row
    assert inst.edge_stack.shape == (2, 2, 2)
    assert inst.edge_rows == {keys[0]: 0, **{k: 1 for k in keys[1:]}}
    assert inst.edge_tables[keys[0]].tolist() == [[0, 0], [0, 0]]
    assert PcspInstance(d.cfg, 2).edge_stack.shape == (1, 2, 2)
    # JSON tables are distinct lists; the edges a JSON instance leaves
    # out share one zero row, as in the mapping form
    listed = keys[1::2]
    obj = {"domain_size": 2, "edge_costs": [{"src": s, "dst": t, "table": shared} for s, t in listed]}
    inst = instance_from_json(d.cfg, json.loads(json.dumps(obj)))
    assert inst.edge_stack.shape == (1 + len(listed), 2, 2)
    assert {inst.edge_rows[k] for k in keys[::2]} == {0}
    assert inst.edge_tables[keys[0]].tolist() == [[0, 0], [0, 0]]


def test_malformed_tables_name_their_edge():
    d = decompose_source("a; b")
    first, second = [(e.src, e.dst) for e in d.cfg.edges]
    ok = [[0, 0], [0, 0]]
    for bad in ([[0, 0], [0]], 5, [[0, 0], [0, 0], [0, 0]], [0, 0], "ab", [[[0, 0], [0, 0]], [0, 0]]):
        message = re.escape(f"edge table {second} must be 2x2")
        with pytest.raises(ValueError, match=message):
            PcspInstance(d.cfg, 2, {first: ok, second: bad})
        with pytest.raises(ValueError, match=message):
            instance_from_json(d.cfg, {"domain_size": 2, "edge_costs": [
                {"src": first[0], "dst": first[1], "table": ok},
                {"src": second[0], "dst": second[1], "table": bad},
            ]})


def test_a_malformed_table_past_the_last_edge_is_refused_as_a_whole():
    # the list form names a bad table by its edge; a table past the
    # last edge has none, so the list is refused by its shape
    d = decompose_source("a; b")
    ok = [[0, 0], [0, 0]]
    for extra in ([[1]], ok, 5):
        with pytest.raises(ValueError, match=r"^edge costs must be 2x2x2$"):
            PcspInstance(d.cfg, 2, [ok, ok, extra])


def test_validation_errors_name_the_first_bad_edge_or_vertex():
    d = decompose_source("a; b; c")
    keys = [(e.src, e.dst) for e in d.cfg.edges]
    tables = {k: [[0, 1], [2, 0]] for k in keys}
    tables[keys[2]] = [[0, -1], [0, 0]]
    tables[keys[1]] = [[0, 0.5], [0, 0]]
    with pytest.raises(ValueError, match=re.escape(f"edge {keys[1]}: finite costs must be integers")):
        PcspInstance(d.cfg, 2, tables)
    tables[keys[1]] = [[math.nan, 0], [0, 0]]
    with pytest.raises(ValueError, match=re.escape(f"edge {keys[1]}: NaN is not a cost")):
        PcspInstance(d.cfg, 2, tables)
    vertex = np.zeros((d.cfg.vertex_count, 2))
    vertex[3, 1] = -2
    with pytest.raises(ValueError, match="vertex 3 costs: costs must be non-negative"):
        PcspInstance(d.cfg, 2, vertex_costs=vertex)


def test_integer_past_float_range_is_refused():
    d = decompose_source("a")
    with pytest.raises(solver.CostOverflowError):
        PcspInstance(d.cfg, 2, {(0, 1): [[10**400, 0], [0, 0]]})
    with pytest.raises(solver.CostOverflowError):
        PcspInstance(d.cfg, 2, vertex_costs={1: [0, 10**400]})
    for obj in (
        {"edge_costs": [{"src": 0, "dst": 1, "table": [[0, 10**400], [0, 0]]}]},
        {"vertex_costs": [[0, 0], [10**400, 0], [0, 0], [0, 0]]},
        {"vertex_costs": [{"v": 2, "costs": [0, 10**400]}]},
        {"edge_costs": {"model": "constant", "cost": 10**400}},
        {"vertex_costs": {"model": "constant", "cost": 10**400}},
    ):
        with pytest.raises(solver.CostOverflowError):
            instance_from_json(d.cfg, {"domain_size": 2, **obj})


# ---------------------------------------------------------------------------
# decoding instance JSON, against a per-cell reference


def _reference_cost(x):
    if x == "inf":
        return INFINITY
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"costs are integers or \"inf\", got {x!r}")
    return float(x)


def _random_instance_json(rng, cfg, d):
    """Explicit tables with "inf" cells, some edges left out and some
    given twice, vertex costs in either list form, restricted sets."""
    def table(high):
        return [[rng.choice(["inf", 0, 1, 2, high]) for _ in range(d)] for _ in range(d)]

    items = []
    for e in cfg.edges:
        for _ in range(rng.choice([0, 1, 1, 1, 2])):
            items.append({"src": e.src, "dst": e.dst, "table": table(rng.randrange(3, 50))})
    rng.shuffle(items)
    n = cfg.vertex_count
    if rng.random() < 0.5:
        vertex = [[rng.randrange(6) for _ in range(d)] for _ in range(n)]
    else:
        vertex = [{"v": rng.randrange(n), "costs": [rng.randrange(6) for _ in range(d)]} for _ in range(n // 2)]
    allowed = {str(v): rng.sample(range(d), rng.randint(1, d)) for v in range(n) if rng.random() < 0.3}
    return {"domain_size": d, "edge_costs": items, "vertex_costs": vertex, "allowed": allowed}


def test_json_decoder_matches_per_cell_reference():
    import random

    rng = random.Random(7)
    for trial in range(150):
        tree = gen.gen_random_program(gen.GenConfig(seed=trial, size=rng.randint(1, 12)))
        decomp = decompose(tree)
        cfg = decomp.cfg
        obj = _random_instance_json(rng, cfg, rng.randint(1, 4))
        obj = json.loads(json.dumps(obj))
        d, n = obj["domain_size"], cfg.vertex_count
        inst = instance_from_json(cfg, obj)

        want = {(e.src, e.dst): [[0.0] * d for _ in range(d)] for e in cfg.edges}
        for item in obj["edge_costs"]:  # the last table given wins
            want[item["src"], item["dst"]] = [[_reference_cost(x) for x in row] for row in item["table"]]
        assert {k: t.tolist() for k, t in inst.edge_tables.items()} == want
        vertex = [[0.0] * d for _ in range(n)]
        if obj["vertex_costs"] and isinstance(obj["vertex_costs"][0], dict):
            for item in obj["vertex_costs"]:
                vertex[item["v"]] = [_reference_cost(x) for x in item["costs"]]
        else:
            vertex = [[_reference_cost(x) for x in row] for row in obj["vertex_costs"]]
        assert inst.vertex_costs.tolist() == vertex
        for v in range(n):
            assert inst.allowed[v] == tuple(sorted(obj["allowed"].get(str(v), range(d))))

        text = json.dumps(instance_to_json(inst))
        assert json.dumps(instance_to_json(instance_from_json(cfg, json.loads(text)))) == text
        if n <= 10:
            got = solve(inst, decomp)
            assert got.min_cost == oracle_solve(inst).min_cost
            if got.assignment is not None:
                assert evaluate(inst, got.assignment) == got.min_cost


@pytest.mark.parametrize(
    "bad", [True, False, 1.0, json.loads("1e400"), "nan", "Infinity", "-inf", " 2", "1.5", "INF", None]
)
def test_json_decoder_refuses_what_is_not_an_int_or_inf(bad):
    d = decompose_source("a")
    message = 'costs are integers or "inf"'
    table = [[0, "inf"], [bad, 1]]
    with pytest.raises(ValueError, match=message):
        instance_from_json(d.cfg, {"domain_size": 2, "edge_costs": [{"src": 0, "dst": 1, "table": table}]})
    with pytest.raises(ValueError, match=message):
        instance_from_json(d.cfg, {"domain_size": 2, "vertex_costs": [[0, 0], [0, bad], [0, 0], [0, 0]]})
    with pytest.raises(ValueError, match=message):
        instance_from_json(d.cfg, {"domain_size": 2, "vertex_costs": [{"v": 1, "costs": [bad, 0]}]})
    with pytest.raises(ValueError, match=message):
        instance_from_json(d.cfg, {"domain_size": 2, "edge_costs": {"model": "constant", "cost": bad}})


@pytest.mark.parametrize(
    "obj, where",
    [
        (
            {"edge_costs": [
                {"src": 0, "dst": 1, "table": [[0, 1], [2, 3]]},
                {"src": 1, "dst": 4, "table": [[0, 1], [2, "x"]]},
            ]},
            "edge table (1, 4)",
        ),
        ({"vertex_costs": [[0, 0], [0, 0], ["x", 0], [0, 0], [0, 0]]}, "vertex_costs entry 2"),
        ({"vertex_costs": [{"v": 4, "costs": [0, 0]}, {"v": 0, "costs": ["x", 0]}]}, "vertex_costs entry 1"),
        ({"edge_costs": {"model": "constant", "cost": "x"}}, "edge_costs model cost"),
        ({"edge_costs": {"model": "disagree", "cost": "x"}}, "edge_costs model cost"),
        ({"vertex_costs": {"model": "constant", "cost": "x"}}, "vertex_costs model cost"),
    ],
)
def test_json_decoder_names_where_a_bad_cost_is(obj, where):
    d = decompose_source("a; b")
    with pytest.raises(ValueError) as info:
        instance_from_json(d.cfg, {"domain_size": 2, **obj})
    assert str(info.value) == f"{where}: costs are integers or \"inf\", got 'x'"


def test_random_instance_round_trips_byte_for_byte():
    for seed in range(20):
        decomp = decompose(gen.gen_random_program(gen.GenConfig(seed=seed, size=15)))
        inst = gen.random_instance(decomp.cfg, 1 + seed % 5, seed, inf_prob=0.2, restrict_prob=0.3)
        text = json.dumps(instance_to_json(inst))
        back = instance_from_json(decomp.cfg, json.loads(text))
        assert json.dumps(instance_to_json(back)) == text
        assert solve(back, decomp) == solve(inst, decomp)


def test_json_decoding_keeps_no_list_of_every_cell():
    # 400 edges at d=10: the stack is 320 KB, and a Python list of all
    # 40,000 cells would add as much again while the stack is built
    cfg = decompose_source("; ".join(["a"] * 400)).cfg
    d = 10
    rng = np.random.default_rng(0)
    cells = rng.integers(0, 20, size=(len(cfg.edges), d, d)).tolist()
    obj = {
        "domain_size": d,
        "edge_costs": [
            {"src": e.src, "dst": e.dst, "table": [["inf" if x == 0 else x for x in row] for row in tab]}
            for e, tab in zip(cfg.edges, cells)
        ],
        "vertex_costs": rng.integers(0, 20, size=(cfg.vertex_count, d)).tolist(),
    }
    stack_bytes = len(cfg.edges) * d * d * 8
    tracemalloc.start()
    try:
        inst = instance_from_json(cfg, obj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * stack_bytes, f"peak {peak / 1024:.0f} KiB"
    assert inst.edge_tables[cfg.edges[7].src, cfg.edges[7].dst].tolist() == [
        [INFINITY if x == 0 else x for x in row] for row in cells[7]
    ]


# "a; b" has 5 vertices; vertex 4 is given three costs at d=2
_RAGGED_ROWS = [[0, 0], [1, 2], [0, 0], [0, 0], [1, 2, 3]]


@pytest.mark.parametrize(
    "vertex_costs",
    [
        _RAGGED_ROWS,
        _RAGGED_ROWS[:4] + [[7]],
        _RAGGED_ROWS[:4] + [[[1], [2, 3]]],
        np.zeros((5, 3)),
        {4: [1, 2, 3]},
        {4: [7]},
        {4: 7},
        {4: [[1], [2, 3]]},
    ],
)
def test_malformed_vertex_costs_name_their_vertex(vertex_costs):
    d = decompose_source("a; b")
    with pytest.raises(ValueError, match=r"^vertex (4|0) costs must be length 2$"):
        PcspInstance(d.cfg, 2, vertex_costs=vertex_costs)


def test_wrong_vertex_count_is_refused_as_a_whole():
    d = decompose_source("a; b")
    with pytest.raises(ValueError, match=r"^vertex costs must be 5x2$"):
        PcspInstance(d.cfg, 2, vertex_costs=[[0, 0]] * 4)
    with pytest.raises(ValueError, match=r"^vertex costs must be 5x2$"):
        PcspInstance(d.cfg, 2, vertex_costs=5)


@pytest.mark.parametrize("source", ["list", "callable", "json"])
def test_no_vertex_costs_fit_a_graph_without_vertices(source):
    cfg = Cfg.from_json({"vertex_count": 0})
    if source == "json":
        inst = instance_from_json(cfg, {"domain_size": 2, "vertex_costs": []})
    else:
        inst = PcspInstance(cfg, 2, None, [] if source == "list" else lambda v, a: 0)
    assert inst.vertex_costs.shape == (0, 2)


def test_a_vertex_row_on_a_graph_without_vertices_names_vertex_0():
    cfg = Cfg.from_json({"vertex_count": 0})
    with pytest.raises(ValueError, match=r"^vertex 0 costs must be length 2$"):
        PcspInstance(cfg, 2, None, [[]])
    with pytest.raises(ValueError, match=r"^vertex 0 costs must be length 2$"):
        instance_from_json(cfg, {"domain_size": 2, "vertex_costs": [[]]})


@pytest.mark.parametrize(
    "vertex_costs, message",
    [
        (_RAGGED_ROWS, "vertex 4 costs must be length 2"),
        ([{"v": 0, "costs": [1, 2, 3]}], "vertex 0 costs must be length 2"),
        ([{"v": 3, "costs": [1]}], "vertex 3 costs must be length 2"),
    ],
)
def test_json_vertex_costs_name_their_vertex(vertex_costs, message):
    d = decompose_source("a; b")
    with pytest.raises(ValueError, match=f"^{message}$"):
        instance_from_json(d.cfg, {"domain_size": 2, "vertex_costs": vertex_costs})
