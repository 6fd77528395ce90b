import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splcsp import gen, lang, solver
from splcsp.solver import (
    INFINITY,
    BudgetExceededError,
    InstanceMismatchError,
    PartialAssignmentError,
    PcspInstance,
    Solution,
    as_csp,
    dp_tables,
    evaluate,
    instance_from_json,
    instance_to_json,
    oracle_solve,
    solve,
)
from splcsp.spl import decompose


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
    assert len(tabs) == d.node_count
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
    g = decomp.node_graph(i)
    specials = node.specials
    internal = sorted(g.vertices - set(specials))
    dd = inst.d
    out = np.empty((dd, dd, dd, dd))
    for quad in itertools.product(range(dd), repeat=4):
        if any(
            quad[j] not in inst._allowed_sets[specials[j]] for j in range(4)
        ):
            out[quad] = INFINITY
            continue
        value = dict(zip(specials, quad))
        best = INFINITY
        pools = [sorted(inst._allowed_sets[v]) for v in internal]
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
    ],
)
def test_dp_tables_match_exhaustive_subproblems(src):
    d = decompose_source(src)
    rng = np.random.default_rng(hash(src) % (1 << 32))
    inst = gen.random_instance(d.cfg, 2, seed=int(rng.integers(1 << 30)),
                               inf_prob=0.2, restrict_prob=0.3)
    tabs = dp_tables(inst, d)
    for i in range(d.node_count):
        expect = brute_node_table(inst, d, i)
        got = tabs[i]
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
    # enough vertices that enumeration goes through the vectorized path
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
    # the loop backtrack packs the child's (T, C) values into one index
    # below d*d; at d=17 with T and C in {15, 16} it exceeds 255
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


@pytest.mark.parametrize("domain", [2, 3, 4])
@pytest.mark.parametrize(
    "src",
    [
        "while p do a; if q then break else continue fi; b od",
        "while p do while q do if r then break else a fi od; "
        "if s then continue else b fi od",
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
    cost = inst.vertex_costs + inst.allowed_mask
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
