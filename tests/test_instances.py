import itertools
import random

import pytest

from splcsp import lang
from splcsp.instances import (
    SPILLED,
    BadPreassignmentError,
    BankSpec,
    DisconnectedLifetimeError,
    DomainTooLargeError,
    LospreSpec,
    RegAllocSpec,
    build_bank_selection,
    build_graph_coloring,
    build_lospre,
    build_regalloc,
    count_placements,
    decode_banks,
    decode_placements,
    enumerate_placements,
    lospre_objective,
    regalloc_domain,
)
from splcsp.solver import INFINITY, CostOverflowError, evaluate, oracle_solve, solve
from splcsp.spl import Cfg, decompose

# one straight-line access, then a diamond whose branches both access
# the same bank, then a final access: hoisting the selection beats
# inserting it at each access
BANK_PROGRAM = """\
if phi then
  a1;
  skip
else
  a2;
  skip
fi;
a3
"""

# compute c, then a branch where both targets use the value
LOSPRE_PROGRAM = "c; if p then u1; k else u2 fi"

REGALLOC_PROGRAM = "a;\nif p then b1; b2 else c fi;\nd"


def decompose_source(src):
    return decompose(lang.parse_program(src))


def access_vertices(cfg, texts):
    return {e.dst for e in cfg.edges if e.text in texts}


# ---------------------------------------------------------------------------
# bank selection


def test_bank_cost_tables():
    d = decompose_source(BANK_PROGRAM)
    spec = BankSpec(banks=2, c0=1, c1=3)
    inst = build_bank_selection(d.cfg, spec)
    assert inst.d == 3  # two banks plus "unknown"
    taken = next(e for e in d.cfg.edges if e.taken)
    plain = next(e for e in d.cfg.edges if not e.taken)
    for edge, switch in ((plain, 1), (taken, 3)):
        tab = inst.edge_tables[(edge.src, edge.dst)]
        for b0, b1 in itertools.product(range(3), repeat=2):
            if b1 == b0 or b1 == 2:
                assert tab[b0, b1] == 0
            else:
                assert tab[b0, b1] == switch
    assert (inst.vertex_costs == 0).all()


def test_bank_hoisting_beats_per_access_insertion():
    d = decompose_source(BANK_PROGRAM)
    cfg = d.cfg
    assert (cfg.vertex_count, len(cfg.edges)) == (7, 5)
    access = access_vertices(cfg, {"a1", "a2", "a3"})
    assert access == {1, 5, 6}
    spec = BankSpec(banks=1, preassigned={v: 0 for v in access})
    inst = build_bank_selection(cfg, spec)

    sol = solve(inst, d)
    assert sol.min_cost == 2
    assert oracle_solve(inst).min_cost == 2
    # the ad-hoc policy keeps the bank unknown everywhere else and
    # pays one selection per access
    adhoc = {v: (0 if v in access else spec.unknown) for v in range(cfg.vertex_count)}
    assert evaluate(inst, adhoc) == 3


def test_bank_entry_pin():
    d = decompose_source(BANK_PROGRAM)
    access = access_vertices(d.cfg, {"a1", "a2", "a3"})
    pre = {v: 0 for v in access}
    pinned = build_bank_selection(d.cfg, BankSpec(banks=1, preassigned=pre))
    assert pinned.allowed[d.cfg.entry] == (1,)  # "unknown"
    # without the pin the entry may assume the right bank for free
    free = build_bank_selection(
        d.cfg, BankSpec(banks=1, preassigned=pre, entry_unknown=False)
    )
    assert free.allowed[d.cfg.entry] == (0, 1)
    assert solve(free, d).min_cost == 0


def test_bank_taken_edges_pay_more():
    d = decompose_source(BANK_PROGRAM)
    access = access_vertices(d.cfg, {"a1", "a2", "a3"})
    spec = BankSpec(banks=1, preassigned={v: 0 for v in access}, c0=1, c1=3)
    inst = build_bank_selection(d.cfg, spec)
    sol = solve(inst, d)
    assert sol.min_cost == 4  # c0 into one branch, c1 into the taken one
    assert oracle_solve(inst).min_cost == 4


def test_bank_taken_override():
    d = decompose_source(BANK_PROGRAM)
    access = access_vertices(d.cfg, {"a1", "a2", "a3"})
    spec = BankSpec(
        banks=1,
        preassigned={v: 0 for v in access},
        c0=1,
        c1=3,
        taken_edges=frozenset(),  # pretend no branch needs the extra jump
    )
    inst = build_bank_selection(d.cfg, spec)
    assert solve(inst, d).min_cost == 2


def test_bank_evaluate_matches_direct_objective():
    d = decompose_source(BANK_PROGRAM)
    spec = BankSpec(banks=3, c0=2, c1=5)
    inst = build_bank_selection(d.cfg, spec)
    taken = {(e.src, e.dst) for e in d.cfg.edges if e.taken}

    def direct(assignment):
        total = 0
        for e in d.cfg.edges:
            b0, b1 = assignment[e.src], assignment[e.dst]
            if b1 != b0 and b1 != spec.unknown:
                total += spec.c1 if (e.src, e.dst) in taken else spec.c0
        return total

    rng = random.Random(3)
    for _ in range(50):
        a = {v: rng.randrange(inst.d) for v in range(d.cfg.vertex_count)}
        if a[d.cfg.entry] != spec.unknown:
            a[d.cfg.entry] = spec.unknown
        assert evaluate(inst, a) == direct(a)


def test_bank_validation():
    d = decompose_source("a")
    with pytest.raises(BadPreassignmentError):
        build_bank_selection(d.cfg, BankSpec(banks=2, preassigned={0: 2}))
    with pytest.raises(BadPreassignmentError):
        build_bank_selection(d.cfg, BankSpec(banks=2, preassigned={99: 0}))
    with pytest.raises(ValueError):
        build_bank_selection(d.cfg, BankSpec(banks=0))


def test_bank_refuses_a_taken_edge_price_beyond_exact_sums():
    d = decompose_source(BANK_PROGRAM)
    assert any(e.taken for e in d.cfg.edges)
    with pytest.raises(CostOverflowError):
        build_bank_selection(d.cfg, BankSpec(banks=1, c1=2**53))
    # c1 prices taken branch edges only
    build_bank_selection(d.cfg, BankSpec(banks=1, c1=2**53, taken_edges=frozenset()))


def test_decode_banks():
    spec = BankSpec(banks=2)
    assert decode_banks(spec, {0: 0, 1: 2, 2: 1}) == {0: 0, 1: None, 2: 1}


# ---------------------------------------------------------------------------
# lospre


def test_lospre_single_statement():
    d = decompose_source("a")
    inst = build_lospre(d.cfg, LospreSpec(use=frozenset({d.cfg.exit})))
    assert solve(inst, d).min_cost == 1
    assert oracle_solve(inst).min_cost == 1


def test_lospre_hoists_into_shared_predecessor():
    d = decompose_source(LOSPRE_PROGRAM)
    cfg = d.cfg
    use = access_vertices(cfg, {"u1", "u2"})
    assert use == {4, 5}
    spec = LospreSpec(use=frozenset(use))
    inst = build_lospre(cfg, spec)
    sol = solve(inst, d)
    assert sol.min_cost == 1
    assert oracle_solve(inst).min_cost == 1
    members = {v for v, a in sol.assignment.items() if a == 1}
    assert members == {1, 4}
    assert lospre_objective(cfg, spec, members) == 1
    assert lospre_objective(cfg, spec, set()) == 3


def test_lospre_lifetime_costs_disable_hoisting():
    d = decompose_source(LOSPRE_PROGRAM)
    use = frozenset(access_vertices(d.cfg, {"u1", "u2"}))
    costly = LospreSpec(
        use=use, vertex_costs={v: 5 for v in range(d.cfg.vertex_count)}
    )
    sol = solve(build_lospre(d.cfg, costly), d)
    assert sol.min_cost == 3
    assert all(a == 0 for a in sol.assignment.values())
    infinite = LospreSpec(
        use=use, vertex_costs={v: INFINITY for v in range(d.cfg.vertex_count)}
    )
    sol = solve(build_lospre(d.cfg, infinite), d)
    assert sol.min_cost == 3


def test_lospre_entry_and_exit_always_invalidate():
    d = decompose_source("a; b")
    spec = LospreSpec(use=frozenset(), invalidating=frozenset({1}))
    inv = spec.effective_invalidating(d.cfg)
    assert d.cfg.entry in inv and d.cfg.exit in inv and 1 in inv
    # a carried value is stale right after an invalidating vertex, so
    # edges out of the entry always pay when the value is needed
    inst = build_lospre(d.cfg, LospreSpec(use=frozenset({d.cfg.exit})))
    entry_edge = next(e for e in d.cfg.edges if e.src == d.cfg.entry)
    tab = inst.edge_tables[(entry_edge.src, entry_edge.dst)]
    assert tab[1, 1] == 1  # membership at the entry does not help


def test_lospre_cost_overrides():
    d = decompose_source("a; b")
    (e1, e2) = [(e.src, e.dst) for e in d.cfg.edges]
    spec = LospreSpec(
        use=frozenset({d.cfg.exit}),
        edge_costs={e2: 7},
        vertex_costs={e1[1]: 2},
    )
    assert spec.edge_cost(e2) == 7
    assert spec.edge_cost(e1) == 1
    assert spec.vertex_cost(e1[1]) == 2
    assert spec.vertex_cost(0) == 0
    inst = build_lospre(d.cfg, spec)
    assert inst.edge_tables[e2][0, 0] == 7
    assert inst.vertex_costs[e1[1], 1] == 2
    assert inst.vertex_costs[e1[1], 0] == 0


def test_lospre_evaluate_matches_set_objective():
    rng = random.Random(17)
    programs = [
        "a",
        "a; b; c",
        LOSPRE_PROGRAM,
        "while p do a od",
        "while p do if q then break else a; continue fi od; b",
    ]
    for src in programs:
        d = decompose_source(src)
        n = d.cfg.vertex_count
        keys = [(e.src, e.dst) for e in d.cfg.edges]
        for _ in range(40):
            spec = LospreSpec(
                use=frozenset(v for v in range(n) if rng.random() < 0.3),
                invalidating=frozenset(v for v in range(n) if rng.random() < 0.2),
                edge_costs={k: rng.randrange(4) for k in keys},
                vertex_costs={v: rng.randrange(3) for v in range(n)},
            )
            inst = build_lospre(d.cfg, spec)
            members = {v for v in range(n) if rng.random() < 0.5}
            indicator = {v: int(v in members) for v in range(n)}
            assert evaluate(inst, indicator) == lospre_objective(
                d.cfg, spec, members
            )


def test_lospre_validation():
    d = decompose_source("a")
    with pytest.raises(ValueError):
        build_lospre(d.cfg, LospreSpec(use=frozenset({99})))


@pytest.mark.parametrize("priced", [False, True])
def test_lospre_tables_follow_the_spec_rule(priced):
    d = decompose_source("a; while p do if q then b; break else c fi; e od; f")
    cfg = d.cfg
    n = cfg.vertex_count
    keys = [(e.src, e.dst) for e in cfg.edges]
    spec = LospreSpec(
        use=frozenset(range(1, n, 2)),
        invalidating=frozenset(range(0, n, 3)),
        # distinct prices give every edge its own table; without them
        # edges of one (invalidates, uses) case share one
        edge_costs={k: 2 + i for i, k in enumerate(keys)} if priced else None,
        vertex_costs={v: 10 + v for v in range(n)},
    )
    inv = spec.effective_invalidating(cfg)
    inst = build_lospre(cfg, spec)
    cases = set()
    for src, dst in keys:
        cases.add((src in inv, dst in spec.use))
        price = spec.edge_cost((src, dst))
        for lx, ly in itertools.product(range(2), repeat=2):
            carries = lx == 1 and src not in inv
            needed = dst in spec.use or ly == 1
            want = price if needed and not carries else 0
            assert inst.edge_tables[src, dst][lx, ly] == want
    assert len(cases) == 4
    assert inst.vertex_costs.tolist() == [[0, 10 + v] for v in range(n)]


def test_lospre_rejects_negative_prices():
    d = decompose_source("a; b")
    first = (d.cfg.edges[0].src, d.cfg.edges[0].dst)
    spec = LospreSpec(use=frozenset({d.cfg.exit}), edge_costs={first: -1})
    with pytest.raises(ValueError):
        build_lospre(d.cfg, spec)


# ---------------------------------------------------------------------------
# register allocation


def test_enumerate_placements_counts():
    assert len(enumerate_placements(("x",), 1)) == 3
    domain = enumerate_placements(("x", "y"), 2)
    assert len(domain) == 14
    full = [p for p in domain if len(p) == 2]
    assert len(full) == 7


def test_count_placements_matches_enumeration():
    names = ("a", "b", "c", "d")
    for nvars in range(len(names) + 1):
        for regs in range(4):
            assert count_placements(nvars, regs) == len(
                enumerate_placements(names[:nvars], regs)
            )


def test_enumerate_placements_order_and_injectivity():
    domain = enumerate_placements(("x", "y"), 2)
    assert domain == (
        (),
        (("x", 0),),
        (("x", 1),),
        (("x", SPILLED),),
        (("y", 0),),
        (("y", 1),),
        (("y", SPILLED),),
        (("x", 0), ("y", 1)),
        (("x", 0), ("y", SPILLED)),
        (("x", 1), ("y", 0)),
        (("x", 1), ("y", SPILLED)),
        (("x", SPILLED), ("y", 0)),
        (("x", SPILLED), ("y", 1)),
        (("x", SPILLED), ("y", SPILLED)),
    )
    for placement in enumerate_placements(("x", "y", "z"), 2):
        regs = [loc for _, loc in placement if loc is not SPILLED]
        assert len(regs) == len(set(regs))


def test_regalloc_switch_costs():
    d = decompose_source(REGALLOC_PROGRAM)
    cfg = d.cfg
    live = frozenset(v for v in range(cfg.vertex_count) if cfg.out_degree()[v]
                     or cfg.in_degree()[v])
    assert live == {0, 1, 4, 5, 6}
    spec = RegAllocSpec(lifetimes={"x": live, "y": live}, registers=2)
    inst = build_regalloc(cfg, spec)
    assert inst.d == 14
    domain = regalloc_domain(spec)
    idx = {p: i for i, p in enumerate(domain)}
    tab = inst.edge_tables[(0, 1)]
    both = idx[(("x", 0), ("y", 1))]
    swapped = idx[(("x", 1), ("y", 0))]
    spill_y = idx[(("x", 0), ("y", SPILLED))]
    only_x = idx[(("x", 0),)]
    assert tab[both, swapped] == 2
    assert tab[both, spill_y] == 1
    assert tab[both, both] == 0
    assert tab[only_x, both] == 0  # y was not live before, no switch
    assert tab[idx[()], both] == 0


def test_regalloc_allowed_sets_follow_liveness():
    d = decompose_source(REGALLOC_PROGRAM)
    cfg = d.cfg
    live = frozenset({0, 1, 4, 5, 6})
    spec = RegAllocSpec(lifetimes={"x": live, "y": live}, registers=2)
    inst = build_regalloc(cfg, spec)
    domain = regalloc_domain(spec)
    for v in range(cfg.vertex_count):
        want_support = frozenset(
            var for var, vs in spec.lifetimes.items() if v in vs
        )
        for i in inst.allowed[v]:
            assert frozenset(var for var, _ in domain[i]) == want_support
    sizes = {v: len(inst.allowed[v]) for v in range(cfg.vertex_count)}
    assert sizes == {0: 7, 1: 7, 2: 1, 3: 1, 4: 7, 5: 7, 6: 7}


def test_regalloc_solve_and_hand_assignment():
    d = decompose_source(REGALLOC_PROGRAM)
    live = frozenset({0, 1, 4, 5, 6})
    spec = RegAllocSpec(lifetimes={"x": live, "y": live}, registers=2)
    inst = build_regalloc(d.cfg, spec)
    sol = solve(inst, d)
    assert sol.min_cost == 0
    assert oracle_solve(inst).min_cost == 0
    placements = decode_placements(spec, sol.assignment)
    for v in live:
        assert placements[v] == placements[d.cfg.entry]

    # moving y out of its register and back costs one switch per move
    domain = regalloc_domain(spec)
    idx = {p: i for i, p in enumerate(domain)}
    a = {v: idx[(("x", 0), ("y", 1))] for v in live}
    a[5] = idx[(("x", 0), ("y", SPILLED))]
    a[2] = a[3] = idx[()]
    # edges touching vertex 5: (4,5), (1,5), (5,6) -> three moves of y
    assert evaluate(inst, a) == 3


def test_regalloc_one_register_spills_for_free():
    d = decompose_source(REGALLOC_PROGRAM)
    live = frozenset({0, 1, 4, 5, 6})
    spec = RegAllocSpec(lifetimes={"x": live, "y": live}, registers=1)
    inst = build_regalloc(d.cfg, spec)
    assert inst.d == 8
    sol = solve(inst, d)
    assert sol.min_cost == 0
    placements = decode_placements(spec, sol.assignment)
    locations = {placements[v]["x"] for v in live} | {
        placements[v]["y"] for v in live
    }
    # with one register the two variables cannot both hold it
    assert SPILLED in locations


def test_regalloc_errors():
    d = decompose_source(REGALLOC_PROGRAM)
    with pytest.raises(DisconnectedLifetimeError):
        build_regalloc(
            d.cfg, RegAllocSpec(lifetimes={"x": frozenset({0, 5})}, registers=1)
        )
    with pytest.raises(DisconnectedLifetimeError):
        build_regalloc(
            d.cfg, RegAllocSpec(lifetimes={"x": frozenset({1, 2})}, registers=1)
        )
    with pytest.raises(ValueError):
        build_regalloc(
            d.cfg, RegAllocSpec(lifetimes={"x": frozenset({99})}, registers=1)
        )
    with pytest.raises(ValueError):
        build_regalloc(d.cfg, RegAllocSpec(lifetimes={}, registers=-1))
    with pytest.raises(DomainTooLargeError):
        build_regalloc(
            d.cfg,
            RegAllocSpec(
                lifetimes={c: frozenset({0}) for c in "abcdefgh"},
                registers=8,
                domain_budget=100,
            ),
        )


def test_regalloc_single_variable_straight_line():
    d = decompose_source("a; b; c")
    cfg = d.cfg
    chain = frozenset({cfg.entry, *(e.dst for e in cfg.edges)})
    spec = RegAllocSpec(lifetimes={"x": chain}, registers=1)
    inst = build_regalloc(cfg, spec)
    sol = solve(inst, d)
    assert sol.min_cost == 0
    placements = decode_placements(spec, sol.assignment)
    assert len({tuple(placements[v].items()) for v in chain}) == 1


# ---------------------------------------------------------------------------
# graph coloring


def triangle_plus_tail():
    return Cfg.from_json(
        {"vertex_count": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 1]]}
    )


def test_coloring_two_colors_conflict():
    inst = build_graph_coloring(triangle_plus_tail(), 2)
    assert oracle_solve(inst).min_cost == 1


def test_coloring_three_colors_clean():
    inst = build_graph_coloring(triangle_plus_tail(), 3)
    sol = oracle_solve(inst)
    assert sol.min_cost == 0
    a = sol.assignment
    assert a[0] != a[1] and a[0] != a[2] and a[2] != a[1] and a[1] != a[3]


def test_coloring_single_vertex():
    g = Cfg.from_json({"vertex_count": 1, "edges": []})
    assert oracle_solve(build_graph_coloring(g, 1)).min_cost == 0


def test_coloring_tables_and_validation():
    g = triangle_plus_tail()
    inst = build_graph_coloring(g, 2)
    for tab in inst.edge_tables.values():
        assert tab.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError):
        build_graph_coloring(g, 0)


def test_coloring_on_decomposed_cfg_matches_oracle():
    d = decompose_source("while p do if q then a; b else c fi od")
    inst = build_graph_coloring(d.cfg, 2)
    assert solve(inst, d).min_cost == oracle_solve(inst).min_cost
