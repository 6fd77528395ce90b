"""The benchmark's four workloads.

Each workload makes a pool of cases from its seed (`make_cases`), runs
one case through the package's public API (`run`, the timed
operation), and checks the answer against its own definition of the
problem (`check`).  Every operation starts from program text.

Cases are made with the package's `parse_program` and `decompose`, the
way a user reads a program's CFG (`splcsp cfg`) before writing costs
for its vertices and edges.  ``api`` is a namespace of the package's
public functions; the traced run passes wrapped ones.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from checks import INF, CheckFailed, Costs, check_counts, check_feasible, check_solution, witness_cost
from programs import Program, make_program

# `oracle_solve` enumerates in pure Python up to this many combinations
# and in numpy chunks above it
ORACLE_SWITCH = 4096


@dataclass
class Case:
    program: Program
    inputs: dict
    # work done per operation, from the input: parse-tree nodes, cells
    # (E*d^2 + n*d) per builder, solver node counts, oracle combinations
    work: dict = field(default_factory=dict)


def _solve_work(program: Program, d: int, allowed_pairs: int) -> dict:
    nodes = program.parse_nodes
    return {
        "solve_nodes": nodes,
        "loop_nodes": program.whiles,
        "series_nodes": program.seqs,
        "parallel_nodes": program.ifs,
        "leaf_nodes": program.leaves,
        "dense_cells": nodes * d**4,
        "allowed_pairs": allowed_pairs,
        "vertex_values": program.vertices * d,
    }


def _add(work: dict, more: dict) -> None:
    for key, value in more.items():
        work[key] = work.get(key, 0) + value


def _cells(cfg, d: int) -> int:
    return len(cfg.edges) * d * d + cfg.vertex_count * d


def _planted_allowed(rng: random.Random, n: int, d: int, restrict_prob: float, restrict_sizes):
    """A planted assignment and random restricted allowed sets that
    contain it."""
    plant = [rng.randrange(d) for _ in range(n)]
    allowed = {}
    for v in range(n):
        if rng.random() < restrict_prob:
            k = rng.choice(restrict_sizes)
            others = [a for a in range(d) if a != plant[v]]
            allowed[v] = sorted(rng.sample(others, k - 1) + [plant[v]])
    return plant, allowed


def _planted_tables(rng: random.Random, cfg, d: int, plant: list, high: int, inf_prob: float):
    """Random integer vertex and edge tables with INF edge entries; every
    edge prices the planted assignment finitely, so it stays feasible."""
    vertex = [[rng.randint(0, high) for _ in range(d)] for _ in range(cfg.vertex_count)]
    tables = []
    for e in cfg.edges:
        tab = [[INF if rng.random() < inf_prob else rng.randint(0, high) for _ in range(d)] for _ in range(d)]
        tab[plant[e.src]][plant[e.dst]] = rng.randint(0, high)
        tables.append(tab)
    return vertex, tables


def _table_costs(cfg, d: int, allowed: dict, vertex: list, tables: list) -> Costs:
    full = tuple(range(d))
    return Costs(
        d,
        [tuple(allowed.get(v, full)) for v in range(cfg.vertex_count)],
        lambda v, a: vertex[v][a],
        [(e.src, e.dst) for e in cfg.edges],
        lambda i, a, b: tables[i][a][b],
    )


def _allowed_pairs(allowed: dict, n: int, d: int) -> int:
    return sum(len(allowed[v]) if v in allowed else d for v in range(n))


def _learn_cfg(api, program: Program):
    return api.decompose(api.parse_program(program.text)).cfg


# ---------------------------------------------------------------------------
# pipeline-small-d: LOSPRE (d=2) and bank selection (d=4) on large programs


class PipelineSmallD:
    name = "pipeline-small-d"
    sizes = [round(500 + i * 1500 / 7) for i in range(8)]  # 500 .. 2000
    banks = 3
    memory_cases = 1  # the 2000-statement program

    def make_cases(self, seed: int, api) -> list[Case]:
        from splcsp import BankSpec, LospreSpec

        rng = random.Random(f"{self.name}/{seed}")
        cases = []
        for size in self.sizes:
            program = make_program(rng, size)
            cfg = _learn_cfg(api, program)
            n = cfg.vertex_count
            lospre = LospreSpec(
                use=frozenset(v for v in range(n) if rng.random() < 0.1),
                invalidating=frozenset(v for v in range(n) if rng.random() < 0.1),
                edge_costs={(e.src, e.dst): rng.randint(1, 9) for e in cfg.edges},
                vertex_costs={v: rng.randint(0, 2) for v in range(n)},
            )
            bank = BankSpec(
                self.banks,
                preassigned={v: rng.randrange(self.banks) for v in range(n) if rng.random() < 0.08},
                c0=1,
                c1=2,
            )
            pins = len(bank.preassigned) + (cfg.entry not in bank.preassigned)
            bank_allowed = pins + (n - pins) * (self.banks + 1)
            work = {
                "parse_nodes": program.parse_nodes,
                "build_cells": _cells(cfg, 2) + _cells(cfg, self.banks + 1),
            }
            _add(work, _solve_work(program, 2, 2 * n))
            _add(work, _solve_work(program, self.banks + 1, bank_allowed))
            cases.append(Case(program, {"lospre": lospre, "bank": bank}, work))
        return cases

    def memory_weight(self, case: Case) -> int:
        return case.program.statements

    def run(self, api, case: Case):
        decomp = api.decompose(api.parse_program(case.program.text))
        lospre = api.build_lospre(decomp.cfg, case.inputs["lospre"])
        bank = api.build_bank_selection(decomp.cfg, case.inputs["bank"])
        return decomp.cfg, lospre, api.solve(lospre, decomp), bank, api.solve(bank, decomp)

    def check(self, case: Case, result, evaluate) -> None:
        cfg, lospre, lospre_sol, bank, bank_sol = result
        check_counts(case.program, cfg)
        spec = case.inputs["lospre"]
        check_solution(
            lospre_costs(cfg, spec), lospre_sol.min_cost, lospre_sol.assignment, lambda x: evaluate(lospre, x)
        )
        check_solution(
            bank_costs(cfg, case.inputs["bank"]), bank_sol.min_cost, bank_sol.assignment, lambda x: evaluate(bank, x)
        )


def lospre_costs(cfg, spec) -> Costs:
    """LOSPRE: value 1 keeps the computed value alive at a vertex.  An
    edge recomputes (at its price, default 1) when its source does not
    carry the value (not kept, or the source invalidates it; entry and
    exit always do) and its target needs it (uses it or keeps it);
    keeping the value alive at v costs v's lifetime price."""
    inv = set(spec.invalidating) | {cfg.entry, cfg.exit}
    edges = [(e.src, e.dst) for e in cfg.edges]
    prices = [(spec.edge_costs or {}).get(key, 1) for key in edges]
    use = spec.use
    lifetime = spec.vertex_costs or {}

    def edge(i, a, b):
        src, dst = edges[i]
        carries = a == 1 and src not in inv
        needed = dst in use or b == 1
        return prices[i] if needed and not carries else 0

    return Costs(2, [(0, 1)] * cfg.vertex_count, lambda v, a: lifetime.get(v, 0) if a else 0, edges, edge)


def bank_costs(cfg, spec) -> Costs:
    """Bank selection: values 0..banks-1 are banks, ``banks`` is
    "unknown".  Switching into a different known bank costs c1 on a taken
    branch edge and c0 elsewhere; staying or forgetting is free.
    Accesses pin their bank and the entry starts unknown."""
    unknown = spec.banks
    edges = [(e.src, e.dst) for e in cfg.edges]
    price = [spec.c1 if e.taken else spec.c0 for e in cfg.edges]
    allowed = [tuple(range(spec.banks + 1))] * cfg.vertex_count
    allowed[cfg.entry] = (unknown,)
    for v, bank in spec.preassigned.items():
        allowed[v] = (bank,)

    def edge(i, a, b):
        return 0 if b == a or b == unknown else price[i]

    return Costs(spec.banks + 1, allowed, lambda v, a: 0, edges, edge)


# ---------------------------------------------------------------------------
# json-wide-d: explicit-table instance JSON at d=10


class JsonWideD:
    name = "json-wide-d"
    programs = 6
    size = 300
    d = 10
    memory_cases = 3

    def make_cases(self, seed: int, api) -> list[Case]:
        rng = random.Random(f"{self.name}/{seed}")
        cases = []
        for _ in range(self.programs):
            program = make_program(rng, self.size)
            cfg = _learn_cfg(api, program)
            plant, allowed = _planted_allowed(rng, cfg.vertex_count, self.d, 0.1, range(self.d - 3, self.d))
            vertex, tables = _planted_tables(rng, cfg, self.d, plant, 20, 0.05)
            obj = {
                "domain_size": self.d,
                "edge_costs": [
                    {"src": e.src, "dst": e.dst, "table": [["inf" if c == INF else c for c in row] for row in tab]}
                    for e, tab in zip(cfg.edges, tables)
                ],
                "vertex_costs": vertex,
                "allowed": {str(v): vals for v, vals in allowed.items()},
            }
            work = {"parse_nodes": program.parse_nodes, "json_cells": _cells(cfg, self.d)}
            work.update(_solve_work(program, self.d, _allowed_pairs(allowed, cfg.vertex_count, self.d)))
            inputs = {"json": json.dumps(obj), "allowed": allowed, "vertex": vertex, "tables": tables}
            cases.append(Case(program, inputs, work))
        return cases

    def memory_weight(self, case: Case) -> int:
        return case.work["json_cells"]

    def run(self, api, case: Case):
        decomp = api.decompose(api.parse_program(case.program.text))
        instance = api.instance_from_json(decomp.cfg, api.json_loads(case.inputs["json"]))
        return decomp.cfg, instance, api.solve(instance, decomp)

    def check(self, case: Case, result, evaluate) -> None:
        cfg, instance, sol = result
        check_counts(case.program, cfg)
        inputs = case.inputs
        costs = _table_costs(cfg, self.d, inputs["allowed"], inputs["vertex"], inputs["tables"])
        check_solution(costs, sol.min_cost, sol.assignment, lambda x: evaluate(instance, x))


# ---------------------------------------------------------------------------
# regalloc-sparse: 2 variables, 1 register, spill-priced


class RegallocSparse:
    name = "regalloc-sparse"
    programs = 8
    size = 300
    variables = ("x", "y")
    registers = 1
    spill_price = 1
    memory_cases = 4

    def make_cases(self, seed: int, api) -> list[Case]:
        import numpy as np
        from splcsp import RegAllocSpec, regalloc_domain

        rng = random.Random(f"{self.name}/{seed}")
        cases = []
        for _ in range(self.programs):
            program = make_program(rng, self.size)
            cfg = _learn_cfg(api, program)
            n = cfg.vertex_count
            lifetimes = {var: _connected_region(rng, cfg, rng.randint(n // 5, 3 * n // 5)) for var in self.variables}
            spec = RegAllocSpec(lifetimes, self.registers, switch_cost=rng.randint(2, 4))
            domain = [dict(p) for p in regalloc_domain(spec)]
            d = len(domain)
            switch = np.array([[spec.switch_cost * _moves(p, q) for q in domain] for p in domain], dtype=float)
            spills = [self.spill_price * _spills(p) for p in domain]
            live = [frozenset(var for var in self.variables if v in lifetimes[var]) for v in range(n)]
            allowed = {v: [a for a, p in enumerate(domain) if set(p) == live[v]] for v in range(n)}
            priced = {
                "edge_costs": {(e.src, e.dst): switch for e in cfg.edges},
                "vertex_costs": np.array([spills] * n, dtype=float),
                "allowed": allowed,
            }
            work = {"parse_nodes": program.parse_nodes, "build_cells": _cells(cfg, d)}
            work.update(_solve_work(program, d, _allowed_pairs(allowed, n, d)))
            inputs = {"spec": spec, "d": d, "priced": priced, "domain": domain, "live": live}
            cases.append(Case(program, inputs, work))
        return cases

    def memory_weight(self, case: Case) -> int:
        return case.work["build_cells"]

    def run(self, api, case: Case):
        decomp = api.decompose(api.parse_program(case.program.text))
        built = api.build_regalloc(decomp.cfg, case.inputs["spec"])
        priced = api.PcspInstance(decomp.cfg, case.inputs["d"], **case.inputs["priced"])
        return decomp.cfg, built, priced, api.solve(priced, decomp)

    def check(self, case: Case, result, evaluate) -> None:
        cfg, built, priced, sol = result
        check_counts(case.program, cfg)
        inputs = case.inputs
        domain, live, spec = inputs["domain"], inputs["live"], inputs["spec"]
        edges = [(e.src, e.dst) for e in cfg.edges]
        moves = Costs(
            len(domain),
            [tuple(a for a, p in enumerate(domain) if set(p) == live[v]) for v in range(cfg.vertex_count)],
            lambda v, a: 0,
            edges,
            lambda i, a, b: spec.switch_cost * _moves(domain[a], domain[b]),
        )
        full = Costs(
            moves.d, moves.allowed, lambda v, a: self.spill_price * _spills(domain[a]), edges, moves.edge
        )
        # the allowed placements are those holding exactly the live
        # variables, so feasibility covers the live sets
        check_solution(full, sol.min_cost, sol.assignment, lambda x: evaluate(priced, x))
        x = sol.assignment
        for v in range(cfg.vertex_count):
            registers = [loc for loc in domain[x[v]].values() if loc is not None]
            if len(registers) != len(set(registers)):
                raise CheckFailed(f"vertex {v}: two variables share a register in {domain[x[v]]}")
        if evaluate(built, x) != witness_cost(moves, x):
            raise CheckFailed("build_regalloc prices the witness's moves differently")


def _moves(p: dict, q: dict) -> int:
    """Variables live at both ends whose location changes."""
    return sum(1 for var in p if var in q and p[var] != q[var])


def _spills(p: dict) -> int:
    return sum(1 for loc in p.values() if loc is None)


def _connected_region(rng: random.Random, cfg, size: int) -> frozenset[int]:
    """A random connected set of ``size`` vertices, grown from a random
    executable vertex along edges in either direction."""
    adjacent: list[list[int]] = [[] for _ in range(cfg.vertex_count)]
    for e in cfg.edges:
        adjacent[e.src].append(e.dst)
        adjacent[e.dst].append(e.src)
    start = rng.choice([v for v in range(cfg.vertex_count) if adjacent[v]])
    region = {start}
    frontier = [w for w in adjacent[start]]
    while frontier and len(region) < size:
        w = frontier.pop(rng.randrange(len(frontier)))
        if w not in region:
            region.add(w)
            frontier.extend(u for u in adjacent[w] if u not in region)
    return frozenset(region)


# ---------------------------------------------------------------------------
# certify-small: tiny programs solved by `solve` and by `oracle_solve`


class CertifySmall:
    name = "certify-small"
    programs = 1000
    # two of every three cases are drawn above the oracle's switch; with
    # the ranges below the oracle's time splits about evenly between its
    # two paths
    memory_cases = 30
    small_range = (1024, ORACLE_SWITCH)
    chunked_range = (ORACLE_SWITCH + 1, 32768)
    # cap on combinations x vertices, the size of the oracle's largest
    # arrays; many cases come close to it, so the peak memory of the
    # heaviest case barely depends on the seed
    max_weight = 1 << 18

    def make_cases(self, seed: int, api) -> list[Case]:
        rng = random.Random(f"{self.name}/{seed}")
        cases = []
        for i in range(self.programs):
            lo, hi = self.chunked_range if i % 3 else self.small_range
            while True:
                d = rng.choice((2, 3))
                size = rng.randint(1, 6)
                whiles = rng.randint(0, 2)
                ifs = rng.randint(0, 2)
                try:
                    program = make_program(rng, size, whiles, ifs, rng.randint(0, whiles))
                except ValueError:
                    continue
                plant, allowed = _planted_allowed(rng, program.vertices, d, 0.3, range(1, d))
                combos = 1
                for v in range(program.vertices):
                    combos *= len(allowed[v]) if v in allowed else d
                if lo <= combos <= hi and combos * program.vertices <= self.max_weight:
                    break
            cfg = _learn_cfg(api, program)
            vertex, tables = _planted_tables(rng, cfg, d, plant, 9, 0.15)
            inputs = {
                "d": d,
                "edge_costs": {(e.src, e.dst): tab for e, tab in zip(cfg.edges, tables)},
                "vertex_costs": vertex,
                "allowed": allowed,
                "tables": tables,
            }
            work = {"parse_nodes": program.parse_nodes, "combos": combos}
            work.update(_solve_work(program, d, _allowed_pairs(allowed, cfg.vertex_count, d)))
            cases.append(Case(program, inputs, work))
        return cases

    def memory_weight(self, case: Case) -> int:
        # the oracle's chunked path holds one int64 array per vertex per combination
        return case.work["combos"] * case.program.vertices

    def run(self, api, case: Case):
        inputs = case.inputs
        decomp = api.decompose(api.parse_program(case.program.text))
        instance = api.PcspInstance(
            decomp.cfg, inputs["d"], inputs["edge_costs"], inputs["vertex_costs"], inputs["allowed"]
        )
        return decomp.cfg, instance, api.solve(instance, decomp), api.oracle_solve(instance)

    def check(self, case: Case, result, evaluate) -> None:
        cfg, instance, sol, oracle = result
        check_counts(case.program, cfg)
        inputs = case.inputs
        costs = _table_costs(cfg, inputs["d"], inputs["allowed"], inputs["vertex_costs"], inputs["tables"])
        check_solution(costs, sol.min_cost, sol.assignment, lambda x: evaluate(instance, x))
        if oracle.min_cost != sol.min_cost:
            raise CheckFailed(f"oracle finds {oracle.min_cost}, solve finds {sol.min_cost}")
        check_feasible(costs, oracle.assignment)
        if witness_cost(costs, oracle.assignment) != oracle.min_cost:
            raise CheckFailed("the oracle's witness does not cost its reported minimum")


WORKLOADS = {w.name: w for w in (PipelineSmallD(), JsonWideD(), RegallocSparse(), CertifySmall())}
