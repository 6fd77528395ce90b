"""Correctness checks that do not trust the program under test.

Each workload writes its problem down as a `Costs`: the allowed values
and two cost functions built from the workload's own input definition
(the LOSPRE recompute rule, the bank-switch rule, the JSON tables it
drew, register moves plus spills).  Nothing here reads the internals of
a `PcspInstance`, so the instance representation can change freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

INF = math.inf


class CheckFailed(Exception):
    """An operation's answer failed one of the benchmark's checks."""


@dataclass
class Costs:
    """A PCSP as the benchmark defines it.

    ``vertex(v, a)`` and ``edge(i, a, b)`` give the cost of value ``a``
    at vertex ``v`` and of values ``a``/``b`` at the ends of
    ``edges[i]``; costs are ints or ``INF``.
    """

    d: int
    allowed: Sequence[Sequence[int]]
    vertex: Callable[[int, int], float]
    edges: Sequence[tuple[int, int]]
    edge: Callable[[int, int, int], float]
    incident: list[list[int]] = field(init=False)

    def __post_init__(self):
        self.incident = [[] for _ in self.allowed]
        for i, (src, dst) in enumerate(self.edges):
            self.incident[src].append(i)
            self.incident[dst].append(i)

    @property
    def n(self) -> int:
        return len(self.allowed)


def witness_cost(costs: Costs, x: Mapping[int, int]) -> float:
    """(a) The cost of an assignment, recomputed from the definition."""
    total = 0
    for v in range(costs.n):
        total += costs.vertex(v, x[v])
    for i, (src, dst) in enumerate(costs.edges):
        total += costs.edge(i, x[src], x[dst])
    return total


def check_feasible(costs: Costs, x: Mapping[int, int] | None) -> None:
    """(b) Every vertex has exactly one value, taken from its allowed set."""
    if x is None:
        raise CheckFailed("no witness for a feasible instance")
    if len(x) != costs.n or set(x) != set(range(costs.n)):
        raise CheckFailed(f"witness covers {len(x)} vertices, the graph has {costs.n}")
    for v in range(costs.n):
        if x[v] not in costs.allowed[v]:
            raise CheckFailed(f"vertex {v} takes {x[v]}, allowed {tuple(costs.allowed[v])}")


def check_local_optimum(costs: Costs, x: Mapping[int, int]) -> None:
    """(c) No change of one vertex to another allowed value is cheaper."""
    for v in range(costs.n):
        a = x[v]
        for b in costs.allowed[v]:
            if b == a:
                continue
            delta = costs.vertex(v, b) - costs.vertex(v, a)
            for i in costs.incident[v]:
                src, dst = costs.edges[i]
                old = costs.edge(i, x[src], x[dst])
                new = costs.edge(i, b if src == v else x[src], b if dst == v else x[dst])
                delta += new - old
            if delta < 0:
                raise CheckFailed(f"vertex {v}: value {b} instead of {a} saves {-delta}")


def lower_bound(costs: Costs) -> float:
    """(d) Sum of per-edge and per-vertex minima over allowed values."""
    total = 0
    for v in range(costs.n):
        total += min(costs.vertex(v, a) for a in costs.allowed[v])
    for i, (src, dst) in enumerate(costs.edges):
        total += min(
            costs.edge(i, a, b) for a in costs.allowed[src] for b in costs.allowed[dst]
        )
    return total


def check_lower_bound(costs: Costs, min_cost: float) -> None:
    """(d) No answer can cost less than `lower_bound`."""
    bound = lower_bound(costs)
    if min_cost < bound:
        raise CheckFailed(f"minimum {min_cost} is below the lower bound {bound}")


def check_solution(costs: Costs, min_cost: float, x: Mapping[int, int] | None, evaluate) -> None:
    """Checks (a) to (d) on one witness.  ``evaluate(x)`` is the
    package's own pricing of the witness, which must agree with the
    recomputation; it is called only on a feasible witness."""
    check_feasible(costs, x)
    cost = witness_cost(costs, x)
    if math.isinf(cost):
        raise CheckFailed("the witness hits an infinite cost")
    if cost != min_cost:
        raise CheckFailed(f"witness costs {cost}, solver reports {min_cost}")
    evaluated = evaluate(x)
    if evaluated != cost:
        raise CheckFailed(f"evaluate gives {evaluated}, the definition gives {cost}")
    check_local_optimum(costs, x)
    check_lower_bound(costs, min_cost)


def check_counts(program, cfg) -> None:
    """The CFG has the vertex and edge counts the series/parallel/loop
    construction predicts for the generated program."""
    got = (cfg.vertex_count, len(cfg.edges))
    want = (program.vertices, program.edges)
    if got != want:
        raise CheckFailed(f"CFG has (vertices, edges) {got}, the program implies {want}")
