"""Builders that turn optimization problems into PCSP instances.

Covered here: memory-bank selection, lifetime-optimal speculative
partial redundancy elimination (a two-value membership problem),
register allocation over explicit lifetimes, and plain graph coloring
on arbitrary digraphs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .solver import PcspInstance
from .spl import Cfg


class DomainTooLargeError(ValueError):
    """The enumerated register-allocation domain exceeds the budget."""


class BadPreassignmentError(ValueError):
    """A bank preassignment names a vertex or bank that does not exist."""


class DisconnectedLifetimeError(ValueError):
    """A variable lifetime is not a connected subgraph of the CFG."""


# ---------------------------------------------------------------------------
# memory-bank selection


@dataclass(frozen=True)
class BankSpec:
    """Pick one of ``banks`` memory banks (or "unknown") per vertex.

    Domain values 0..banks-1 are banks; value ``banks`` means the
    active bank is unknown there.  Crossing an edge into a *different
    known* bank costs a selection instruction: ``c1`` on taken branch
    edges, ``c0`` elsewhere.  Entering "unknown" is free (nothing is
    emitted; the next known bank pays).

    ``preassigned`` pins vertices that access a specific bank.  The
    entry starts with the bank unknown unless ``entry_unknown`` is
    false or the entry itself is preassigned.  ``taken_edges``
    overrides the CFG's own notion of which branch edges are taken;
    each pair in it must be an edge of the CFG.
    """

    banks: int
    preassigned: Mapping[int, int] = field(default_factory=dict)
    c0: int = 1
    c1: int = 1
    taken_edges: frozenset[tuple[int, int]] | None = None
    entry_unknown: bool = True

    @property
    def unknown(self) -> int:
        return self.banks


def build_bank_selection(cfg: Cfg, spec: BankSpec) -> PcspInstance:
    if spec.banks < 1:
        raise ValueError("need at least one bank")
    for name, price in (("c0", spec.c0), ("c1", spec.c1)):
        if price < 0:
            raise ValueError(f"{name} must be non-negative, got {price}")
    bottom = spec.banks
    for v, bank in spec.preassigned.items():
        if not 0 <= v < cfg.vertex_count:
            raise BadPreassignmentError(f"preassigned vertex {v} not in the graph")
        if not 0 <= bank < spec.banks:
            raise BadPreassignmentError(
                f"preassigned bank {bank} for vertex {v} out of range"
            )

    if spec.taken_edges is None:
        taken = cfg.taken
    else:
        override = set(spec.taken_edges)
        stray = override - set(zip(cfg.src, cfg.dst))
        if stray:
            raise ValueError(f"taken edges that are not edges of the graph: {sorted(stray)[:4]}")
        taken = [key in override for key in zip(cfg.src, cfg.dst)]

    # staying put or forgetting the bank is free; switching to a known
    # bank needs a selection instruction on the edge
    switches = ~np.eye(spec.banks + 1, dtype=bool)
    switches[:, bottom] = False
    c0 = np.where(switches, float(spec.c0), 0.0)
    c1 = np.where(switches, float(spec.c1), 0.0)
    edge_costs = [c1 if t else c0 for t in taken]

    allowed: dict[int, tuple[int, ...]] = {
        v: (bank,) for v, bank in spec.preassigned.items()
    }
    if (
        spec.entry_unknown
        and cfg.entry is not None
        and cfg.entry not in spec.preassigned
    ):
        allowed[cfg.entry] = (bottom,)
    return PcspInstance(cfg, spec.banks + 1, edge_costs, None, allowed)


def decode_banks(spec: BankSpec, assignment: Mapping[int, int]) -> dict[int, int | None]:
    """Assignment values back to bank numbers; None for "unknown"."""
    return {v: (None if a == spec.banks else a) for v, a in assignment.items()}


# ---------------------------------------------------------------------------
# speculative partial redundancy elimination
#
# Choose the set L of vertices where a computed value is kept alive.
# An edge (x, y) must (re)compute the value when x does not already
# carry it safely (x not in L, or an invalidating x) and the value is
# needed at y (y uses it or keeps it alive).  Lifetime costs charge
# for keeping the value in L.


@dataclass(frozen=True)
class LospreSpec:
    """Membership problem for one computed value.

    ``use``: vertices that need the value.  ``invalidating``: vertices
    after which a carried value is stale (the entry and exit are always
    treated as invalidating).  ``edge_costs`` maps (src, dst) to the
    cost of recomputing on that edge (default 1 everywhere);
    ``vertex_costs`` maps a vertex to the cost of keeping the value
    alive there (default 0).
    """

    use: frozenset[int]
    invalidating: frozenset[int] = frozenset()
    edge_costs: Mapping[tuple[int, int], int] | None = None
    vertex_costs: Mapping[int, int] | None = None

    def effective_invalidating(self, cfg: Cfg) -> frozenset[int]:
        extra = {v for v in (cfg.entry, cfg.exit) if v is not None}
        return self.invalidating | extra

    def edge_cost(self, key: tuple[int, int]) -> int:
        if self.edge_costs is None:
            return 1
        return self.edge_costs.get(key, 1)

    def vertex_cost(self, v: int) -> int:
        if self.vertex_costs is None:
            return 0
        return self.vertex_costs.get(v, 0)


def build_lospre(cfg: Cfg, spec: LospreSpec) -> PcspInstance:
    """Domain {0, 1}: value 1 at v means v is in the membership set L."""
    for v in spec.use | spec.invalidating:
        if not 0 <= v < cfg.vertex_count:
            raise ValueError(f"vertex {v} not in the graph")
    stray = set(spec.edge_costs or ()) - set(zip(cfg.src, cfg.dst))
    if stray:
        raise ValueError(f"edge costs for pairs that are not edges of the graph: {sorted(stray)[:4]}")
    stray = set(spec.vertex_costs or ()) - set(range(cfg.vertex_count))
    if stray:
        raise ValueError(f"vertex costs for vertices not in the graph: {sorted(stray)[:4]}")
    inv = spec.effective_invalidating(cfg)
    # edges agreeing on (source invalidates, target uses, price) share
    # one table.  y needs the value when it uses it or ly = 1; x carries
    # it in when lx = 1 and x does not invalidate; a needed value that
    # is not carried in is recomputed on the edge.
    tables: dict[tuple[bool, bool, int], np.ndarray] = {}
    edge_costs = []
    for u, w in zip(cfg.src, cfg.dst):
        rule = (u in inv, w in spec.use, spec.edge_cost((u, w)))
        tab = tables.get(rule)
        if tab is None:
            invalidates, uses, price = rule
            recompute = [float(price) if uses else 0.0, float(price)]
            tab = tables[rule] = np.array(
                [recompute, recompute if invalidates else [0.0, 0.0]]
            )
        edge_costs.append(tab)
    vertex = np.zeros((cfg.vertex_count, 2))
    vertex[:, 1] = [float(spec.vertex_cost(v)) for v in range(cfg.vertex_count)]
    return PcspInstance(cfg, 2, edge_costs, vertex)


def lospre_objective(cfg: Cfg, spec: LospreSpec, members: set[int]) -> int:
    """The objective computed straight from its definition: recompute
    costs on edges not covered by the membership set, plus lifetime
    costs of the set.  `build_lospre` + `evaluate` must agree with it.
    """
    inv = spec.effective_invalidating(cfg)
    total = 0
    for u, w in zip(cfg.src, cfg.dst):
        carries = u in members and u not in inv
        needed = w in spec.use or w in members
        if not carries and needed:
            total += spec.edge_cost((u, w))
    for v in members:
        total += spec.vertex_cost(v)
    return total


# ---------------------------------------------------------------------------
# register allocation


SPILLED = None  # location of a variable kept in memory

# the most placements `build_regalloc` takes as its domain
DOMAIN_BUDGET = 4096


@dataclass(frozen=True)
class RegAllocSpec:
    """Place live variables in registers (injectively) or spill them.

    ``lifetimes`` maps a variable name to the set of vertices where it
    is live.  A domain value is a placement: an assignment of each live
    variable to a distinct register or to SPILLED.  Crossing an edge
    costs ``switch_cost`` per variable live on both ends whose location
    changed.
    """

    lifetimes: Mapping[str, frozenset[int]]
    registers: int
    switch_cost: int = 1


def count_placements(variables: int, registers: int) -> int:
    """Size of `enumerate_placements` without enumerating: sum over
    support sizes j and in-register counts i of C(V,j)·C(j,i)·P(r,i)."""
    total = 0
    for j in range(variables + 1):
        for i in range(min(j, registers) + 1):
            total += (
                math.comb(variables, j)
                * math.comb(j, i)
                * math.perm(registers, i)
            )
    return total


def enumerate_placements(
    variables: tuple[str, ...], registers: int
) -> tuple[tuple[tuple[str, int | None], ...], ...]:
    """All placements of every subset of ``variables``, as tuples of
    (variable, location) pairs; registers must not repeat, SPILLED may.

    Enumeration order is deterministic: subsets by variable-bitmask
    ascending (variables in the given order), then locations
    lexicographically with registers 0..r-1 before SPILLED.
    """
    locations: tuple[int | None, ...] = tuple(range(registers)) + (SPILLED,)
    out: list[tuple[tuple[str, int | None], ...]] = []
    for mask in range(1 << len(variables)):
        support = [v for i, v in enumerate(variables) if mask >> i & 1]
        for locs in itertools.product(locations, repeat=len(support)):
            regs = [l for l in locs if l is not SPILLED]
            if len(regs) != len(set(regs)):
                continue
            out.append(tuple(zip(support, locs)))
    return tuple(out)


def _is_connected(vertices: frozenset[int], cfg: Cfg) -> bool:
    """Connectivity of an induced subgraph, ignoring edge direction."""
    if len(vertices) <= 1:
        return True
    adjacent: dict[int, set[int]] = {v: set() for v in vertices}
    for u, w in zip(cfg.src, cfg.dst):
        if u in adjacent and w in adjacent:
            adjacent[u].add(w)
            adjacent[w].add(u)
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def build_regalloc(cfg: Cfg, spec: RegAllocSpec) -> PcspInstance:
    if spec.registers < 0:
        raise ValueError("register count must be non-negative")
    if spec.switch_cost < 0:
        raise ValueError(f"switch_cost must be non-negative, got {spec.switch_cost}")
    for var, vs in spec.lifetimes.items():
        for v in vs:
            if not 0 <= v < cfg.vertex_count:
                raise ValueError(f"vertex {v} in lifetime of {var!r} not in the graph")
        if not _is_connected(frozenset(vs), cfg):
            raise DisconnectedLifetimeError(
                f"lifetime of {var!r} is not a connected subgraph"
            )
    variables = tuple(sorted(spec.lifetimes))
    d = count_placements(len(variables), spec.registers)
    if d > DOMAIN_BUDGET:
        raise DomainTooLargeError(f"{d} placements exceed the domain budget {DOMAIN_BUDGET}")
    domain = enumerate_placements(variables, spec.registers)
    assert len(domain) == d

    # each placement's location code for each variable: -1 where the
    # variable is not placed, `registers` where it is spilled.  A
    # variable moves when it is placed at both ends, in other locations.
    column = {var: k for k, var in enumerate(variables)}
    where = np.full((d, len(variables)), -1)
    for i, placement in enumerate(domain):
        for var, loc in placement:
            where[i, column[var]] = spec.registers if loc is SPILLED else loc
    switch = np.zeros((d, d))
    for loc in where.T:
        placed = loc >= 0
        switch += placed[:, None] & placed & (loc[:, None] != loc)
    switch *= spec.switch_cost

    # a vertex allows the placements whose support is its live set; each
    # distinct live set is matched once, and its vertices share one tuple
    support = [frozenset(var for var, _ in p) for p in domain]
    placements: dict[frozenset[str], tuple[int, ...]] = {}
    allowed = {}
    for v in range(cfg.vertex_count):
        live = frozenset(var for var, vs in spec.lifetimes.items() if v in vs)
        if live not in placements:
            placements[live] = tuple(i for i in range(d) if support[i] == live)
        allowed[v] = placements[live]

    return PcspInstance(cfg, d, [switch] * len(cfg.src), None, allowed)


def regalloc_domain(spec: RegAllocSpec) -> tuple[tuple[tuple[str, int | None], ...], ...]:
    """The placement list that `build_regalloc` numbers its domain by."""
    return enumerate_placements(tuple(sorted(spec.lifetimes)), spec.registers)


def decode_placements(
    spec: RegAllocSpec, assignment: Mapping[int, int]
) -> dict[int, dict[str, int | None]]:
    domain = regalloc_domain(spec)
    return {v: dict(domain[a]) for v, a in assignment.items()}


# ---------------------------------------------------------------------------
# graph coloring


def build_graph_coloring(graph: Cfg, colors: int) -> PcspInstance:
    """Minimize the number of edges whose endpoints share a color."""
    if colors < 1:
        raise ValueError("need at least one color")
    conflict = np.where(np.eye(colors, dtype=bool), 1.0, 0.0)
    return PcspInstance(graph, colors, [conflict] * len(graph.src), None, None)
