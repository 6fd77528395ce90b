"""Partial constraint satisfaction over control-flow graphs.

An instance attaches a cost table to every edge (d x d), a cost vector
to every vertex (length d) and an allowed subset of the domain to every
vertex.  Costs are non-negative integers extended with ``INFINITY``
(hard constraints); addition saturates.

`solve` minimizes the total cost over all assignments in one bottom-up
pass over a decomposition: tables are indexed by the values of a
subgraph's four special vertices, so the whole run is
O(|G| * d**5) time and the answer is exact.  `oracle_solve` does the
same by exhaustive enumeration and exists to cross-check the solver on
small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .spl import Cfg, Decomposition, Edge

INFINITY = math.inf

DEFAULT_ORACLE_BUDGET = 1 << 24

# pure-python enumeration below this many combinations: cheaper than
# setting up numpy for tiny instances
_SMALL_ORACLE = 4096

_CHUNK = 1 << 16

# float64 holds every integer up to 2**53 exactly.  The DP's largest
# intermediate is twice an instance's worst finite total (a parallel
# node adds both branches before taking the shared edge back out), so
# that total may not exceed 2**52.
_COST_LIMIT = 1 << 52


class CostOverflowError(ValueError):
    """The instance's finite costs could add up to more than 2**52,
    beyond which float64 sums are no longer exact."""


class InstanceMismatchError(ValueError):
    """Instance and graph (or decomposition) do not describe each other."""


class PartialAssignmentError(ValueError):
    """`evaluate` was given an assignment missing some vertices."""


class BudgetExceededError(RuntimeError):
    """`oracle_solve` would enumerate more combinations than allowed."""

    def __init__(self, combinations: int, budget: int):
        super().__init__(
            f"{combinations} assignment combinations exceed the oracle budget {budget}"
        )
        self.combinations = combinations
        self.budget = budget


def _validate_table(arr: np.ndarray, what: str) -> np.ndarray:
    """Check that ``arr`` holds costs; return it with INFINITY as 0,
    so callers can take the largest finite entries from the result."""
    if not (arr >= 0).all():
        if np.isnan(arr).any():
            raise ValueError(f"{what}: NaN is not a cost")
        raise ValueError(f"{what}: costs must be non-negative")
    finite = np.where(np.isinf(arr), 0.0, arr)
    if not (np.floor(finite) == finite).all():
        raise ValueError(f"{what}: finite costs must be integers")
    return finite


class PcspInstance:
    """Costs and allowed sets for one graph.

    ``edge_costs`` may be a callable ``f(edge, a, b)``, a mapping from
    (src, dst) to a d x d table, or None for all-zero.  ``vertex_costs``
    may be a callable ``f(v, a)``, an (n, d) array, a mapping from
    vertex to a length-d vector, or None.  ``allowed`` maps vertices to
    non-empty subsets of the domain; unlisted vertices allow everything.
    """

    def __init__(
        self,
        cfg: Cfg,
        domain_size: int,
        edge_costs: Callable | Mapping | None = None,
        vertex_costs: Callable | Mapping | np.ndarray | None = None,
        allowed: Mapping | None = None,
    ):
        if domain_size < 1:
            raise ValueError("domain_size must be at least 1")
        self.cfg = cfg
        self.d = int(domain_size)
        d, n = self.d, cfg.vertex_count

        keys = [(e.src, e.dst) for e in cfg.edges]
        zero = np.zeros((d, d))
        zero.setflags(write=False)
        tables: dict[tuple[int, int], np.ndarray] = {}
        # the largest finite cost of every edge and vertex, added up
        worst = 0
        if edge_costs is None:
            tables = {k: zero for k in keys}
        elif callable(edge_costs):
            for e in cfg.edges:
                tab = np.empty((d, d))
                for a in range(d):
                    for b in range(d):
                        tab[a, b] = float(edge_costs(e, a, b))
                k = (e.src, e.dst)
                worst += int(_validate_table(tab, f"edge {k}").max())
                tab.setflags(write=False)
                tables[k] = tab
        else:
            extra = set(edge_costs) - set(keys)
            if extra:
                raise InstanceMismatchError(
                    f"edge costs given for non-edges: {sorted(extra)[:4]}"
                )
            # builders often give every edge one table object: copy,
            # validate and reduce each distinct object once.  The memo
            # holds the object so its id cannot be reused meanwhile.
            seen: dict[int, tuple[object, np.ndarray, int]] = {}
            for k in keys:
                if k not in edge_costs:
                    tables[k] = zero
                    continue
                given = edge_costs[k]
                hit = seen.get(id(given))
                if hit is None:
                    tab = np.array(given, dtype=float)
                    if tab.shape != (d, d):
                        raise ValueError(f"edge table {k} must be {d}x{d}")
                    high = int(_validate_table(tab, f"edge {k}").max())
                    tab.setflags(write=False)
                    hit = seen[id(given)] = (given, tab, high)
                tables[k] = hit[1]
                worst += hit[2]
        self.edge_tables = tables

        if vertex_costs is None:
            vt = np.zeros((n, d))
        elif callable(vertex_costs):
            vt = np.empty((n, d))
            for v in range(n):
                for a in range(d):
                    vt[v, a] = float(vertex_costs(v, a))
        elif isinstance(vertex_costs, Mapping):
            vt = np.zeros((n, d))
            for v, row in vertex_costs.items():
                if not 0 <= v < n:
                    raise InstanceMismatchError(f"vertex cost for unknown vertex {v}")
                vt[v] = np.array(row, dtype=float)
        else:
            vt = np.array(vertex_costs, dtype=float)
            if vt.shape != (n, d):
                raise ValueError(f"vertex costs must be {n}x{d}")
        # a float64 sum of non-negative integers is exact up to 2**53, so
        # it only rounds where the total is far past the limit anyway
        worst += int(_validate_table(vt, "vertex costs").max(axis=1).sum())
        if worst > _COST_LIMIT:
            raise CostOverflowError(
                f"finite costs can add up to {worst}, more than 2**52: "
                "float64 sums would no longer be exact"
            )
        vt.setflags(write=False)
        self.vertex_costs = vt

        sets: list[tuple[int, ...]] = []
        if allowed is None:
            allowed = {}
        for v in range(n):
            if v in allowed:
                vals = sorted(set(int(a) for a in allowed[v]))
                if not vals:
                    raise ValueError(f"allowed set for vertex {v} is empty")
                if vals[0] < 0 or vals[-1] >= d:
                    raise ValueError(f"allowed set for vertex {v} leaves the domain")
                sets.append(tuple(vals))
            else:
                sets.append(tuple(range(d)))
        unknown = set(allowed) - set(range(n))
        if unknown:
            raise InstanceMismatchError(
                f"allowed sets for unknown vertices: {sorted(unknown)[:4]}"
            )
        self.allowed = tuple(sets)
        self._allowed_sets = tuple(frozenset(s) for s in sets)
        mask = np.full((n, d), INFINITY)
        for v, vals in enumerate(sets):
            mask[v, list(vals)] = 0.0
        mask.setflags(write=False)
        self.allowed_mask = mask

    @property
    def vertex_count(self) -> int:
        return self.cfg.vertex_count


@dataclass(frozen=True)
class Solution:
    """Minimum cost and, when it is finite, a witness assignment."""

    min_cost: int | float
    assignment: dict[int, int] | None

    def to_json(self) -> dict:
        cost = "inf" if math.isinf(self.min_cost) else int(self.min_cost)
        assignment = None
        if self.assignment is not None:
            assignment = {str(v): int(a) for v, a in sorted(self.assignment.items())}
        return {"min_cost": cost, "assignment": assignment}


def evaluate(instance: PcspInstance, assignment: Mapping[int, int]) -> int | float:
    """Total cost of one assignment; INFINITY when it violates an
    allowed set or hits an INFINITY table entry."""
    n = instance.cfg.vertex_count
    missing = [v for v in range(n) if v not in assignment]
    if missing:
        raise PartialAssignmentError(
            f"assignment misses {len(missing)} vertices (first: {missing[:4]})"
        )
    vals = []
    for v in range(n):
        a = int(assignment[v])
        if not 0 <= a < instance.d:
            raise ValueError(f"value {a} for vertex {v} leaves the domain")
        vals.append(a)
    total = 0.0
    for v in range(n):
        if vals[v] not in instance._allowed_sets[v]:
            return INFINITY
        total += instance.vertex_costs[v, vals[v]]
    for (src, dst), tab in instance.edge_tables.items():
        total += tab[vals[src], vals[dst]]
    return INFINITY if math.isinf(total) else int(total)


# ---------------------------------------------------------------------------
# dynamic programming over a decomposition
#
# dp[i] is indexed by the values of node i's specials (S, T, B, C) and
# holds the minimum cost of the node's edges plus the vertex costs of
# its internal (non-special) vertices.  Vertex costs are charged where
# a vertex stops being special: at the series merge point, at a loop's
# child specials, and for the root's own specials in the final minimum.
# Allowed sets are {0, INFINITY} masks applied at the nodes that create
# vertices (atoms and loops); merges keep specials aligned, so masked
# axes stay masked.  A loop's minimization over its child's four
# specials separates, because the exit value meets only the child's B
# (through the break edge): S, then (T, C), then B costs d**5 + d**4 +
# d**3 rather than d**6.  The backtrack's argmin choices are stored in
# the smallest unsigned dtype that holds their index range.


def _check_same_cfg(a: Cfg, b: Cfg) -> None:
    if a is b:
        return
    if a.vertex_count != b.vertex_count or set(a.edge_map) != set(b.edge_map):
        raise InstanceMismatchError("instance and decomposition use different graphs")


def _forward(instance: PcspInstance, decomp: Decomposition, keep: bool):
    d = instance.d
    am = instance.allowed_mask
    vt = instance.vertex_costs
    et = instance.edge_tables
    nodes = decomp.nodes
    tables: list[np.ndarray | None] = [None] * len(nodes)
    choices: list = [None] * len(nodes)
    one = np.min_scalar_type(d - 1)
    pair = np.min_scalar_type(d * d - 1)

    def masks(quad):
        s, t, b, c = quad
        return (
            am[s][:, None, None, None]
            + am[t][None, :, None, None]
            + am[b][None, None, :, None]
            + am[c][None, None, None, :]
        )

    for i, node in enumerate(nodes):
        S, T, B, C = node.specials
        if node.kind == "epsilon":
            dp = et[(S, T)][:, :, None, None] + masks(node.specials)
        elif node.kind == "break":
            dp = et[(S, B)][:, None, :, None] + masks(node.specials)
        elif node.kind == "continue":
            dp = et[(S, C)][:, None, None, :] + masks(node.specials)
        elif node.kind == "series":
            left, right = node.children
            m = node.merged
            z = (
                tables[left][:, :, None, :, :]
                + tables[right][None, :, :, :, :]
                + vt[m][None, :, None, None, None]
            )
            choices[i] = z.argmin(axis=1).astype(one)
            dp = z.min(axis=1)
        elif node.kind == "parallel":
            left, right = node.children
            dp = tables[left] + tables[right]
            # both operands carried the collapsed edge's cost: take one
            # copy back out; inf - inf marks combinations that were
            # impossible anyway
            with np.errstate(invalid="ignore"):
                for src, dst in node.duplicates:
                    tab = et[(src, dst)]
                    if dst == T:
                        dp = dp - tab[:, :, None, None]
                    elif dst == B:
                        dp = dp - tab[:, None, :, None]
                    else:
                        dp = dp - tab[:, None, None, :]
            if node.duplicates:
                dp[np.isnan(dp)] = INFINITY
        elif node.kind == "loop":
            (child,) = node.children
            cs, ct, cb, cc = nodes[child].specials
            w = tables[child] + (
                vt[cs][:, None, None, None]
                + vt[ct][None, :, None, None]
                + vt[cb][None, None, :, None]
                + vt[cc][None, None, None, :]
            )
            enter = et[(S, cs)]
            exit_st = et[(S, T)]
            back_t = et[(ct, S)]
            back_c = et[(cc, S)]
            exit_b = et[(cb, T)]
            # axes: the loop's S value, then the child's B, T, C and S
            # values; each step reduces the last axis
            x = w.transpose(2, 1, 3, 0)[None] + enter[:, None, None, None, :]
            arg_s = x.argmin(axis=4)
            x = (
                x.min(axis=4) + back_t.T[:, None, :, None] + back_c.T[:, None, None, :]
            ).reshape(d, d, d * d)
            arg_tc = x.argmin(axis=2)
            # (S value, child B value, loop T value)
            x = x.min(axis=2)[:, :, None] + exit_b[None]
            arg_b = x.argmin(axis=1)
            core = x.min(axis=1)
            dp = core[:, :, None, None] + exit_st[:, :, None, None] + masks(node.specials)
            choices[i] = (arg_s.astype(one), arg_tc.astype(pair), arg_b.astype(one))
        else:
            raise ValueError(f"unknown node kind: {node.kind!r}")
        tables[i] = dp
        if not keep:
            for c in node.children:
                tables[c] = None
    return tables, choices


def dp_tables(instance: PcspInstance, decomp: Decomposition) -> list[np.ndarray]:
    """All per-node tables, in decomposition (post-)order; for tests
    and inspection, so nothing is freed."""
    _check_same_cfg(instance.cfg, decomp.cfg)
    tables, _ = _forward(instance, decomp, keep=True)
    return tables


def solve(instance: PcspInstance, decomp: Decomposition) -> Solution:
    """Exact minimum over all assignments, linear in the program size."""
    _check_same_cfg(instance.cfg, decomp.cfg)
    d = instance.d
    tables, choices = _forward(instance, decomp, keep=False)
    nodes = decomp.nodes
    root = decomp.root
    rs, rt, rb, rc = nodes[root].specials
    vt = instance.vertex_costs
    total = tables[root] + (
        vt[rs][:, None, None, None]
        + vt[rt][None, :, None, None]
        + vt[rb][None, None, :, None]
        + vt[rc][None, None, None, :]
    )
    flat = int(np.argmin(total))
    best = float(total.reshape(-1)[flat])
    if math.isinf(best):
        return Solution(INFINITY, None)
    quad = np.unravel_index(flat, (d, d, d, d))
    quad = tuple(int(q) for q in quad)

    assignment: dict[int, int] = {}
    for vertex, value in zip(nodes[root].specials, quad):
        assignment[vertex] = value
    stack: list[tuple[int, tuple[int, int, int, int]]] = [(root, quad)]
    while stack:
        i, (s, t, b, c) = stack.pop()
        node = nodes[i]
        if node.kind == "series":
            m = int(choices[i][s, t, b, c])
            assignment[node.merged] = m
            left, right = node.children
            stack.append((left, (s, m, b, c)))
            stack.append((right, (m, t, b, c)))
        elif node.kind == "parallel":
            left, right = node.children
            stack.append((left, (s, t, b, c)))
            stack.append((right, (s, t, b, c)))
        elif node.kind == "loop":
            (child,) = node.children
            arg_s, arg_tc, arg_b = choices[i]
            cb = int(arg_b[s, t])
            ct, cc = divmod(int(arg_tc[s, cb]), d)
            sub = (int(arg_s[s, cb, ct, cc]), ct, cb, cc)
            for vertex, value in zip(nodes[child].specials, sub):
                assignment[vertex] = value
            stack.append((child, sub))

    if len(assignment) != instance.cfg.vertex_count:
        raise AssertionError("reconstruction did not assign every vertex exactly once")
    return Solution(int(best), assignment)


# ---------------------------------------------------------------------------
# exhaustive oracle


def oracle_solve(
    instance: PcspInstance, budget: int = DEFAULT_ORACLE_BUDGET
) -> Solution:
    """Minimize by enumerating every allowed assignment.

    Exponential; raises `BudgetExceededError` instead of attempting
    more than ``budget`` combinations.  Ties break toward the
    lexicographically first assignment (vertex 0 most significant).
    """
    n = instance.cfg.vertex_count
    allowed = instance.allowed
    combos = 1
    for vals in allowed:
        combos *= len(vals)
    if combos > budget:
        raise BudgetExceededError(combos, budget)
    if n == 0:
        return Solution(0, {})

    if combos <= _SMALL_ORACLE:
        vt = instance.vertex_costs.tolist()
        edge_list = [
            (src, dst, tab.tolist()) for (src, dst), tab in instance.edge_tables.items()
        ]
        best = INFINITY
        best_combo = None
        for combo in itertools.product(*allowed):
            total = 0.0
            for v in range(n):
                total += vt[v][combo[v]]
            for src, dst, tab in edge_list:
                total += tab[combo[src]][combo[dst]]
            if total < best:
                best = total
                best_combo = combo
        if best_combo is None or math.isinf(best):
            return Solution(INFINITY, None)
        return Solution(int(best), {v: best_combo[v] for v in range(n)})

    radices = [len(vals) for vals in allowed]
    weights = [1] * n
    for v in range(n - 2, -1, -1):
        weights[v] = weights[v + 1] * radices[v + 1]
    arrays = [np.array(vals, dtype=np.int64) for vals in allowed]
    vt = instance.vertex_costs
    best = INFINITY
    best_k = -1
    for lo in range(0, combos, _CHUNK):
        hi = min(lo + _CHUNK, combos)
        ks = np.arange(lo, hi, dtype=np.int64)
        vals = [arrays[v][(ks // weights[v]) % radices[v]] for v in range(n)]
        cost = np.zeros(hi - lo)
        for v in range(n):
            cost += vt[v][vals[v]]
        for (src, dst), tab in instance.edge_tables.items():
            cost += tab[vals[src], vals[dst]]
        j = int(np.argmin(cost))
        c = float(cost[j])
        if c < best:
            best = c
            best_k = lo + j
    if math.isinf(best):
        return Solution(INFINITY, None)
    assignment = {}
    for v in range(n):
        assignment[v] = int(allowed[v][(best_k // weights[v]) % radices[v]])
    return Solution(int(best), assignment)


def as_csp(instance: PcspInstance) -> PcspInstance:
    """Hard-constraint version: every positive cost becomes INFINITY,
    so the minimum is 0 exactly when the original hard+positive
    constraints are simultaneously avoidable."""
    edges = {
        k: np.where(tab > 0, INFINITY, 0.0)
        for k, tab in instance.edge_tables.items()
    }
    vertex = np.where(instance.vertex_costs > 0, INFINITY, 0.0)
    allowed = {v: vals for v, vals in enumerate(instance.allowed)}
    return PcspInstance(instance.cfg, instance.d, edges, vertex, allowed)


# ---------------------------------------------------------------------------
# serialization


def _cost_from_json(x) -> float:
    if x == "inf":
        return INFINITY
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"costs are integers or \"inf\", got {x!r}")
    return float(x)


def _cost_to_json(x: float):
    return "inf" if math.isinf(x) else int(x)


def _model_table(model: dict, d: int, order: int) -> np.ndarray:
    kind = model.get("model")
    if kind == "constant":
        return np.full((d, d), _cost_from_json(model.get("cost", 0)))
    if kind == "disagree":
        c = _cost_from_json(model.get("cost", 1))
        return np.where(np.eye(d, dtype=bool), 0.0, c)
    if kind == "equal":
        c = _cost_from_json(model.get("cost", 1))
        return np.where(np.eye(d, dtype=bool), c, 0.0)
    if kind == "random":
        low = int(model.get("low", 0))
        high = int(model.get("high", 10))
        inf_prob = float(model.get("inf_prob", 0.0))
        seed = int(model.get("seed", 0))
        rng = np.random.default_rng((seed, order))
        tab = rng.integers(low, high + 1, size=(d, d)).astype(float)
        if inf_prob > 0:
            tab[rng.random((d, d)) < inf_prob] = INFINITY
        return tab
    raise ValueError(f"unknown edge cost model: {kind!r}")


def instance_from_json(cfg: Cfg, obj: dict) -> PcspInstance:
    """Build an instance from its JSON form (see README for models)."""
    d = int(obj["domain_size"])
    ec = obj.get("edge_costs")
    edge_costs: Mapping | None
    if ec is None:
        edge_costs = None
    elif isinstance(ec, dict):
        edge_costs = {
            (e.src, e.dst): _model_table(ec, d, order)
            for order, e in enumerate(cfg.edges)
        }
    else:
        edge_costs = {}
        for item in ec:
            key = (int(item["src"]), int(item["dst"]))
            edge_costs[key] = np.array(
                [[_cost_from_json(x) for x in row] for row in item["table"]]
            )
    vc = obj.get("vertex_costs")
    vertex_costs: np.ndarray | dict | None
    if vc is None:
        vertex_costs = None
    elif isinstance(vc, dict):
        if vc.get("model") != "constant":
            raise ValueError(f"unknown vertex cost model: {vc.get('model')!r}")
        vertex_costs = np.full(
            (cfg.vertex_count, d), _cost_from_json(vc.get("cost", 0))
        )
    elif vc and isinstance(vc[0], dict):
        vertex_costs = {
            int(item["v"]): [_cost_from_json(x) for x in item["costs"]] for item in vc
        }
    else:
        vertex_costs = np.array([[_cost_from_json(x) for x in row] for row in vc])
    allowed = None
    if "allowed" in obj and obj["allowed"] is not None:
        allowed = {int(v): list(vals) for v, vals in obj["allowed"].items()}
    return PcspInstance(cfg, d, edge_costs, vertex_costs, allowed)


def instance_to_json(instance: PcspInstance) -> dict:
    edges = [
        {
            "src": src,
            "dst": dst,
            "table": [[_cost_to_json(x) for x in row] for row in tab.tolist()],
        }
        for (src, dst), tab in instance.edge_tables.items()
    ]
    out: dict = {
        "domain_size": instance.d,
        "edge_costs": edges,
        "vertex_costs": [
            [_cost_to_json(x) for x in row] for row in instance.vertex_costs.tolist()
        ],
    }
    restricted = {
        str(v): list(vals)
        for v, vals in enumerate(instance.allowed)
        if len(vals) < instance.d
    }
    if restricted:
        out["allowed"] = restricted
    return out
