"""Partial constraint satisfaction over control-flow graphs.

An instance attaches a cost table to every edge (d x d), a cost vector
to every vertex (length d) and an allowed subset of the domain to every
vertex.  Costs are non-negative integers extended with ``INFINITY``
(hard constraints); addition saturates.

`solve` minimizes the total cost over all assignments in one bottom-up
pass over a decomposition: tables are indexed by the values of a
subgraph's four special vertices, but only on the specials its edges
touch.  A node whose subgraph holds no break or continue costs
O(d**3) and any node at most O(d**5), so the whole run is linear in |G|
and the answer is exact.  `oracle_solve` does the same by exhaustive
enumeration, in numpy chunks of `_CHUNK` assignments, and exists to
cross-check the solver on small instances.

An instance holds tables only.  The problem builders emit them
directly; a callable cost is an adapter that `PcspInstance` tabulates
first and then checks like any table.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .spl import Cfg, Decomposition, Edge

INFINITY = math.inf

DEFAULT_ORACLE_BUDGET = 1 << 24

# assignments `oracle_solve` scores per numpy pass
_CHUNK = 1 << 16

# elements of a series or loop node's widened sum formed at once: a
# node whose d**5 sum is larger forms it a few rows at a time, so its
# memory stays near d**4 whatever the program's shape
_BLOCK = 1 << 12

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

    ``edge_costs`` may be a mapping from (src, dst) to a d x d table,
    None for all-zero, or a callable ``f(edge, a, b)`` that is
    tabulated first.  ``vertex_costs`` may be an (n, d) array, a
    mapping from vertex to a length-d vector, None, or a callable
    ``f(v, a)`` that is tabulated first.  ``allowed`` maps vertices to
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
        # callables are an adapter: tabulate them, then check the
        # tables like any others
        if callable(edge_costs):
            f = edge_costs
            edge_costs = {
                (e.src, e.dst): np.array(
                    [[f(e, a, b) for b in range(d)] for a in range(d)], dtype=float
                )
                for e in cfg.edges
            }
        if callable(vertex_costs):
            f = vertex_costs
            vertex_costs = np.array(
                [[f(v, a) for a in range(d)] for v in range(n)], dtype=float
            ).reshape(n, d)

        zero = np.zeros((d, d))
        zero.setflags(write=False)
        tables: dict[tuple[int, int], np.ndarray] = {}
        # the largest finite cost of every edge and vertex, added up
        worst = 0
        if edge_costs is None:
            tables = {k: zero for k in keys}
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
#
# An axis whose special no edge of the node's subgraph touches has
# length 1, since the table cannot depend on it; numpy broadcasting
# widens it where a sibling touches the vertex.  S is always touched;
# an atom touches S and its one target, a loop S and T (its B and C are
# fresh), and series and parallel nodes get the broadcast union of
# their children's shapes.  So a node whose subgraph holds no break or
# continue edge costs d**3, and d**5 is the worst case (a series node,
# or a loop's child, whose T, B and C are all touched).
#
# Allowed sets are {0, INFINITY} masks, so adding one twice is
# harmless.  Every full axis carries its vertex's mask, added where an
# atom or a loop creates the axis; series and parallel merges keep
# specials aligned, and a series merge point is its right child's S.
# A length-1 axis's mask is deferred to where its vertex is minimized
# away: a loop folds the vertex cost and the mask of each child special
# into the edge table that special meets, and the root's final minimum
# adds both on all four axes (choosing a length-1 axis's value on its
# own, since it meets nothing else).
#
# A loop's minimization over its child's specials separates, because
# the exit value meets only the child's B (through the break edge): S,
# then (T, C), then B.  The backtrack's argmin choices are stored in the
# smallest unsigned dtype that holds their index range, and read with
# index 0 on length-1 axes.


def _check_same_cfg(a: Cfg, b: Cfg) -> None:
    if a is b:
        return
    if a.vertex_count != b.vertex_count or set(a.edge_map) != set(b.edge_map):
        raise InstanceMismatchError("instance and decomposition use different graphs")


def _at(arr: np.ndarray, *index: int) -> int:
    """``arr[index]``, reading index 0 on the length-1 axes: each index
    is taken modulo its axis length."""
    return arr.item(tuple(map(operator.mod, index, arr.shape)))


def _min_argmin(rows: np.ndarray, other: np.ndarray, axis: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``z.argmin(axis)`` as ``dtype`` and ``z.min(axis)`` of the
    broadcast sum ``z = rows + other``, where ``other``'s first axis has
    length 1 and both have the same number of axes.  z is formed a block
    of ``rows``' first-axis rows at a time: about ``_BLOCK`` elements,
    or one row if that is more."""
    step = max(1, _BLOCK // math.prod(map(max, rows.shape[1:], other.shape[1:])))
    args, mins = [], []
    for lo in range(0, len(rows), step):
        z = rows[lo : lo + step] + other
        args.append(z.argmin(axis=axis).astype(dtype))
        mins.append(z.min(axis=axis))
    if len(args) == 1:
        return args[0], mins[0]
    return np.concatenate(args), np.concatenate(mins)


def _forward(instance: PcspInstance, decomp: Decomposition, keep: bool):
    d = instance.d
    am = instance.allowed_mask
    vt = instance.vertex_costs
    vm = vt + am
    et = instance.edge_tables
    nodes = decomp.nodes
    tables: list[np.ndarray | None] = [None] * len(nodes)
    choices: list = [None] * len(nodes)
    one = np.min_scalar_type(d - 1)
    pair = np.min_scalar_type(d * d - 1)

    def atom(src: int, dst: int) -> np.ndarray:
        return et[(src, dst)] + am[src][:, None] + am[dst][None, :]

    # a loop builds its intermediates in this function, so they are
    # freed on return instead of staying bound while later nodes run
    def loop(S: int, T: int, w: np.ndarray, child_specials):
        cs, ct, cb, cc = child_specials
        # each child special's vertex cost and mask ride on the edge
        # table it meets, whatever the length of its axis in w
        enter = et[(S, cs)] + vm[cs][None, :]
        back_t = et[(ct, S)] + vm[ct][:, None]
        back_c = et[(cc, S)] + vm[cc][:, None]
        exit_b = et[(cb, T)] + vm[cb][:, None]
        # axes: the loop's S value, then the child's B, T, C and S
        # values; each step reduces the last axis
        arg_s, x = _min_argmin(enter[:, None, None, None, :], w.transpose(2, 1, 3, 0)[None], 4, one)
        x = x + back_t.T[:, None, :, None] + back_c.T[:, None, None, :]
        x = x.reshape(d, x.shape[1], d * d)
        arg_tc = x.argmin(axis=2).astype(pair)
        # (S value, child B value, loop T value)
        x = x.min(axis=2)[:, :, None] + exit_b[None]
        arg_b = x.argmin(axis=1).astype(one)
        core = x.min(axis=1) + atom(S, T)
        return (arg_s, arg_tc, arg_b), core[:, :, None, None]

    for i, node in enumerate(nodes):
        S, T, B, C = node.specials
        if node.kind == "epsilon":
            dp = atom(S, T)[:, :, None, None]
        elif node.kind == "break":
            dp = atom(S, B)[:, None, :, None]
        elif node.kind == "continue":
            dp = atom(S, C)[:, None, None, :]
        elif node.kind == "series":
            left, right = node.children
            # axes: S, the merge point, then T, B and C; the merge
            # point's cost joins the smaller right operand
            choices[i], dp = _min_argmin(
                tables[left][:, :, None],
                (tables[right] + vt[node.merged][:, None, None, None])[None],
                1,
                one,
            )
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
            choices[i], dp = loop(S, T, tables[child], nodes[child].specials)
        else:
            raise ValueError(f"unknown node kind: {node.kind!r}")
        tables[i] = dp
        if not keep:
            for c in node.children:
                tables[c] = None
    return tables, choices


def dp_tables(instance: PcspInstance, decomp: Decomposition) -> list[np.ndarray]:
    """All per-node tables, in decomposition (post-)order, each full
    (d, d, d, d) with every special's allowed set applied; for tests
    and inspection, so nothing is freed."""
    _check_same_cfg(instance.cfg, decomp.cfg)
    tables, _ = _forward(instance, decomp, keep=True)
    am = instance.allowed_mask
    full = []
    for tab, node in zip(tables, decomp.nodes):
        s, t, b, c = (am[v] for v in node.specials)
        full.append(
            tab
            + s[:, None, None, None]
            + t[None, :, None, None]
            + b[None, None, :, None]
            + c[None, None, None, :]
        )
    return full


def solve(instance: PcspInstance, decomp: Decomposition) -> Solution:
    """Exact minimum over all assignments, linear in the program size."""
    _check_same_cfg(instance.cfg, decomp.cfg)
    d = instance.d
    tables, choices = _forward(instance, decomp, keep=False)
    nodes = decomp.nodes
    root = decomp.root
    vt = instance.vertex_costs
    am = instance.allowed_mask
    # a root special on a length-1 axis meets only its own cost: pick
    # its value alone rather than widening the table
    total = tables[root]
    quad = [0, 0, 0, 0]
    for axis, v in enumerate(nodes[root].specials):
        row = vt[v] + am[v]
        if total.shape[axis] == 1:
            quad[axis] = int(row.argmin())
            row = row[quad[axis]]
        total = total + row.reshape([-1 if k == axis else 1 for k in range(4)])
    flat = int(np.argmin(total))
    best = float(total.reshape(-1)[flat])
    if math.isinf(best):
        return Solution(INFINITY, None)
    for axis, q in enumerate(np.unravel_index(flat, total.shape)):
        if total.shape[axis] > 1:
            quad[axis] = int(q)
    quad = tuple(quad)

    assignment: dict[int, int] = {}
    for vertex, value in zip(nodes[root].specials, quad):
        assignment[vertex] = value
    stack: list[tuple[int, tuple[int, int, int, int]]] = [(root, quad)]
    while stack:
        i, (s, t, b, c) = stack.pop()
        node = nodes[i]
        if node.kind == "series":
            m = _at(choices[i], s, t, b, c)
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
            ct, cc = divmod(_at(arg_tc, s, cb), d)
            sub = (_at(arg_s, s, cb, ct, cc), ct, cb, cc)
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
