"""Partial constraint satisfaction over control-flow graphs.

An instance attaches a cost table to every edge (d x d), a cost vector
to every vertex (length d) and an allowed subset of the domain to every
vertex.  Costs are non-negative integers extended with ``INFINITY``
(hard constraints); addition saturates.

`solve` minimizes the total cost over all assignments in one bottom-up
pass over a decomposition: tables are indexed by the values of a
subgraph's four special vertices, but only on the specials its edges
touch, and each edge is charged once, by the first node that holds it.
An axis has length k, the size of the largest allowed set, and holds
only its vertex's allowed values when k < d.  A node whose subgraph
holds no break or continue costs O(k**3) and any node at most O(k**5);
a loop, minimizing out its body's specials one at a time, forms nothing
larger than k times its body's table, or k**3.  The whole run is linear
in |G| and the answer is exact.  The pass runs ready nodes of one kind
and shape together, one stacked numpy call per step, so at small d its
cost per node is a share of a call rather than a call.  A chain of m
statements joined by ``;`` is regrouped as a balanced tree, so it takes
about log2 m steps rather than m, and the
minimizing assignment is read back by walking the recorded batches in
reverse.  The assignment is an optimal one; which of several optimal
assignments `solve` returns is not specified.
`oracle_solve` does the same by exhaustive enumeration and exists to
cross-check the solver on small instances: it adds the cost tables
into a broadcast tensor with one axis per unpinned vertex, a block of
at most `_CHUNK` assignments at a time.

An instance holds tables only, in one store: a read-only (r, d, d)
stack of the distinct edge tables and a map from edge key to row, so
edges given one table object share a row.  Edge and vertex costs
each pass one conversion that checks the whole array at once.  The
problem builders emit shared tables directly, `instance_from_json`
hands its checked lists over as a mapping from edge key to table, and
a callable cost is tabulated first, then checked like any table.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Mapping

import numpy as np

from .spl import Cfg, Decomposition, Edge

INFINITY = math.inf

DEFAULT_ORACLE_BUDGET = 1 << 24

# assignments in one block of `oracle_solve`'s cost tensor
_CHUNK = 1 << 16

# elements of a batch's largest intermediate: the forward pass runs
# ready nodes of one class together up to this many, and a single node
# whose k**5 sum is larger forms it a few rows at a time, so its memory
# stays near k**4 whatever the program's shape
_BLOCK = 1 << 12

# float64 holds every integer up to 2**53 exactly, and every sum the DP
# or the oracle forms is part of one assignment's total.  The limit on
# the worst finite total stays one bit short, at the 2**52 that the
# JSON random model and `CostOverflowError` already promise.
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


def _masked(costs: np.ndarray, allowed: tuple) -> np.ndarray:
    """``costs``, an (n, d) array, with INFINITY written in place at
    every value outside its vertex's allowed set.  The restricted rows
    are set in one fancy-index assignment, not a numpy call per
    vertex."""
    d = costs.shape[1]
    restricted = [v for v, vals in enumerate(allowed) if len(vals) < d]
    sets = list(map(allowed.__getitem__, restricted))
    index = (
        np.repeat(np.array(restricted, dtype=np.intp), list(map(len, sets))),
        np.fromiter(itertools.chain.from_iterable(sets), np.intp),
    )
    kept = costs[index]
    costs[restricted] = INFINITY
    costs[index] = kept
    return costs


def _floats(costs) -> np.ndarray:
    """``costs`` as a new float64 array; an integer past float range
    is refused like any total past 2**52."""
    try:
        return np.array(costs, dtype=float)
    except OverflowError:
        raise CostOverflowError("a cost is too large for a float64") from None


def _validate_table(arr: np.ndarray, what: str) -> None:
    """Raise the ValueError that says why ``arr`` does not hold costs."""
    if not (arr >= 0).all():
        if np.isnan(arr).any():
            raise ValueError(f"{what}: NaN is not a cost")
        raise ValueError(f"{what}: costs must be non-negative")
    finite = np.where(np.isinf(arr), 0.0, arr)
    if not (np.floor(finite) == finite).all():
        raise ValueError(f"{what}: finite costs must be integers")


def _check_shapes(items, shape: tuple, message: Callable[[int], str]) -> None:
    """Raise ``ValueError(message(i))`` for the first ``items[i]`` whose
    shape is not ``shape``; return if there is none."""
    for i, item in enumerate(items):
        try:
            ok = np.shape(item) == shape
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(message(i))


def _cost_array(items, shape: tuple, bad_item: Callable[[int], str], bad_whole: str) -> np.ndarray:
    """``items``, a list of tables or an array of them, as a new float64
    array of ``shape``; an empty list is taken when ``shape`` has no
    rows.  Otherwise a ValueError names the first item whose shape is
    not ``shape[1:]``, by ``bad_item(i)``, or the whole, by
    ``bad_whole``."""
    try:
        arr = _floats(items)
    except ValueError:
        _check_shapes(items, shape[1:], bad_item)
        raise
    if arr.shape == (0,) and not shape[0]:
        return np.zeros(shape)
    if arr.shape != shape:
        if arr.ndim:
            _check_shapes(items, shape[1:], bad_item)
        raise ValueError(bad_whole)
    return arr


def _highs(arr: np.ndarray, what: Callable[[int], str]) -> list[int]:
    """The largest finite cost of each ``arr[i]``, as exact ints, after
    checking the array about ``_BLOCK`` elements at a time, so the
    check's temporaries stay small; an error names the first bad
    ``what(i)``."""
    step = max(1, _BLOCK // math.prod(arr.shape[1:]))
    for lo in range(0, len(arr), step):
        block = arr[lo : lo + step]
        if not ((block >= 0).all() and (np.floor(block) == block).all()):
            for i, item in enumerate(block, lo):
                _validate_table(item, what(i))
    axes = tuple(range(1, arr.ndim))
    return list(map(int, arr.max(axis=axes, where=np.isfinite(arr), initial=0.0).tolist()))


class PcspInstance:
    """Costs and allowed sets for one graph.

    ``edge_costs`` may be a mapping from (src, dst) to a d x d table
    (edges left out cost nothing), an (E, d, d) array in ``cfg.edges``
    order, None for all-zero, or a callable ``f(edge, a, b)`` that is
    tabulated first.  ``vertex_costs`` may be an (n, d) array, a
    mapping from vertex to a length-d vector, None, or a callable
    ``f(v, a)`` that is tabulated first.  ``allowed`` maps vertices to
    non-empty subsets of the domain; unlisted vertices allow everything.
    ``allowed`` holds a sorted tuple per vertex, one per distinct set.

    The edge costs are stored once: ``edge_stack`` is a read-only
    (r, d, d) array of distinct tables, and ``edge_rows`` maps every
    edge key, in ``cfg.edges`` order, to its row.  Edges given one
    table object share a row, so builders that reuse a few tables keep
    r small; the array form gives every edge its own row.
    ``edge_tables`` maps each key to a read-only view of its row.
    """

    def __init__(
        self,
        cfg: Cfg,
        domain_size: int,
        edge_costs: Callable | Mapping | np.ndarray | None = None,
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
            edge_costs = [[[f(e, a, b) for b in range(d)] for a in range(d)] for e in cfg.edges]
        if callable(vertex_costs):
            f = vertex_costs
            vertex_costs = [[f(v, a) for a in range(d)] for v in range(n)]

        if edge_costs is None:
            edge_costs = {}
        if isinstance(edge_costs, Mapping):
            extra = set(edge_costs) - set(keys)
            if extra:
                raise InstanceMismatchError(
                    f"edge costs given for non-edges: {sorted(extra)[:4]}"
                )
            # one row per distinct table object, edges left out sharing
            # `zero`; `given` holds the objects, so no id is reused
            # meanwhile
            zero = np.zeros((d, d))
            given: list = []
            row_of: dict[int, int] = {}
            rows = []
            for k in keys:
                tab = edge_costs.get(k, zero)
                r = row_of.setdefault(id(tab), len(given))
                if r == len(given):
                    given.append(tab)
                rows.append(r)
            count = len(given)
        else:
            given = edge_costs
            rows = range(len(keys))
            count = len(keys)

        def key(r: int) -> tuple[int, int]:
            return keys[rows.index(r)]

        whole = f"edge costs must be {len(keys)}x{d}x{d}"  # also for tables past the last edge
        stack = _cost_array(
            given,
            (count, d, d),
            lambda r: f"edge table {key(r)} must be {d}x{d}" if r < count else whole,
            whole,
        )
        # the largest finite cost of every edge and vertex, added up
        uses = np.bincount(np.asarray(rows, dtype=np.intp), minlength=len(stack))
        worst = sum(map(operator.mul, _highs(stack, lambda r: f"edge {key(r)}"), uses.tolist()))
        stack.setflags(write=False)
        self.edge_stack = stack
        self.edge_rows = dict(zip(keys, rows))

        if vertex_costs is None:
            vertex_costs = np.zeros((n, d))
        elif isinstance(vertex_costs, Mapping):
            unknown = [v for v in vertex_costs if not 0 <= v < n]
            if unknown:
                raise InstanceMismatchError(f"vertex cost for unknown vertex {unknown[0]}")
            zero_row = [0] * d
            vertex_costs = [vertex_costs.get(v, zero_row) for v in range(n)]
        vt = _cost_array(
            vertex_costs,
            (n, d),
            lambda v: f"vertex {v} costs must be length {d}",
            f"vertex costs must be {n}x{d}",
        )
        worst += sum(_highs(vt, lambda v: f"vertex {v} costs"))
        if worst > _COST_LIMIT:
            raise CostOverflowError(
                f"finite costs can add up to {worst}, more than 2**52: "
                "float64 sums would no longer be exact"
            )
        vt.setflags(write=False)
        self.vertex_costs = vt

        if allowed is None:
            allowed = {}
        unknown = set(allowed) - set(range(n))
        if unknown:
            raise InstanceMismatchError(
                f"allowed sets for unknown vertices: {sorted(unknown)[:4]}"
            )
        # only restricted vertices are visited; `operator.index` takes
        # ints, numpy's too, and refuses 0.7 rather than truncate it
        full = tuple(range(d))
        sets, shared = [full] * n, {full: full}
        for v in sorted(map(int, allowed)):
            vals = tuple(sorted(set(map(operator.index, allowed[v]))))
            if not vals:
                raise ValueError(f"allowed set for vertex {v} is empty")
            if vals[0] < 0 or vals[-1] >= d:
                raise ValueError(f"allowed set for vertex {v} leaves the domain")
            sets[v] = shared.setdefault(vals, vals)
        self.allowed = tuple(sets)

    @functools.cached_property
    def edge_tables(self) -> dict[tuple[int, int], np.ndarray]:
        """Edge key -> its (d, d) table, a read-only view of its row of
        ``edge_stack``; keys that share a row share one view."""
        views = list(self.edge_stack)
        return {k: views[r] for k, r in self.edge_rows.items()}


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
        # ints, numpy's too; 0.9 is refused rather than truncated
        a = operator.index(assignment[v])
        if not 0 <= a < instance.d:
            raise ValueError(f"value {a} for vertex {v} leaves the domain")
        vals.append(a)
    total = 0.0
    for v in range(n):
        if vals[v] not in instance.allowed[v]:
            return INFINITY
        total += instance.vertex_costs[v, vals[v]]
    stack = instance.edge_stack
    for (src, dst), r in instance.edge_rows.items():
        total += stack[r, vals[src], vals[dst]]
    return INFINITY if math.isinf(total) else int(total)


# ---------------------------------------------------------------------------
# dynamic programming over a decomposition
#
# dp[i] is indexed by the values of node i's specials (S, T, B, C) and
# holds the minimum cost of the node's edges plus the vertex costs of
# its internal (non-special) vertices.  Every axis has length k, the
# size of the largest allowed set: when k < d, `_narrowed` lays each
# vertex's allowed values along its axis, increasing and padded with
# the last, and the backtrack maps position j back to the j-th value.
# A vertex's cost and its allowed set, a {0, INFINITY} mask that also
# covers the padding, are charged together where the vertex stops
# being special: at the series merge point, at a loop's child specials
# (folded into the edge table each one meets, whatever the length of
# its axis), and for the root's own specials in the final minimum
# (choosing a length-1 axis's value on its own, since it meets nothing
# else).  So a table's entries at a disallowed special value may be
# finite; the backtrack never reads them.
#
# An axis whose special no edge of the node's subgraph touches has
# length 1, since the table cannot depend on it; numpy broadcasting
# widens it where a sibling touches the vertex.  S is always touched;
# a leaf touches S and its one target, a loop S and T (its B and C are
# fresh), and series and parallel nodes get the broadcast union of
# their children's shapes.  So a node whose subgraph holds no break or
# continue edge costs k**3, and k**5 is the worst case (a series node,
# or a loop's child, whose T, B and C are all touched).
#
# A parallel node merges its operands' specials, so an S->T, S->B or
# S->C edge in both is one CFG edge.  The first of its holders in node
# order, leaves or loops (by their own S->T), charges it and the
# others' tables are zeroed; between the parallel node and a holder the
# edge joins two specials, so no minimum sees it.
#
# A loop's child specials each meet one edge outside the child (S the
# entry, T and C the back edges, B the exit), so each is minimized out
# on its own, S, T, C, then B, and no step forms more than k times the
# child's table, or k**3.  T before C keeps the choices small: T's are
# indexed by (S, B, C) and C's by (S, B), where C first would index
# C's by (S, T, B), and a body touches T far more often than C.
#
# The pass runs in batches.  A node is ready once its inner children
# are done; a leaf is never run on its own, since its table is its one
# edge's row of the edge stack, which its parent gathers in its own
# batch.  A ready node's class is its kind and its children's table
# shapes, which the decomposition fixes for a given k; the nodes of one
# class stack into one array per operand, so each numpy call serves
# the whole batch, with the batch on axis 0 and the reduced value on
# axis 1.  Each step takes the class of the lowest ready node
# and runs that class's ready nodes, lowest first, up to `_BLOCK`
# elements of its largest intermediate; a single node past that forms
# its sums a few rows at a time.  Following the lowest ready node keeps
# the pass near post-order, so few finished tables wait for their
# parents, where height levels would hold every leaf's table at once.
#
# A chain of series nodes would run one link per step, each waiting for
# the one before.  Series composition is a min-plus product over the
# merge point, so it is associative: `_execution_tree` regroups every
# long chain as a balanced tree over the same operands, whose root
# table is the same, and the chain takes about log2 k steps.  Its
# nodes take the chain's indices in post-order, so each runs soon
# after its operands are done and a chain holds about log2 k pending
# tables, not k.  Ties between equal sums may break differently than
# in a left-deep chain.
#
# A batch's results stay stacked: tables[i] is a view into its batch's
# array.  Each series or loop batch records its argmin array (four at a
# loop, one per child special) and its nodes, in the order the batches
# ran.  The backtrack walks the records in reverse, so the specials of
# every node are chosen before its record is read: a series node's
# choice is its merge point, a loop's are its child's specials.
# Choices use the smallest unsigned dtype that holds their index range
# and are read with index 0 on length-1 axes.


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays stacked on a new first axis; a lone array is viewed,
    not copied, since it may be a widest node's table."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _sum_min(a: np.ndarray, b: np.ndarray, axis: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``z.argmin(1)`` as ``dtype`` and ``z.min(1)`` of the broadcast
    sum ``z = a + b`` over a batch (axis 0), where ``b`` has length 1
    on ``axis``.  z is formed a block of ``a``'s rows on ``axis`` at a
    time: about ``_BLOCK`` elements, or one row if that is more."""
    rows = a.shape[axis]
    # z has at most a.size * b.size elements, so small sums skip the
    # exact count
    if a.size * b.size > _BLOCK:
        step = max(1, _BLOCK * rows // math.prod(map(max, a.shape, b.shape)))
        if step < rows:
            args, mins = [], []
            for lo in range(0, rows, step):
                z = a[(slice(None),) * axis + (slice(lo, lo + step),)] + b
                args.append(z.argmin(axis=1).astype(dtype))
                mins.append(np.minimum.reduce(z, axis=1))
            return np.concatenate(args, axis=axis - 1), np.concatenate(mins, axis=axis - 1)
    z = a + b
    return z.argmin(axis=1).astype(dtype), np.minimum.reduce(z, axis=1)


# the table axis of the target of a leaf's one edge, or a loop's S->T
_HELD_AXIS = {"epsilon": 1, "break": 2, "continue": 3, "loop": 1}


def _widest(key: tuple, k: int) -> int:
    """Elements of the largest intermediate that one node of class
    ``key`` forms, on axes of length ``k``."""
    kind = key[0]
    if kind == "loop":
        _, t, b, c = key[1]
        return k * k * max(t * b * c, k)
    if kind not in ("series", "parallel"):
        return k * k
    (_, lt, lb, lc), (_, rt, rb, rc) = key[1:3]
    if kind == "series":
        return k * k * rt * max(lb, rb) * max(lc, rc)
    return k * max(lt, rt) * max(lb, rb) * max(lc, rc)


def _execution_tree(nodes) -> tuple[list, list]:
    """Each node's children and specials in the tree that the forward
    pass runs; a series node's merge point is its left child's T.

    It is the decomposition, except that every chain of three or more
    operands, a series node and the series nodes down its left
    spine, as the parser builds ``a; b; c; ...``, is regrouped as a
    balanced tree over the same operands, left to right.  The new
    tree's nodes take the places of the chain's series nodes in
    post-order, so its root takes the top's, with its index and its
    specials."""
    kids = [node.children for node in nodes]
    spec = [node.specials for node in nodes]
    # series nodes not yet in a chain; a top is the highest one left,
    # since a series parent would have taken it along as its left child
    series = bytearray(map("series".__eq__, map(operator.attrgetter("kind"), nodes)))
    top = series.rfind(1)
    while top >= 0:
        # the chain's series nodes, and its operands right to left; a
        # right operand that is a series node heads a chain of its own
        places, ops, i = [], [], top
        while series[i]:
            series[i] = 0
            places.append(i)
            i, right = kids[i]
            ops.append(right)
        ops.append(i)
        if len(ops) > 2:
            # down the spine, the places come highest first
            place = iter(reversed(places)).__next__
            _, _, b, c = spec[top]

            def join(left: int, right: int) -> int:
                i = place()
                kids[i] = (left, right)
                spec[i] = (spec[left][0], spec[right][1], b, c)
                return i

            # as in a binary counter, the j-th operand from the left
            # joins the groups of 1, 2, 4, ... operands before it, one
            # per trailing zero bit of j, and the groups left at the end
            # join from the right; the tree is at most log2 k + 1 high
            groups: list[int] = []
            for j, g in enumerate(reversed(ops), 1):
                for _ in range((j & -j).bit_length() - 1):
                    g = join(groups.pop(), g)
                groups.append(g)
            g = groups.pop()
            while groups:
                g = join(groups.pop(), g)
        top = series.rfind(1, 0, top)
    return kids, spec


def _narrowed(instance: PcspInstance) -> tuple[np.ndarray, np.ndarray, Mapping, int]:
    """Each vertex's cost and mask as one (n, k) array, and the edge
    stack and row map on the same axes (see the DP notes above)."""
    allowed, k = instance.allowed, max(map(len, instance.allowed), default=instance.d)
    if k == instance.d:
        return _masked(np.array(instance.vertex_costs), allowed), instance.edge_stack, instance.edge_rows, k
    # a padded axis per distinct set, a stack row per distinct (row, source set, target set)
    ids: dict[tuple, int] = {}
    sid = [ids.setdefault(vals, len(ids)) for vals in allowed]
    at = np.array([vals + vals[-1:] * (k - len(vals)) for vals in ids])
    vm = np.take_along_axis(instance.vertex_costs, at[sid], 1)
    vm[(np.arange(k) >= np.array(list(map(len, ids)))[:, None])[sid]] = INFINITY
    narrow: dict[tuple, int] = {}
    rows = [narrow.setdefault((r, sid[u], sid[w]), len(narrow)) for (u, w), r in instance.edge_rows.items()]
    r, su, sw = np.array(list(narrow), dtype=np.intp).reshape(-1, 3).T
    stack = instance.edge_stack[r[:, None, None], at[su][:, :, None], at[sw][:, None, :]]
    return vm, stack, dict(zip(instance.edge_rows, rows)), k


def _forward(instance: PcspInstance, decomp: Decomposition) -> tuple[np.ndarray, np.ndarray, list, tuple]:
    """The root's table, each vertex's cost and mask as one (n, k)
    array, the choices and nodes of every series or loop batch in the
    order the batches ran, and the execution tree they index."""
    # a vertex's cost and mask, charged together
    vm, stack, rows, k = _narrowed(instance)
    nodes = decomp.nodes
    kids, spec = _execution_tree(nodes)
    tables: list[np.ndarray | None] = [None] * len(nodes)
    steps: list[tuple] = []
    one = np.min_scalar_type(k - 1)

    # a leaf's table holds its one edge, on its target's axis
    leaf_shapes = {"epsilon": (k, k, 1, 1), "break": (k, 1, k, 1), "continue": (k, 1, 1, k)}

    def class_of(i: int) -> tuple:
        """The batch class of a node whose inner children are done: its
        kind and its children's table shapes."""
        key = [nodes[i].kind]
        for c in kids[i]:
            key.append(tables[c].shape if kids[c] else leaf_shapes[nodes[c].kind])
        return tuple(key)

    def held(idx):
        """The stacked (k, k) tables of the edges that leaves or loops
        ``idx`` hold, zero where an earlier holder charges the edge."""
        tab = stack.take([held_rows[i] for i in idx], axis=0)
        if not zeroed.isdisjoint(idx):
            tab[[j for j, i in enumerate(idx) if i in zeroed]] = 0.0
        return tab

    def child(batch, side, shape):
        """The stacked tables of the batch's children on ``side``, 0 or
        1; leaves are formed here, when they are needed."""
        idx = [kids[i][side] for i in batch]
        leaf = [i for i in idx if not kids[i]]
        if not leaf:
            return _stack([tables[i] for i in idx])
        tab = held(leaf).reshape(len(leaf), *shape)
        if len(leaf) == len(idx):
            return tab
        for i, t in zip(leaf, tab):
            tables[i] = t
        return _stack([tables[i] for i in idx])

    # each kind forms its batch's intermediates in a function, so they
    # are freed on return instead of staying bound while later batches
    # run; each returns the batch's stacked tables
    def leaf(key, batch):
        return held(batch).reshape(len(batch), *leaf_shapes[key[0]])

    def series(key, batch):
        # axes: the merge point, S, then T, B and C.  The merge point's
        # cost and mask are added into the right operand in place,
        # whose S axis is always full: no other node reads its tables.
        m = [spec[kids[i][0]][1] for i in batch]
        left = child(batch, 0, key[1]).transpose(0, 2, 1, 3, 4)
        right = child(batch, 1, key[2])
        right += vm.take(m, axis=0)[:, :, None, None, None]
        picks, dp = _sum_min(left[:, :, :, None], right[:, :, None], 2, one)
        steps.append((picks, batch))
        return dp

    def parallel(key, batch):
        return child(batch, 0, key[1]) + child(batch, 1, key[2])

    def loop(key, batch):
        n = len(batch)
        S, T = map(list, zip(*(spec[i][:2] for i in batch)))
        cs, ct, cb, cc = map(list, zip(*(spec[kids[i][0]] for i in batch)))
        # the edges, each (n, k, k): enter S->cs, back ct->S and cc->S
        # and exit cb->T; the loop's own S->T is held.  Each child
        # special's vertex cost and mask ride on the edge table it
        # meets, whatever the length of its axis in the child's table.
        keys = [*zip(S, cs), *zip(ct, S), *zip(cc, S), *zip(cb, T)]
        g = stack.take(list(map(rows.__getitem__, keys)), axis=0).reshape(4, n, k, k)
        enter, back_t, back_c, exit_b = g
        v = vm.take(cs + ct + cc + cb, axis=0).reshape(4, n, k)
        enter += v[0, :, None, :]
        g[1:4] += v[1:, :, :, None]
        # axes: the batch, the reduced value, then the rest; the child's
        # S goes (leaving the loop's S and the child's T, B, C), then
        # T, C and B, leaving (S, B, C), (S, B) and the loop's (S, T)
        x = child(batch, 0, key[1])[:, :, None]
        arg_s, x = _sum_min(enter.transpose(0, 2, 1)[:, :, :, None, None, None], x, 2, one)
        arg_t, x = _sum_min(x.transpose(0, 2, 1, 3, 4), back_t[:, :, :, None, None], 3, one)
        arg_c, x = _sum_min(x.transpose(0, 3, 1, 2), back_c[:, :, :, None], 3, one)
        arg_b, x = _sum_min(x.transpose(0, 2, 1)[:, :, :, None], exit_b[:, :, None, :], 2, one)
        steps.append(((arg_s, arg_t, arg_c, arg_b), batch))
        return (x + held(batch))[:, :, :, None, None]

    run = {"series": series, "parallel": parallel, "loop": loop}
    # class -> min-heap of its ready nodes, and the inner children each
    # node still waits for.  Leaves are not run on their own: their
    # parents form them (a lone root leaf is its own batch).
    ready: dict[tuple, list[int]] = {}
    waiting = bytearray(len(nodes))
    parent = [-1] * len(nodes)
    # the row of each leaf's or loop's held edge; the first holder of an
    # edge in node order charges it, and later ones are zeroed
    held_rows = [0] * len(nodes)
    charged: set[tuple] = set()
    zeroed: set[int] = set()
    for i, children in enumerate(kids):
        kind = nodes[i].kind
        if kind not in (run if children else leaf_shapes):
            raise ValueError(f"unknown node kind: {kind!r}")
        if kind in _HELD_AXIS:
            edge = spec[i][0], spec[i][_HELD_AXIS[kind]]
            held_rows[i] = rows[edge]
            if edge in charged:
                zeroed.add(i)
            charged.add(edge)
        if not children:
            continue
        for c in children:
            if kids[c]:
                parent[c] = i
                waiting[i] += 1
        if not waiting[i]:
            heappush(ready.setdefault(class_of(i), []), i)
    # a tuple per held edge: freed before any table is formed
    del charged
    root = decomp.root
    if not kids[root]:
        ready[class_of(root)] = [root]
    caps: dict[tuple, int] = {}
    # heaps compare by their lowest node
    lowest = operator.itemgetter(1)
    while ready:
        key, heap = min(ready.items(), key=lowest)
        if key not in caps:
            caps[key] = max(1, _BLOCK // _widest(key, k))
        if len(heap) <= caps[key]:
            batch = heap
            del ready[key]
        else:
            # the lowest first; what is left stays sorted, so a heap
            heap.sort()
            batch = heap[: caps[key]]
            del heap[: caps[key]]
        for i, tab in zip(batch, run.get(key[0], leaf)(key, batch)):
            tables[i] = tab
            for c in kids[i]:
                tables[c] = None
            p = parent[i]
            if p >= 0:
                waiting[p] -= 1
                if not waiting[p]:
                    heappush(ready.setdefault(class_of(p), []), p)
    return tables[root], vm, steps, (kids, spec)


def solve(instance: PcspInstance, decomp: Decomposition) -> Solution:
    """Exact minimum over all assignments, linear in the program size,
    with an assignment that attains it when it is finite.  Which of
    several optimal assignments it returns is not specified."""
    a, b = instance.cfg, decomp.cfg
    if a is not b and (a.vertex_count != b.vertex_count or a.edge_map.keys() != b.edge_map.keys()):
        raise InstanceMismatchError("instance and decomposition use different graphs")
    total, vm, steps, (kids, spec) = _forward(instance, decomp)
    specials = decomp.nodes[decomp.root].specials
    # a root special on a length-1 axis meets only its own cost: pick
    # its value alone rather than widening the table
    quad = [0, 0, 0, 0]
    for axis, v in enumerate(specials):
        row = vm[v]
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

    # the batches in reverse, so the specials of every node are chosen
    # before its own record is read: a series batch chooses its merge
    # points, a loop batch its children's specials.  A length-1 axis of
    # a batch's choices is read at 0.
    value = [-1] * instance.cfg.vertex_count
    for v, q in zip(specials, quad):
        value[v] = q
    for picks, batch in reversed(steps):
        if isinstance(picks, tuple):
            arg_s, arg_t, arg_c, arg_b = picks
            _, _, wide_t, wide_b, wide_c = (n > 1 for n in arg_s.shape)
            for j, i in enumerate(batch):
                s, t = value[spec[i][0]], value[spec[i][1]]
                cb = arg_b.item(j, s, t)
                cc = arg_c.item(j, s, cb * wide_b)
                ct = arg_t.item(j, s, cb * wide_b, cc * wide_c)
                cs = arg_s.item(j, s, ct * wide_t, cb * wide_b, cc * wide_c)
                for v, x in zip(spec[kids[i][0]], (cs, ct, cb, cc)):
                    value[v] = x
        else:
            wide = [n > 1 for n in picks.shape[1:]]
            for j, i in enumerate(batch):
                m = spec[kids[i][0]][1]
                value[m] = picks.item(j, *[value[v] if w else 0 for v, w in zip(spec[i], wide)])
    if -1 in value:
        raise AssertionError("reconstruction did not assign every vertex")
    if vm.shape[1] < instance.d:  # narrowed: position j is the j-th allowed value
        value = list(map(operator.getitem, instance.allowed, value))
    return Solution(int(best), dict(enumerate(value)))


# ---------------------------------------------------------------------------
# exhaustive oracle


def oracle_solve(
    instance: PcspInstance, budget: int = DEFAULT_ORACLE_BUDGET
) -> Solution:
    """Minimize by enumerating every allowed assignment.

    Exponential; raises `BudgetExceededError` instead of attempting
    more than ``budget`` combinations.  Ties break toward the
    lexicographically first assignment (vertex 0 most significant).

    Each vertex with two or more allowed values is an axis of a cost
    tensor, in vertex order, so ``argmin``'s first minimum is the first
    assignment.  A block of trailing axes (at most `_CHUNK` combinations,
    at least one axis) is built one axis at a time, each term added at
    its last axis; the leading axes are walked value by value.  Costs
    are non-negative integers of at most 2**52 in total, so the float
    sums are exact in any grouping.
    """
    allowed = instance.allowed
    combos = math.prod(map(len, allowed))
    if combos > budget:
        raise BudgetExceededError(combos, budget)
    free = [v for v, vals in enumerate(allowed) if len(vals) > 1]
    axis_of = dict(zip(free, itertools.count()))
    sizes = [len(allowed[v]) for v in free]
    lead, block = len(free), 1
    while lead and (block * sizes[lead - 1] <= _CHUNK or lead == len(free)):
        lead -= 1
        block *= sizes[lead]

    # an int picks a pinned vertex's one value and drops its dimension
    d = instance.d
    pick = [vals[0] if len(vals) == 1 else slice(None) if len(vals) == d else np.array(vals) for vals in allowed]
    terms = [((v,), row[pick[v]]) for v, row in enumerate(instance.vertex_costs)]
    stack = instance.edge_stack
    for (u, w), r in instance.edge_rows.items():
        if u == w:
            terms.append(((u,), stack[r].diagonal()[pick[u]]))
        else:
            tab = stack[r][pick[u], :][..., pick[w]]
            terms.append(((u, w), tab) if u < w else ((w, u), tab.T))
    # each term broadcast over the axes up to its last one, and the
    # largest index it takes on each leading axis
    placed = []
    for vs, arr in terms:
        axes = [axis_of[v] for v in vs if v in axis_of]
        shape = [1] * (max(axes, default=-1) + 1)
        for a in axes:
            shape[a] = sizes[a]
        placed.append((np.reshape(arr, shape), [s - 1 for s in shape[:lead]]))

    best, best_k = INFINITY, -1
    for outer, fixed in enumerate(itertools.product(*map(range, sizes[:lead]))):
        consts, steps = [], [[] for _ in sizes[lead:]]
        for arr, tops in placed:
            part = arr[tuple(map(min, fixed, tops))]
            (steps[part.ndim - 1] if part.ndim else consts).append(part)
        cost = np.array(sum(consts, 0.0))
        for group in steps:
            cost = cost[..., None] + functools.reduce(np.add, group)
        j = int(cost.argmin())
        if cost.flat[j] < best:
            best, best_k = float(cost.flat[j]), outer * block + j
    if math.isinf(best):
        return Solution(INFINITY, None)
    assignment = {v: vals[0] for v, vals in enumerate(allowed)}
    for v, q in zip(free, np.unravel_index(best_k, sizes)):
        assignment[v] = allowed[v][q]
    return Solution(int(best), assignment)


def as_csp(instance: PcspInstance) -> PcspInstance:
    """Hard-constraint version: every positive cost becomes INFINITY,
    so the minimum is 0 exactly when the original hard+positive
    constraints are simultaneously avoidable."""
    # shared rows stay shared
    hard = list(np.where(instance.edge_stack > 0, INFINITY, 0.0))
    edges = {k: hard[r] for k, r in instance.edge_rows.items()}
    vertex = np.where(instance.vertex_costs > 0, INFINITY, 0.0)
    allowed = {v: vals for v, vals in enumerate(instance.allowed)}
    return PcspInstance(instance.cfg, instance.d, edges, vertex, allowed)


# ---------------------------------------------------------------------------
# serialization


def _check_costs(rows: list, where: Callable[[int], str]) -> None:
    """Refuse any cell of ``rows`` (lists of costs) other than an int
    or the string "inf", the two forms a JSON cost takes; `np.array`
    alone would also take True, 1.5, "nan", " 2" or "-inf".  Each pass
    streams the cells in C.  The refusal starts with ``where(i)``, the
    source of row ``i``, the first row with a bad cell."""
    cells = itertools.chain.from_iterable
    kinds = set(map(type, cells(rows)))
    if kinds <= {int, str}:
        if str not in kinds:
            return
        # with no bools or floats about, the cells that are not ints
        # are the strings
        if set(itertools.filterfalse(int.__instancecheck__, cells(rows))) == {"inf"}:
            return
    i, bad = next(
        (i, x)
        for i, row in enumerate(rows)
        for x in row
        if type(x) is not int and not (type(x) is str and x == "inf")
    )
    raise ValueError(f"{where(i)}: costs are integers or \"inf\", got {bad!r}")


def _json_ints(values: list, what: str) -> list:
    """``values`` if each is a JSON integer; a bool, float or string,
    which `int` would truncate or parse, is refused naming ``what``."""
    if not set(map(type, values)) <= {int}:
        bad = next(x for x in values if type(x) is not int)
        raise ValueError(f"{what} must be an integer, got {bad!r}")
    return values


def _fields(items: list, names: tuple, what: str) -> list[list]:
    """Each field of ``names`` over the objects ``items``, one list per
    name; anything else is refused naming ``what``."""
    try:
        return [[item[name] for item in items] for name in names]
    except (TypeError, KeyError):
        raise ValueError(f"{what} must be a list of objects with {', '.join(names)}") from None


def _vertex_key(k) -> int:
    """An ``allowed`` key, or a vertex on the command line: the decimal
    text of a vertex, as an int.  Text that `int` would also read, such
    as " 3", "+2", "03" or "1_0", is refused."""
    if not (type(k) is str and k.isascii() and k.isdigit() and str(int(k)) == k):
        raise ValueError(f"allowed key must be a vertex number, got {k!r}")
    return int(k)


def _cost_from_json(x, what: str) -> float:
    _check_costs([[x]], lambda _: what)
    return float(_floats(x))


def _costs_to_json(arr: np.ndarray) -> list:
    """``arr`` as nested lists of ints, with "inf" for INFINITY; a
    valid instance's finite costs fit an int64."""
    inf = np.isinf(arr)
    out = np.where(inf, 0.0, arr).astype(np.int64).astype(object)
    out[inf] = "inf"
    return out.tolist()


def _model_costs(model: dict, cfg: Cfg, d: int) -> Mapping | np.ndarray:
    """The edge costs of a cost model: one table shared by every edge,
    or an (E, d, d) array for ``random``, whose edge ``order`` draws
    from ``default_rng((seed, order))``."""
    kind = model.get("model")
    if kind == "random":
        low, high, seed = (
            _json_ints([model.get(name, default)], f"random model {name}")[0]
            for name, default in (("low", 0), ("high", 10), ("seed", 0))
        )
        if not 0 <= low <= high <= _COST_LIMIT:
            raise ValueError(
                f"random model low and high need 0 <= low <= high <= 2**52, got {low} and {high}"
            )
        if seed < 0:
            raise ValueError(f"random model seed must be non-negative, got {seed}")
        inf_prob = model.get("inf_prob", 0.0)
        # JSON numbers only: True would pass as 1, and NaN fails both tests
        if type(inf_prob) not in (int, float) or not 0 <= inf_prob <= 1:
            raise ValueError(f"random model inf_prob must be a number in [0, 1], got {inf_prob!r}")
        out = np.empty((len(cfg.edges), d, d))
        for order, tab in enumerate(out):
            rng = np.random.default_rng((seed, order))
            tab[...] = rng.integers(low, high + 1, size=(d, d))
            if inf_prob > 0:
                tab[rng.random((d, d)) < inf_prob] = INFINITY
        return out
    if kind == "constant":
        tab = np.full((d, d), _cost_from_json(model.get("cost", 0), "edge_costs model cost"))
    elif kind == "disagree":
        tab = np.where(np.eye(d, dtype=bool), 0.0, _cost_from_json(model.get("cost", 1), "edge_costs model cost"))
    elif kind == "equal":
        tab = np.where(np.eye(d, dtype=bool), _cost_from_json(model.get("cost", 1), "edge_costs model cost"), 0.0)
    else:
        raise ValueError(f"unknown edge cost model: {kind!r}")
    return {(e.src, e.dst): tab for e in cfg.edges}


def instance_from_json(cfg: Cfg, obj: dict) -> PcspInstance:
    """Build an instance from its JSON form (see README for models).

    Explicit tables have their cells checked in a few passes over the
    parsed lists and are handed on as a mapping from edge key to table,
    which `PcspInstance` converts in one `np.array` call; the last table
    given for an edge wins, and edges left out share one zero row."""
    if not isinstance(obj, dict):
        raise ValueError(f"an instance must be a JSON object, got {type(obj).__name__}")
    if "domain_size" not in obj:
        raise ValueError("an instance needs domain_size")
    (d,) = _json_ints([obj["domain_size"]], "domain_size")
    ec = obj.get("edge_costs")
    edge_costs: Mapping | np.ndarray | None
    if ec is None:
        edge_costs = None
    elif isinstance(ec, dict):
        edge_costs = _model_costs(ec, cfg, d)
    else:
        src, dst, tables = _fields(ec, ("src", "dst", "table"), "edge_costs")
        keys = list(zip(_json_ints(src, "edge src"), _json_ints(dst, "edge dst")))

        def table_of_row(i: int) -> str:
            # the rows are chained table after table
            ends = list(itertools.accumulate(map(len, tables)))
            return f"edge table {keys[bisect.bisect(ends, i)]}"

        try:
            _check_costs(list(itertools.chain.from_iterable(tables)), table_of_row)
        except (TypeError, ValueError):
            # a table that is no d x d table at all says so first
            _check_shapes(tables, (d, d), lambda i: f"edge table {keys[i]} must be {d}x{d}")
            raise
        edge_costs = dict(zip(keys, tables))
    vc = obj.get("vertex_costs")
    vertex_costs: list | dict | np.ndarray | None = vc
    if isinstance(vc, dict):
        if vc.get("model") != "constant":
            raise ValueError(f"unknown vertex cost model: {vc.get('model')!r}")
        vertex_costs = np.full(
            (cfg.vertex_count, d), _cost_from_json(vc.get("cost", 0), "vertex_costs model cost")
        )
    elif vc is not None:
        if not isinstance(vc, list):
            raise ValueError("vertex_costs must be a cost model or a list")
        rows = vc
        if vc and isinstance(vc[0], dict):
            vs, rows = _fields(vc, ("v", "costs"), "vertex_costs")
            vertex_costs = dict(zip(_json_ints(vs, "vertex v"), rows))
        try:
            _check_costs(rows, lambda i: f"vertex_costs entry {i}")
        except (TypeError, ValueError):
            _check_shapes(rows, (d,), lambda i: f"vertex_costs entry {i} must be a list of {d} costs")
            raise
    allowed = obj.get("allowed")
    if allowed is not None:
        if not (isinstance(allowed, dict) and all(isinstance(vals, list) for vals in allowed.values())):
            raise ValueError("allowed must map vertices to lists of values")
        allowed = {_vertex_key(k): _json_ints(vals, "allowed value") for k, vals in allowed.items()}
    return PcspInstance(cfg, d, edge_costs, vertex_costs, allowed)


def instance_to_json(instance: PcspInstance) -> dict:
    rows = instance.edge_rows
    tables = _costs_to_json(instance.edge_stack[list(rows.values())])
    edges = [
        {"src": src, "dst": dst, "table": tab}
        for (src, dst), tab in zip(rows, tables)
    ]
    out: dict = {
        "domain_size": instance.d,
        "edge_costs": edges,
        "vertex_costs": _costs_to_json(instance.vertex_costs),
    }
    restricted = {
        str(v): list(vals)
        for v, vals in enumerate(instance.allowed)
        if len(vals) < instance.d
    }
    if restricted:
        out["allowed"] = restricted
    return out
