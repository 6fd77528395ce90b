"""Reference implementations the tests check the package against.

The series/parallel/loop graph algebra builds SPL graphs one operation
at a time, as the paper defines them (see `splcsp.spl`); `node_graph`
replays a decomposition with it, as the reference for `decompose`,
which builds the CFG in one post-order pass.  `decomposition` stores a
list of `DecompNode`s flat, as `decompose` does, and `dp_tables` gives
every node's full DP table, for comparison with exhaustive search.
`textbook_min_cost` is a second minimum, independent of the solver's
forward pass: the DP as the paper states it, one full (d, d, d, d)
table per node of the decomposition, each edge charged by the first
leaf or loop that lists it, and each vertex's cost and allowed-set
mask added where it stops being special.  It costs O(|G|·d^6), which
is cheap at d ≤ 4 at any program size.
The counts of a parse tree and an instance's tables by edge key are
read only by the tests, so they live here too.
"""

from __future__ import annotations

import dataclasses
import weakref
from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from splcsp import solver
from splcsp.lang import Seq, Stmt, walk
from splcsp.solver import PcspInstance
from splcsp.spl import (
    BREAK,
    CONTINUE,
    KINDS,
    LOOP_BACK,
    LOOP_ENTER,
    LOOP_EXIT,
    STMT,
    Cfg,
    DecompNode,
    Decomposition,
    Edge,
)


class OverlappingGraphsError(ValueError):
    """Raised when composing graphs whose vertex sets intersect."""


@dataclass
class SplGraph:
    """A digraph with start/terminate/break/continue vertices.

    ``edges`` is keyed by (src, dst); SPL graphs are simple, so the key
    determines the edge.
    """

    s: int
    t: int
    b: int
    c: int
    vertices: frozenset[int]
    edges: dict[tuple[int, int], Edge]

    @property
    def specials(self) -> tuple[int, int, int, int]:
        return (self.s, self.t, self.b, self.c)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def atomic(kind: str, text: str | None = None, first_id: int = 0) -> SplGraph:
    """One of the three generators; allocates ids first_id..first_id+3."""
    s, t, b, c = first_id, first_id + 1, first_id + 2, first_id + 3
    if kind == "epsilon":
        edge = Edge(s, t, STMT, text)
    elif kind == "break":
        edge = Edge(s, b, BREAK)
    elif kind == "continue":
        edge = Edge(s, c, CONTINUE)
    else:
        raise ValueError(f"unknown atomic kind: {kind!r}")
    return SplGraph(s, t, b, c, frozenset((s, t, b, c)), {(edge.src, edge.dst): edge})


def _check_disjoint(g: SplGraph, h: SplGraph) -> None:
    if g.vertices & h.vertices:
        raise OverlappingGraphsError(
            f"operand vertex sets share {sorted(g.vertices & h.vertices)[:4]}"
        )


def _merge_map(pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    # smaller id becomes the representative of each merged pair
    vmap: dict[int, int] = {}
    for a, b in pairs:
        keep, drop = (a, b) if a < b else (b, a)
        vmap[drop] = keep
    return vmap


def _remap_edges(
    graphs: Iterable[SplGraph],
    vmap: Mapping[int, int],
    duplicates: list[tuple[int, int]] | None = None,
) -> dict[tuple[int, int], Edge]:
    out: dict[tuple[int, int], Edge] = {}
    for g in graphs:
        for edge in g.edges.values():
            src = vmap.get(edge.src, edge.src)
            dst = vmap.get(edge.dst, edge.dst)
            key = (src, dst)
            if key in out:
                # the left operand's edge wins; the cost is counted once
                if duplicates is None:
                    raise AssertionError(f"unexpected duplicate edge {key}")
                duplicates.append(key)
                continue
            out[key] = Edge(src, dst, edge.label, edge.text, edge.taken)
    return out


def series(g: SplGraph, h: SplGraph) -> SplGraph:
    """Run g then h: g.T and h.S merge into M; B and C pairs merge."""
    _check_disjoint(g, h)
    vmap = _merge_map([(g.t, h.s), (g.b, h.b), (g.c, h.c)])
    edges = _remap_edges((g, h), vmap)
    vertices = frozenset(vmap.get(v, v) for v in g.vertices | h.vertices)
    return SplGraph(
        g.s, h.t, vmap.get(g.b, g.b), vmap.get(g.c, g.c), vertices, edges
    )


def parallel(g: SplGraph, h: SplGraph) -> tuple[SplGraph, tuple[tuple[int, int], ...]]:
    """Alternatives g | h: all four special pairs merge.

    Returns the graph and the keys of edges present in both operands,
    which appear once in the result.
    """
    _check_disjoint(g, h)
    vmap = _merge_map([(g.s, h.s), (g.t, h.t), (g.b, h.b), (g.c, h.c)])
    duplicates: list[tuple[int, int]] = []
    edges = _remap_edges((g, h), vmap, duplicates)
    vertices = frozenset(vmap.get(v, v) for v in g.vertices | h.vertices)
    graph = SplGraph(
        vmap.get(g.s, g.s),
        vmap.get(g.t, g.t),
        vmap.get(g.b, g.b),
        vmap.get(g.c, g.c),
        vertices,
        edges,
    )
    return graph, tuple(duplicates)


def loop(g: SplGraph, first_id: int | None = None, guard: str | None = None) -> SplGraph:
    """Wrap g in a loop: four fresh specials and five connecting edges."""
    if first_id is None:
        first_id = max(g.vertices) + 1
    s, t, b, c = first_id, first_id + 1, first_id + 2, first_id + 3
    fresh = frozenset((s, t, b, c))
    if fresh & g.vertices:
        raise OverlappingGraphsError(
            f"fresh ids {sorted(fresh & g.vertices)} already used by the operand"
        )
    edges = dict(g.edges)
    for edge in (
        Edge(s, g.s, LOOP_ENTER, guard),
        Edge(s, t, LOOP_EXIT, guard),
        Edge(g.t, s, LOOP_BACK),
        Edge(g.c, s, LOOP_BACK),
        Edge(g.b, t, LOOP_EXIT),
    ):
        edges[(edge.src, edge.dst)] = edge
    return SplGraph(s, t, b, c, g.vertices | fresh, edges)


def raw_ids(decomp: Decomposition) -> tuple[list[int], list[int]]:
    """Each node's base and the CFG id of each raw id.

    Raw ids number each atom's and loop's four specials in post-order,
    the order `decompose` creates their vertices in; a node's base is
    its first raw id, and -1 for series and parallel nodes.
    """
    bases: list[int] = []
    final_of_raw: list[int] = []
    for kind, specials in zip(decomp.kinds, zip(*decomp.specials)):
        if KINDS[kind] in ("series", "parallel"):
            bases.append(-1)
        else:
            bases.append(len(final_of_raw))
            final_of_raw += specials
    return bases, final_of_raw


def node_graph(decomp: Decomposition, index: int) -> SplGraph:
    """Rebuild the subgraph of one node by replaying the operations, in
    CFG vertex ids; edge labels stay structural (no branch relabeling)."""
    nodes = decomp.nodes
    bases, fid = raw_ids(decomp)
    memo: dict[int, SplGraph] = {}
    stack = [index]
    while stack:
        i = stack[-1]
        if i in memo:
            stack.pop()
            continue
        node = nodes[i]
        pending = [c for c in node.children if c not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if node.kind in ("epsilon", "break", "continue"):
            g = atomic(node.kind, node.text, first_id=bases[i])
        elif node.kind == "series":
            g = series(memo[node.children[0]], memo[node.children[1]])
        elif node.kind == "parallel":
            g, _ = parallel(memo[node.children[0]], memo[node.children[1]])
        elif node.kind == "loop":
            g = loop(memo[node.children[0]], first_id=bases[i], guard=node.guard)
        else:
            raise ValueError(f"unknown node kind: {node.kind!r}")
        memo[i] = g
    g = memo[index]
    edges = {}
    for e in g.edges.values():
        key = (fid[e.src], fid[e.dst])
        edges[key] = Edge(key[0], key[1], e.label, e.text, e.taken)
    return SplGraph(
        fid[g.s],
        fid[g.t],
        fid[g.b],
        fid[g.c],
        frozenset(fid[v] for v in g.vertices),
        edges,
    )


def decomposition(cfg: Cfg, nodes: Sequence[DecompNode]) -> Decomposition:
    """The decomposition of ``cfg`` whose nodes, in post-order, are
    ``nodes``, stored flat as `decompose` stores its own; a leaf's and a
    loop's edges are found in ``cfg.edges`` by their ends."""
    at = {(e.src, e.dst): i for i, e in enumerate(cfg.edges)}
    left, right, edges = array("i"), array("i"), array("i")
    specials = tuple(array("i", [node.specials[axis] for node in nodes]) for axis in range(4))
    collapsed = bytearray()
    for node in nodes:
        S, T, B, C = node.specials
        l, r = (*node.children, -1, -1)[:2]
        left.append(l)
        right.append(r)
        if node.kind == "loop":
            s1, t1, b1, c1 = nodes[l].specials
            keys = [(S, T), (S, s1), (t1, S), (c1, S), (b1, T)]
        else:
            keys = {"epsilon": [(S, T)], "break": [(S, B)], "continue": [(S, C)]}.get(node.kind, [])
        edges.extend(at[key] for key in keys)
        collapsed.append(sum(bit for bit, edge in ((1, (S, T)), (2, (S, B)), (4, (S, C))) if edge in node.duplicates))
    return Decomposition(
        cfg,
        bytes(KINDS.index(node.kind) for node in nodes),
        left,
        right,
        specials,
        edges,
        [node.span for node in nodes],
        [node.text if node.kind == "epsilon" else node.guard for node in nodes],
        bytes(collapsed),
    )


def count_nodes(tree: Stmt) -> int:
    """Number of parse-tree nodes, sequencing nodes included."""
    return sum(1 for _ in walk(tree))


def count_statements(tree: Stmt) -> int:
    """Number of statements: every node except sequencing nodes."""
    return sum(1 for n in walk(tree) if not isinstance(n, Seq))


_EDGE_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def edge_tables(instance: PcspInstance) -> dict[tuple[int, int], np.ndarray]:
    """Edge key -> its (d, d) table, a read-only view of its row of
    ``instance.edge_stack``; keys that share a row share one view.  The
    dict is made once per instance."""
    tables = _EDGE_TABLES.get(instance)
    if tables is None:
        views = list(instance.edge_stack)
        cfg = instance.cfg
        keys = zip(cfg.src, cfg.dst)
        tables = _EDGE_TABLES[instance] = {key: views[r] for key, r in zip(keys, instance.edge_rows.tolist())}
    return tables


def allowed_mask(instance: PcspInstance) -> np.ndarray:
    """``instance.allowed`` as an (n, d) array: 0 at an allowed value,
    INFINITY elsewhere."""
    mask = np.full((len(instance.allowed), instance.d), solver.INFINITY)
    for v, vals in enumerate(instance.allowed):
        mask[v, list(vals)] = 0.0
    return mask


def dp_tables(instance: PcspInstance, decomp: Decomposition) -> list[np.ndarray]:
    """Every node's table, in decomposition (post-)order, each full
    (d, d, d, d) with every special's allowed set applied.

    A node's subtree is a contiguous run of the post-order ending at the
    node, so its table is the root table of the forward pass run over
    that run alone.  That table's axes have length 1 or the forward
    pass's k; on narrowed axes (k < d) position j is the special's j-th
    allowed value, so the table is scattered back through the allowed
    values, with INFINITY at every other value."""
    nodes = decomp.nodes
    d = instance.d
    first: list[int] = []  # each node's lowest descendant
    full = []
    for i, node in enumerate(nodes):
        lo = first[node.children[0]] if node.children else i
        first.append(lo)
        sub = decomposition(
            decomp.cfg,
            [dataclasses.replace(n, children=tuple(c - lo for c in n.children)) for n in nodes[lo : i + 1]],
        )
        tab, vm = solver._forward(instance, sub)[:2]
        narrowed = vm.shape[1] < d
        values = [instance.allowed[v] for v in node.specials]
        # where each special's allowed values sit on its axis of `tab`
        at = [
            [0] * len(vals) if n == 1 else range(len(vals)) if narrowed else vals
            for vals, n in zip(values, tab.shape)
        ]
        out = np.full((d, d, d, d), solver.INFINITY)
        out[np.ix_(*values)] = tab[np.ix_(*at)]
        full.append(out)
    return full


def _along(table: np.ndarray, axes: Sequence[int], ndim: int) -> np.ndarray:
    """A vector or a 2-D table laid along ``axes`` of an ``ndim``-axis
    tensor, broadcast over the others."""
    if len(axes) == 2 and axes[0] > axes[1]:
        table, axes = table.T, axes[::-1]
    return np.expand_dims(table, [a for a in range(ndim) if a not in axes])


def textbook_min_cost(instance: PcspInstance, decomp: Decomposition) -> float:
    """The minimum total cost by the DP as the paper states it, in
    O(|G|·d^6): one full (d, d, d, d) table per node of ``decomp``, over
    its S, T, B and C, in post-order, with no regrouping, batching or
    narrowing.

    A leaf's table is its edge's; a series node minimizes over the
    merge point and a parallel node adds its operands; a loop minimizes
    over its child's four specials at once, in a d**6 tensor over
    (S, T, S1, T1, B1, C1), and adds its five edges.  Each CFG edge is
    charged by the first leaf or loop that lists it.  A vertex's cost
    and allowed-set mask are added where it stops being special: at a
    series node's merge point, at a loop's child's specials, and at the
    root's specials at the end."""
    d, nodes = instance.d, decomp.nodes
    vertex = instance.vertex_costs + allowed_mask(instance)
    positions, charged = iter(decomp.edges), set()

    def edge() -> np.ndarray:
        at = next(positions)
        if at in charged:
            return np.zeros((d, d))
        charged.add(at)
        return instance.edge_stack[instance.edge_rows[at]]

    def freed(specials: Sequence[int], first_axis: int, ndim: int) -> np.ndarray:
        return sum(_along(vertex[v], [first_axis + i], ndim) for i, v in enumerate(specials))

    tables: list[np.ndarray] = []
    for node in nodes:
        if node.kind in ("epsilon", "break", "continue"):
            table = _along(edge(), [0, ("epsilon", "break", "continue").index(node.kind) + 1], 4)
        elif node.kind == "series":
            left, right = (tables[c] for c in node.children)
            table = (left[:, :, None] + right[None] + _along(vertex[node.merged], [1], 5)).min(axis=1)
        elif node.kind == "parallel":
            table = tables[node.children[0]] + tables[node.children[1]]
        else:
            # axes S, T, S1, T1, B1, C1; the edges S->T, S->S1, T1->S,
            # C1->S and B1->T, in the order `decomp.edges` lists them
            child = nodes[node.children[0]]
            total = tables[node.children[0]][None, None] + freed(child.specials, 2, 6)
            for axes in ([0, 1], [0, 2], [3, 0], [5, 0], [4, 1]):
                total = total + _along(edge(), axes, 6)
            table = total.min(axis=(2, 3, 4, 5))[:, :, None, None]
        tables.append(np.broadcast_to(table, (d,) * 4))
    return float((tables[-1] + freed(nodes[-1].specials, 0, 4)).min())
