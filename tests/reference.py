"""Reference implementations the tests check the package against.

The series/parallel/loop graph algebra builds SPL graphs one operation
at a time, as the paper defines them (see `splcsp.spl`); `node_graph`
replays a decomposition with it, as the reference for `decompose`,
which builds the CFG in one post-order pass.  `dp_tables` gives every
node's full DP table, for comparison with exhaustive search.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from splcsp import solver
from splcsp.solver import PcspInstance
from splcsp.spl import BREAK, CONTINUE, LOOP_BACK, LOOP_ENTER, LOOP_EXIT, STMT, Decomposition, Edge


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
    for node in decomp.nodes:
        if node.kind in ("series", "parallel"):
            bases.append(-1)
        else:
            bases.append(len(final_of_raw))
            final_of_raw += node.specials
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
        sub = dataclasses.replace(
            decomp,
            nodes=tuple(
                dataclasses.replace(n, children=tuple(c - lo for c in n.children))
                for n in nodes[lo : i + 1]
            ),
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
