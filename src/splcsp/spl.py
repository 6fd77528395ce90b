"""Control-flow graphs of structured programs and their decomposition.

A subgraph of a CFG has four special vertices: start S, terminate T,
break target B and continue target C.  ``decompose`` builds a
program's CFG in linear time, in one post-order pass that hands each
subtree its four specials from above, and records in post-order the
operation that builds each subgraph:

* an atom: a statement edge S->T, a break edge S->B or a continue edge
  S->C, on four fresh vertices,
* ``series`` (``;``) merges the left T with the right S (the merge
  point M) and the B/C pairs,
* ``parallel`` (``if``) merges all four special pairs; an edge present
  in both operands collapses to one,
* ``loop`` (``while``) adds four fresh specials and five edges: S->S1
  (entering the body), S->T (skipping it), T1->S and C1->S (back
  edges), B1->T (breaking out).

``tests/reference.py`` holds the series/parallel/loop graph algebra
that ``decompose`` is checked against.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

from . import lang
from .lang import Span, Stmt

# edge labels
STMT = "stmt"
BREAK = "break"
CONTINUE = "continue"
BRANCH = "branch"
LOOP_ENTER = "loop-enter"
LOOP_EXIT = "loop-exit"
LOOP_BACK = "loop-back"


class OpenProgramWarning(UserWarning):
    """Emitted when decomposing a program with top-level break/continue."""


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    label: str
    text: str | None = None
    taken: bool = False


# ---------------------------------------------------------------------------
# control-flow graphs


@dataclass
class Cfg:
    """A finished control-flow graph over dense vertex ids 0..n-1.

    ``entry``/``exit`` and ``specials`` are None for ad-hoc digraphs
    (e.g. graph-coloring inputs) that did not come from a program.
    ``spans`` maps a vertex to the source positions that produced it.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    entry: int | None = None
    exit: int | None = None
    specials: tuple[int, int, int, int] | None = None
    spans: dict[int, tuple[Span, ...]] = field(default_factory=dict)

    @functools.cached_property
    def edge_map(self) -> dict[tuple[int, int], Edge]:
        return {(e.src, e.dst): e for e in self.edges}

    def to_json(self) -> dict:
        roles: dict[int, list[str]] = {}
        if self.specials is not None:
            for name, v in zip(("entry", "exit", "break", "continue"), self.specials):
                roles.setdefault(v, []).append(name)
        vertices = []
        for v in range(self.vertex_count):
            entry: dict = {"id": v}
            if v in roles:
                entry["roles"] = roles[v]
            if v in self.spans:
                entry["spans"] = [list(s) for s in self.spans[v]]
            vertices.append(entry)
        edges = []
        for e in self.edges:
            obj: dict = {"src": e.src, "dst": e.dst, "label": e.label}
            if e.text is not None:
                obj["text"] = e.text
            if e.taken:
                obj["taken"] = True
            edges.append(obj)
        out: dict = {
            "vertex_count": self.vertex_count,
            "entry": self.entry,
            "exit": self.exit,
            "edges": edges,
            "vertices": vertices,
        }
        if self.specials is not None:
            out["specials"] = list(self.specials)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Cfg":
        """Inverse of `to_json`; also accepts the terse ad-hoc form
        ``{"vertex_count": n, "edges": [[src, dst], ...]}``."""
        n = obj.get("vertex_count") if isinstance(obj, dict) else None
        # JSON integers only: True would pass as 1, 2.0 and "3" as counts
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex_count must be a non-negative integer, got {n!r}")
        for name in ("edges", "vertices"):
            if not isinstance(obj.get(name, []), list):
                raise ValueError(f"{name} must be a list, got {obj[name]!r}")
        specials = obj.get("specials")
        if specials is not None and not (isinstance(specials, list) and len(specials) == 4):
            raise ValueError(f"specials must be null or four vertex ids, got {specials!r}")
        ids = [(name, obj[name]) for name in ("entry", "exit") if obj.get(name) is not None]
        for name, v in ids + [("specials", v) for v in specials or ()]:
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"{name}: vertex ids must be integers below {n}, got {v!r}")
        edges = []
        for item in obj.get("edges", []):
            if isinstance(item, (list, tuple)) and len(item) == 2:
                edges.append(Edge(item[0], item[1], STMT))
            elif not (isinstance(item, dict) and "src" in item and "dst" in item):
                raise ValueError(f"edge {item!r}: expected [src, dst] or an object with both")
            else:
                edges.append(
                    Edge(
                        item["src"],
                        item["dst"],
                        item.get("label", STMT),
                        item.get("text"),
                        item.get("taken", False),
                    )
                )
        for e in edges:
            # JSON integers only: True would pass as 1, 0.5 as an index
            if type(e.src) is not int or type(e.dst) is not int:
                raise ValueError(f"edge ({e.src!r}, {e.dst!r}): endpoints must be integers")
            if not (0 <= e.src < n and 0 <= e.dst < n):
                raise ValueError(f"edge ({e.src}, {e.dst}) out of range for {n} vertices")
        spans: dict[int, tuple[Span, ...]] = {}
        for v in obj.get("vertices", []):
            if not isinstance(v, dict):
                raise ValueError(f"vertex {v!r}: expected an object")
            if "spans" not in v:
                continue
            vid, pairs = v.get("id"), v["spans"]
            if type(vid) is not int or not 0 <= vid < n:
                raise ValueError(f"vertex {vid!r}: id must be an integer below {n}")
            if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p) for p in pairs
            ):
                raise ValueError(f"vertex {vid}: spans must be [line, column] integer pairs, got {pairs!r}")
            spans[vid] = tuple((l, c) for l, c in pairs)
        return cls(
            n,
            tuple(edges),
            obj.get("entry"),
            obj.get("exit"),
            tuple(specials) if specials is not None else None,
            spans,
        )

    def to_dot(self) -> str:
        shape_for = {}
        if self.specials is not None:
            s, t, b, c = self.specials
            shape_for = {s: "diamond", t: "doublecircle", b: "box", c: "trapezium"}
        lines = ["digraph cfg {"]
        for v in range(self.vertex_count):
            shape = shape_for.get(v)
            attrs = f' [shape={shape}]' if shape else ""
            lines.append(f"  {v}{attrs};")
        for e in self.edges:
            label = _dot_escape(e.text if e.text is not None else e.label)
            style = ""
            if e.label == BRANCH and not e.taken:
                style = ", style=dashed"
            lines.append(f'  {e.src} -> {e.dst} [label="{label}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class DecompNode:
    """One operation in the tree that builds the CFG.

    ``specials`` are final CFG ids of this subgraph's S, T, B, C.
    ``merged`` is the merge point of a series node; ``duplicates`` the
    collapsed edges of a parallel node.
    """

    kind: str  # epsilon | break | continue | series | parallel | loop
    children: tuple[int, ...]
    specials: tuple[int, int, int, int]
    span: Span
    text: str | None = None
    guard: str | None = None
    merged: int | None = None
    duplicates: tuple[tuple[int, int], ...] = ()


@dataclass
class Decomposition:
    """Operation tree (post-order, root last) plus the finished CFG."""

    nodes: tuple[DecompNode, ...]
    cfg: Cfg

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    def to_json(self) -> dict:
        """The nodes in post-order, each listing its children by index,
        so ``root`` is the last index; and the CFG."""
        nodes = []
        for node in self.nodes:
            obj: dict = {
                "kind": node.kind,
                "specials": list(node.specials),
                "span": list(node.span),
            }
            if node.text is not None:
                obj["text"] = node.text
            if node.guard is not None:
                obj["guard"] = node.guard
            if node.merged is not None:
                obj["merged"] = node.merged
            if node.duplicates:
                obj["duplicates"] = [list(d) for d in node.duplicates]
            if node.children:
                obj["children"] = list(node.children)
            nodes.append(obj)
        return {"nodes": nodes, "root": self.root, "cfg": self.cfg.to_json()}


def decompose(tree: Stmt) -> Decomposition:
    """Build the decomposition and CFG of a program in linear time.

    Non-closed programs decompose fine (break/continue edges just end
    in the root's B/C vertices) but raise an `OpenProgramWarning`.
    """
    # Each subtree is handed its S, T, B, C as vertex classes: the root
    # gets 0-3, a ``;`` a new merge class, a ``while`` body four new
    # ones.  A class gets its CFG id when an atom or loop first creates
    # one of its vertices, in post-order and S, T, B, C order.
    ids = [-1] * 4  # CFG id of each class, -1 until created
    vertex_count = 0
    # (src, dst) -> label and text; the first edge wins, so a collapsed
    # edge keeps its left operand's
    edge_info: dict[tuple[int, int], tuple[str, str | None]] = {}
    nodes: list[DecompNode] = []
    spans: dict[int, list[Span]] = {}
    # per finished subtree: its node and which of the edges S->T (1),
    # S->B (2), S->C (4) it has, the only ones a parallel node collapses
    results: list[tuple[int, int]] = []
    # spans of the jumps outside every loop, which still target the
    # root's B or C class; leaves finish left to right, in source order
    open_jumps: list[Span] = []
    stack: list[tuple[Stmt, tuple[int, int, int, int], bool]] = [(tree, (0, 1, 2, 3), False)]
    while stack:
        node, classes, expanded = stack.pop()
        s, t, b, c = classes
        if not expanded and isinstance(node, (lang.Seq, lang.If, lang.While)):
            stack.append((node, classes, True))
            new = len(ids)
            if isinstance(node, lang.Seq):
                ids.append(-1)
                stack += ((node.right, (new, t, b, c), False), (node.left, (s, new, b, c), False))
            elif isinstance(node, lang.If):
                stack += ((node.else_branch, classes, False), (node.then_branch, classes, False))
            else:
                ids += (-1, -1, -1, -1)
                stack.append((node.body, (new, new + 1, new + 2, new + 3), False))
            continue

        creates = not isinstance(node, (lang.Seq, lang.If))
        if creates:
            # an atom or loop creates one vertex of each of its classes
            for k in classes:
                if ids[k] < 0:
                    ids[k] = vertex_count
                    vertex_count += 1
        S, T, B, C = specials = (ids[s], ids[t], ids[b], ids[c])
        if isinstance(node, lang.Seq):
            (right, rmask), (left, lmask) = results.pop(), results.pop()
            merged = nodes[left].specials[1]
            op = DecompNode("series", (left, right), specials, node.span, merged=merged)
            # an S->B / S->C edge survives only from the left operand:
            # the right operand's S becomes the internal merge point
            mask = lmask & 6
        elif isinstance(node, lang.If):
            (right, rmask), (left, lmask) = results.pop(), results.pop()
            shapes = ((1, (S, T)), (2, (S, B)), (4, (S, C)))
            dups = tuple(edge for bit, edge in shapes if lmask & rmask & bit)
            op = DecompNode(
                "parallel", (left, right), specials, node.span, guard=node.guard, duplicates=dups
            )
            mask = lmask | rmask
        elif isinstance(node, lang.Epsilon):
            edge_info.setdefault((S, T), (STMT, node.text))
            op = DecompNode("epsilon", (), specials, node.span, text=node.text)
            mask = 1
        elif isinstance(node, lang.Break):
            edge_info.setdefault((S, B), (BREAK, None))
            op = DecompNode("break", (), specials, node.span)
            mask = 2
            if b == 2:
                open_jumps.append(node.span)
        elif isinstance(node, lang.Continue):
            edge_info.setdefault((S, C), (CONTINUE, None))
            op = DecompNode("continue", (), specials, node.span)
            mask = 4
            if c == 3:
                open_jumps.append(node.span)
        elif isinstance(node, lang.While):
            child = results.pop()[0]
            s1, t1, b1, c1 = nodes[child].specials
            edge_info.setdefault((S, s1), (LOOP_ENTER, node.guard))
            edge_info.setdefault((S, T), (LOOP_EXIT, node.guard))
            edge_info.setdefault((t1, S), (LOOP_BACK, None))
            edge_info.setdefault((c1, S), (LOOP_BACK, None))
            edge_info.setdefault((b1, T), (LOOP_EXIT, None))
            op = DecompNode("loop", (child,), specials, node.span, guard=node.guard)
            mask = 1
        else:
            raise TypeError(f"not a parse tree node: {node!r}")
        if creates:
            for v in specials:
                spans.setdefault(v, []).append(node.span)
        nodes.append(op)
        results.append((len(nodes) - 1, mask))

    if open_jumps:
        line, col = open_jumps[0]
        warnings.warn(
            f"program is not closed: {len(open_jumps)} break/continue "
            f"outside any loop (first at {line}:{col})",
            OpenProgramWarning,
            stacklevel=2,
        )

    # relabel the out-edges of every vertex with two or more as branches
    out_deg: dict[int, list[int]] = {}
    for src, dst in edge_info:
        out_deg.setdefault(src, []).append(dst)
    fall_through = {src: min(dsts) for src, dsts in out_deg.items() if len(dsts) >= 2}
    final_edges = []
    for (src, dst), (label, text) in edge_info.items():
        if src in fall_through:
            final_edges.append(Edge(src, dst, BRANCH, text, taken=dst != fall_through[src]))
        else:
            final_edges.append(Edge(src, dst, label, text))

    root = nodes[-1].specials
    cfg = Cfg(
        vertex_count=vertex_count,
        edges=tuple(final_edges),
        entry=root[0],
        exit=root[1],
        specials=root,
        spans={v: tuple(ss) for v, ss in spans.items()},
    )
    return Decomposition(tuple(nodes), cfg)
