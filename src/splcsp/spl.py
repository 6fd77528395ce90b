"""Control-flow graphs of structured programs and their decomposition.

A subgraph of a CFG has four special vertices: start S, terminate T,
break target B and continue target C.  ``decompose`` builds a
program's CFG in linear time, with a union-find over pre-allocated
vertex ids, and records in post-order the operation that builds each
subgraph:

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
import json
import warnings
from dataclasses import dataclass, field
from typing import Iterator

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

LABELS = frozenset([STMT, BREAK, CONTINUE, BRANCH, LOOP_ENTER, LOOP_EXIT, LOOP_BACK])


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

    def out_degree(self) -> list[int]:
        deg = [0] * self.vertex_count
        for e in self.edges:
            deg[e.src] += 1
        return deg

    def in_degree(self) -> list[int]:
        deg = [0] * self.vertex_count
        for e in self.edges:
            deg[e.dst] += 1
        return deg

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
        n = obj["vertex_count"]
        edges = []
        for item in obj.get("edges", []):
            if isinstance(item, (list, tuple)):
                src, dst = item
                edges.append(Edge(src, dst, STMT))
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
            if isinstance(v, dict) and "spans" in v:
                spans[v["id"]] = tuple((l, c) for l, c in v["spans"])
        specials = obj.get("specials")
        return cls(
            n,
            tuple(edges),
            obj.get("entry"),
            obj.get("exit"),
            tuple(specials) if specials is not None else None,
            spans,
        )

    def to_dot(self, name: str = "cfg") -> str:
        shape_for = {}
        if self.specials is not None:
            s, t, b, c = self.specials
            shape_for = {s: "diamond", t: "doublecircle", b: "box", c: "trapezium"}
        lines = [f"digraph {name} {{"]
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
    collapsed edges of a parallel node.  ``base`` is the first raw id
    allocated by an atom or loop (used to replay construction).
    """

    kind: str  # epsilon | break | continue | series | parallel | loop
    children: tuple[int, ...]
    specials: tuple[int, int, int, int]
    span: Span
    text: str | None = None
    guard: str | None = None
    merged: int | None = None
    duplicates: tuple[tuple[int, int], ...] = ()
    base: int = -1


class _UnionFind:
    def __init__(self):
        self.parent: list[int] = []

    def add(self, count: int) -> int:
        first = len(self.parent)
        self.parent.extend(range(first, first + count))
        return first

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the classes of a and b; the smaller root survives."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        keep, drop = (ra, rb) if ra < rb else (rb, ra)
        self.parent[drop] = keep
        return keep


class _Rec:
    """Per-subtree state during decompose: raw specials and which of
    the edges S->T / S->B / S->C the subgraph contains (the only shapes
    that can collide at a parallel node)."""

    __slots__ = ("s", "t", "b", "c", "st", "sb", "sc")

    def __init__(self, s, t, b, c, st, sb, sc):
        self.s, self.t, self.b, self.c = s, t, b, c
        self.st, self.sb, self.sc = st, sb, sc


@dataclass
class Decomposition:
    """Operation tree (post-order, root last) plus the finished CFG."""

    nodes: tuple[DecompNode, ...]
    cfg: Cfg
    final_of_raw: tuple[int, ...]

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def to_json(self) -> dict:
        done: dict[int, dict] = {}
        for i, node in enumerate(self.nodes):  # post-order: children first
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
                obj["children"] = [done[c] for c in node.children]
            done[i] = obj
        return {"tree": done[self.root], "cfg": self.cfg.to_json()}


def decompose(tree: Stmt) -> Decomposition:
    """Build the decomposition and CFG of a program in linear time.

    Non-closed programs decompose fine (break/continue edges just end
    in the root's B/C vertices) but raise an `OpenProgramWarning`.
    """
    report = lang.check_closed(tree)
    if not report.is_closed:
        first = report.violations[0]
        warnings.warn(
            f"program is not closed: {len(report.violations)} break/continue "
            f"outside any loop (first at {first[0]}:{first[1]})",
            OpenProgramWarning,
            stacklevel=2,
        )

    uf = _UnionFind()
    raw_edges: list[Edge] = []
    recs: list[_Rec] = []
    meta: list[tuple] = []  # (kind, children, span, text, guard, merged_raw, dup_shapes, base)

    stack: list[tuple[Stmt, int]] = [(tree, 0)]
    results: list[int] = []
    while stack:
        node, state = stack.pop()
        kids = lang.children(node)
        if state < len(kids):
            stack.append((node, state + 1))
            stack.append((kids[state], 0))
            continue

        if isinstance(node, lang.Epsilon):
            base = uf.add(4)
            s, t, b, c = base, base + 1, base + 2, base + 3
            raw_edges.append(Edge(s, t, STMT, node.text))
            recs.append(_Rec(s, t, b, c, True, False, False))
            meta.append(("epsilon", (), node.span, node.text, None, None, (), base))
        elif isinstance(node, lang.Break):
            base = uf.add(4)
            s, t, b, c = base, base + 1, base + 2, base + 3
            raw_edges.append(Edge(s, b, BREAK))
            recs.append(_Rec(s, t, b, c, False, True, False))
            meta.append(("break", (), node.span, None, None, None, (), base))
        elif isinstance(node, lang.Continue):
            base = uf.add(4)
            s, t, b, c = base, base + 1, base + 2, base + 3
            raw_edges.append(Edge(s, c, CONTINUE))
            recs.append(_Rec(s, t, b, c, False, False, True))
            meta.append(("continue", (), node.span, None, None, None, (), base))
        elif isinstance(node, lang.Seq):
            right = results.pop()
            left = results.pop()
            lv, rv = recs[left], recs[right]
            m = uf.union(lv.t, rv.s)
            bb = uf.union(lv.b, rv.b)
            cc = uf.union(lv.c, rv.c)
            # an S->B / S->C edge survives only from the left operand:
            # the right operand's S becomes the internal merge point
            recs.append(_Rec(lv.s, rv.t, bb, cc, False, lv.sb, lv.sc))
            meta.append(("series", (left, right), node.span, None, None, lv.t, (), -1))
        elif isinstance(node, lang.If):
            right = results.pop()
            left = results.pop()
            lv, rv = recs[left], recs[right]
            ss = uf.union(lv.s, rv.s)
            tt = uf.union(lv.t, rv.t)
            bb = uf.union(lv.b, rv.b)
            cc = uf.union(lv.c, rv.c)
            dups = []
            if lv.st and rv.st:
                dups.append("st")
            if lv.sb and rv.sb:
                dups.append("sb")
            if lv.sc and rv.sc:
                dups.append("sc")
            recs.append(_Rec(ss, tt, bb, cc, lv.st or rv.st, lv.sb or rv.sb, lv.sc or rv.sc))
            meta.append(("parallel", (left, right), node.span, None, node.guard, None, tuple(dups), -1))
        elif isinstance(node, lang.While):
            child = results.pop()
            cv = recs[child]
            base = uf.add(4)
            s, t = base, base + 1
            raw_edges.append(Edge(s, cv.s, LOOP_ENTER, node.guard))
            raw_edges.append(Edge(s, t, LOOP_EXIT, node.guard))
            raw_edges.append(Edge(cv.t, s, LOOP_BACK))
            raw_edges.append(Edge(cv.c, s, LOOP_BACK))
            raw_edges.append(Edge(cv.b, t, LOOP_EXIT))
            recs.append(_Rec(s, t, base + 2, base + 3, True, False, False))
            meta.append(("loop", (child,), node.span, None, node.guard, None, (), base))
        else:
            raise TypeError(f"not a parse tree node: {node!r}")
        results.append(len(recs) - 1)

    raw_count = len(uf.parent)
    rep = [uf.find(v) for v in range(raw_count)]
    survivors = sorted(set(rep))
    dense = {r: i for i, r in enumerate(survivors)}
    final_of_raw = tuple(dense[r] for r in rep)

    def fid(raw: int) -> int:
        return final_of_raw[raw]

    # collapse duplicate edges (first occurrence wins) and relabel branches
    edge_info: dict[tuple[int, int], tuple[str, str | None]] = {}
    for e in raw_edges:
        key = (fid(e.src), fid(e.dst))
        if key not in edge_info:
            edge_info[key] = (e.label, e.text)
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

    nodes = []
    spans: dict[int, list[Span]] = {}
    for rec, (kind, kid_ix, span, text, guard, merged_raw, dup_shapes, base) in zip(recs, meta):
        specials = (fid(rec.s), fid(rec.t), fid(rec.b), fid(rec.c))
        dups = tuple(
            {
                "st": (specials[0], specials[1]),
                "sb": (specials[0], specials[2]),
                "sc": (specials[0], specials[3]),
            }[shape]
            for shape in dup_shapes
        )
        nodes.append(
            DecompNode(
                kind=kind,
                children=kid_ix,
                specials=specials,
                span=span,
                text=text,
                guard=guard,
                merged=fid(merged_raw) if merged_raw is not None else None,
                duplicates=dups,
                base=base,
            )
        )
        if base >= 0:
            for v in specials:
                spans.setdefault(v, []).append(span)

    root_rec = recs[results[-1]]
    cfg = Cfg(
        vertex_count=len(survivors),
        edges=tuple(final_edges),
        entry=fid(root_rec.s),
        exit=fid(root_rec.t),
        specials=(fid(root_rec.s), fid(root_rec.t), fid(root_rec.b), fid(root_rec.c)),
        spans={v: tuple(ss) for v, ss in spans.items()},
    )
    return Decomposition(tuple(nodes), cfg, final_of_raw)


def cfg_json_dumps(obj: dict) -> str:
    """Stable serialization used by the CLI: same input, same bytes.

    Writes what ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``
    writes, but keeps an explicit stack: the json encoder recurses once
    per nesting level, so deeply nested programs would exhaust the
    recursion limit.
    """
    out: list[str] = []
    # per open container: its remaining (text before an entry, entry)
    # pairs and its closing text
    stack: list[tuple[Iterator, str]] = []
    value = obj
    while True:
        if isinstance(value, (dict, list, tuple)) and value:
            inner = "\n" + "  " * (len(stack) + 1)
            if isinstance(value, dict):
                # keys are sorted as given, then written as strings
                items = sorted(value.items())
                heads = [
                    inner + json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": "
                    for k, _ in items
                ]
                values = [v for _, v in items]
                brackets = "{}"
            else:
                heads, values, brackets = [inner] * len(value), value, "[]"
            heads[1:] = ["," + head for head in heads[1:]]
            out.append(brackets[0])
            stack.append((zip(heads, values), "\n" + "  " * len(stack) + brackets[1]))
        elif isinstance(value, dict):
            out.append("{}")
        elif isinstance(value, (list, tuple)):
            out.append("[]")
        else:
            out.append(json.dumps(value))
        while stack:
            entry = next(stack[-1][0], None)
            if entry is not None:
                out.append(entry[0])
                value = entry[1]
                break
            out.append(stack.pop()[1])
        else:
            return "".join(out) + "\n"
