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

The operations are stored flat, in arrays indexed by node, with each
leaf's and loop's edges as positions among the CFG's edges (see
`Decomposition`), and the CFG is stored flat too, in arrays indexed by
edge and a CSR of each vertex's source spans (see `Cfg`).
`Decomposition.nodes`, `Cfg.edges` and `Cfg.spans` make one object per
node, edge or vertex on first use, for the JSON tree, the demos and
the tests; no solver or builder reads them, and no graph is built from
them: ``decompose`` and `Cfg.from_json` write the arrays directly.
``tests/reference.py`` holds the series/parallel/loop graph algebra
that ``decompose`` is checked against.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

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
    """Emitted when decomposing a program with top-level break/continue;
    ``spans`` holds each one's span, in source order."""

    def __init__(self, message: str, spans: tuple[Span, ...] = ()):
        super().__init__(message)
        self.spans = spans


@dataclass(frozen=True, slots=True)
class Edge:
    src: int
    dst: int
    label: str
    text: str | None = None
    taken: bool = False


# edge labels, by their code in `Cfg.labels`; a graph read from JSON
# appends any other label it uses, up to 256 codes in all
LABELS = (STMT, BREAK, CONTINUE, BRANCH, LOOP_ENTER, LOOP_EXIT, LOOP_BACK)
_BRANCH_CODE = LABELS.index(BRANCH)


# ---------------------------------------------------------------------------
# control-flow graphs


@dataclass
class Cfg:
    """A finished control-flow graph over dense vertex ids 0..n-1,
    stored flat, with no object per edge or per vertex.

    Edge i runs from ``src[i]`` to ``dst[i]``; ``labels[i]`` is the
    position of its label in ``label_names``, ``taken[i]`` is 1 on a
    taken branch, and ``texts[i]`` is its statement or guard text (the
    parse tree's own string) or None.  Vertex v was produced by the
    source positions ``span_lines[j]``, ``span_columns[j]`` for j from
    ``span_starts[v]`` up to ``span_starts[v + 1]``.  ``edges`` and
    ``spans`` are derived from these on first use; the solver, the
    builders and the JSON and DOT writers read the arrays, and
    `from_json` checks each JSON edge and appends it to them.

    ``entry``/``exit`` and ``specials`` are None for ad-hoc digraphs
    (e.g. graph-coloring inputs) that did not come from a program.
    """

    vertex_count: int
    src: array
    dst: array
    labels: bytes
    taken: bytes
    texts: list[str | None]
    span_starts: array
    span_lines: array
    span_columns: array
    entry: int | None = None
    exit: int | None = None
    specials: tuple[int, int, int, int] | None = None
    label_names: tuple[str, ...] = LABELS

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge as an `Edge`, made on first use."""
        names = self.label_names
        return tuple(
            Edge(u, w, names[label], text, bool(taken))
            for u, w, label, text, taken in zip(self.src, self.dst, self.labels, self.texts, self.taken)
        )

    @functools.cached_property
    def spans(self) -> dict[int, tuple[Span, ...]]:
        """Each vertex that has source positions -> those positions,
        made on first use."""
        return {v: tuple(spans) for v in range(self.vertex_count) if (spans := self._spans_of(v))}

    def _spans_of(self, v: int) -> list[Span]:
        lo, hi = self.span_starts[v], self.span_starts[v + 1]
        return list(zip(self.span_lines[lo:hi], self.span_columns[lo:hi]))

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
            spans = self._spans_of(v)
            if spans:
                entry["spans"] = [list(span) for span in spans]
            vertices.append(entry)
        edges = []
        names = self.label_names
        for u, w, label, text, taken in zip(self.src, self.dst, self.labels, self.texts, self.taken):
            obj: dict = {"src": u, "dst": w, "label": names[label]}
            if text is not None:
                obj["text"] = text
            if taken:
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
        code = {name: i for i, name in enumerate(LABELS)}
        src, dst, labels, taken, texts = array("i"), array("i"), bytearray(), bytearray(), []
        for item in obj.get("edges", []):
            if isinstance(item, (list, tuple)) and len(item) == 2:
                item = {"src": item[0], "dst": item[1]}
            elif not (isinstance(item, dict) and "src" in item and "dst" in item):
                raise ValueError(f"edge {item!r}: expected [src, dst] or an object with both")
            u, w = item["src"], item["dst"]
            label, text, flag = item.get("label", STMT), item.get("text"), item.get("taken", False)
            # JSON integers only: True would pass as 1, 0.5 as an index
            if type(u) is not int or type(w) is not int:
                raise ValueError(f"edge ({u!r}, {w!r}): endpoints must be integers")
            if not (0 <= u < n and 0 <= w < n):
                raise ValueError(f"edge ({u}, {w}) out of range for {n} vertices")
            if type(label) is not str:
                raise ValueError(f"edge ({u}, {w}): label must be a string, got {label!r}")
            if text is not None and type(text) is not str:
                raise ValueError(f"edge ({u}, {w}): text must be a string or null, got {text!r}")
            if type(flag) is not bool:
                raise ValueError(f"edge ({u}, {w}): taken must be true or false, got {flag!r}")
            # each label's code is stored in a byte
            if code.setdefault(label, len(code)) > 255:
                raise ValueError(f"edge ({u}, {w}): a graph uses at most 256 labels, {len(LABELS)} of them built in")
            src.append(u)
            dst.append(w)
            labels.append(code[label])
            taken.append(flag)
            texts.append(text)
        spans: dict[int, list] = {}
        for v in obj.get("vertices", []):
            if not isinstance(v, dict):
                raise ValueError(f"vertex {v!r}: expected an object")
            vid, pairs = v.get("id"), v.get("spans", [])
            if type(vid) is not int or not 0 <= vid < n:
                raise ValueError(f"vertex {vid!r}: id must be an integer below {n}")
            if vid in spans:
                raise ValueError(f"vertex {vid}: listed twice in vertices")
            # each position is stored in a C int
            if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 and all(type(x) is int and abs(x) < 1 << 31 for x in p)
                for p in pairs
            ):
                raise ValueError(f"vertex {vid}: spans must be [line, column] pairs of 32-bit integers, got {pairs!r}")
            spans[vid] = pairs
        runs = [spans.get(v, ()) for v in range(n)]
        return cls(
            n,
            src,
            dst,
            bytes(labels),
            bytes(taken),
            texts,
            array("i", itertools.accumulate(map(len, runs), initial=0)),
            array("i", [line for run in runs for line, _ in run]),
            array("i", [column for run in runs for _, column in run]),
            obj.get("entry"),
            obj.get("exit"),
            tuple(specials) if specials is not None else None,
            tuple(code),
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
        names = self.label_names
        for u, w, label, text, taken in zip(self.src, self.dst, self.labels, self.texts, self.taken):
            shown = _dot_escape(text if text is not None else names[label])
            style = ""
            if names[label] == BRANCH and not taken:
                style = ", style=dashed"
            lines.append(f'  {u} -> {w} [label="{shown}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


# ---------------------------------------------------------------------------
# decomposition

# node kinds, by their code in `Decomposition.kinds`
KINDS = ("epsilon", "break", "continue", "series", "parallel", "loop")
EPSILON_NODE, BREAK_NODE, CONTINUE_NODE, SERIES_NODE, PARALLEL_NODE, LOOP_NODE = range(6)


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
    """Operation tree (post-order, root last) plus the finished CFG.

    The tree is stored flat, one entry per node in each array:
    ``kinds`` holds a `KINDS` code, ``left`` and ``right`` the children
    (-1 where there is none; a loop's one child is its left), and the
    four arrays of ``specials`` the S, T, B and C.  ``edges`` holds
    positions in the CFG's edge arrays, leaves and loops in node order: a
    leaf's one edge, and a loop's S->T, then S->S1, T1->S, C1->S and
    B1->T.  ``spans`` and ``texts`` share the parse tree's objects: an
    epsilon's text, or a parallel's or loop's guard, is its text, and
    ``collapsed`` holds a parallel node's edges that both operands have,
    S->T (1), S->B (2) and S->C (4).  `nodes` is derived from these.
    """

    cfg: Cfg
    kinds: bytes
    left: array
    right: array
    specials: tuple[array, array, array, array]
    edges: array
    spans: list[Span]
    texts: list[str | None]
    collapsed: bytes

    @property
    def root(self) -> int:
        return len(self.kinds) - 1

    @functools.cached_property
    def nodes(self) -> tuple[DecompNode, ...]:
        """Every node as a `DecompNode`, made on first use; the solver
        reads the arrays."""
        fields = zip(self.kinds, self.left, self.right, zip(*self.specials), self.spans, self.texts, self.collapsed)
        return tuple(
            DecompNode(
                KINDS[kind],
                tuple(c for c in (l, r) if c >= 0),
                (S, T, B, C),
                span,
                text if kind == EPSILON_NODE else None,
                text if kind in (PARALLEL_NODE, LOOP_NODE) else None,
                self.specials[1][l] if kind == SERIES_NODE else None,
                tuple(edge for bit, edge in ((1, (S, T)), (2, (S, B)), (4, (S, C))) if mask & bit),
            )
            for kind, l, r, (S, T, B, C), span, text, mask in fields
        )

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
    # (src, dst) -> position; the first edge wins, so a collapsed edge
    # keeps its left operand's label and text
    edge_at: dict[tuple[int, int], int] = {}
    src, dst, labels = array("i"), array("i"), bytearray()
    edge_texts: list[str | None] = []

    def position(u: int, w: int, label: str, text: str | None) -> int:
        at = edge_at.setdefault((u, w), len(labels))
        if at == len(labels):
            src.append(u)
            dst.append(w)
            labels.append(LABELS.index(label))
            edge_texts.append(text)
        return at

    kinds = bytearray()
    left, right, edges = array("i"), array("i"), array("i")
    specials = ss, ts, bs, cs = array("i"), array("i"), array("i"), array("i")
    spans: list[Span] = []
    texts: list[str | None] = []
    collapsed = bytearray()
    # the specials of each atom and loop, and its line and column
    owners, created_at = array("i"), array("i")
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
        S, T, B, C = ids[s], ids[t], ids[b], ids[c]
        l = r = -1
        text = None
        dups = 0
        if isinstance(node, lang.Seq):
            (r, rmask), (l, lmask) = results.pop(), results.pop()
            kind = SERIES_NODE
            # an S->B / S->C edge survives only from the left operand:
            # the right operand's S becomes the internal merge point
            mask = lmask & 6
        elif isinstance(node, lang.If):
            (r, rmask), (l, lmask) = results.pop(), results.pop()
            kind, text = PARALLEL_NODE, node.guard
            dups, mask = lmask & rmask, lmask | rmask
        elif isinstance(node, lang.Epsilon):
            kind, text, mask = EPSILON_NODE, node.text, 1
            edges.append(position(S, T, STMT, node.text))
        elif isinstance(node, lang.Break):
            kind, mask = BREAK_NODE, 2
            edges.append(position(S, B, BREAK, None))
            if b == 2:
                open_jumps.append(node.span)
        elif isinstance(node, lang.Continue):
            kind, mask = CONTINUE_NODE, 4
            edges.append(position(S, C, CONTINUE, None))
            if c == 3:
                open_jumps.append(node.span)
        elif isinstance(node, lang.While):
            l = results.pop()[0]
            s1, t1, b1, c1 = ss[l], ts[l], bs[l], cs[l]
            kind, text, mask = LOOP_NODE, node.guard, 1
            # the edges enter the map in this order, and the held S->T
            # is listed first
            enter = position(S, s1, LOOP_ENTER, node.guard)
            edges.extend(
                (
                    position(S, T, LOOP_EXIT, node.guard),
                    enter,
                    position(t1, S, LOOP_BACK, None),
                    position(c1, S, LOOP_BACK, None),
                    position(b1, T, LOOP_EXIT, None),
                )
            )
        else:
            raise TypeError(f"not a parse tree node: {node!r}")
        if creates:
            owners.extend((S, T, B, C))
            created_at.extend(node.span)
        results.append((len(kinds), mask))
        kinds.append(kind)
        left.append(l)
        right.append(r)
        ss.append(S)
        ts.append(T)
        bs.append(B)
        cs.append(C)
        spans.append(node.span)
        texts.append(text)
        collapsed.append(dups)

    if open_jumps:
        line, col = open_jumps[0]
        message = f"program is not closed: {len(open_jumps)} break/continue outside any loop (first at {line}:{col})"
        warnings.warn(OpenProgramWarning(message, tuple(open_jumps)), stacklevel=2)

    # relabel the out-edges of every vertex with two or more as
    # branches; the one to the lowest target falls through
    degree = bytearray(vertex_count)  # counted up to 2
    lowest = array("i", [vertex_count]) * vertex_count
    del edge_at
    for u, w in zip(src, dst):
        if degree[u] < 2:
            degree[u] += 1
        if w < lowest[u]:
            lowest[u] = w
    taken = bytearray(len(labels))
    for i, (u, w) in enumerate(zip(src, dst)):
        if degree[u] >= 2:
            labels[i] = _BRANCH_CODE
            taken[i] = w != lowest[u]

    root = ss[-1], ts[-1], bs[-1], cs[-1]
    cfg = Cfg(
        vertex_count,
        src,
        dst,
        bytes(labels),
        bytes(taken),
        edge_texts,
        *_vertex_spans(vertex_count, owners, created_at),
        entry=root[0],
        exit=root[1],
        specials=root,
    )
    return Decomposition(cfg, bytes(kinds), left, right, specials, edges, spans, texts, bytes(collapsed))


def _vertex_spans(vertex_count: int, owners: array, created_at: array) -> tuple[array, array, array]:
    """`Cfg`'s span arrays.  ``owners`` holds the four specials of each
    atom and loop in node order, and ``created_at`` each one's line and
    column; a vertex's spans are those of the nodes that own it, in
    node order."""
    owner = np.frombuffer(owners, np.intc)
    # a stable sort by vertex; each (line, column) pair moves as one
    # 8-byte item
    at = np.frombuffer(created_at, np.int64)[owner.argsort(kind="stable") >> 2].view(np.intc)
    starts = array("i", [0])
    starts.frombytes(np.bincount(owner, minlength=vertex_count).cumsum(dtype=np.intc).tobytes())
    return starts, array("i", at[0::2].tobytes()), array("i", at[1::2].tobytes())
