"""Parser and pretty-printer for a structured goto-free mini-language.

Programs are sequences of statements built from opaque atoms, ``break``,
``continue``, two-armed conditionals and while loops::

    stmt ::= atom-run | break | continue
           | if <guard> then <seq> else <seq> fi
           | while <guard> do <seq> od
    seq  ::= stmt (';' stmt)*

A token is ``;`` or a maximal run of characters that are neither
whitespace (``str.isspace``) nor ``;``; ``#`` cuts the rest of its line,
even in the middle of a token.  Atom runs and guards are opaque: any run
of tokens that are not keywords or ``;``.  There is no one-armed ``if``;
write an explicit ``else skip`` (``skip`` is just another atom).

A parse-tree class states its structure once, in its dataclass fields:
those annotated `Stmt` are its subtrees, the others its values.
`children` reads the subtrees and `walk` the preorder; ``==``,
``hash``, `check_closed` and `tree_to_json` read the tree through
those two, with no per-class code.  `pretty_print`, ``repr`` and the
parser keep their own, and nothing here recurses.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, fields
from typing import Iterator

KEYWORDS = frozenset(
    ["if", "then", "else", "fi", "while", "do", "od", "break", "continue"]
)

Span = tuple[int, int]  # (line, column), 1-based


class ProgramSyntaxError(SyntaxError):
    """Raised on malformed input; carries the offending source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class EmptyInputError(ProgramSyntaxError):
    """Raised when the source contains no statements at all."""

    def __init__(self):
        super().__init__("empty program", 1, 1)


# ---------------------------------------------------------------------------
# parse trees


# Parse-tree classes take ``==``, ``hash`` and ``repr`` from `Stmt`:
# the generated dataclass methods recurse once per nesting level, so a
# deep program would raise RecursionError.
_node = dataclass(frozen=True, eq=False, repr=False)


@functools.cache
def _layout(cls: type) -> tuple[tuple[str, bool], ...]:
    """Each compared field of a node class, and whether it holds a
    subtree: a field annotated `Stmt` does."""
    return tuple((f.name, f.type == "Stmt") for f in fields(cls) if f.compare)


class _Hashed:
    """Stands in for a subtree whose hash is known, so a tuple holding
    it hashes like the tuple holding the subtree."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self) -> int:
        return self.value


def _preorder(tree: Stmt) -> list[tuple]:
    """Each node's class and values, in preorder; a class has a fixed
    number of subtrees, so the list determines the tree."""
    return [(n.__class__, *[getattr(n, f) for f, sub in _layout(n.__class__) if not sub]) for n in walk(tree)]


@_node
class Stmt:
    """Base class for parse-tree nodes.

    ``span`` records where the node started in the source and is excluded
    from equality so structurally identical trees compare equal.
    A class's fields annotated `Stmt` are its subtrees, which
    `children` returns; ``==`` compares `walk`'s preorder of the two
    trees, and ``hash`` folds it, giving what the generated dataclass
    hash gives.
    """

    span: Span = field(default=(1, 1), compare=False, kw_only=True)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _preorder(self) == _preorder(other)

    def __hash__(self) -> int:
        # a node hashes as the tuple of its compared fields, each
        # subtree's hash standing in for the subtree; in reversed
        # preorder those come just before the node, first one on top
        hashes: list[int] = []
        for node in reversed(list(walk(self))):
            layout = _layout(node.__class__)
            hashes.append(hash(tuple([_Hashed(hashes.pop()) if sub else getattr(node, n) for n, sub in layout])))
        return hashes[0]

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, Stmt):
                out.append(item)
                continue
            pieces: list = [f"{item.__class__.__qualname__}("]
            for i, f in enumerate(fields(item)):
                value = getattr(item, f.name)
                pieces.append(f"{', ' if i else ''}{f.name}=")
                pieces.append(value if isinstance(value, Stmt) else repr(value))
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(out)


@_node
class Epsilon(Stmt):
    """An opaque atomic statement such as ``x := x - y``."""

    text: str


@_node
class Break(Stmt):
    pass


@_node
class Continue(Stmt):
    pass


@_node
class Seq(Stmt):
    left: Stmt
    right: Stmt


@_node
class If(Stmt):
    guard: str
    then_branch: Stmt
    else_branch: Stmt


@_node
class While(Stmt):
    guard: str
    body: Stmt


def children(node: Stmt) -> tuple[Stmt, ...]:
    """Immediate subtrees of a node, left to right."""
    if not isinstance(node, Stmt):
        raise TypeError(f"not a parse tree node: {node!r}")
    return tuple([getattr(node, n) for n, sub in _layout(node.__class__) if sub])


def walk(tree: Stmt) -> Iterator[Stmt]:
    """Yield every node of ``tree`` in preorder, iteratively."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


# ---------------------------------------------------------------------------
# closedness


@dataclass(frozen=True)
class ClosednessReport:
    """Result of `check_closed`: break/continue outside any loop."""

    is_closed: bool
    violations: tuple[Span, ...]


def check_closed(tree: Stmt) -> ClosednessReport:
    """Report every ``break``/``continue`` not enclosed by a ``while``.

    Violations come back in source (preorder) order.
    """
    violations: list[Span] = []
    stack: list[tuple[Stmt, bool]] = [(tree, False)]
    while stack:
        node, in_loop = stack.pop()
        if isinstance(node, (Break, Continue)) and not in_loop:
            violations.append(node.span)
        in_loop = in_loop or isinstance(node, While)
        stack.extend((child, in_loop) for child in reversed(children(node)))
    return ClosednessReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# parser

_TOKEN = re.compile(r"[^\s;]+|;")
# what ends an atom run or a guard: "" is the end-of-input sentinel
_STOP = KEYWORDS | {";", ""}


def parse_program(source: str) -> Stmt:
    """Parse source text into a tree; sequencing associates left.

    Raises `EmptyInputError` on input with no tokens and
    `ProgramSyntaxError` (with 1-based line/column) on malformed input.
    Open ``if`` and ``while`` statements wait on an explicit stack, so
    nesting depth is not bounded by Python's recursion limit.
    """
    texts: list[str] = []
    spans: list[Span] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        for m in _TOKEN.finditer(line.partition("#")[0]):
            texts.append(m.group())
            spans.append((lineno, m.start() + 1))
    if not texts:
        raise EmptyInputError()
    # the sentinel stands at the last token, where an end-of-input error points
    texts.append("")
    spans.append(spans[-1])

    def error(message: str, at: int) -> ProgramSyntaxError:
        return ProgramSyntaxError(message, *spans[at])

    def got(at: int) -> str:
        return f"'{texts[at]}'" if texts[at] else "end of input"

    pos = 0
    # the innermost open sequence: the keyword that closes it (None for
    # the outermost), its statement's span and guard, a finished
    # then-branch, and the sequence so far
    closing = span = guard = then = seq = None
    enclosing: list[tuple] = []
    while True:
        text = texts[pos]
        if text == "if" or text == "while":
            stop = "then" if text == "if" else "do"
            start = pos = pos + 1
            while texts[pos] not in _STOP:
                pos += 1
            if texts[pos] != stop:
                raise error(f"expected '{stop}' after guard, got {got(pos)}", pos)
            if pos == start:
                raise error("empty guard", pos)
            enclosing.append((closing, span, guard, then, seq))
            closing = "else" if text == "if" else "od"
            span, guard, then, seq = spans[start - 1], " ".join(texts[start:pos]), None, None
            pos += 1
            continue
        if text == "break":
            stmt: Stmt = Break(span=spans[pos])
            pos += 1
        elif text == "continue":
            stmt = Continue(span=spans[pos])
            pos += 1
        elif not text:
            raise error("expected a statement, got end of input", pos)
        elif text in _STOP:
            raise error(f"unexpected '{text}'", pos)
        else:
            start = pos
            while texts[pos] not in _STOP:
                pos += 1
            stmt = Epsilon(" ".join(texts[start:pos]), span=spans[start])
        # append the statement, then close every construct whose body
        # ends with it
        while True:
            seq = stmt if seq is None else Seq(seq, stmt, span=seq.span)
            text = texts[pos]
            if text == ";":
                pos += 1
                break
            if closing is None:
                if text:
                    raise error(f"unexpected '{text}' after program", pos)
                return seq
            if text != closing:
                raise error(f"expected '{closing}', got {got(pos)}", pos)
            pos += 1
            if closing == "else":
                closing, then, seq = "fi", seq, None
                break
            if closing == "fi":
                stmt = If(guard, then, seq, span=span)
            else:
                stmt = While(guard, seq, span=span)
            closing, span, guard, then, seq = enclosing.pop()


# ---------------------------------------------------------------------------
# pretty-printer


def _printed(text: str, what: str) -> str:
    """``text`` itself, if the parser reads it back as one atom or
    guard: non-empty tokens joined by single spaces, with no ``#``,
    ``;`` or keyword."""
    tokens = _TOKEN.findall(text)
    if not tokens or " ".join(tokens) != text or "#" in text or not _STOP.isdisjoint(tokens):
        raise ValueError(
            f"{what} {text!r} would not parse back: it must be tokens joined by single spaces, "
            "with no '#', ';' or keyword"
        )
    return text


def pretty_print(tree: Stmt) -> str:
    """Render a tree in canonical form: one statement per line,
    ``;`` at line ends, bodies indented two spaces a level.

    Parsing the output yields a tree equal to the input (spans aside):
    an atom's text or a guard that would not read back as itself raises
    a `ValueError` naming it (see `_printed`).
    """
    lines: list[str] = []
    # work items: (statement or literal line, depth, text after it); in
    # a sequence, ';' follows the left part
    stack: list[tuple[Stmt | str, int, str]] = [(tree, 0, "")]
    while stack:
        node, depth, end = stack.pop()
        pad = "  " * depth
        if isinstance(node, str):
            lines.append(pad + node + end)
        elif isinstance(node, Epsilon):
            lines.append(pad + _printed(node.text, "atom") + end)
        elif isinstance(node, Break):
            lines.append(pad + "break" + end)
        elif isinstance(node, Continue):
            lines.append(pad + "continue" + end)
        elif isinstance(node, If):
            lines.append(pad + f"if {_printed(node.guard, 'guard')} then")
            stack.append(("fi", depth, end))
            stack.append((node.else_branch, depth + 1, ""))
            stack.append(("else", depth, ""))
            stack.append((node.then_branch, depth + 1, ""))
        elif isinstance(node, While):
            lines.append(pad + f"while {_printed(node.guard, 'guard')} do")
            stack.append(("od", depth, end))
            stack.append((node.body, depth + 1, ""))
        else:
            stack.append((node.right, depth, end))
            stack.append((node.left, depth, ";"))
    return "\n".join(lines) + "\n"


def tree_to_json(tree: Stmt) -> dict:
    """Plain-dict form of a parse tree (for the CLI's --json output):
    the nodes in `walk` preorder, so ``root`` is 0, each with its kind
    (its class's name, lowercased), its span, and its compared fields:
    a subtree listed by index in ``children``, any other field under
    its own name."""
    order = list(walk(tree))
    nodes: list[dict] = []
    # in reversed preorder a node's subtrees come just before it, the
    # first one's index on top of `done`
    done: list[int] = []
    for i in reversed(range(len(order))):
        node = order[i]
        layout = _layout(node.__class__)
        obj: dict = {"kind": node.__class__.__name__.lower(), "span": list(node.span)}
        obj.update((name, getattr(node, name)) for name, sub in layout if not sub)
        kids = [done.pop() for _, sub in layout if sub]
        if kids:
            obj["children"] = kids
        nodes.append(obj)
        done.append(i)
    return {"nodes": nodes[::-1], "root": 0}
