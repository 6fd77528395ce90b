"""Parser and pretty-printer for a structured goto-free mini-language.

Programs are sequences of statements built from opaque atoms, ``break``,
``continue``, two-armed conditionals and while loops::

    stmt ::= atom-run | break | continue
           | if <guard> then <seq> else <seq> fi
           | while <guard> do <seq> od
    seq  ::= stmt (';' stmt)*

Atom runs and guards are opaque: any run of tokens that are not keywords
or ``;``.  ``#`` starts a line comment.  There is no one-armed ``if``;
write an explicit ``else skip`` (``skip`` is just another atom).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Iterator, NamedTuple

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


# Every parse-tree class takes ``==``, ``hash`` and ``repr`` from
# `Stmt`, which walk the tree with an explicit stack and give what the
# generated dataclass methods give; those recurse once per nesting
# level, so a deep program would raise RecursionError.
_node = dataclass(frozen=True, eq=False, repr=False)


@functools.cache
def _compared(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.compare)


class _Hashed:
    """Stands in for a subtree whose hash is known, so a tuple holding
    it hashes like the tuple holding the subtree."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self) -> int:
        return self.value


@_node
class Stmt:
    """Base class for parse-tree nodes.

    ``span`` records where the node started in the source and is excluded
    from equality so structurally identical trees compare equal.
    """

    span: Span = field(default=(1, 1), compare=False, kw_only=True)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if isinstance(a, Stmt) or isinstance(b, Stmt):
                if a.__class__ is not b.__class__:
                    return False
                names = _compared(a.__class__)
                stack.extend(zip([getattr(a, n) for n in names], [getattr(b, n) for n in names]))
            elif not a == b:
                return False
        return True

    def __hash__(self) -> int:
        # children first: a node hashes as the tuple of its compared
        # fields, with each subtree's hash standing in for the subtree
        known: dict[int, int] = {}
        stack = [self]
        while stack:
            node = stack[-1]
            values = [getattr(node, n) for n in _compared(node.__class__)]
            pending = [v for v in values if isinstance(v, Stmt) and id(v) not in known]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            known[id(node)] = hash(
                tuple(_Hashed(known[id(v)]) if isinstance(v, Stmt) else v for v in values)
            )
        return known[id(self)]

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
    left: "Stmt"
    right: "Stmt"


@_node
class If(Stmt):
    guard: str
    then_branch: "Stmt"
    else_branch: "Stmt"


@_node
class While(Stmt):
    guard: str
    body: "Stmt"


ParseTree = Stmt


def children(node: Stmt) -> tuple[Stmt, ...]:
    """Immediate subtrees of a node, left to right."""
    if isinstance(node, Seq):
        return (node.left, node.right)
    if isinstance(node, If):
        return (node.then_branch, node.else_branch)
    if isinstance(node, While):
        return (node.body,)
    return ()


def walk(tree: Stmt) -> Iterator[Stmt]:
    """Yield every node of ``tree`` in preorder, iteratively."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def count_nodes(tree: Stmt) -> int:
    """Number of parse-tree nodes, sequencing nodes included."""
    return sum(1 for _ in walk(tree))


def count_statements(tree: Stmt) -> int:
    """Number of statements: every node except sequencing nodes."""
    return sum(1 for n in walk(tree) if not isinstance(n, Seq))


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
        if isinstance(node, (Break, Continue)):
            if not in_loop:
                violations.append(node.span)
        elif isinstance(node, Seq):
            stack.append((node.right, in_loop))
            stack.append((node.left, in_loop))
        elif isinstance(node, If):
            stack.append((node.else_branch, in_loop))
            stack.append((node.then_branch, in_loop))
        elif isinstance(node, While):
            stack.append((node.body, True))
    return ClosednessReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# tokenizer


class _Token(NamedTuple):
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        hash_at = line.find("#")
        if hash_at >= 0:
            line = line[:hash_at]
        col = 0
        n = len(line)
        while col < n:
            ch = line[col]
            if ch.isspace():
                col += 1
            elif ch == ";":
                tokens.append(_Token(";", lineno, col + 1))
                col += 1
            else:
                start = col
                while col < n and not line[col].isspace() and line[col] != ";":
                    col += 1
                tokens.append(_Token(line[start:col], lineno, start + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1]
            raise ProgramSyntaxError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._peek()
        if tok is None or tok.text != text:
            if tok is None:
                last = self.tokens[-1]
                raise ProgramSyntaxError(
                    f"expected '{text}', got end of input", last.line, last.col
                )
            raise ProgramSyntaxError(
                f"expected '{text}', got '{tok.text}'", tok.line, tok.col
            )
        return self._next()

    def _guard_until(self, stop: str) -> str:
        # guard = run of plain tokens terminated by `stop`
        words = []
        while True:
            tok = self._peek()
            if tok is None:
                last = self.tokens[-1]
                raise ProgramSyntaxError(
                    f"expected '{stop}' after guard, got end of input",
                    last.line,
                    last.col,
                )
            if tok.text == stop:
                self._next()
                break
            if tok.text in KEYWORDS or tok.text == ";":
                raise ProgramSyntaxError(
                    f"expected '{stop}' after guard, got '{tok.text}'",
                    tok.line,
                    tok.col,
                )
            words.append(self._next().text)
        if not words:
            tok = self.tokens[self.pos - 1]
            raise ProgramSyntaxError("empty guard", tok.line, tok.col)
        return " ".join(words)

    def parse_seq(self) -> Stmt:
        """Parse one sequence.  Open ``if`` and ``while`` statements wait
        on an explicit stack, so nesting depth is not bounded by Python's
        recursion limit."""
        # the innermost open sequence: the keyword that closes it (None
        # for the outermost), its statement's span and guard, a finished
        # then-branch, and the sequence so far
        closing = span = guard = then = seq = None
        enclosing: list[tuple] = []
        while True:
            tok = self._peek()
            if tok is None:
                last = self.tokens[-1]
                raise ProgramSyntaxError(
                    "expected a statement, got end of input", last.line, last.col
                )
            if tok.text == "if" or tok.text == "while":
                self._next()
                enclosing.append((closing, span, guard, then, seq))
                if tok.text == "if":
                    closing, guard = "else", self._guard_until("then")
                else:
                    closing, guard = "od", self._guard_until("do")
                span, then, seq = (tok.line, tok.col), None, None
                continue
            stmt = self._simple_stmt(tok)
            # append the statement, then close every construct whose
            # body ends with it
            while True:
                seq = stmt if seq is None else Seq(seq, stmt, span=seq.span)
                tok = self._peek()
                if tok is not None and tok.text == ";":
                    self._next()
                    break
                if closing is None:
                    return seq
                self._expect(closing)
                if closing == "else":
                    closing, then, seq = "fi", seq, None
                    break
                if closing == "fi":
                    stmt = If(guard, then, seq, span=span)
                else:
                    stmt = While(guard, seq, span=span)
                closing, span, guard, then, seq = enclosing.pop()

    def _simple_stmt(self, tok: _Token) -> Stmt:
        """An atom run, ``break`` or ``continue`` starting at ``tok``."""
        span = (tok.line, tok.col)
        if tok.text == "break":
            self._next()
            return Break(span=span)
        if tok.text == "continue":
            self._next()
            return Continue(span=span)
        if tok.text in KEYWORDS or tok.text == ";":
            raise ProgramSyntaxError(f"unexpected '{tok.text}'", tok.line, tok.col)
        words = []
        while True:
            t = self._peek()
            if t is None or t.text in KEYWORDS or t.text == ";":
                break
            words.append(self._next().text)
        return Epsilon(" ".join(words), span=span)


def parse_program(source: str) -> Stmt:
    """Parse source text into a tree; sequencing associates left.

    Raises `EmptyInputError` on input with no tokens and
    `ProgramSyntaxError` (with 1-based line/column) on malformed input.
    """
    tokens = _tokenize(source)
    if not tokens:
        raise EmptyInputError()
    parser = _Parser(tokens)
    tree = parser.parse_seq()
    trailing = parser._peek()
    if trailing is not None:
        raise ProgramSyntaxError(
            f"unexpected '{trailing.text}' after program", trailing.line, trailing.col
        )
    return tree


# ---------------------------------------------------------------------------
# pretty-printer


def pretty_print(tree: Stmt, indent: str = "  ") -> str:
    """Render a tree in canonical form: one statement per line,
    ``;`` at line ends, bodies indented one level.

    Parsing the output yields a tree equal to the input (spans aside).
    """
    lines: list[str] = []
    # work items: (statement or literal line, depth, text after it); in
    # a sequence, ';' follows the left part
    stack: list[tuple[Stmt | str, int, str]] = [(tree, 0, "")]
    while stack:
        node, depth, end = stack.pop()
        pad = indent * depth
        if isinstance(node, str):
            lines.append(pad + node + end)
        elif isinstance(node, Epsilon):
            lines.append(pad + node.text + end)
        elif isinstance(node, Break):
            lines.append(pad + "break" + end)
        elif isinstance(node, Continue):
            lines.append(pad + "continue" + end)
        elif isinstance(node, If):
            lines.append(pad + f"if {node.guard} then")
            stack.append(("fi", depth, end))
            stack.append((node.else_branch, depth + 1, ""))
            stack.append(("else", depth, ""))
            stack.append((node.then_branch, depth + 1, ""))
        elif isinstance(node, While):
            lines.append(pad + f"while {node.guard} do")
            stack.append(("od", depth, end))
            stack.append((node.body, depth + 1, ""))
        else:
            stack.append((node.right, depth, end))
            stack.append((node.left, depth, ";"))
    return "\n".join(lines) + "\n"


def tree_to_json(tree: Stmt) -> dict:
    """Plain-dict form of a parse tree (for the CLI's --json output)."""
    done: dict[int, dict] = {}
    for node in reversed(list(walk(tree))):  # children before parents
        obj: dict = {"kind": "", "span": list(node.span)}
        if isinstance(node, Epsilon):
            obj["kind"] = "epsilon"
            obj["text"] = node.text
        elif isinstance(node, Break):
            obj["kind"] = "break"
        elif isinstance(node, Continue):
            obj["kind"] = "continue"
        elif isinstance(node, Seq):
            obj["kind"] = "seq"
        elif isinstance(node, If):
            obj["kind"] = "if"
            obj["guard"] = node.guard
        elif isinstance(node, While):
            obj["kind"] = "while"
            obj["guard"] = node.guard
        else:
            raise TypeError(f"not a parse tree node: {node!r}")
        kids = children(node)
        if kids:
            obj["children"] = [done[id(c)] for c in kids]
        done[id(node)] = obj
    return done[id(tree)]
