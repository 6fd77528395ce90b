"""Seeded structured programs, written as pretty-printed source text.

A program of ``size`` statements has a fixed make-up: ``round(0.15 *
size)`` while loops, as many if statements, ``round(0.05 * size)``
break/continue statements and assignments for the rest.  Only the
nesting is drawn at random.  The vertex count of the control-flow graph
and the number of decomposition nodes of each kind then depend on
``size`` alone, so the solver's work does too, and the benchmark's
figures stay steady from seed to seed.

The generator is the benchmark's own: it does not call the package, and
it predicts the CFG's vertex and edge counts from the series/parallel/
loop construction, which the checks compare with what `decompose`
returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

P_WHILE = 0.15
P_IF = 0.15
P_JUMP = 0.05
MAX_DEPTH = 40  # far below the nesting at which the parser recurses too deep


@dataclass(frozen=True)
class Program:
    text: str
    statements: int
    whiles: int
    ifs: int
    leaves: int  # assignments, breaks and continues
    vertices: int  # predicted CFG vertex count
    edges: int  # predicted CFG edge count

    @property
    def seqs(self) -> int:
        # one sequence per program, if arm and loop body; k items take k-1 Seq nodes
        return self.statements - (1 + 2 * self.ifs + self.whiles)

    @property
    def parse_nodes(self) -> int:
        """Parse-tree nodes (`count_nodes`), equal to decomposition nodes."""
        return self.statements + self.seqs


def _atom(rng: random.Random) -> tuple:
    return ("atom", f"v{rng.randrange(10)} := v{rng.randrange(10)} + {rng.randrange(100)}")


def _guard(rng: random.Random) -> str:
    return f"v{rng.randrange(10)} < {rng.randrange(100)}"


def _height(item: tuple) -> int:
    return item[-1] if item[0] in ("if", "while") else 0


def _sequences(items: list) -> list[list]:
    """Every statement list inside ``items``, ``items`` included."""
    out, stack = [], [items]
    while stack:
        seq = stack.pop()
        out.append(seq)
        for item in seq:
            if item[0] == "if":
                stack.extend((item[2], item[3]))
            elif item[0] == "while":
                stack.append(item[2])
    return out


def make_program(
    rng: random.Random,
    size: int,
    whiles: int | None = None,
    ifs: int | None = None,
    jumps: int | None = None,
) -> Program:
    """A closed program of exactly ``size`` statements; the counts of
    loops, ifs and jumps default to the fixed make-up above."""
    whiles = round(size * P_WHILE) if whiles is None else whiles
    ifs = round(size * P_IF) if ifs is None else ifs
    jumps = min(round(size * P_JUMP) if jumps is None else jumps, whiles)
    atoms = size - whiles - ifs - jumps
    if atoms < ifs + 1:
        raise ValueError(f"size {size} is too small for the fixed make-up")

    # Start from a flat list of assignments and wrap random runs of it
    # into if/while statements until the make-up is reached.  Jumps go
    # into the loops chosen below, at a random depth inside the body.
    items: list[tuple] = [_atom(rng) for _ in range(atoms)]
    kinds = ["if"] * ifs + ["while"] * whiles
    rng.shuffle(kinds)
    jump_loops = set(rng.sample(range(whiles), jumps)) if jumps else set()
    # mean run length beyond the minimum, chosen so that about 30% of
    # the assignments are left at the top level
    extra = max(0.0, (0.7 * atoms - ifs) / max(1, ifs + whiles))
    ifs_left = ifs
    loop_no = 0
    for kind in kinds:
        if kind == "if":
            ifs_left -= 1
        lo = 2 if kind == "if" else 1
        hi = len(items) - ifs_left  # keep enough items for the ifs still to come
        k = min(hi, lo + int(rng.expovariate(1 / extra))) if extra else lo
        for _ in range(32):
            start = rng.randrange(len(items) - k + 1)
            run = items[start : start + k]
            if max(_height(it) for it in run) < MAX_DEPTH:
                break
        else:
            raise RuntimeError("could not place a statement under the depth limit")
        height = 1 + max(_height(it) for it in run)
        if kind == "if":
            cut = rng.randint(1, k - 1)
            node = ("if", _guard(rng), run[:cut], run[cut:], height)
        else:
            if loop_no in jump_loops:
                target = rng.choice(_sequences(run))
                target.insert(rng.randint(0, len(target)), (rng.choice(("break", "continue")),))
            loop_no += 1
            node = ("while", _guard(rng), run, height)
        items[start : start + k] = [node]

    leaves = atoms + jumps
    vertices = size + 3 + 3 * whiles - 2 * ifs
    edges = leaves + 5 * whiles - _collapsed_edges(items)
    return Program(_render(items), size, whiles, ifs, leaves, vertices, edges)


def _collapsed_edges(items: list) -> int:
    """Edges merged away by parallel composition: an if whose two arms
    both have an S->T, S->B or S->C edge keeps one copy of each."""

    def seq_flags(seq: list) -> tuple[bool, bool, bool, int]:
        st, sb, sc, dups = stmt_flags(seq[0])
        for item in seq[1:]:
            dups += stmt_flags(item)[3]
            st = False  # series: S->T cannot survive; S->B/S->C come from the left
        return st, sb, sc, dups

    def stmt_flags(item: tuple) -> tuple[bool, bool, bool, int]:
        kind = item[0]
        if kind == "atom":
            return True, False, False, 0
        if kind == "break":
            return False, True, False, 0
        if kind == "continue":
            return False, False, True, 0
        if kind == "while":
            return True, False, False, seq_flags(item[2])[3]
        a, b = seq_flags(item[2]), seq_flags(item[3])
        both = sum(x and y for x, y in zip(a[:3], b[:3]))
        return a[0] or b[0], a[1] or b[1], a[2] or b[2], a[3] + b[3] + both

    return seq_flags(items)[3]


def _render(items: list) -> str:
    lines: list[str] = []

    def emit_seq(seq: list, depth: int) -> None:
        for i, item in enumerate(seq):
            emit(item, depth)
            if i < len(seq) - 1:
                lines[-1] += ";"

    def emit(item: tuple, depth: int) -> None:
        pad = "  " * depth
        kind = item[0]
        if kind == "atom":
            lines.append(pad + item[1])
        elif kind in ("break", "continue"):
            lines.append(pad + kind)
        elif kind == "if":
            lines.append(f"{pad}if {item[1]} then")
            emit_seq(item[2], depth + 1)
            lines.append(pad + "else")
            emit_seq(item[3], depth + 1)
            lines.append(pad + "fi")
        else:
            lines.append(f"{pad}while {item[1]} do")
            emit_seq(item[2], depth + 1)
            lines.append(pad + "od")

    emit_seq(items, 0)
    return "\n".join(lines) + "\n"
