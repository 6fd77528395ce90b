"""Seeded random programs and random PCSP instances."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import lang
from .solver import INFINITY, PcspInstance
from .spl import Cfg


@dataclass(frozen=True)
class GenConfig:
    """Random-program parameters.

    ``size`` is the exact statement count of the result (sequencing
    nodes do not count).  The p_* weights pick the production at each
    site and are renormalized over whatever is grammatical there:
    break/continue only occur inside a loop and only as leaves, if
    needs a budget of 3, while of 2, and a site at ``max_depth`` or
    deeper only sequences.  At leaves the structural mass
    p_seq + p_if + p_while goes to plain statements.  A site whose
    choices all weigh 0 raises a `ValueError` naming the weights, such
    as p_seq past ``max_depth``.  Any depth is fine: the generator
    keeps an explicit stack.
    """

    seed: int
    size: int
    p_seq: float = 0.40
    p_if: float = 0.25
    p_while: float = 0.20
    p_break: float = 0.075
    p_continue: float = 0.075
    max_depth: int = 60


def gen_random_program(config: GenConfig) -> lang.Stmt:
    """Deterministic in ``config``; always closed; statement count is
    exactly ``config.size``.

    Sequences come out left-associated, like the parser builds them,
    so pretty-printing and re-parsing reproduces the tree.
    """
    if config.size < 1:
        raise ValueError("size must be at least 1")
    rng = random.Random(config.seed)

    # the GenConfig weights that each production's weight sums
    weighs = {
        "eps": ("p_seq", "p_if", "p_while"),
        "break": ("p_break",),
        "continue": ("p_continue",),
        "seq": ("p_seq",),
        "if": ("p_if",),
        "while": ("p_while",),
    }
    weight = {kind: sum(getattr(config, name) for name in names) for kind, names in weighs.items()}

    def choose(*kinds: str) -> str:
        weights = [weight[kind] for kind in kinds]
        if not sum(weights) > 0:
            named = " + ".join(name for kind in kinds for name in weighs[kind])
            raise ValueError(f"{named} must be positive where only {' or '.join(kinds)} can go")
        return rng.choices(kinds, weights)[0]

    def atom() -> lang.Stmt:
        return lang.Epsilon(f"v{rng.randrange(10)} := {rng.randrange(100)}")

    def guard() -> str:
        return f"v{rng.randrange(10)} < {rng.randrange(100)}"

    def leaf(in_loop: bool) -> lang.Stmt:
        kind = choose("eps", "break", "continue") if in_loop else choose("eps")
        if kind == "break":
            return lang.Break()
        if kind == "continue":
            return lang.Continue()
        return atom()

    # `statement` and `build` are generators: each yields the generator
    # of every part it needs, and is sent that part once it is made
    def statement(budget: int, in_loop: bool, depth: int):
        # a single non-sequence statement of exactly `budget` statements
        if budget == 1:
            return leaf(in_loop)
        if budget == 2:
            return lang.While(guard(), (yield build(1, True, depth + 1)))
        if choose("if", "while") == "if":
            then_budget = rng.randint(1, budget - 2)
            return lang.If(
                guard(),
                (yield build(then_budget, in_loop, depth + 1)),
                (yield build(budget - 1 - then_budget, in_loop, depth + 1)),
            )
        return lang.While(guard(), (yield build(budget - 1, True, depth + 1)))

    def build(budget: int, in_loop: bool, depth: int):
        if budget == 1:
            return leaf(in_loop)
        if depth >= config.max_depth:
            kind = choose("seq")
        else:
            kind = choose("seq", "while", "if") if budget >= 3 else choose("seq", "while")
        if kind != "seq":
            return (yield statement(budget, in_loop, depth))
        # sequence: split the budget into two or more statements and
        # fold them left-associatively
        if depth + 1 >= config.max_depth:
            parts = [1] * budget
        else:
            parts = [rng.randint(1, budget - 1)]
            remaining = budget - parts[0]
            while remaining:
                take = rng.randint(1, remaining)
                parts.append(take)
                remaining -= take
        node = yield statement(parts[0], in_loop, depth + 1)
        for part in parts[1:]:
            node = lang.Seq(node, (yield statement(part, in_loop, depth + 1)))
        return node

    # the generators waiting on a part, innermost last: the nesting
    # lives here, not on Python's call stack
    stack, made = [build(config.size, False, 0)], None
    while stack:
        try:
            stack.append(stack[-1].send(made))
            made = None
        except StopIteration as done:
            stack.pop()
            made = done.value
    return made


def random_instance(
    cfg: Cfg,
    domain_size: int,
    seed: int,
    low: int = 0,
    high: int = 10,
    inf_prob: float = 0.1,
    restrict_prob: float = 0.2,
) -> PcspInstance:
    """Random integer costs in [low, high] on every edge and vertex,
    INFINITY edge entries with probability ``inf_prob``, and with
    probability ``restrict_prob`` a random non-empty allowed set: a
    size uniform in 1..d, and the first that many values of a random
    order of the domain.  Each kind of draw is one call for the whole
    instance."""
    rng = np.random.default_rng(seed)
    d, n = domain_size, cfg.vertex_count
    edge_costs = rng.integers(low, high + 1, size=(len(cfg.src), d, d)).astype(float)
    if inf_prob > 0:
        edge_costs[rng.random(edge_costs.shape) < inf_prob] = INFINITY
    vertex_costs = rng.integers(low, high + 1, size=(n, d)).astype(float)
    restricted = np.flatnonzero(rng.random(n) < restrict_prob)
    sizes = rng.integers(1, d + 1, size=len(restricted))
    order = rng.random((len(restricted), d)).argsort(axis=1)
    allowed = {v: sorted(row[:k].tolist()) for v, k, row in zip(restricted.tolist(), sizes.tolist(), order)}
    return PcspInstance(cfg, d, edge_costs, vertex_costs, allowed)
