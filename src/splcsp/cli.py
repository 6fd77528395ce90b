"""Command-line front end.

Exit codes: 0 success, 1 usage/parse/input errors or a table too large
to allocate, 2 infeasible instance (minimum cost INFINITY), 3 `solve`
and the oracle disagree under ``--oracle-check``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from . import instances, lang, solver, spl
from .gen import GenConfig, gen_random_program


class _ArgumentParser(argparse.ArgumentParser):
    # usage errors are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# a parse-tree node's DOT label, from its JSON fields; break and
# continue are labelled with their kind
_DOT_LABELS = {"epsilon": "{text}", "seq": ";", "if": "if {guard}", "while": "while {guard}"}


def _tree_dot(tree: lang.Stmt) -> str:
    nodes = lang.tree_to_json(tree)["nodes"]
    lines = ["digraph parse {"]
    for i, node in enumerate(nodes):
        label = _DOT_LABELS.get(node["kind"], node["kind"]).format_map(node)
        lines.append(f'  {i} [label="{spl._dot_escape(label)}"];')
    for i, node in enumerate(nodes):
        lines += (f"  {i} -> {child};" for child in node.get("children", ()))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _warn_if_open(violations: tuple[lang.Span, ...]) -> None:
    # the one stderr line of every command that reads an open program
    if violations:
        line, col = violations[0]
        print(
            f"warning: program is not closed "
            f"({len(violations)} break/continue outside any loop, "
            f"first at {line}:{col})",
            file=sys.stderr,
        )


def _parse_ints(text: str, option: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [solver._vertex_key(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"expected V,V,... for {option}, got {text!r}") from None


def _edge_pair(text: str) -> tuple[int, int]:
    try:
        src, dst = map(solver._vertex_key, text.split(","))
    except ValueError:
        raise ValueError(f"expected SRC,DST for --taken, got {text!r}") from None
    return src, dst


def _load_program(path: str) -> spl.Decomposition:
    # the open jumps `decompose` finds are printed as `parse` prints
    # them, in place of Python's display of its warning
    tree = lang.parse_program(_read_text(path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", spl.OpenProgramWarning)
        decomp = spl.decompose(tree)
    for w in caught:
        if isinstance(w.message, spl.OpenProgramWarning):
            _warn_if_open(w.message.spans)
    return decomp


def _emit(args, sol: solver.Solution, decode=None, **fields) -> int:
    """Write the solution JSON to ``--out`` or stdout, with ``fields``
    and, when there is a witness, those ``decode(assignment)`` gives;
    the exit code is 2 if the minimum is INFINITY."""
    payload = {**sol.to_json(), **fields}
    if decode is not None and sol.assignment is not None:
        payload.update(decode(sol.assignment))
    text = _json_text(payload)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 2 if math.isinf(sol.min_cost) else 0


def _solve(args, decomp, instance, decode=None, **fields) -> int:
    """Solve, check the minimum against the oracle under
    ``--oracle-check`` (exit code 3 if they disagree), and write the
    solution as `_emit` does."""
    sol = solver.solve(instance, decomp)
    if args.oracle_check:
        check = solver.oracle_solve(instance, budget=args.budget)
        if check.min_cost != sol.min_cost:
            print(
                f"oracle mismatch: solve={sol.min_cost} oracle={check.min_cost}",
                file=sys.stderr,
            )
            return 3
    return _emit(args, sol, decode, **fields)


def _cmd_parse(args) -> int:
    tree = lang.parse_program(_read_text(args.file))
    _warn_if_open(lang.check_closed(tree).violations)
    if args.json:
        sys.stdout.write(_json_text(lang.tree_to_json(tree)))
    elif args.dot:
        sys.stdout.write(_tree_dot(tree))
    else:
        sys.stdout.write(lang.pretty_print(tree))
    return 0


def _cmd_cfg(args) -> int:
    decomp = _load_program(args.file)
    if args.dot:
        sys.stdout.write(decomp.cfg.to_dot())
    elif args.tree:
        sys.stdout.write(_json_text(decomp.to_json()))
    else:
        sys.stdout.write(_json_text(decomp.cfg.to_json()))
    return 0


def _cmd_solve(args) -> int:
    decomp = _load_program(args.file)
    obj = json.loads(_read_text(args.instance))
    return _solve(args, decomp, solver.instance_from_json(decomp.cfg, obj))


def _cmd_bank(args) -> int:
    decomp = _load_program(args.file)
    preassigned = {}
    for item in args.preassign or []:
        v, _, b = item.partition("=")
        try:
            preassigned[solver._vertex_key(v)] = solver._vertex_key(b)
        except ValueError:
            raise ValueError(f"expected V=B for --preassign, got {item!r}") from None
    taken = None
    if args.taken:
        taken = frozenset(map(_edge_pair, args.taken))
    spec = instances.BankSpec(
        banks=args.banks,
        preassigned=preassigned,
        c0=args.c0,
        c1=args.c1,
        taken_edges=taken,
        entry_unknown=not args.entry_known,
    )

    def decode(assignment) -> dict:
        return {"selected": {str(v): b for v, b in sorted(instances.decode_banks(spec, assignment).items())}}

    return _solve(args, decomp, instances.build_bank_selection(decomp.cfg, spec), decode, banks=args.banks)


def _cmd_lospre(args) -> int:
    decomp = _load_program(args.file)
    edge_costs = None
    if args.edge_cost != 1:
        edge_costs = dict.fromkeys(zip(decomp.cfg.src, decomp.cfg.dst), args.edge_cost)
    vertex_costs = None
    if args.vertex_cost:
        vertex_costs = {v: args.vertex_cost for v in range(decomp.cfg.vertex_count)}
    spec = instances.LospreSpec(
        use=frozenset(_parse_ints(args.use, "--use")),
        invalidating=frozenset(_parse_ints(args.invalidating, "--invalidating")),
        edge_costs=edge_costs,
        vertex_costs=vertex_costs,
    )

    def decode(assignment) -> dict:
        return {"members": sorted(v for v, a in assignment.items() if a == 1)}

    return _solve(args, decomp, instances.build_lospre(decomp.cfg, spec), decode)


def _cmd_regalloc(args) -> int:
    decomp = _load_program(args.file)
    lifetimes = {}
    for item in args.lifetime or []:
        var, sep, vs = item.partition("=")
        if not sep or not var:
            raise ValueError(f"expected VAR=V,V,... for --lifetime, got {item!r}")
        lifetimes[var] = frozenset(_parse_ints(vs, "--lifetime"))
    spec = instances.RegAllocSpec(
        lifetimes=lifetimes,
        registers=args.registers,
        switch_cost=args.switch_cost,
    )

    def decode(assignment) -> dict:
        decoded = instances.decode_placements(spec, assignment)
        return {"placements": {str(v): dict(sorted(p.items())) for v, p in sorted(decoded.items())}}

    return _solve(args, decomp, instances.build_regalloc(decomp.cfg, spec), decode)


def _cmd_coloring(args) -> int:
    graph = spl.Cfg.from_json(json.loads(_read_text(args.graph)))
    instance = instances.build_graph_coloring(graph, args.colors)
    sol = solver.oracle_solve(instance, budget=args.budget)
    return _emit(args, sol, colors=args.colors, conflicts=sol.to_json()["min_cost"])


def _cmd_gen(args) -> int:
    tree = gen_random_program(GenConfig(seed=args.seed, size=args.size))
    sys.stdout.write(lang.pretty_print(tree))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="splcsp",
        description="Constraint problems over control-flow graphs of structured programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)
    # options of the commands that write a solution, and of those that
    # also solve and can check the answer against the oracle
    written = argparse.ArgumentParser(add_help=False)
    written.add_argument(
        "--budget", type=int, default=solver.DEFAULT_ORACLE_BUDGET, help="oracle enumeration budget (default 2**24)"
    )
    written.add_argument("--out", help="write the solution JSON here instead of stdout")
    solved = argparse.ArgumentParser(add_help=False, parents=[written])
    solved.add_argument("--oracle-check", action="store_true")

    p = sub.add_parser("parse", help="parse a program and print it back")
    p.add_argument("file", help="program file, or - for stdin")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="print the parse tree as JSON")
    fmt.add_argument("--dot", action="store_true", help="print the parse tree as DOT")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("cfg", help="build the control-flow graph")
    p.add_argument("file")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="CFG as DOT instead of JSON")
    fmt.add_argument("--tree", action="store_true", help="decomposition tree as JSON")
    p.set_defaults(func=_cmd_cfg)

    p = sub.add_parser("solve", parents=[solved], help="minimize an instance over a program's CFG")
    p.add_argument("file")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bank", parents=[solved], help="memory bank selection")
    p.add_argument("file")
    p.add_argument("--banks", type=int, required=True)
    p.add_argument("--preassign", action="append", metavar="V=B")
    p.add_argument("--c0", type=int, default=1, help="selection cost off branches")
    p.add_argument("--c1", type=int, default=1, help="selection cost on taken branches")
    p.add_argument("--taken", action="append", metavar="SRC,DST", help="override taken edges")
    p.add_argument("--entry-known", action="store_true", help="do not pin the entry to unknown")
    p.set_defaults(func=_cmd_bank)

    p = sub.add_parser("lospre", parents=[solved], help="partial redundancy elimination placement")
    p.add_argument("file")
    p.add_argument("--use", required=True, metavar="V,V,...", help="vertices using the value")
    p.add_argument("--invalidating", default="", metavar="V,V,...")
    p.add_argument("--edge-cost", type=int, default=1)
    p.add_argument("--vertex-cost", type=int, default=0)
    p.set_defaults(func=_cmd_lospre)

    p = sub.add_parser("regalloc", parents=[solved], help="register allocation over lifetimes")
    p.add_argument("file")
    p.add_argument("--registers", type=int, required=True)
    p.add_argument("--lifetime", action="append", metavar="VAR=V,V,...", required=True)
    p.add_argument("--switch-cost", type=int, default=1)
    p.set_defaults(func=_cmd_regalloc)

    p = sub.add_parser("coloring", parents=[written], help="color an arbitrary digraph (exhaustive)")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--colors", type=int, required=True)
    p.set_defaults(func=_cmd_coloring)

    p = sub.add_parser("gen", help="generate a random program")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True, help="statement count")
    p.set_defaults(func=_cmd_gen)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (
        lang.ProgramSyntaxError, solver.BudgetExceededError, ValueError, KeyError, TypeError, OSError, MemoryError
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
