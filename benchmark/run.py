"""Benchmark of the splcsp pipeline: program text -> parse -> decompose ->
build -> solve -> checked answer, on four seeded workloads.

Run from the root of a checkout of the repository:

    python3 benchmark/run.py --workload pipeline-small-d --seed 1 --seconds 10 --trace 0
    python3 benchmark/run.py --workload json-wide-d --seed 1 --seconds 10 --trace 1
    python3 benchmark/run.py --workload regalloc-sparse --seed 100 --repeat 10

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run, and ``--repeat N`` runs seeds
``seed .. seed+N-1`` one after another and prints each metric's median
and quartiles.  The last line of a single run is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from checks import CheckFailed
from tracing import OPERATION, Tracer, layer_of, plain_api
from workloads import ORACLE_SWITCH, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up (import, input generation, one warm-up operation) is repeated
# this many times per run and its median reported
SETUP_REPEATS = 5
MIB = 1 << 20

END_TO_END = [
    ("setup_s", "s"),
    ("stmts_per_s", "statements/s"),
    ("latency_ms.p50", "ms"),
    ("peak_mem_mb", "MiB"),
]

PER_LAYER = [
    ("lang.parse_program.self_s", "s"),
    ("lang.parse_program.nodes_per_s", "nodes/s"),
    ("spl.decompose.self_s", "s"),
    ("spl.decompose.nodes_per_s", "nodes/s"),
    ("instances.build.self_s", "s"),
    ("instances.build.cells_per_s", "cells/s"),
    ("solver.PcspInstance.self_s", "s"),
    ("json.loads.self_s", "s"),
    ("solver.instance_from_json.self_s", "s"),
    ("solver.instance_from_json.cells_per_s", "cells/s"),
    ("solver.solve.self_s", "s"),
    ("solver.solve.nodes_per_s", "nodes/s"),
    ("solver.solve.loop_nodes", "count"),
    ("solver.solve.series_nodes", "count"),
    ("solver.solve.parallel_nodes", "count"),
    ("solver.solve.leaf_nodes", "count"),
    ("solver.solve.dense_cells", "cells"),
    ("solver.solve.allowed_fill", "share"),
    ("solver.solve.peak_mb", "MiB"),
    ("solver.evaluate.self_s", "s"),
    ("solver.oracle_solve.self_s", "s"),
    ("solver.oracle_solve.combos", "count"),
    ("solver.oracle_solve.small_combos_per_s", "combos/s"),
    ("solver.oracle_solve.chunked_combos_per_s", "combos/s"),
    ("trace.overhead_s", "s"),
    ("trace.residual_s", "s"),
]

# per-layer rate -> (layer whose self time divides, work count)
RATES = {
    "lang.parse_program.nodes_per_s": ("lang.parse_program", "parse_nodes"),
    "spl.decompose.nodes_per_s": ("spl.decompose", "parse_nodes"),
    "instances.build.cells_per_s": ("instances.build", "build_cells"),
    "solver.instance_from_json.cells_per_s": ("solver.instance_from_json", "json_cells"),
    "solver.solve.nodes_per_s": ("solver.solve", "solve_nodes"),
}


def load_package():
    """Import splcsp from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "splcsp" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {SRC / 'splcsp'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import splcsp

    if Path(splcsp.__file__).resolve().parent != SRC / "splcsp":
        sys.exit(f"benchmark: imported splcsp from {splcsp.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Wall time of ``import splcsp`` in a fresh interpreter."""
    code = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import splcsp; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True, timeout=120
    )
    return float(proc.stdout.strip())


def _signature(result) -> tuple:
    """An operation's answer: the CFG's size and every `Solution`."""
    cfg = result[0]
    parts = [(cfg.vertex_count, len(cfg.edges))]
    for item in result[1:]:
        if hasattr(item, "min_cost"):
            assignment = item.assignment
            parts.append((item.min_cost, None if assignment is None else tuple(sorted(assignment.items()))))
    return tuple(parts)


class Verifier:
    """Runs the workload's checks on every answer.  An answer equal to
    one already checked for the same case passes without a second check;
    any other answer is checked in full."""

    def __init__(self, workload, evaluate):
        self.workload = workload
        self.evaluate = evaluate
        self.passed: dict[int, set] = {}
        self.failures = 0

    def __call__(self, index: int, case, result) -> bool:
        key = _signature(result)
        if key in self.passed.get(index, ()):
            return True
        try:
            self.workload.check(case, result, self.evaluate)
        except CheckFailed as exc:
            print(f"check failed: {self.workload.name} case {index}: {exc}", file=sys.stderr)
        except Exception:  # the package raised while its answer was checked
            traceback.print_exc()
        else:
            self.passed.setdefault(index, set()).add(key)
            return True
        self.failures += 1
        return False


def settle() -> None:
    """Collect garbage and move the cases out of the collector's reach,
    so the benchmark's own objects do not lengthen collections made
    during timed operations."""
    gc.collect()
    gc.freeze()


def run_ops(workload, cases, api, verify, seconds=None, rounds=None, tracer=None):
    """Whole rounds over the cases until ``seconds`` of operation time
    have passed (or for ``rounds`` rounds).  Checks run between
    operations, outside the timed intervals.  Returns per-operation
    latencies, rounds and failed operations."""
    latencies: list[float] = []
    busy = 0.0
    done = failed = 0
    while True:
        for index, case in enumerate(cases):
            scope = tracer.operation(len(latencies)) if tracer else nullcontext()
            t0 = perf_counter()
            try:
                with scope:
                    result = workload.run(api, case)
            except Exception:
                traceback.print_exc()
                result = None
            dt = perf_counter() - t0
            latencies.append(dt)
            busy += dt
            if result is None or not verify(index, case, result):
                failed += 1
            del result
        done += 1
        if (rounds is not None and done >= rounds) or (seconds is not None and busy >= seconds):
            return latencies, done, failed


def memory_pass(workload, cases, plain, verify):
    """The ``workload.memory_cases`` cases of largest
    ``workload.memory_weight``, once each under tracemalloc (which slows
    Python code several times over).  Returns the largest high-water of
    one operation and of one `solve` call, in MiB.  Answers are checked
    like any other."""
    peaks = {"op": 0, "solve": 0}

    def solve(*args, **kwargs):
        before, peak = tracemalloc.get_traced_memory()
        peaks["op"] = max(peaks["op"], peak)
        tracemalloc.reset_peak()
        try:
            return plain.solve(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            peaks["solve"] = max(peaks["solve"], peak - before)
            peaks["op"] = max(peaks["op"], peak)

    api = SimpleNamespace(**{**vars(plain), "solve": solve})
    op_peak = 0
    tracemalloc.start()
    try:
        heaviest = sorted(range(len(cases)), key=lambda i: workload.memory_weight(cases[i]), reverse=True)
        for index in heaviest[: workload.memory_cases]:
            case = cases[index]
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            peaks["op"] = 0
            result = workload.run(api, case)
            peaks["op"] = max(peaks["op"], tracemalloc.get_traced_memory()[1])
            op_peak = max(op_peak, peaks["op"] - base)
            verify(index, case, result)
            del result
    finally:
        tracemalloc.stop()
    return op_peak / MIB, peaks["solve"] / MIB


def end_to_end(workload, seed: int, seconds: float, plain):
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = perf_counter()
        cases = workload.make_cases(seed, plain)
        warm = workload.run(plain, cases[0])
        setups.append(imported + perf_counter() - t0)
    verify = Verifier(workload, plain.evaluate)
    verify(0, cases[0], warm)
    del warm
    settle()
    latencies, rounds, failed = run_ops(workload, cases, plain, verify, seconds=seconds)
    peak_op, _ = memory_pass(workload, cases, plain, verify)
    statements = rounds * sum(c.program.statements for c in cases)
    values = {
        "setup_s": statistics.median(setups),
        "stmts_per_s": statements / sum(latencies),
        "latency_ms.p50": 1000 * statistics.median(latencies),
        "peak_mem_mb": peak_op,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "stmts_per_s": f"{rounds} rounds of {len(cases)} operations",
        "latency_ms.p50": f"median of {len(latencies)} operations",
        "peak_mem_mb": f"largest of {workload.memory_cases} operations under tracemalloc",
    }
    return values, notes, len(latencies), failed, verify.failures


def per_layer(workload, seed: int, seconds: float, plain):
    cases = workload.make_cases(seed, plain)
    verify = Verifier(workload, plain.evaluate)
    verify(0, cases[0], workload.run(plain, cases[0]))
    settle()
    plain_lat, rounds, failed = run_ops(workload, cases, plain, verify, seconds=seconds / 2)

    tracer = Tracer()
    api = tracer.api(plain)
    traced_verify = Verifier(workload, api.evaluate)
    settle()
    traced_lat, _, traced_failed = run_ops(workload, cases, api, traced_verify, rounds=rounds, tracer=tracer)
    _, solve_peak = memory_pass(workload, cases, plain, verify)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-{seed}.json")

    ops = len(traced_lat)
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    oracle_time = {"small": 0.0, "chunked": 0.0}
    for (span_name, _, _, _, op), own in zip(tracer.spans, tracer.self_times()):
        layer = layer_of(span_name)
        self_total[layer] = self_total.get(layer, 0.0) + own
        calls[layer] = calls.get(layer, 0) + 1
        if layer == "solver.oracle_solve":
            combos = cases[op % len(cases)].work["combos"]
            oracle_time["small" if combos <= ORACLE_SWITCH else "chunked"] += own
    work: dict[str, float] = {}
    oracle_combos = {"small": 0, "chunked": 0}
    for case in cases:
        for key, value in case.work.items():
            work[key] = work.get(key, 0) + rounds * value
        if "combos" in case.work:
            combos = case.work["combos"]
            oracle_combos["small" if combos <= ORACLE_SWITCH else "chunked"] += rounds * combos

    def rate(amount, seconds_):
        return amount / seconds_ if seconds_ > 0 else 0.0

    values = {f"{layer}.self_s": self_total.get(layer, 0.0) / ops for layer in (
        "lang.parse_program", "spl.decompose", "instances.build", "solver.PcspInstance", "json.loads",
        "solver.instance_from_json", "solver.solve", "solver.evaluate", "solver.oracle_solve",
    )}
    for metric, (layer, key) in RATES.items():
        values[metric] = rate(work.get(key, 0), self_total.get(layer, 0.0))
    for kind in ("loop", "series", "parallel", "leaf"):
        values[f"solver.solve.{kind}_nodes"] = work.get(f"{kind}_nodes", 0) / ops
    values["solver.solve.dense_cells"] = work.get("dense_cells", 0) / ops
    values["solver.solve.allowed_fill"] = rate(work.get("allowed_pairs", 0), work.get("vertex_values", 0))
    values["solver.solve.peak_mb"] = solve_peak
    values["solver.oracle_solve.combos"] = work.get("combos", 0) / ops
    values["solver.oracle_solve.small_combos_per_s"] = rate(oracle_combos["small"], oracle_time["small"])
    values["solver.oracle_solve.chunked_combos_per_s"] = rate(oracle_combos["chunked"], oracle_time["chunked"])
    values["trace.overhead_s"] = (sum(traced_lat) - sum(plain_lat)) / ops
    values["trace.residual_s"] = self_total.get(OPERATION, 0.0) / ops

    print(f"traced {ops} operations ({rounds} rounds of {len(cases)}), per operation:")
    print(f"  {'layer':<28} {'calls':>7} {'self ms':>10} {'share':>7}")
    traced_ms = 1000 * sum(traced_lat) / ops
    for layer in sorted(self_total, key=lambda k: -self_total[k]):
        if layer == "solver.evaluate":
            continue  # called by the checks, between operations
        per_op_ms = 1000 * self_total[layer] / ops
        print(f"  {layer:<28} {calls[layer] / ops:>7.2f} {per_op_ms:>10.3f} {per_op_ms / traced_ms:>7.1%}")
    print(f"  {'(traced wall time)':<28} {'':>7} {traced_ms:>10.3f}")
    oracle_total = oracle_time["small"] + oracle_time["chunked"]
    if oracle_total:
        print(f"  oracle self time: {oracle_time['small'] / oracle_total:.1%} at or below "
              f"{ORACLE_SWITCH} combinations, {oracle_time['chunked'] / oracle_total:.1%} above")
    attempted = len(plain_lat) + ops
    return values, attempted, failed + traced_failed, verify.failures + traced_verify.failures


def single_run(args) -> int:
    load_package()
    workload = WORKLOADS[args.workload]
    plain = plain_api()
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    if args.trace:
        values, attempted, failed, check_failures = per_layer(workload, args.seed, args.seconds, plain)
        units, notes = PER_LAYER, {}
    else:
        values, notes, attempted, failed, check_failures = end_to_end(workload, args.seed, args.seconds, plain)
        units = END_TO_END
    for metric, unit in units:
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:<42} {values[metric]:>14.6g} {unit}{note}")
    print(f"  attempted {attempted}, failed {failed}")
    result = {
        "correct": check_failures == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units},
    }
    print(json.dumps(result))
    return 0


def steady(args) -> int:
    """Run seeds seed .. seed+repeat-1 and print each metric's spread."""
    runs = []
    for seed in range(args.seed, args.seed + args.repeat):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        shown = ", ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
        print(f"seed {seed} ({perf_counter() - t0:.1f} s wall): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {shown}", flush=True)
    print(f"{args.workload}: {args.repeat} runs, median [q1, q3] and (q3-q1)/median")
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"  {metric:<42} {median:>14.6g} [{q1:.6g}, {q3:.6g}]  spread {spread:.4f}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"  failed share of attempted: {shares}; all correct: {all(r['correct'] for r in runs)}")
    return 0 if all(r["correct"] for r in runs) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="steadiness mode: run this many seeds")
    args = parser.parse_args(argv)
    if args.repeat:
        return steady(args)
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
