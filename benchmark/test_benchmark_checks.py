"""The benchmark's checks reject corrupted answers.

Run from the root of the repository:

    python3 -m pytest benchmark/test_benchmark_checks.py -q
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import INF, CheckFailed, Costs, check_lower_bound, check_solution, lower_bound  # noqa: E402
from programs import make_program  # noqa: E402
from run import Verifier  # noqa: E402
from tracing import plain_api  # noqa: E402
from workloads import CertifySmall, JsonWideD, PipelineSmallD, RegallocSparse, bank_costs, lospre_costs  # noqa: E402

from splcsp import Solution  # noqa: E402

API = plain_api()


def small(workload, **sizes):
    for key, value in sizes.items():
        setattr(workload, key, value)
    return workload


@pytest.fixture(scope="module")
def answers():
    """One checked-good case and answer per workload, on small inputs."""
    workloads = [
        small(PipelineSmallD(), sizes=[60]),
        small(JsonWideD(), programs=1, size=40, d=4),
        small(RegallocSparse(), programs=1, size=40),
        small(CertifySmall(), programs=2),
    ]
    out = {}
    for workload in workloads:
        cases = workload.make_cases(3, API)
        index = len(cases) - 1
        result = workload.run(API, cases[index])
        workload.check(cases[index], result, API.evaluate)  # the good answer passes
        out[workload.name] = (workload, cases[index], result)
    return out


def solutions(result):
    return [i for i, item in enumerate(result) if isinstance(item, Solution)]


def with_item(result, index, item):
    return tuple(item if i == index else x for i, x in enumerate(result))


@pytest.mark.parametrize("name", ["pipeline-small-d", "json-wide-d", "regalloc-sparse", "certify-small"])
def test_wrong_min_cost_is_caught(answers, name):
    workload, case, result = answers[name]
    for i in solutions(result):
        sol = result[i]
        bad = with_item(result, i, Solution(sol.min_cost + 1, sol.assignment))
        with pytest.raises(CheckFailed):
            workload.check(case, bad, API.evaluate)


@pytest.mark.parametrize("name", ["pipeline-small-d", "json-wide-d", "regalloc-sparse", "certify-small"])
def test_disallowed_or_missing_value_is_caught(answers, name):
    workload, case, result = answers[name]
    sol = result[solutions(result)[0]]
    x = dict(sol.assignment)
    del x[max(x)]
    with pytest.raises(CheckFailed):
        workload.check(case, with_item(result, solutions(result)[0], Solution(sol.min_cost, x)), API.evaluate)
    # a value outside the domain is outside every allowed set
    x = dict(sol.assignment)
    x[0] = 999
    with pytest.raises(CheckFailed):
        workload.check(case, with_item(result, solutions(result)[0], Solution(sol.min_cost, x)), API.evaluate)


def test_pinned_bank_moved_is_caught(answers):
    workload, case, result = answers["pipeline-small-d"]
    cfg, _, _, bank, bank_sol = result
    spec = case.inputs["bank"]
    x = dict(bank_sol.assignment)
    x[cfg.entry] = 0  # the entry is pinned to "unknown"
    costs = bank_costs(cfg, spec)
    with pytest.raises(CheckFailed, match="allowed"):
        check_solution(costs, bank_sol.min_cost, x, lambda y: API.evaluate(bank, y))


def _worse_neighbour(costs: Costs, x: dict):
    """A single-vertex change of an optimal witness that costs strictly more."""
    from checks import witness_cost

    base = witness_cost(costs, x)
    for v in range(costs.n):
        for b in costs.allowed[v]:
            y = dict(x)
            y[v] = b
            cost = witness_cost(costs, y)
            if base < cost < INF:
                return y, cost
    raise AssertionError("no strictly worse single-vertex change")


def test_local_optimality_catches_a_worse_witness_priced_honestly(answers):
    workload, case, result = answers["pipeline-small-d"]
    cfg, lospre, lospre_sol, _, _ = result
    costs = lospre_costs(cfg, case.inputs["lospre"])
    y, cost = _worse_neighbour(costs, lospre_sol.assignment)
    # (a) and the evaluate cross-check agree on y; only (c) can object
    assert API.evaluate(lospre, y) == cost
    with pytest.raises(CheckFailed, match="saves"):
        check_solution(costs, cost, y, lambda z: API.evaluate(lospre, z))


def test_local_optimality_on_table_costs(answers):
    workload, case, result = answers["json-wide-d"]
    cfg, instance, sol = result
    inputs = case.inputs
    from workloads import _table_costs

    costs = _table_costs(cfg, workload.d, inputs["allowed"], inputs["vertex"], inputs["tables"])
    y, cost = _worse_neighbour(costs, sol.assignment)
    with pytest.raises(CheckFailed, match="saves"):
        check_solution(costs, cost, y, lambda z: API.evaluate(instance, z))


def test_evaluate_disagreement_is_caught(answers):
    workload, case, result = answers["regalloc-sparse"]
    with pytest.raises(CheckFailed, match="evaluate"):
        workload.check(case, result, lambda instance, x: API.evaluate(instance, x) + 1)


def test_regalloc_builder_pricing_disagreement_is_caught(answers):
    workload, case, result = answers["regalloc-sparse"]
    built = result[1]

    def evaluate(instance, x):
        return API.evaluate(instance, x) + (instance is built)

    with pytest.raises(CheckFailed, match="build_regalloc"):
        workload.check(case, result, evaluate)


def test_regalloc_placement_off_the_live_set_is_caught(answers):
    workload, case, result = answers["regalloc-sparse"]
    cfg, built, priced, sol = result
    domain, live = case.inputs["domain"], case.inputs["live"]
    x = dict(sol.assignment)
    v = next(v for v in range(cfg.vertex_count) if live[v])
    x[v] = domain.index({})  # nothing live in registers or memory
    with pytest.raises(CheckFailed):
        workload.check(case, with_item(result, 3, Solution(sol.min_cost, x)), API.evaluate)


def test_lower_bound_rejects_a_cost_below_it():
    costs = Costs(2, [(0, 1), (1,)], lambda v, a: [[3, 5], [0, 2]][v][a], [(0, 1)], lambda i, a, b: [[1, 4], [2, 6]][a][b])
    assert lower_bound(costs) == 3 + 2 + 4
    check_lower_bound(costs, 9)
    with pytest.raises(CheckFailed, match="lower bound"):
        check_lower_bound(costs, 8)


def test_oracle_disagreement_is_caught(answers):
    workload, case, result = answers["certify-small"]
    cfg, _, _, oracle = result
    inputs = case.inputs
    from workloads import _table_costs

    costs = _table_costs(cfg, inputs["d"], inputs["allowed"], inputs["vertex_costs"], inputs["tables"])
    # an honestly priced but worse oracle answer: only the agreement check objects
    y, cost = _worse_neighbour(costs, oracle.assignment)
    with pytest.raises(CheckFailed, match="oracle finds"):
        workload.check(case, with_item(result, 3, Solution(cost, y)), API.evaluate)
    # an oracle answer whose witness does not cost what it reports
    bad = with_item(result, 3, Solution(oracle.min_cost, y))
    with pytest.raises(CheckFailed, match="oracle's witness"):
        workload.check(case, bad, API.evaluate)


def test_cfg_with_unexpected_size_is_caught(answers):
    workload, case, result = answers["json-wide-d"]
    wrong = replace(case, program=replace(case.program, edges=case.program.edges + 1))
    with pytest.raises(CheckFailed, match="CFG"):
        workload.check(wrong, result, API.evaluate)


def test_verifier_counts_a_corrupted_answer_as_failed(answers):
    workload, case, result = answers["certify-small"]
    verify = Verifier(workload, API.evaluate)
    assert verify(0, case, result)
    assert verify(0, case, result)  # the same answer again passes unchecked
    sol = result[2]
    assert not verify(0, case, with_item(result, 2, Solution(sol.min_cost - 1, sol.assignment)))
    assert verify.failures == 1


def test_program_counts_match_decompose():
    rng = random.Random(5)
    for size in (1, 2, 5, 40, 300):
        program = make_program(rng, size)
        decomp = API.decompose(API.parse_program(program.text))
        assert (decomp.cfg.vertex_count, len(decomp.cfg.edges)) == (program.vertices, program.edges)
        assert len(decomp.nodes) == program.parse_nodes
