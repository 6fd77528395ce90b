"""The forward pass runs ready nodes of one class together, in batches
capped by `solver._BLOCK`, over a tree whose `;` chains of three or
more operands are regrouped as balanced trees; these tests pin its
answers to the block-free ones and to the oracle, count its steps on a
chain, and bound its memory."""

import gc
import math
import tracemalloc

import pytest

from splcsp import gen, lang, solver
from splcsp.solver import evaluate, oracle_solve, solve
from splcsp.spl import decompose


def decompose_source(src):
    return decompose(lang.parse_program(src))


# a program of long `;` chains: one at the top, one in a loop body
# that also breaks and continues, one in an if branch
CHAIN_HEAVY = (
    "; ".join(f"a{k}" for k in range(9))
    + "; while p do "
    + "; ".join(f"b{k}" for k in range(7))
    + "; if q then break else c fi; "
    + "; ".join(f"d{k}" for k in range(5))
    + "; continue od; if r then "
    + "; ".join(f"e{k}" for k in range(8))
    + " else f fi; g"
)


def jump_heavy_suite(domain, count=12):
    """(decomposition, instance) pairs with many breaks and continues,
    INFINITY entries and restricted allowed sets, and one program of
    long chains."""
    chains = decompose_source(CHAIN_HEAVY)
    inst = gen.random_instance(
        chains.cfg, domain, seed=domain, high=6, inf_prob=0.15, restrict_prob=0.3
    )
    out = [(chains, inst)]
    for seed in range(count):
        config = gen.GenConfig(
            seed=1000 * domain + seed,
            size=4 + 3 * seed,
            p_break=0.25,
            p_continue=0.25,
        )
        d = decompose(gen.gen_random_program(config))
        inst = gen.random_instance(
            d.cfg, domain, seed=seed, high=6, inf_prob=0.15, restrict_prob=0.3
        )
        out.append((d, inst))
    return out


@pytest.mark.parametrize("domain", [2, 3, 4, 8])
@pytest.mark.parametrize("block", [1, 64])
def test_block_size_does_not_change_the_solution(monkeypatch, domain, block):
    suite = jump_heavy_suite(domain)
    default = [solve(inst, d) for d, inst in suite]
    assert any(sol.assignment is not None for sol in default)
    monkeypatch.setattr(solver, "_BLOCK", block)
    for (d, inst), want in zip(suite, default):
        assert solve(inst, d) == want


# Programs whose decompositions put many nodes in one class at once:
# fans of ifs (parallel nodes, each with a collapsed edge), sibling
# loops, and breaks and continues under parallel nodes whose branches
# share their edge.
SHARED_CLASS_PROGRAMS = [
    "if p then a else b fi; if q then c else d fi; if r then e else f fi",
    "if p then if q then a else b fi else if r then c else d fi fi; "
    "if s then e else f fi",
    "while p do a od; while q do b od; while r do c od",
    "while p do if q then break else break fi od; "
    "while r do if s then break else break fi od",
    "while p do if q then if r then break else break fi "
    "else if s then continue else continue fi fi od",
    "while p do if q then continue else continue fi; "
    "if r then break else break fi od; "
    "while s do if t then continue else continue fi; "
    "if u then break else break fi od",
]


@pytest.mark.parametrize("src", SHARED_CLASS_PROGRAMS)
def test_batches_of_one_class_match_the_oracle(src):
    d = decompose_source(src)
    # d=3 where the oracle can still enumerate every assignment
    domains = [2, 3] if 3 ** d.cfg.vertex_count <= 1 << 20 else [2]
    for domain in domains:
        for seed in range(6):
            inst = gen.random_instance(
                d.cfg, domain, seed=seed, high=6, inf_prob=0.1, restrict_prob=0.5
            )
            got = solve(inst, d)
            want = oracle_solve(inst)
            assert got.min_cost == want.min_cost
            if got.assignment is not None:
                assert evaluate(inst, got.assignment) == got.min_cost


def count_sum_min_calls(monkeypatch):
    """A list that gets one entry per `solver._sum_min` call, one per
    series or loop batch that fits the block."""
    calls = []
    real = solver._sum_min

    def recording(a, b, axis, dtype):
        calls.append(len(a))
        return real(a, b, axis, dtype)

    monkeypatch.setattr(solver, "_sum_min", recording)
    return calls


@pytest.mark.parametrize("src", SHARED_CLASS_PROGRAMS[2:4] + SHARED_CLASS_PROGRAMS[5:])
def test_sibling_nodes_run_in_one_batch(monkeypatch, src):
    # the loops of these programs become ready together, in one class,
    # so some batch sums over several nodes at once
    sizes = count_sum_min_calls(monkeypatch)
    d = decompose_source(src)
    inst = gen.random_instance(d.cfg, 2, seed=1, inf_prob=0.1, restrict_prob=0.5)
    assert solve(inst, d).min_cost == oracle_solve(inst).min_cost
    assert max(sizes) > 1


def test_a_long_chain_runs_in_logarithmically_many_steps(monkeypatch):
    # one link per step would be 1023 steps; a balanced tree over the
    # 1024 statements has 10 levels
    calls = count_sum_min_calls(monkeypatch)
    d = decompose_source("; ".join(f"x{k} := {k}" for k in range(1024)))
    inst = gen.random_instance(d.cfg, 2, seed=3, inf_prob=0.0, restrict_prob=0.2)
    got = solve(inst, d)
    assert len(calls) <= 40, len(calls)
    assert evaluate(inst, got.assignment) == got.min_cost


# each has a chain of eight or more operands inside a loop, which the
# forward pass regroups like any chain of three or more
TIE_CHAINS = [
    "while p do a; b; c; d; if q then break else e fi; f; g; h od",
    "while p do a; b; c; if q then continue else d fi; e; f; g; break od; h; i",
    "a; while p do b; c; d; e; f; if q then break else continue fi; g; h od; i",
    "while p do while q do a; b; c; d; e; f; g; break od; h; i; continue od",
]


@pytest.mark.parametrize("src", TIE_CHAINS)
def test_regrouped_chains_with_many_ties_match_the_oracle(src):
    # costs of 0 and 1 make many assignments tie at the minimum; the
    # regrouped chains may pick another of them than the oracle does
    d = decompose_source(src)
    for domain in (2, 3):
        for seed in range(8):
            inst = gen.random_instance(
                d.cfg, domain, seed=seed, high=1, inf_prob=0.05, restrict_prob=0.2
            )
            if math.prod(map(len, inst.allowed)) > 1 << 20:
                continue
            got = solve(inst, d)
            want = oracle_solve(inst)
            assert got.min_cost == want.min_cost
            if got.assignment is not None:
                assert evaluate(inst, got.assignment) == got.min_cost


def test_right_nested_sequences_match_the_oracle():
    # the parser nests `;` to the left; built by hand, a right operand
    # may itself be a sequence, which is a chain of its own
    atoms = [lang.Epsilon(f"x{k}") for k in range(12)]
    right = atoms[11]
    for atom in reversed(atoms[8:11]):
        right = lang.Seq(atom, right)
    chain = lang.Seq(atoms[0], lang.Seq(atoms[1], atoms[2]))
    for atom in atoms[3:8]:
        chain = lang.Seq(chain, atom)
    chain = lang.Seq(lang.Seq(chain, lang.Break()), right)
    d = decompose(lang.While("p", chain))
    for seed in range(10):
        inst = gen.random_instance(d.cfg, 2, seed=seed, high=3, inf_prob=0.1, restrict_prob=0.3)
        got = solve(inst, d)
        assert got.min_cost == oracle_solve(inst).min_cost
        if got.assignment is not None:
            assert evaluate(inst, got.assignment) == got.min_cost


def test_solve_memory_on_a_generated_program_stays_bounded():
    # a 300-statement program at d=8.  A node-at-a-time pass in
    # post-order peaks at 373 KiB here, and the batched pass at about
    # 398 KiB (416 KiB when it ran `;` chains one link per step and
    # cached the allowed-set mask); the bound allows 20% over the
    # former.  A schedule that
    # runs height levels and forms every leaf's table before any parent
    # peaks at about 520 KiB.
    tree = gen.gen_random_program(gen.GenConfig(seed=5, size=300))
    d = decompose(tree)
    inst = gen.random_instance(d.cfg, 8, seed=5, inf_prob=0.05, restrict_prob=0.2)
    gc.collect()
    tracemalloc.start()
    try:
        got = solve(inst, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert evaluate(inst, got.assignment) == got.min_cost
    assert peak < 448 * 1024, f"peak {peak / 1024:.0f} KiB"
