import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import count_statements, edge_tables
from splcsp import lang
from splcsp.gen import GenConfig, gen_random_program, random_instance
from splcsp.spl import decompose


def container_nesting(tree):
    """Deepest stack of If/While containers; Seq chains do not nest."""
    best = 0
    stack = [(tree, 0)]
    while stack:
        node, level = stack.pop()
        best = max(best, level)
        bump = isinstance(node, (lang.If, lang.While))
        for child in lang.children(node):
            stack.append((child, level + bump))
    return best


def test_rejects_empty_budget():
    with pytest.raises(ValueError):
        gen_random_program(GenConfig(seed=0, size=0))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 60))
def test_exact_size_closed_and_round_trip(seed, size):
    tree = gen_random_program(GenConfig(seed=seed, size=size))
    assert count_statements(tree) == size
    assert lang.check_closed(tree).is_closed
    assert lang.parse_program(lang.pretty_print(tree)) == tree


@pytest.mark.parametrize("size", [1, 10, 200, 2000])
def test_large_sizes_round_trip_via_text(size):
    tree = gen_random_program(GenConfig(seed=99, size=size))
    assert count_statements(tree) == size
    text = lang.pretty_print(tree)
    again = lang.parse_program(text)
    assert lang.pretty_print(again) == text
    assert count_statements(again) == size


def test_deterministic_per_seed():
    cfg = GenConfig(seed=4242, size=300)
    a = lang.pretty_print(gen_random_program(cfg))
    b = lang.pretty_print(gen_random_program(cfg))
    assert a == b
    other = lang.pretty_print(gen_random_program(GenConfig(seed=4243, size=300)))
    assert a != other


def test_depth_stays_bounded():
    cfg = GenConfig(seed=7, size=500, max_depth=5)
    tree = gen_random_program(cfg)
    assert count_statements(tree) == 500
    assert container_nesting(tree) <= cfg.max_depth + 2
    assert lang.parse_program(lang.pretty_print(tree)) == tree


def test_default_depth_handles_large_programs():
    tree = gen_random_program(GenConfig(seed=1, size=4000))
    assert container_nesting(tree) <= 62
    decompose(tree)  # no recursion limit anywhere downstream


def test_deep_nesting_needs_no_recursion():
    cfg = GenConfig(seed=1, size=20000, p_seq=0.01, p_if=0.0, p_while=1.0, max_depth=2000)
    tree = gen_random_program(cfg)
    assert count_statements(tree) == cfg.size
    assert 1000 < container_nesting(tree) <= cfg.max_depth + 2
    assert lang.check_closed(tree).is_closed
    decompose(tree)


def test_a_site_with_nothing_to_choose_names_the_weight():
    cfg = GenConfig(seed=1, size=20000, p_seq=0.0, p_if=0.0, p_while=1.0, max_depth=100)
    with pytest.raises(ValueError, match="^p_seq must be positive where only seq can go"):
        gen_random_program(cfg)
    with pytest.raises(ValueError, match="^p_seq \\+ p_if \\+ p_while must be positive"):
        gen_random_program(GenConfig(seed=1, size=1, p_seq=0.0, p_if=0.0, p_while=0.0))
    with pytest.raises(ValueError, match="^p_if \\+ p_while must be positive"):
        gen_random_program(GenConfig(seed=1, size=5, p_seq=1.0, p_if=0.0, p_while=0.0))


def test_break_and_continue_show_up():
    kinds = set()
    for seed in range(40):
        tree = gen_random_program(GenConfig(seed=seed, size=30))
        for node in lang.walk(tree):
            kinds.add(type(node).__name__)
    assert {"Break", "Continue", "If", "While", "Seq", "Epsilon"} <= kinds


# ---------------------------------------------------------------------------
# random instances


def small_cfg():
    return decompose(gen_random_program(GenConfig(seed=3, size=6))).cfg


def test_random_instance_deterministic():
    cfg = small_cfg()
    a = random_instance(cfg, 3, seed=5)
    b = random_instance(cfg, 3, seed=5)
    assert (a.vertex_costs == b.vertex_costs).all()
    assert a.allowed == b.allowed
    for key in edge_tables(a):
        ta, tb = edge_tables(a)[key], edge_tables(b)[key]
        assert ((ta == tb) | (np.isinf(ta) & np.isinf(tb))).all()
    c = random_instance(cfg, 3, seed=6)
    assert any(
        not (edge_tables(a)[k] == edge_tables(c)[k]).all() for k in edge_tables(a)
    )


def test_random_instance_ranges():
    cfg = small_cfg()
    inst = random_instance(cfg, 4, seed=8, low=2, high=6, inf_prob=0.0,
                           restrict_prob=0.0)
    assert inst.d == 4
    assert ((inst.vertex_costs >= 2) & (inst.vertex_costs <= 6)).all()
    for tab in edge_tables(inst).values():
        assert np.isfinite(tab).all()
        assert ((tab >= 2) & (tab <= 6)).all()
    assert all(vals == tuple(range(4)) for vals in inst.allowed)


def test_random_instance_extremes():
    cfg = small_cfg()
    inst = random_instance(cfg, 2, seed=9, inf_prob=1.0, restrict_prob=1.0)
    for tab in edge_tables(inst).values():
        assert np.isinf(tab).all()
    assert all(1 <= len(vals) <= 2 for vals in inst.allowed)
    assert all(vals == tuple(sorted(vals)) for vals in inst.allowed)
