import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splcsp import gen, lang, spl
from splcsp.spl import (
    Cfg,
    Edge,
    OpenProgramWarning,
    OverlappingGraphsError,
    atomic,
    decompose,
    loop,
    parallel,
    series,
)

GCD_LOOP = """\
while x >= 1 do
  if x >= y then
    x := x - y;
    break
  else
    y := y - x;
    continue
  fi
od
"""


def decompose_source(src):
    return decompose(lang.parse_program(src))


# ---------------------------------------------------------------------------
# the three atoms and three operations


def test_atomic_statement():
    g = atomic("epsilon", "a := 1")
    assert g.specials == (0, 1, 2, 3)
    assert g.vertices == frozenset((0, 1, 2, 3))
    assert list(g.edges) == [(0, 1)]
    assert g.edges[(0, 1)].label == spl.STMT
    assert g.edges[(0, 1)].text == "a := 1"


def test_atomic_break_and_continue():
    b = atomic("break", first_id=10)
    assert b.specials == (10, 11, 12, 13)
    assert list(b.edges) == [(10, 12)]
    c = atomic("continue", first_id=20)
    assert list(c.edges) == [(20, 23)]
    with pytest.raises(ValueError):
        atomic("goto")


def test_series_merges_three_pairs():
    g = series(atomic("epsilon", "a"), atomic("epsilon", "b", first_id=4))
    # T1=1 and S2=4 merge into M=1; B pairs 2,6 -> 2; C pairs 3,7 -> 3
    assert g.specials == (0, 5, 2, 3)
    assert g.vertices == frozenset((0, 1, 2, 3, 5))
    assert set(g.edges) == {(0, 1), (1, 5)}


def test_series_vertex_and_edge_counts():
    a = atomic("epsilon", "a")
    b = atomic("break", first_id=4)
    g = series(a, b)
    assert g.vertex_count == a.vertex_count + b.vertex_count - 3
    assert g.edge_count == a.edge_count + b.edge_count


def test_parallel_merges_four_pairs_and_collapses_duplicates():
    g, dups = parallel(atomic("epsilon", "a"), atomic("epsilon", "b", first_id=4))
    assert g.specials == (0, 1, 2, 3)
    assert g.vertex_count == 4
    # both operands have an S->T edge: one survives, the left one
    assert dups == ((0, 1),)
    assert g.edges[(0, 1)].text == "a"


def test_parallel_distinct_shapes_do_not_collapse():
    g, dups = parallel(atomic("epsilon", "a"), atomic("break", first_id=4))
    assert dups == ()
    assert set(g.edges) == {(0, 1), (0, 2)}


def test_loop_adds_four_vertices_and_five_edges():
    inner = atomic("epsilon", "body")
    g = loop(inner, guard="p")
    assert g.specials == (4, 5, 6, 7)
    assert g.vertex_count == 8
    assert g.edge_count == 6
    labels = {key: e.label for key, e in g.edges.items()}
    assert labels[(4, 0)] == spl.LOOP_ENTER
    assert labels[(4, 5)] == spl.LOOP_EXIT
    assert labels[(1, 4)] == spl.LOOP_BACK
    assert labels[(3, 4)] == spl.LOOP_BACK
    assert labels[(2, 5)] == spl.LOOP_EXIT
    assert g.edges[(4, 0)].text == "p"


def test_overlapping_operands_rejected():
    a = atomic("epsilon", "a")
    with pytest.raises(OverlappingGraphsError):
        series(a, atomic("epsilon", "b"))
    with pytest.raises(OverlappingGraphsError):
        parallel(a, atomic("epsilon", "b", first_id=2))
    with pytest.raises(OverlappingGraphsError):
        loop(a, first_id=3)


# ---------------------------------------------------------------------------
# decompose: frozen small cases


def test_decompose_single_statement():
    d = decompose_source("a := 1")
    assert d.cfg.vertex_count == 4
    assert [(e.src, e.dst, e.label, e.text) for e in d.cfg.edges] == [
        (0, 1, spl.STMT, "a := 1")
    ]
    assert d.cfg.entry == 0 and d.cfg.exit == 1
    assert d.cfg.specials == (0, 1, 2, 3)
    assert [n.kind for n in d.nodes] == ["epsilon"]


def test_decompose_gcd_loop():
    d = decompose_source(GCD_LOOP)
    cfg = d.cfg
    assert cfg.vertex_count == 10
    assert len(cfg.edges) == 9
    assert cfg.specials == (6, 7, 8, 9)
    assert cfg.entry == 6 and cfg.exit == 7
    expected = {
        (0, 1): (spl.BRANCH, "x := x - y", False),
        (0, 5): (spl.BRANCH, "y := y - x", True),
        (1, 2): (spl.BREAK, None, False),
        (5, 3): (spl.CONTINUE, None, False),
        (6, 0): (spl.BRANCH, "x >= 1", False),
        (6, 7): (spl.BRANCH, "x >= 1", True),
        (4, 6): (spl.LOOP_BACK, None, False),
        (3, 6): (spl.LOOP_BACK, None, False),
        (2, 7): (spl.LOOP_EXIT, None, False),
    }
    actual = {(e.src, e.dst): (e.label, e.text, e.taken) for e in cfg.edges}
    assert actual == expected
    # break/continue targets of the whole program are never jumped to
    indeg = cfg.in_degree()
    assert indeg[8] == 0 and indeg[9] == 0
    assert [n.kind for n in d.nodes] == [
        "epsilon",
        "break",
        "series",
        "epsilon",
        "continue",
        "series",
        "parallel",
        "loop",
    ]
    root = d.nodes[d.root]
    assert root.kind == "loop"
    assert root.specials == (6, 7, 8, 9)
    assert root.guard == "x >= 1"


def test_decompose_duplicate_break_edges_collapse():
    d = decompose_source("while p do if q then break else break fi od")
    par = next(n for n in d.nodes if n.kind == "parallel")
    assert par.duplicates == ((par.specials[0], par.specials[2]),)
    # the collapsed edge appears exactly once in the CFG
    assert sum(1 for e in d.cfg.edges if (e.src, e.dst) == par.duplicates[0]) == 1


def test_decompose_series_merge_points():
    d = decompose_source("a; b; c")
    merges = [n.merged for n in d.nodes if n.kind == "series"]
    assert len(merges) == 2
    assert all(m is not None for m in merges)
    # merge points are the interior vertices on the chain
    (e1, e2, e3) = d.cfg.edges
    assert merges == [e1.dst, e2.dst]


def test_branch_labels_and_taken_flags():
    d = decompose_source("if p then a; b else c fi")
    cfg = d.cfg
    out = {}
    for e in cfg.edges:
        out.setdefault(e.src, []).append(e)
    (branch_src,) = [v for v, es in out.items() if len(es) >= 2]
    branch_edges = sorted(out[branch_src], key=lambda e: e.dst)
    assert all(e.label == spl.BRANCH for e in branch_edges)
    assert [e.taken for e in branch_edges] == [False, True]
    for v, es in out.items():
        if v != branch_src:
            assert all(e.label != spl.BRANCH for e in es)


def test_open_program_warns_but_decomposes():
    with pytest.warns(OpenProgramWarning):
        d = decompose(lang.parse_program("a; break"))
    # the break edge lands in the root break target
    assert d.cfg.specials is not None
    b = d.cfg.specials[2]
    assert any(e.dst == b and e.label == spl.BREAK for e in d.cfg.edges)


def test_closed_program_does_not_warn(recwarn):
    decompose_source(GCD_LOOP)
    assert not [w for w in recwarn.list if issubclass(w.category, OpenProgramWarning)]


def test_spans_recorded_for_every_vertex_of_interest():
    d = decompose_source("a;\nwhile p do\n  b\nod")
    # every vertex allocated by an atom or loop carries source positions
    covered = set()
    for node in d.nodes:
        if node.base >= 0:
            covered.update(node.specials)
    assert set(d.cfg.spans) == covered
    assert d.cfg.spans[d.cfg.entry][0] == (1, 1)


# ---------------------------------------------------------------------------
# decompose: properties over random programs


def random_trees():
    return st.builds(
        lambda seed, size: gen.gen_random_program(gen.GenConfig(seed=seed, size=size)),
        st.integers(0, 10_000),
        st.integers(1, 25),
    )


@settings(max_examples=80, deadline=None)
@given(random_trees())
def test_node_counts_follow_the_operations(tree):
    d = decompose(tree)
    assert d.node_count == lang.count_nodes(tree)
    for i, node in enumerate(d.nodes):
        g = d.node_graph(i)
        if node.kind in ("epsilon", "break", "continue"):
            assert (g.vertex_count, g.edge_count) == (4, 1)
        elif node.kind == "series":
            l = d.node_graph(node.children[0])
            r = d.node_graph(node.children[1])
            assert g.vertex_count == l.vertex_count + r.vertex_count - 3
            assert g.edge_count == l.edge_count + r.edge_count
        elif node.kind == "parallel":
            l = d.node_graph(node.children[0])
            r = d.node_graph(node.children[1])
            assert g.vertex_count == l.vertex_count + r.vertex_count - 4
            assert g.edge_count == l.edge_count + r.edge_count - len(node.duplicates)
        else:
            c = d.node_graph(node.children[0])
            assert g.vertex_count == c.vertex_count + 4
            assert g.edge_count == c.edge_count + 5
        assert g.specials == node.specials


@settings(max_examples=80, deadline=None)
@given(random_trees())
def test_root_graph_is_the_cfg(tree):
    d = decompose(tree)
    g = d.node_graph(d.root)
    assert g.vertices == frozenset(range(d.cfg.vertex_count))
    assert set(g.edges) == set(d.cfg.edge_map)
    assert g.specials == d.cfg.specials


@settings(max_examples=80, deadline=None)
@given(random_trees())
def test_cfg_structural_invariants(tree):
    d = decompose(tree)
    cfg = d.cfg
    s, t, b, c = cfg.specials
    assert len({s, t, b, c}) == 4
    indeg = cfg.in_degree()
    outdeg = cfg.out_degree()
    # closed programs never jump to the outermost break/continue targets
    assert indeg[b] == 0 and indeg[c] == 0
    # nothing leaves the exit or the break/continue targets
    assert outdeg[t] == outdeg[b] == outdeg[c] == 0
    assert all(e.label in spl.LABELS for e in cfg.edges)
    for v, deg in enumerate(outdeg):
        branch_edges = [e for e in cfg.edges if e.src == v and e.label == spl.BRANCH]
        if deg >= 2:
            assert len(branch_edges) == deg
            assert sum(1 for e in branch_edges if not e.taken) == 1
            assert not min(branch_edges, key=lambda e: e.dst).taken
        else:
            assert not branch_edges


@settings(max_examples=40, deadline=None)
@given(random_trees())
def test_decompose_deterministic(tree):
    a = decompose(tree)
    b = decompose(tree)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )


# ---------------------------------------------------------------------------
# serialization


def test_cfg_json_round_trip():
    d = decompose_source(GCD_LOOP)
    cfg = d.cfg
    back = Cfg.from_json(cfg.to_json())
    assert back.vertex_count == cfg.vertex_count
    assert back.edges == cfg.edges
    assert back.entry == cfg.entry and back.exit == cfg.exit
    assert back.specials == cfg.specials
    assert back.spans == cfg.spans


def test_cfg_json_terse_form():
    g = Cfg.from_json({"vertex_count": 3, "edges": [[0, 1], [1, 2]]})
    assert g.vertex_count == 3
    assert [(e.src, e.dst) for e in g.edges] == [(0, 1), (1, 2)]
    assert g.entry is None and g.specials is None
    with pytest.raises(ValueError):
        Cfg.from_json({"vertex_count": 2, "edges": [[0, 5]]})


def test_cfg_dot_output():
    d = decompose_source("if p then a; b else c fi")
    dot = d.cfg.to_dot()
    assert dot.startswith("digraph cfg {")
    assert "->" in dot
    assert "style=dashed" in dot  # the fall-through branch edge
    assert 'label="a"' in dot


def test_decomposition_json_shape():
    d = decompose_source("a; b")
    obj = d.to_json()
    assert obj["tree"]["kind"] == "series"
    assert [child["kind"] for child in obj["tree"]["children"]] == ["epsilon", "epsilon"]
    assert obj["cfg"]["vertex_count"] == d.cfg.vertex_count


def test_edge_objects_are_immutable():
    e = Edge(0, 1, spl.STMT)
    with pytest.raises(AttributeError):
        e.src = 2


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_cfg_json_dumps_writes_what_json_dumps_writes(obj):
    assert spl.cfg_json_dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
