import dataclasses
import gc
import hashlib
import json
import re
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import OverlappingGraphsError, atomic, count_nodes, decomposition, loop, node_graph, parallel, raw_ids, series
from splcsp import gen, lang, spl
from splcsp.spl import (
    Cfg,
    Edge,
    OpenProgramWarning,
    decompose,
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
    targets = {e.dst for e in cfg.edges}
    assert 8 not in targets and 9 not in targets
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


def jump_trees():
    """Small trees whose break and continue may sit outside every loop."""
    leaves = st.sampled_from([lang.Epsilon("a"), lang.Break(), lang.Continue()])
    return st.recursive(
        leaves,
        lambda inner: st.builds(lang.Seq, inner, inner)
        | st.builds(lambda t, e: lang.If("p", t, e), inner, inner)
        | st.builds(lambda body: lang.While("q", body), inner),
        max_leaves=20,
    )


@settings(max_examples=200, deadline=None)
@given(jump_trees())
def test_open_program_warning_counts_what_check_closed_finds(tree):
    tree = lang.parse_program(lang.pretty_print(tree))  # real spans
    report = lang.check_closed(tree)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        decompose(tree)
    opened = [str(w.message) for w in caught if issubclass(w.category, OpenProgramWarning)]
    expected = []
    if not report.is_closed:
        line, col = report.violations[0]
        expected = [
            f"program is not closed: {len(report.violations)} break/continue "
            f"outside any loop (first at {line}:{col})"
        ]
    assert opened == expected


def test_spans_recorded_for_every_vertex_of_interest():
    d = decompose_source("a;\nwhile p do\n  b\nod")
    # every vertex allocated by an atom or loop carries source positions
    covered = set()
    for node in d.nodes:
        if node.kind not in ("series", "parallel"):
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
    assert len(d.nodes) == count_nodes(tree)
    for i, node in enumerate(d.nodes):
        g = node_graph(d, i)
        if node.kind in ("epsilon", "break", "continue"):
            assert (g.vertex_count, g.edge_count) == (4, 1)
        elif node.kind == "series":
            l = node_graph(d, node.children[0])
            r = node_graph(d, node.children[1])
            assert g.vertex_count == l.vertex_count + r.vertex_count - 3
            assert g.edge_count == l.edge_count + r.edge_count
        elif node.kind == "parallel":
            l = node_graph(d, node.children[0])
            r = node_graph(d, node.children[1])
            assert g.vertex_count == l.vertex_count + r.vertex_count - 4
            assert g.edge_count == l.edge_count + r.edge_count - len(node.duplicates)
        else:
            c = node_graph(d, node.children[0])
            assert g.vertex_count == c.vertex_count + 4
            assert g.edge_count == c.edge_count + 5
        assert g.specials == node.specials


@settings(max_examples=80, deadline=None)
@given(random_trees())
def test_root_graph_is_the_cfg(tree):
    d = decompose(tree)
    g = node_graph(d, d.root)
    assert g.vertices == frozenset(range(d.cfg.vertex_count))
    edges = {(e.src, e.dst): e for e in d.cfg.edges}
    assert set(g.edges) == set(edges)
    assert g.specials == d.cfg.specials


@settings(max_examples=80, deadline=None)
@given(random_trees())
def test_cfg_structural_invariants(tree):
    d = decompose(tree)
    cfg = d.cfg
    s, t, b, c = cfg.specials
    assert len({s, t, b, c}) == 4
    sources = [e.src for e in cfg.edges]
    # closed programs never jump to the outermost break/continue targets
    assert not {b, c} & {e.dst for e in cfg.edges}
    # nothing leaves the exit or the break/continue targets
    assert not {t, b, c} & set(sources)
    labels = {spl.STMT, spl.BREAK, spl.CONTINUE, spl.BRANCH, spl.LOOP_ENTER, spl.LOOP_EXIT, spl.LOOP_BACK}
    assert all(e.label in labels for e in cfg.edges)
    for v in range(cfg.vertex_count):
        deg = sources.count(v)
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
# decompose: numbering pinned at scale


def _gen_source(seed, size, **weights):
    tree = gen.gen_random_program(gen.GenConfig(seed=seed, size=size, **weights))
    return lang.pretty_print(tree)


PINNED_PROGRAMS = {
    "gen-60": lambda: _gen_source(60, 60),
    "gen-300": lambda: _gen_source(300, 300),
    "gen-2000": lambda: _gen_source(2000, 2000),
    "jumps-300": lambda: _gen_source(7, 300, p_break=0.3, p_continue=0.3),
    "open": lambda: (
        "a := 1; if p then break else b fi; continue;\n"
        "while q do c; if r then break else continue fi od; break; d"
    ),
    "nest-2000": lambda: "while p do " * 2000 + "a" + " od" * 2000,
    "chain-5000": lambda: "; ".join(f"x{i} := {i}" for i in range(5000)),
}

# sha256 of each program's CFG, nodes (each with its base) and the CFG
# id of each raw id (see `raw_ids`) as flat JSON (the nested tree JSON
# grows with the square of the nesting depth)
PINNED_DIGESTS = {
    "chain-5000": "b8c12b1bbb57c9f0d7abc5c86d63a230ee39128245bcb0806d5d411d5da03463",
    "gen-2000": "bc94191f11326eecda3ad7def13ed4b1eb637256d919a47f80f495647ba06f06",
    "gen-300": "0bdf893c30b86a9a6cad80e4bbf6ef1797d8ca86cb87c7b7128ffc383bcdaac3",
    "gen-60": "0bee90c87be8013e9edc74660f2f7745457cd49134939444513ddbd8aeb422af",
    "jumps-300": "e35b2bb746be55af6460457116e22cd6ffab7fed84c058b9c951cd76c0246c2e",
    "nest-2000": "87c16f436402009ddb27e0174cf0360c4f6fb332513ba6acff737d768e3d2cc8",
    "open": "09d939be93d141bfc961bac2b50402c8ba67923c6e038a9608479a1f6f10674c",
}


@pytest.mark.parametrize("name", sorted(PINNED_PROGRAMS))
def test_decompose_numbering_is_pinned(name):
    tree = lang.parse_program(PINNED_PROGRAMS[name]())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = decompose(tree)
    opened = [w for w in caught if issubclass(w.category, OpenProgramWarning)]
    assert len(opened) == (name == "open")
    bases, final_of_raw = raw_ids(d)
    flat = [
        d.cfg.to_json(),
        [[*dataclasses.astuple(n), base] for n, base in zip(d.nodes, bases)],
        final_of_raw,
    ]
    digest = hashlib.sha256(json.dumps(flat, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_DIGESTS[name]


def test_decompose_memory_stays_flat():
    # a generated 2000-statement program, 2718 nodes.  The flat arrays
    # keep 429 B per node and `decompose` peaks at 1531 KiB; with a
    # `DecompNode` and its tuples per node, and lists per vertex for the
    # branch relabeling, it kept 642 B per node and peaked at 3068 KiB.
    # Each bound allows 20% over the former.
    tree = gen.gen_random_program(gen.GenConfig(seed=0, size=2000))
    gc.collect()
    tracemalloc.start()
    try:
        d = decompose(tree)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "nodes" not in d.__dict__
    assert retained / len(d.kinds) < 515, f"{retained / len(d.kinds):.0f} B per node"
    assert peak < 1837 * 1024, f"peak {peak / 1024:.0f} KiB"


def test_cfg_memory_stays_flat():
    # the same 2000-statement program as above, 3652 edges.  With the
    # CFG's edges and spans stored flat, the decomposition keeps 144 B
    # per node and `decompose` peaks at 859 KiB; with an `Edge` per edge
    # and a dict of span tuples per vertex, it kept 428 B per node and
    # peaked at 1528 KiB.  Each bound allows 20% over the former.
    tree = gen.gen_random_program(gen.GenConfig(seed=0, size=2000))
    gc.collect()
    tracemalloc.start()
    try:
        d = decompose(tree)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "edges" not in d.cfg.__dict__ and "spans" not in d.cfg.__dict__
    assert retained / len(d.kinds) < 173, f"{retained / len(d.kinds):.0f} B per node"
    assert peak < 1031 * 1024, f"peak {peak / 1024:.0f} KiB"


@pytest.mark.parametrize("seed", range(20))
def test_nodes_are_the_flat_arrays_field_for_field(seed):
    # `nodes` is made from the arrays on first use, and storing those
    # nodes flat again gives the same arrays
    d = decompose(gen.gen_random_program(gen.GenConfig(seed=seed, size=40)))
    assert "nodes" not in d.__dict__
    assert decomposition(d.cfg, d.nodes) == d
    assert d.nodes is d.nodes


@pytest.mark.parametrize("tree", ["a", lang.Seq(lang.Epsilon("a"), 5)])
def test_decompose_refuses_what_is_not_a_parse_tree(tree):
    with pytest.raises(TypeError, match="not a parse tree node"):
        decompose(tree)


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


@pytest.mark.parametrize("seed", range(20))
def test_cfg_edges_and_spans_are_the_flat_arrays_field_for_field(seed):
    # `edges` and `spans` are made from the arrays on first use, and
    # reading the JSON back gives the same arrays
    cfg = decompose(gen.gen_random_program(gen.GenConfig(seed=seed, size=40))).cfg
    assert "edges" not in cfg.__dict__ and "spans" not in cfg.__dict__
    assert len(cfg.edges) == len(cfg.src) == len(cfg.dst) == len(cfg.labels) == len(cfg.taken) == len(cfg.texts)
    for i, e in enumerate(cfg.edges):
        assert (e.src, e.dst, e.label, e.text) == (cfg.src[i], cfg.dst[i], cfg.label_names[cfg.labels[i]], cfg.texts[i])
        assert e.taken is (cfg.taken[i] == 1)
    starts = cfg.span_starts
    assert len(starts) == cfg.vertex_count + 1 and starts[-1] == len(cfg.span_lines) == len(cfg.span_columns)
    for v in range(cfg.vertex_count):
        lo, hi = starts[v], starts[v + 1]
        assert cfg.spans.get(v, ()) == tuple(zip(cfg.span_lines[lo:hi], cfg.span_columns[lo:hi]))
    assert all(cfg.spans.values())
    assert Cfg.from_json(cfg.to_json()) == cfg
    assert cfg.edges is cfg.edges and cfg.spans is cfg.spans


def test_cfg_json_keeps_a_label_of_its_own():
    graph = {"vertex_count": 2, "edges": [{"src": 0, "dst": 1, "label": "call", "taken": True}]}
    g = Cfg.from_json(graph)
    assert g.edges == (Edge(0, 1, "call", None, True),)
    assert Cfg.from_json(g.to_json()) == g
    assert 'label="call"' in g.to_dot()


@pytest.mark.parametrize(
    "graph, named",
    [
        ({"vertex_count": 2, "edges": [{"src": 0, "dst": 1, "label": 5}]}, "label must be a string"),
        ({"vertex_count": 1, "vertices": [{"id": 0, "spans": [[1, 1 << 31]]}]}, "32-bit"),
    ],
)
def test_cfg_json_refuses_what_the_flat_form_cannot_hold(graph, named):
    with pytest.raises(ValueError, match=named):
        Cfg.from_json(graph)


@pytest.mark.parametrize("text", [5, True, ["a"], {"a": 1}])
def test_cfg_json_refuses_an_edge_text_that_is_not_a_string(text):
    graph = {"vertex_count": 2, "edges": [{"src": 0, "dst": 1, "text": text}]}
    with pytest.raises(ValueError, match=re.escape(f"edge (0, 1): text must be a string or null, got {text!r}")):
        Cfg.from_json(graph)
    assert Cfg.from_json({**graph, "edges": [{"src": 0, "dst": 1, "text": None}]}).texts == [None]


@pytest.mark.parametrize("taken", ["no", 1, 0, None, [True]])
def test_cfg_json_refuses_a_taken_that_is_not_a_boolean(taken):
    graph = {"vertex_count": 2, "edges": [{"src": 0, "dst": 1, "taken": taken}]}
    with pytest.raises(ValueError, match=re.escape(f"edge (0, 1): taken must be true or false, got {taken!r}")):
        Cfg.from_json(graph)


def test_cfg_json_holds_at_most_256_labels():
    # 7 built-in labels and 249 of the graph's own fill the 256 codes
    # a byte holds
    edges = [{"src": 0, "dst": 1, "label": f"l{i}"} for i in range(249)]
    g = Cfg.from_json({"vertex_count": 2, "edges": edges})
    assert len(g.label_names) == 256 and g.edges[-1].label == "l248"
    assert Cfg.from_json(g.to_json()) == g
    edges.append({"src": 1, "dst": 0, "label": "l249"})
    with pytest.raises(ValueError, match=re.escape("edge (1, 0): a graph uses at most 256 labels, 7 of them built in")):
        Cfg.from_json({"vertex_count": 2, "edges": edges})


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([{"id": "zzz"}], "vertex 'zzz': id must be an integer below 1"),
        ([{"id": 99}], "vertex 99: id must be an integer below 1"),
        ([{}], "vertex None: id must be an integer below 1"),
        ([{"id": 0, "spans": [[1, 2]]}, {"id": 0, "spans": [[3, 4]]}], "vertex 0: listed twice in vertices"),
        ([{"id": 0}, {"id": 0}], "vertex 0: listed twice in vertices"),
    ],
)
def test_cfg_json_checks_every_vertex_id(vertices, message):
    # an entry without spans is checked too, and an id is listed once
    with pytest.raises(ValueError, match=re.escape(message)):
        Cfg.from_json({"vertex_count": 1, "vertices": vertices})
    assert Cfg.from_json({"vertex_count": 1, "vertices": [{"id": 0}]}).spans == {}


def test_cfg_json_terse_form():
    g = Cfg.from_json({"vertex_count": 3, "edges": [[0, 1], [1, 2]]})
    assert g.vertex_count == 3
    assert [(e.src, e.dst) for e in g.edges] == [(0, 1), (1, 2)]
    assert g.entry is None and g.specials is None
    with pytest.raises(ValueError):
        Cfg.from_json({"vertex_count": 2, "edges": [[0, 5]]})


@pytest.mark.parametrize(
    "edge", [[True, 2], [0, False], [0.5, 1], [1, 2.0], ["0", 1], {"src": 0, "dst": True}]
)
def test_cfg_json_edge_endpoints_must_be_integers(edge):
    with pytest.raises(ValueError, match="endpoints must be integers"):
        Cfg.from_json({"vertex_count": 3, "edges": [edge]})


@pytest.mark.parametrize(
    "graph, named",
    [
        ({"vertex_count": True, "edges": []}, "vertex_count"),
        ({"vertex_count": 2.0, "edges": []}, "vertex_count"),
        ({"vertex_count": "3", "edges": []}, "vertex_count"),
        ({"vertex_count": -1, "edges": []}, "vertex_count"),
        ({"edges": [[0, 1]]}, "vertex_count"),
        ([[0, 1]], "vertex_count"),
        ({"vertex_count": 3, "edges": [[0]]}, "edge [0]"),
        ({"vertex_count": 3, "edges": [[0, 1, 2]]}, "edge [0, 1, 2]"),
        ({"vertex_count": 3, "edges": [{"dst": 1}]}, "edge {'dst': 1}"),
        ({"vertex_count": 3, "edges": [5]}, "edge 5"),
    ],
)
def test_cfg_json_refuses_a_bad_count_or_edge_shape(graph, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        Cfg.from_json(graph)


def test_cfg_json_accepts_an_empty_graph():
    assert Cfg.from_json({"vertex_count": 0}).vertex_count == 0


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
    assert obj["root"] == d.root == 2
    assert [node["kind"] for node in obj["nodes"]] == ["epsilon", "epsilon", "series"]
    assert obj["nodes"][2]["children"] == list(d.nodes[2].children) == [0, 1]
    assert obj["cfg"]["vertex_count"] == d.cfg.vertex_count


def test_edge_objects_are_immutable():
    e = Edge(0, 1, spl.STMT)
    with pytest.raises(AttributeError):
        e.src = 2
