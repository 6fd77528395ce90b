import json
import subprocess
import sys

import pytest

from reference import count_statements
from splcsp import lang, solver
from splcsp.cli import run_cli
from splcsp.solver import Solution

BANK_PROGRAM = """\
if phi then
  a1;
  skip
else
  a2;
  skip
fi;
a3
"""

LOSPRE_PROGRAM = "c; if p then u1; k else u2 fi\n"


@pytest.fixture
def program(tmp_path):
    def write(text, name="prog.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    rc = run_cli(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# parse


def test_parse_pretty(program, capsys):
    path = program("if p then a; b else c fi")
    rc, out, err = run(capsys, "parse", path)
    assert rc == 0
    assert err == ""
    assert out == "if p then\n  a;\n  b\nelse\n  c\nfi\n"


def test_parse_json(program, capsys):
    path = program("while p do break od")
    rc, out, err = run(capsys, "parse", path, "--json")
    assert rc == 0
    # preorder, root first, children by index
    assert json.loads(out) == {
        "nodes": [
            {"kind": "while", "guard": "p", "span": [1, 1], "children": [1]},
            {"kind": "break", "span": [1, 12]},
        ],
        "root": 0,
    }


def test_parse_dot(program, capsys):
    rc, out, _ = run(capsys, "parse", program("a; b"), "--dot")
    assert rc == 0
    assert out.startswith("digraph parse {")
    assert '[label=";"]' in out


def test_parse_warns_on_open_program(program, capsys):
    rc, out, err = run(capsys, "parse", program("break"))
    assert rc == 0
    assert out == "break\n"
    assert "not closed" in err


def test_parse_syntax_error(program, capsys):
    rc, _, err = run(capsys, "parse", program("if p then a fi fi"))
    assert rc == 1
    assert "error" in err


def test_parse_empty_input(program, capsys):
    rc, _, err = run(capsys, "parse", program("# nothing here\n"))
    assert rc == 1
    assert "error" in err


def test_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "parse", str(tmp_path / "nope.txt"))
    assert rc == 1
    assert "error" in err


# ---------------------------------------------------------------------------
# cfg


def test_cfg_json(program, capsys):
    rc, out, _ = run(capsys, "cfg", program(BANK_PROGRAM))
    assert rc == 0
    obj = json.loads(out)
    assert obj["vertex_count"] == 7
    assert len(obj["edges"]) == 5
    assert obj["entry"] == 0 and obj["exit"] == 6


def test_cfg_dot_and_tree(program, capsys):
    path = program(BANK_PROGRAM)
    rc, out, _ = run(capsys, "cfg", path, "--dot")
    assert rc == 0
    assert out.startswith("digraph cfg {")
    rc, out, _ = run(capsys, "cfg", path, "--tree")
    assert rc == 0
    obj = json.loads(out)
    # post-order, root last
    assert obj["root"] == len(obj["nodes"]) - 1
    assert obj["nodes"][obj["root"]]["kind"] == "series"
    assert obj["cfg"]["vertex_count"] == 7


# ---------------------------------------------------------------------------
# solve


def instance_file(tmp_path, obj):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_solve_instance(program, capsys, tmp_path):
    path = program("a")
    inst = instance_file(
        tmp_path,
        {
            "domain_size": 2,
            "edge_costs": [{"src": 0, "dst": 1, "table": [[0, 5], [7, 1]]}],
            "vertex_costs": [[1, 0], [0, 2], [0, 3], [4, 0]],
        },
    )
    rc, out, _ = run(capsys, "solve", path, "--instance", inst, "--oracle-check")
    assert rc == 0
    obj = json.loads(out)
    assert obj["min_cost"] == 1
    assert obj["assignment"] == {"0": 0, "1": 0, "2": 0, "3": 1}


def test_solve_infeasible_exit_code(program, capsys, tmp_path):
    path = program("a")
    inst = instance_file(
        tmp_path,
        {"domain_size": 1, "edge_costs": {"model": "constant", "cost": "inf"}},
    )
    rc, out, _ = run(capsys, "solve", path, "--instance", inst)
    assert rc == 2
    assert json.loads(out) == {"min_cost": "inf", "assignment": None}


def test_solve_out_file(program, capsys, tmp_path):
    path = program("a")
    inst = instance_file(tmp_path, {"domain_size": 2})
    out_path = tmp_path / "solution.json"
    rc, out, _ = run(
        capsys, "solve", path, "--instance", inst, "--out", str(out_path)
    )
    assert rc == 0
    assert out == ""
    assert json.loads(out_path.read_text())["min_cost"] == 0


def test_solve_bad_instance(program, capsys, tmp_path):
    path = program("a")
    inst = instance_file(tmp_path, {"domain_size": 2, "edge_costs": {"model": "nope"}})
    rc, _, err = run(capsys, "solve", path, "--instance", inst)
    assert rc == 1
    assert "error" in err



@pytest.mark.parametrize(
    "text, named",
    [
        ('{"high": 1e400}', "random model high"),
        ('{"low": true, "high": 2.7}', "random model low"),
        ('{"inf_prob": 2.0}', "random model inf_prob"),
        ('{"inf_prob": NaN}', "random model inf_prob"),
        ('{"low": 5, "high": 1}', "random model low and high"),
    ],
)
def test_solve_refuses_bad_random_model_parameters(program, capsys, tmp_path, text, named):
    inst = tmp_path / "instance.json"
    inst.write_text('{"domain_size": 2, "edge_costs": {"model": "random", ' + text[1:] + "}")
    rc, out, err = run(capsys, "solve", program("a; b"), "--instance", str(inst))
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and named in err
    assert err.count("\n") == 1


def test_solve_names_a_malformed_vertex_row(program, capsys, tmp_path):
    path = program("a; b")
    inst = instance_file(tmp_path, {"domain_size": 2, "vertex_costs": [{"v": 0, "costs": [1, 2, 3]}]})
    rc, out, err = run(capsys, "solve", path, "--instance", inst)
    assert rc == 1
    assert out == ""
    assert err == "error: vertex 0 costs must be length 2\n"

def test_solve_refuses_inexact_costs(program, capsys, tmp_path):
    path = program("a")
    inst = instance_file(
        tmp_path,
        {
            "domain_size": 2,
            "edge_costs": [{"src": 0, "dst": 1, "table": [[2**53, 0], [0, 0]]}],
        },
    )
    rc, out, err = run(capsys, "solve", path, "--instance", inst)
    assert rc == 1
    assert out == ""
    assert "2**52" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "costs",
    [
        {"edge_costs": [{"src": 0, "dst": 1, "table": [[10**400, 0], [0, 0]]}]},
        {"vertex_costs": [[0, 0], [0, 10**400], [0, 0], [0, 0]]},
    ],
)
def test_solve_refuses_costs_past_float_range(program, capsys, tmp_path, costs):
    path = program("a")
    inst = instance_file(tmp_path, {"domain_size": 2, **costs})
    rc, out, err = run(capsys, "solve", path, "--instance", inst)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and "float64" in err
    assert "Traceback" not in err


def test_solve_oracle_mismatch_exit_code(program, capsys, tmp_path, monkeypatch):
    path = program("a")
    inst = instance_file(tmp_path, {"domain_size": 2})
    monkeypatch.setattr(
        solver, "oracle_solve", lambda instance, budget: Solution(432, None)
    )
    rc, _, err = run(capsys, "solve", path, "--instance", inst, "--oracle-check")
    assert rc == 3
    assert "mismatch" in err


def test_solve_oracle_budget_exhausted(program, capsys, tmp_path):
    path = program("; ".join("abcdefghijklmnopqrstuvwxyz"))
    inst = instance_file(tmp_path, {"domain_size": 2})
    rc, _, err = run(
        capsys, "solve", path, "--instance", inst, "--oracle-check", "--budget", "8"
    )
    assert rc == 1
    assert "budget" in err


def test_solve_refuses_allowed_that_is_not_an_object(program, capsys, tmp_path):
    inst = instance_file(tmp_path, {"domain_size": 2, "allowed": [[0]]})
    rc, out, err = run(capsys, "solve", program("a"), "--instance", inst)
    assert (rc, out) == (1, "")
    assert err == "error: allowed must map vertices to lists of values\n"


# ---------------------------------------------------------------------------
# problem builders


def test_bank_subcommand(program, capsys):
    path = program(BANK_PROGRAM)
    rc, out, _ = run(
        capsys, "bank", path, "--banks", "1",
        "--preassign", "1=0", "--preassign", "5=0", "--preassign", "6=0",
        "--oracle-check",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["min_cost"] == 2
    assert obj["banks"] == 1
    assert obj["selected"]["0"] is None  # entry stays unknown
    assert obj["selected"]["1"] == 0


def test_bank_entry_known(program, capsys):
    path = program(BANK_PROGRAM)
    rc, out, _ = run(
        capsys, "bank", path, "--banks", "1", "--entry-known",
        "--preassign", "1=0", "--preassign", "5=0", "--preassign", "6=0",
    )
    assert rc == 0
    assert json.loads(out)["min_cost"] == 0


def test_bank_bad_preassignment(program, capsys):
    rc, _, err = run(
        capsys, "bank", program(BANK_PROGRAM), "--banks", "1", "--preassign", "1=9"
    )
    assert rc == 1
    assert "error" in err


@pytest.mark.parametrize("taken", ["1", "1,2,3", "x,y", ""])
def test_bank_refuses_a_taken_value_that_is_no_pair(program, capsys, taken):
    rc, out, err = run(capsys, "bank", program(BANK_PROGRAM), "--banks", "1", "--taken", taken)
    assert (rc, out) == (1, "")
    assert err == f"error: expected SRC,DST for --taken, got {taken!r}\n"


def test_bank_refuses_a_taken_pair_that_is_no_edge(program, capsys):
    rc, out, err = run(capsys, "bank", program(BANK_PROGRAM), "--banks", "1", "--taken", "99,100")
    assert (rc, out) == (1, "")
    assert err == "error: taken edges that are not edges of the graph: [(99, 100)]\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bank", "--banks", "2", "--c0", "-1"], "c0 must be non-negative, got -1"),
        (["bank", "--banks", "2", "--c1", "-3"], "c1 must be non-negative, got -3"),
        (["regalloc", "--registers", "1", "--lifetime", "x=0,2", "--switch-cost", "-1"], "switch_cost must be non-negative, got -1"),
    ],
)
def test_a_negative_price_is_refused_by_its_name(program, capsys, argv, message):
    command, *options = argv
    rc, out, err = run(capsys, command, program("a; b"), *options)
    assert (rc, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ('"x"', "an instance must be a JSON object, got str"),
        ('{"domain_size": 2, "edge_costs": [5]}', "edge_costs must be a list of objects with src, dst, table"),
        ('{"domain_size": 2, "allowed": {"1_0": [0]}}', "allowed key must be a vertex number, got '1_0'"),
    ],
)
def test_solve_names_the_field_of_a_malformed_instance(program, capsys, tmp_path, text, message):
    inst = tmp_path / "instance.json"
    inst.write_text(text)
    rc, out, err = run(capsys, "solve", program("a; b; c"), "--instance", str(inst))
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_lospre_subcommand(program, capsys):
    path = program(LOSPRE_PROGRAM)
    rc, out, _ = run(capsys, "lospre", path, "--use", "4,5", "--oracle-check")
    assert rc == 0
    obj = json.loads(out)
    assert obj["min_cost"] == 1
    assert obj["members"] == [1, 4]


def test_lospre_vertex_cost_flag(program, capsys):
    path = program(LOSPRE_PROGRAM)
    rc, out, _ = run(capsys, "lospre", path, "--use", "4,5", "--vertex-cost", "5")
    assert rc == 0
    obj = json.loads(out)
    assert obj["min_cost"] == 3
    assert obj["members"] == []


def test_regalloc_subcommand(program, capsys):
    path = program("a;\nif p then b1; b2 else c fi;\nd")
    rc, out, _ = run(
        capsys, "regalloc", path, "--registers", "2",
        "--lifetime", "x=0,1,4,5,6", "--lifetime", "y=0,1,4,5,6",
        "--oracle-check",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["min_cost"] == 0
    spots = obj["placements"]["0"]
    assert set(spots) == {"x", "y"}
    # locations are register numbers or null for spilled
    assert all(loc is None or isinstance(loc, int) for loc in spots.values())


def test_regalloc_disconnected_lifetime(program, capsys):
    path = program("a;\nif p then b1; b2 else c fi;\nd")
    rc, _, err = run(
        capsys, "regalloc", path, "--registers", "1", "--lifetime", "x=0,5"
    )
    assert rc == 1
    assert "connected" in err


def test_regalloc_lifetime_without_name(program, capsys):
    path = program("a;\nif p then b1; b2 else c fi;\nd")
    rc, _, err = run(
        capsys, "regalloc", path, "--registers", "1", "--lifetime", "0,5"
    )
    assert rc == 1
    assert "VAR=V,V,..." in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lospre", "--use", "x"], "expected V,V,... for --use, got 'x'"),
        (["lospre", "--use", "1,,2"], "expected V,V,... for --use, got '1,,2'"),
        (["lospre", "--use", "1", "--invalidating", "2,y"], "expected V,V,... for --invalidating, got '2,y'"),
        (["regalloc", "--registers", "1", "--lifetime", "x=0,a"], "expected V,V,... for --lifetime, got '0,a'"),
        (["bank", "--banks", "1", "--preassign", "1"], "expected V=B for --preassign, got '1'"),
        (["bank", "--banks", "1", "--preassign", "1=b"], "expected V=B for --preassign, got '1=b'"),
        # `int` would read each of these as some vertex; the instance
        # JSON's `allowed` keys refuse them, and so do the options
        (["lospre", "--use", "1_0"], "expected V,V,... for --use, got '1_0'"),
        (["lospre", "--use", "+2"], "expected V,V,... for --use, got '+2'"),
        (["lospre", "--use", " 3"], "expected V,V,... for --use, got ' 3'"),
        (["lospre", "--use", "1", "--invalidating", "02"], "expected V,V,... for --invalidating, got '02'"),
        (["regalloc", "--registers", "1", "--lifetime", "x=0,+1"], "expected V,V,... for --lifetime, got '0,+1'"),
        (["bank", "--banks", "1", "--preassign", "1_0=1"], "expected V=B for --preassign, got '1_0=1'"),
        (["bank", "--banks", "1", "--taken", "0,1_0"], "expected SRC,DST for --taken, got '0,1_0'"),
        # a bank is read by the rule of its vertex
        (["bank", "--banks", "12", "--preassign", "1=1_0"], "expected V=B for --preassign, got '1=1_0'"),
        (["bank", "--banks", "12", "--preassign", "1= +1"], "expected V=B for --preassign, got '1= +1'"),
    ],
)
def test_integer_options_name_the_option_they_refuse(program, capsys, argv, message):
    command, *options = argv
    rc, out, err = run(capsys, command, program("a; b; c"), *options)
    assert (rc, out) == (1, "")
    assert err == f"error: {message}\n"


def test_coloring_subcommand(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(
        json.dumps({"vertex_count": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 1]]})
    )
    rc, out, _ = run(capsys, "coloring", str(graph), "--colors", "2")
    assert rc == 0
    obj = json.loads(out)
    assert obj["conflicts"] == 1
    rc, out, _ = run(capsys, "coloring", str(graph), "--colors", "3")
    assert rc == 0
    assert json.loads(out)["conflicts"] == 0


def test_coloring_budget(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertex_count": 30, "edges": [[0, 1]]}))
    rc, _, err = run(capsys, "coloring", str(graph), "--colors", "3", "--budget", "10")
    assert rc == 1
    assert "budget" in err


def solve_command_argv(command, program, tmp_path):
    if command == "solve":
        inst = instance_file(tmp_path, {"domain_size": 3, "edge_costs": {"model": "random", "seed": 2}})
        return [program("a; if p then b else c fi"), "--instance", inst]
    if command == "bank":
        return [program(BANK_PROGRAM), "--banks", "1", "--preassign", "1=0", "--preassign", "5=0"]
    if command == "lospre":
        return [program(LOSPRE_PROGRAM), "--use", "4,5"]
    return [
        program("a;\nif p then b1; b2 else c fi;\nd"), "--registers", "2",
        "--lifetime", "x=0,1,4,5,6", "--lifetime", "y=0,1,4,5,6",
    ]


@pytest.mark.parametrize("command", ["solve", "bank", "lospre", "regalloc"])
def test_solve_commands_share_oracle_check_budget_and_out(command, program, capsys, tmp_path, monkeypatch):
    argv = solve_command_argv(command, program, tmp_path)
    rc, plain, _ = run(capsys, command, *argv)
    assert rc == 0
    out_path = tmp_path / "solution.json"
    checked = ["--oracle-check", "--budget", str(1 << 20), "--out", str(out_path)]
    assert run(capsys, command, *argv, *checked) == (0, "", "")
    assert out_path.read_bytes() == plain.encode()
    # the budget reaches the oracle
    rc, out, err = run(capsys, command, *argv, "--oracle-check", "--budget", "1")
    assert (rc, out) == (1, "")
    assert "budget 1" in err
    monkeypatch.setattr(solver, "oracle_solve", lambda instance, budget: Solution(432, None))
    mismatch_path = tmp_path / "mismatch.json"
    rc, out, err = run(capsys, command, *argv, "--oracle-check", "--out", str(mismatch_path))
    assert (rc, out) == (3, "")
    assert "oracle mismatch" in err
    assert not mismatch_path.exists()


@pytest.mark.parametrize("command", ["coloring", "solve"])
def test_budget_zero_allows_no_assignment(command, program, capsys, tmp_path):
    if command == "coloring":
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"vertex_count": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 1]]}))
        argv = [str(graph), "--colors", "2"]
    else:
        argv = solve_command_argv(command, program, tmp_path) + ["--oracle-check"]
    rc, out, err = run(capsys, command, *argv, "--budget", "0")
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.endswith(" exceed the oracle budget 0\n")


def test_coloring_takes_budget_and_out(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertex_count": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 1]]}))
    rc, plain, _ = run(capsys, "coloring", str(graph), "--colors", "2")
    assert rc == 0
    out_path = tmp_path / "colors.json"
    assert run(capsys, "coloring", str(graph), "--colors", "2", "--budget", "16", "--out", str(out_path)) == (0, "", "")
    assert out_path.read_bytes() == plain.encode()
    # coloring only runs the oracle, so there is nothing to check it against
    rc, _, err = run(capsys, "coloring", str(graph), "--colors", "2", "--oracle-check")
    assert rc == 1
    assert "unrecognized arguments: --oracle-check" in err


@pytest.mark.parametrize("edge, named", [([True, 2], "(True, 2)"), ([0.5, 1], "(0.5, 1)")])
def test_coloring_refuses_edge_endpoints_that_are_not_integers(capsys, tmp_path, edge, named):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertex_count": 3, "edges": [edge]}))
    rc, out, err = run(capsys, "coloring", str(graph), "--colors", "2")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "graph, named",
    [
        ({"vertex_count": True, "edges": []}, "vertex_count"),
        ({"vertex_count": 2.0, "edges": []}, "vertex_count"),
        ({"vertex_count": "3", "edges": []}, "vertex_count"),
        ({"vertex_count": -1, "edges": []}, "vertex_count"),
        ({"edges": []}, "vertex_count"),
        ({"vertex_count": 3, "edges": [[0]]}, "edge [0]"),
        ({"vertex_count": 3, "edges": [[0, 1, 2]]}, "edge [0, 1, 2]"),
        ({"vertex_count": 3, "edges": [{"src": 0}]}, "edge {'src': 0}"),
        ({"vertex_count": 3, "edges": [], "vertices": [{"id": 0, "spans": [[1]]}]}, "vertex 0"),
        ({"vertex_count": 3, "edges": [], "vertices": [{"id": 7, "spans": [[1, 1]]}]}, "vertex 7"),
        ({"vertex_count": 3, "edges": [], "vertices": [5]}, "vertex 5"),
        ({"vertex_count": 1, "edges": [], "vertices": [{"id": "zzz"}]}, "vertex 'zzz'"),
        ({"vertex_count": 1, "edges": [], "vertices": [{"id": 99}]}, "vertex 99"),
        ({"vertex_count": 1, "edges": [], "vertices": [{}]}, "vertex None"),
        ({"vertex_count": 1, "edges": [], "vertices": [{"id": 0, "spans": [[1, 2]]}, {"id": 0, "spans": [[3, 4]]}]}, "vertex 0"),
        ({"vertex_count": 3, "edges": [], "specials": 5}, "specials"),
        ({"vertex_count": 3, "edges": [], "specials": [0, 1]}, "specials"),
        ({"vertex_count": 3, "edges": [], "specials": [0, 1, 2, 3]}, "specials"),
        ({"vertex_count": 3, "edges": [], "specials": [0, 1, None, 2]}, "specials"),
        ({"vertex_count": 3, "edges": [], "vertices": 7}, "vertices"),
        ({"vertex_count": 3, "edges": {"0": 1}}, "edges"),
        ({"vertex_count": 3, "edges": [], "entry": 9}, "entry"),
        ({"vertex_count": 3, "edges": [], "entry": True}, "entry"),
        ({"vertex_count": 3, "edges": [], "exit": -1}, "exit"),
        ({"vertex_count": 3, "edges": [], "exit": "2"}, "exit"),
    ],
)
def test_coloring_refuses_a_bad_vertex_count_or_edge_shape(capsys, tmp_path, graph, named):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    rc, out, err = run(capsys, "coloring", str(path), "--colors", "2")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and named in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_coloring_refuses_more_than_256_labels_in_one_line(capsys, tmp_path):
    path = tmp_path / "graph.json"
    edges = [{"src": 0, "dst": 1, "label": f"l{i}"} for i in range(250)]
    path.write_text(json.dumps({"vertex_count": 2, "edges": edges}))
    rc, out, err = run(capsys, "coloring", str(path), "--colors", "1")
    assert (rc, out) == (1, "")
    assert err == "error: edge (0, 1): a graph uses at most 256 labels, 7 of them built in\n"


@pytest.mark.parametrize("command", ["solve", "coloring"])
def test_an_allocation_that_cannot_succeed_is_one_error_line(command, program, capsys, tmp_path):
    # d = 10**8 asks numpy for petabytes, which it refuses at once
    # without touching memory
    if command == "solve":
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps({"domain_size": 10**8}))
        argv = [program("a; b"), "--instance", str(instance)]
    else:
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"vertex_count": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
        argv = [str(graph), "--colors", str(10**8)]
    rc, out, err = run(capsys, command, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and "allocate" in err and err.count("\n") == 1


def test_coloring_with_a_self_loop(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertex_count": 3, "edges": [[0, 1], [1, 1], [1, 2]]}))
    rc, out, _ = run(capsys, "coloring", str(graph), "--colors", "2")
    assert rc == 0
    # the self-loop conflicts whatever the color; nothing else need
    assert json.loads(out) == {
        "assignment": {"0": 0, "1": 1, "2": 0},
        "colors": 2,
        "conflicts": 1,
        "min_cost": 1,
    }


# ---------------------------------------------------------------------------
# gen


def test_gen_subcommand(capsys):
    rc, out, _ = run(capsys, "gen", "--seed", "11", "--size", "25")
    assert rc == 0
    tree = lang.parse_program(out)
    assert count_statements(tree) == 25
    rc, again, _ = run(capsys, "gen", "--seed", "11", "--size", "25")
    assert again == out


# ---------------------------------------------------------------------------
# argument handling


def test_usage_errors_are_exit_code_1(capsys):
    assert run_cli(["frobnicate"]) == 1
    capsys.readouterr()
    assert run_cli(["solve"]) == 1
    capsys.readouterr()
    assert run_cli([]) == 1
    capsys.readouterr()


def test_bench_is_an_unknown_command(capsys):
    # timing lives in benchmark/run.py
    rc, out, err = run(capsys, "bench", "--sizes", "2")
    assert (rc, out) == (1, "")
    assert "invalid choice: 'bench'" in err


def test_parse_deeply_nested_program(capsys, program):
    depth = 2000
    text = (
        "".join("  " * k + f"while p{k} do\n" for k in range(depth))
        + "  " * depth
        + "a\n"
        + "".join("  " * k + "od\n" for k in reversed(range(depth)))
    )
    rc, out, err = run(capsys, "parse", program(text))
    assert rc == 0
    assert out == text
    assert err == ""


def test_json_output_of_deeply_nested_program(capsys, program):
    # json.loads would recurse as deep as the output nests, so count
    # the nodes in the text instead
    depth = 2000
    path = program("while p do " * depth + "a" + " od" * depth)
    rc, out, err = run(capsys, "parse", path, "--json")
    assert (rc, err) == (0, "")
    assert out.count('"kind": "while"') == depth
    rc, out, err = run(capsys, "cfg", path, "--tree")
    assert (rc, err) == (0, "")
    assert out.count('"kind": "loop"') == depth


@pytest.mark.parametrize(
    "text, count",
    [
        ("; ".join(f"x{i} := {i}" for i in range(5000)), 2 * 5000 - 1),
        ("while p do " * 2000 + "a" + " od" * 2000, 2000 + 1),
    ],
    ids=["chain-5000", "nest-2000"],
)
def test_tree_json_stays_linear_in_program_size(capsys, program, text, count):
    path = program(text)
    for argv in (("parse", path, "--json"), ("cfg", path, "--tree")):
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        assert len(out.encode()) < 8_000_000
        obj = json.loads(out)
        assert len(obj["nodes"]) == count
        # every node but the root is the child of exactly one node
        linked = sorted(i for node in obj["nodes"] for i in node.get("children", ()))
        assert linked == [i for i in range(count) if i != obj["root"]]


def test_cfg_writes_one_warning_line_on_an_open_program(tmp_path):
    path = tmp_path / "prog.txt"
    path.write_text("break; a")
    proc = subprocess.run(
        [sys.executable, "-m", "splcsp.cli", "cfg", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: program is not closed (1 break/continue outside any loop, first at 1:1)\n"
    )
    assert json.loads(proc.stdout)["vertex_count"] == 5


def test_cfg_finds_open_jumps_without_check_closed(capsys, program, monkeypatch):
    def refuse(tree):
        raise AssertionError("check_closed called")

    monkeypatch.setattr(lang, "check_closed", refuse)
    path = program("a; break; while p do continue od; continue")
    for argv in (("cfg", path), ("cfg", path, "--tree"), ("lospre", path, "--use", "1")):
        rc, _, err = run(capsys, *argv)
        assert (rc, err) == (0, "warning: program is not closed (2 break/continue outside any loop, first at 1:4)\n")


def test_help_is_exit_code_0(capsys):
    assert run_cli(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("parse", "cfg", "solve", "bank", "lospre", "regalloc",
                 "coloring", "gen"):
        assert name in out


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "splcsp.cli", "gen", "--seed", "2", "--size", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert count_statements(lang.parse_program(proc.stdout)) == 4
