import json
import subprocess
import sys

import pytest

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
    obj = json.loads(out)
    assert obj["kind"] == "while"
    assert obj["guard"] == "p"
    assert obj["children"][0]["kind"] == "break"


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
    assert obj["tree"]["kind"] == "series"


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


# ---------------------------------------------------------------------------
# gen and bench


def test_gen_subcommand(capsys):
    rc, out, _ = run(capsys, "gen", "--seed", "11", "--size", "25")
    assert rc == 0
    tree = lang.parse_program(out)
    assert lang.count_statements(tree) == 25
    rc, again, _ = run(capsys, "gen", "--seed", "11", "--size", "25")
    assert again == out


def test_bench_subcommand_stdout(capsys):
    rc, out, _ = run(capsys, "bench", "--sizes", "2,3", "--trials", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("size,id,vertices,")
    assert len(lines) == 5


def test_bench_subcommand_csv_file(capsys, tmp_path):
    out_path = tmp_path / "bench.csv"
    rc, out, _ = run(
        capsys, "bench", "--sizes", "2", "--trials", "1", "--with-oracle",
        "--csv", str(out_path),
    )
    assert rc == 0
    assert out == ""
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[6] != ""  # oracle was timed


# ---------------------------------------------------------------------------
# argument handling


def test_usage_errors_are_exit_code_1(capsys):
    assert run_cli(["frobnicate"]) == 1
    capsys.readouterr()
    assert run_cli(["solve"]) == 1
    capsys.readouterr()
    assert run_cli([]) == 1
    capsys.readouterr()


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


def test_help_is_exit_code_0(capsys):
    assert run_cli(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("parse", "cfg", "solve", "bank", "lospre", "regalloc",
                 "coloring", "gen", "bench"):
        assert name in out


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "splcsp.cli", "gen", "--seed", "2", "--size", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert lang.count_statements(lang.parse_program(proc.stdout)) == 4
