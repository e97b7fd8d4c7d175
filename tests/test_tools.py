import ast
import dataclasses
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

from equivarlab import cli
from equivarlab.deform import (FirstOrderDeformation, ObstructionReport,
                               SecondOrderDeformation)
from equivarlab.harmonicflow import FlowReport
from equivarlab.twistedhodge import TwistedComplex

ROOT = Path(__file__).resolve().parent.parent
REPORT_DIFF = ROOT / "tools" / "report_diff.py"


def run_report_diff(*args):
    return subprocess.run([sys.executable, str(REPORT_DIFF), *map(str, args)],
                          capture_output=True, text=True)


def write_tree(root, value):
    (root / "task").mkdir(parents=True)
    (root / "task" / "report.json").write_text(f'{{"result": {{"x": {value}}}}}')
    (root / "task" / "table.csv").write_text("h,x\n0.1,1.0\n")


def test_report_diff_exit_status(tmp_path):
    old, same, moved = tmp_path / "old", tmp_path / "same", tmp_path / "moved"
    write_tree(old, 0.5)
    write_tree(same, 0.5)
    write_tree(moved, 0.25)
    out = run_report_diff(old, same)
    assert out.returncode == 0, out.stdout
    assert out.stdout.strip() == "0 of 2 files differ"
    out = run_report_diff(old, moved)
    assert out.returncode == 1, out.stdout
    assert "result.x: 0.5 -> 0.25  (rel 5.00e-01, abs 2.50e-01)" in out.stdout
    assert out.stdout.strip().endswith("1 of 2 files differ")
    (moved / "task" / "table.csv").write_text("h,x\n0.1,0.5\n")
    out = run_report_diff(old, moved)
    assert "x: max rel 5.00e-01 at row 1, max abs 5.00e-01 at row 1" in out.stdout
    (same / "task" / "table.csv").unlink()
    out = run_report_diff(old, same)
    assert out.returncode == 1, out.stdout
    assert "only in" in out.stdout
    assert run_report_diff(old).returncode == 2


def test_report_diff_names_the_largest_change(tmp_path):
    # one closing line carries the largest relative and the largest absolute
    # change over every numeric leaf and cell, each with where it occurs: a
    # relative move at the rounding floor shows as a tiny absolute one
    old, new = tmp_path / "old", tmp_path / "new"
    write_tree(old, 1e-14)
    write_tree(new, 2e-14)
    (old / "task" / "table.csv").write_text("h,x\n0.1,100.0\n0.2,3.0\n")
    (new / "task" / "table.csv").write_text("h,x\n0.1,100.5\n0.2,3.0\n")
    lines = run_report_diff(old, new).stdout.strip().splitlines()
    assert lines[-1] == "2 of 2 files differ"
    assert lines[-2] == ("largest change: rel 5.00e-01 at task/report.json: result.x, "
                         "abs 5.00e-01 at task/table.csv: x row 1")
    (new / "task" / "report.json").write_text('{"result": {"x": "moved"}}')
    (new / "task" / "table.csv").write_text((old / "task" / "table.csv").read_text())
    lines = run_report_diff(old, new).stdout.strip().splitlines()
    assert lines[-2] == "largest change: no numeric value moved"


def load_report_digest():
    spec = importlib.util.spec_from_file_location("report_digest",
                                                  ROOT / "tools" / "report_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_report_digest_against_pairs_lines_by_path():
    # --against prints the lines of each path that moved or that one side
    # lacks, old before new, and counts the paths
    compare = load_report_digest().compare
    old = ["aa  default/x/r.json", "bb  default/y/r.json", "cc  seed301/x/r.json"]
    assert compare(old, list(old)) == ([], 0, 3)
    new = ["aa  default/x/r.json", "bd  default/y/r.json", "dd  seed301/z/r.json"]
    assert compare(old, new) == (
        ["- bb  default/y/r.json", "+ bd  default/y/r.json",
         "- cc  seed301/x/r.json", "+ dd  seed301/z/r.json"], 3, 4)


def test_report_digest_runs_every_golden_and_bench_config_once(monkeypatch):
    # the byte-identity check of a refactor is only as wide as this list
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    digest = load_report_digest()
    import workloads
    expected = {}
    for path in sorted((ROOT / "tests" / "golden").glob("*.json")):
        golden = json.loads(path.read_text())
        expected[path.stem] = (golden["task"], golden["config"])
    tables = (workloads.FD_CONFIGS, workloads.PLATEAU_CONFIGS)
    for table in tables:
        assert not expected.keys() & table.keys()
        expected.update(table)
    runs = digest.configs()
    names = [name for name, _, _ in runs]
    assert len(names) == len(set(names)) == len(expected)
    assert {name: (task, cfg) for name, task, cfg in runs} == expected
    assert all(task in cli.TASK_FUNCS for _, task, _ in runs)


def test_report_digest_keeps_only_output_files(tmp_path, monkeypatch):
    # a kept tree holds the output files alone, so tools/report_diff.py on
    # two kept trees counts the files whose lines the digest counts
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    digest = load_report_digest()

    def one_file(argv):
        assert tmp_path not in Path(argv[argv.index("--config") + 1]).parents
        report = Path(argv[argv.index("--out") + 1]) / "report.json"
        # a --seed run reruns over a copy of the default run's outputs
        assert report.exists() == ("--seed" in argv)
        report.write_text("{}")
        return 0
    monkeypatch.setattr(cli, "main", one_file)
    lines = digest.digests(tmp_path)
    files = sorted(str(f.relative_to(tmp_path)) for f in tmp_path.rglob("*") if f.is_file())
    assert files == [line.split("  ", 1)[1] for line in lines]
    assert len(files) == len(digest.SEEDS) * len(digest.configs())


def resolve(module, name):
    """module.name, imported if it is a submodule; None if it does not exist."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return getattr(importlib.import_module(module), name, None)


def bench_package_names():
    """{"module.name": object or None} of every name that bench/*.py imports
    from the package, or reads as an attribute of an imported package module."""
    found = {}
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}        # local name -> package module it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update({a.asname or a.name: a.name for a in node.names
                                if a.name.split(".")[0] == "equivarlab"})
            elif isinstance(node, ast.ImportFrom) \
                    and (node.module or "").split(".")[0] == "equivarlab":
                for a in node.names:
                    obj = found[f"{node.module}.{a.name}"] = resolve(node.module, a.name)
                    if isinstance(obj, types.ModuleType):
                        modules[a.asname or a.name] = obj.__name__
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                module = modules[node.value.id]
                found[f"{module}.{node.attr}"] = resolve(module, node.attr)
    return found


def test_bench_reads_only_names_the_package_has():
    # the benchmark's scripts stay fixed across a refactor, so deleting a
    # library name they read must fail here, not in a benchmark run
    found = bench_package_names()
    assert {"equivarlab.harmonicflow.tension_norm", "equivarlab.deform.validate_pair",
            "equivarlab.cli.EXIT_OBSTRUCTED",
            "equivarlab.repvar.cocycle_space_basis"} <= found.keys()
    assert [name for name, obj in found.items() if obj is None] == []
    # members the benchmark reads off a complex
    for member in ("A0", "inner", "norm", "kernel_sections", "kernel_dim",
                   "contract_star", "hodge_decompose", "jacobi_dense_sym"):
        assert hasattr(TwistedComplex, member), member
    # fields the benchmark reads off the records the package returns
    for record, names in [
            (FlowReport, {"converged", "energy", "iterations"}),
            (ObstructionReport, {"defect", "orthogonal", "scale"}),
            (FirstOrderDeformation, {"omega", "residuals"}),
            (SecondOrderDeformation, {"F", "F2", "psi", "residuals"})]:
        assert names <= {f.name for f in dataclasses.fields(record)}, record
