import ast
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

from equivarlab import cli
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


def test_report_digest_runs_every_golden_and_bench_config_once(monkeypatch):
    # the byte-identity check of a refactor is only as wide as this list
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("report_digest",
                                                  ROOT / "tools" / "report_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
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
