import subprocess
import sys
from pathlib import Path

REPORT_DIFF = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"


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
    assert "result.x: 0.5 -> 0.25  (rel 5.00e-01)" in out.stdout
    assert out.stdout.strip().endswith("1 of 2 files differ")
    (same / "task" / "table.csv").unlink()
    out = run_report_diff(old, same)
    assert out.returncode == 1, out.stdout
    assert "only in" in out.stdout
    assert run_report_diff(old).returncode == 2
