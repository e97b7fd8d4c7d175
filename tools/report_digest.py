"""Print a sha256 digest of every output file of the fixed CLI report configs.

    python3 tools/report_digest.py

Run from any directory; the sources under ``src/`` of this checkout are
used.  The configs are the ok and obstructed runs of ``tests/test_cli.py``
(read from the goldens in ``tests/golden/`` that lock their reports; each
holds its task and resolved config) and every ``FD_CONFIGS`` and
``PLATEAU_CONFIGS`` entry of ``bench/workloads.py``.  Each config runs
through ``cli.main`` twice, with its default seed and with ``--seed 301``,
with one BLAS thread.  The ``--seed 301`` run of a config goes into a copy
of its default run's output directory, so a file that a rerun leaves stale
or rewrites only in part shows as an extra or differing line.  One line ``<sha256>  <seed>/<config>/<file>`` is
printed per output file, sorted by path, so the outputs of two checkouts
can be compared with ``diff`` to show that a change keeps every report
byte-identical.

    python3 tools/report_digest.py --keep DIR

also keeps the output files under DIR (which must not hold an earlier run),
so that ``tools/report_diff.py`` can show, leaf by leaf, what moved.  DIR
holds the output files alone (the configs are written elsewhere; each
report echoes its own), so the diff counts the files the digest counts.

    python3 tools/report_digest.py --against REV [--keep DIR]

digests a ``git archive`` of REV with that tree's own sources, configs and
digest script, then this checkout, and prints the lines whose file differs
or is missing from one side (``- `` REV, ``+ `` this checkout) and a last
line ``N of M lines differ``; it exits 1 when any line differs.  With
``--keep`` the two output trees are DIR/old and DIR/new, for
``tools/report_diff.py DIR/old DIR/new``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (None, 301)
#: numpy reads the BLAS thread count once, at import
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def configs():
    """(name, task, config) of every run, in a fixed order."""
    import workloads
    runs = []
    for path in sorted((ROOT / "tests" / "golden").glob("*.json")):
        golden = json.loads(path.read_text())
        runs.append((path.stem, golden["task"], golden["config"]))
    for table in (workloads.FD_CONFIGS, workloads.PLATEAU_CONFIGS):
        runs += [(name, task, cfg) for name, (task, cfg) in sorted(table.items())]
    return runs


def digests(out_root):
    from equivarlab import cli
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "equivarlab":
        raise SystemExit(f"equivarlab imported from {cli.__file__}, "
                         f"not from {ROOT / 'src'}")
    lines = []
    # the configs go outside out_root, which holds the output files alone
    with tempfile.TemporaryDirectory() as cfg_dir:
        for seed in SEEDS:
            tag = "default" if seed is None else f"seed{seed}"
            for name, task, cfg in configs():
                out = out_root / tag / name
                if seed is None:
                    out.mkdir(parents=True)
                else:
                    shutil.copytree(out_root / "default" / name, out)
                cfg_path = Path(cfg_dir) / f"{name}.json"
                cfg_path.write_text(json.dumps(cfg))
                argv = [task, "--config", str(cfg_path), "--out", str(out)]
                if seed is not None:
                    argv += ["--seed", str(seed)]
                with contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
                for f in sorted(out.rglob("*")):
                    if f.is_file():
                        digest = hashlib.sha256(f.read_bytes()).hexdigest()
                        lines.append(f"{digest}  {f.relative_to(out_root)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def compare(old, new):
    """(lines, differ, total) of two digest listings, paired by path: the
    listings' lines of every path whose digest differs or that one of them
    lacks, ``- `` old before ``+ `` new, the number of such paths, and the
    number of paths in either listing."""
    old, new = ({line.split("  ", 1)[1]: line for line in lines} for lines in (old, new))
    paths = old.keys() | new.keys()
    moved = [path for path in sorted(paths) if old.get(path) != new.get(path)]
    lines = [f"{sign} {side[path]}" for path in moved
             for sign, side in (("-", old), ("+", new)) if path in side]
    return lines, len(moved), len(paths)


def against(rev, out_root):
    """Digest REV's archive with its own script, then this checkout, under
    out_root/old and out_root/new; print the lines that differ.  The exit
    status: 0 when none differs, 1 when one does, 2 when REV cannot be
    archived or digested."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 capture_output=True)
        if archive.returncode != 0:
            print(f"git archive {rev}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        run = subprocess.run([sys.executable, str(Path(tmp) / "tools" / "report_digest.py"),
                              "--keep", str(out_root / "old")],
                             capture_output=True, text=True)
        if run.returncode != 0:
            print(f"digest of {rev} failed:\n{run.stderr}", file=sys.stderr)
            return 2
    lines, differ, total = compare(run.stdout.splitlines(), digests(out_root / "new"))
    print("\n".join(lines + [f"{differ} of {total} lines differ"]))
    return 1 if differ else 0


def main():
    if any(os.environ.get(k) != v for k, v in BLAS_ENV.items()):
        env = dict(os.environ, **BLAS_ENV)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--keep", metavar="DIR",
                        help="write the output files under DIR and keep them")
    parser.add_argument("--against", metavar="REV",
                        help="digest a git archive of REV too and print the lines that differ")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    with (contextlib.nullcontext(args.keep) if args.keep
          else tempfile.TemporaryDirectory()) as out_root:
        out_root = Path(out_root).resolve()
        if args.against:
            return against(args.against, out_root)
        print("\n".join(digests(out_root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
