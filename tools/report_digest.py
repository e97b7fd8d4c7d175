"""Print a sha256 digest of every output file of the fixed CLI report configs.

    python3 tools/report_digest.py

Run from any directory; the sources under ``src/`` of this checkout are
used.  The configs are the ok and obstructed runs of ``tests/test_cli.py``
(read from the goldens in ``tests/golden/`` that lock their reports; each
holds its task and resolved config) and every ``FD_CONFIGS`` and
``PLATEAU_CONFIGS`` entry of ``bench/workloads.py``.  Each config runs
through ``cli.main`` twice, with its default seed and with ``--seed 301``,
with one BLAS thread.  One line ``<sha256>  <seed>/<config>/<file>`` is
printed per output file, sorted by path, so the outputs of two checkouts
can be compared with ``diff`` to show that a change keeps every report
byte-identical.

    python3 tools/report_digest.py --keep DIR

also keeps the output files under DIR (which must not hold an earlier run),
so that ``tools/report_diff.py`` can show, leaf by leaf, what moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
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
    for seed in SEEDS:
        tag = "default" if seed is None else f"seed{seed}"
        for name, task, cfg in configs():
            out = out_root / tag / name
            out.mkdir(parents=True)
            cfg_path = out.parent / f"{name}.json"
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


def main():
    if any(os.environ.get(k) != v for k, v in BLAS_ENV.items()):
        env = dict(os.environ, **BLAS_ENV)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--keep", metavar="DIR",
                        help="write the output files under DIR and keep them")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    with (contextlib.nullcontext(args.keep) if args.keep
          else tempfile.TemporaryDirectory()) as out_root:
        print("\n".join(digests(Path(out_root).resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
