"""Show, leaf by leaf, how two trees of CLI output files differ.

    python3 tools/report_diff.py OLD NEW

OLD and NEW are directories written by ``tools/report_digest.py --keep``
(or any two trees of ``equivar-lab`` outputs).  Files are paired by their
path relative to the root.  For a JSON file every differing leaf is printed
as ``path: old -> new`` with its relative difference
|new - old| / max(|old|, |new|) when both are numbers.  For a CSV file the
largest relative difference of each column is printed, with the row where
it occurs.  Byte-identical files print nothing; the last line counts the
files that differ.  The exit status is 0 when every file is byte-identical,
1 when any file differs or is missing from one tree, and 2 on bad usage.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def leaves(node, prefix=""):
    """Flat {path: value} of the leaves of a JSON document."""
    if isinstance(node, dict):
        out = {}
        for key, val in node.items():
            out.update(leaves(val, f"{prefix}.{key}" if prefix else key))
        return out
    if isinstance(node, list):
        out = {}
        for i, val in enumerate(node):
            out.update(leaves(val, f"{prefix}[{i}]"))
        return out
    return {prefix: node}


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def rel_diff(a, b):
    """|b - a| / max(|a|, |b|); 0 for equal values (NaN equals NaN)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def diff_json(old, new):
    a, b = leaves(json.loads(old)), leaves(json.loads(new))
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            lines.append(f"  {key}: {json.dumps(a[key])} -> (absent)")
        elif key not in a:
            lines.append(f"  {key}: (absent) -> {json.dumps(b[key])}")
        elif _number(a[key]) and _number(b[key]):
            r = rel_diff(float(a[key]), float(b[key]))
            if r:
                lines.append(f"  {key}: {json.dumps(a[key])} -> {json.dumps(b[key])}"
                             f"  (rel {r:.2e})")
        elif a[key] != b[key]:
            lines.append(f"  {key}: {json.dumps(a[key])} -> {json.dumps(b[key])}")
    return lines


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def diff_csv(old, new):
    a = list(csv.reader(old.splitlines()))
    b = list(csv.reader(new.splitlines()))
    if not a or not b or a[0] != b[0] or len(a) != len(b):
        return [f"  header or row count differs: {len(a)} -> {len(b)} rows"]
    lines = []
    for col, name in enumerate(a[0]):
        worst, where, text = 0.0, None, False
        for row, (ra, rb) in enumerate(zip(a[1:], b[1:]), start=1):
            x, y = _cell(ra[col]), _cell(rb[col])
            if isinstance(x, float) and isinstance(y, float):
                r = rel_diff(x, y)
                if r > worst:
                    worst, where = r, row
            elif x != y:
                text = True
        if worst:
            lines.append(f"  {name}: max rel {worst:.2e} at row {where}")
        if text:
            lines.append(f"  {name}: text cells differ")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_root, new_root = Path(argv[0]), Path(argv[1])
    files = {p.relative_to(old_root) for p in old_root.rglob("*") if p.is_file()}
    files |= {p.relative_to(new_root) for p in new_root.rglob("*") if p.is_file()}
    n_diff = 0
    for rel in sorted(files):
        a, b = old_root / rel, new_root / rel
        if not (a.is_file() and b.is_file()):
            print(f"{rel}: only in {old_root if a.is_file() else new_root}")
            n_diff += 1
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        n_diff += 1
        old, new = a.read_text(), b.read_text()
        if rel.suffix == ".json":
            lines = diff_json(old, new)
        elif rel.suffix == ".csv":
            lines = diff_csv(old, new)
        else:
            lines = ["  contents differ"]
        print(str(rel))
        print("\n".join(lines or ["  bytes differ, values equal"]))
    print(f"{n_diff} of {len(files)} files differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
