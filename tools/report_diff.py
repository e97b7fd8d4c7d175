"""Show, leaf by leaf, how two trees of CLI output files differ.

    python3 tools/report_diff.py OLD NEW

OLD and NEW are directories written by ``tools/report_digest.py --keep``
(or any two trees of ``equivar-lab`` outputs).  Files are paired by their
path relative to the root.  For a JSON file every differing leaf is printed
as ``path: old -> new`` with its relative difference
|new - old| / max(|old|, |new|) and its absolute difference |new - old| when
both are numbers; the absolute one shows whether a large relative move sits
at the rounding floor.  For a CSV file the largest relative and the largest
absolute difference of each column are printed, each with the row where it
occurs.  Byte-identical files print nothing.  When a file differs, a
summary line names the largest relative and the largest absolute change
over all numeric leaves and cells, each with the file and leaf (or cell)
where it occurs; the last line counts the files that differ.  The exit status is 0 when every file is byte-identical,
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


def abs_diff(a, b):
    """|b - a|; 0 for equal values (NaN equals NaN), inf against a NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(b - a)


def rel_diff(a, b):
    """abs_diff(a, b) / max(|a|, |b|); 0 and inf as abs_diff gives them."""
    d = abs_diff(a, b)
    return d if d in (0.0, math.inf) else d / max(abs(a), abs(b))


class Largest:
    """The largest relative and the largest absolute change seen, each with
    the place (file and leaf, or file, column and row) where it occurs."""

    def __init__(self):
        self.rel, self.rel_at, self.abs, self.abs_at = 0.0, None, 0.0, None

    def see(self, rel, absolute, where):
        if rel > self.rel:
            self.rel, self.rel_at = rel, where
        if absolute > self.abs:
            self.abs, self.abs_at = absolute, where

    def line(self):
        if self.rel_at is None:
            return "largest change: no numeric value moved"
        return (f"largest change: rel {self.rel:.2e} at {self.rel_at}, "
                f"abs {self.abs:.2e} at {self.abs_at}")


def diff_json(old, new, largest, name):
    """Lines of the differing leaves of file name; numeric changes also go
    to largest."""
    a, b = leaves(json.loads(old)), leaves(json.loads(new))
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            lines.append(f"  {key}: {json.dumps(a[key])} -> (absent)")
        elif key not in a:
            lines.append(f"  {key}: (absent) -> {json.dumps(b[key])}")
        elif _number(a[key]) and _number(b[key]):
            x, y = float(a[key]), float(b[key])
            r = rel_diff(x, y)
            largest.see(r, abs_diff(x, y), f"{name}: {key}")
            if r:
                lines.append(f"  {key}: {json.dumps(a[key])} -> {json.dumps(b[key])}"
                             f"  (rel {r:.2e}, abs {abs_diff(x, y):.2e})")
        elif a[key] != b[key]:
            lines.append(f"  {key}: {json.dumps(a[key])} -> {json.dumps(b[key])}")
    return lines


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def diff_csv(old, new, largest, name):
    """Lines of the largest change of each column of file name; numeric
    changes also go to largest."""
    a = list(csv.reader(old.splitlines()))
    b = list(csv.reader(new.splitlines()))
    if not a or not b or a[0] != b[0] or len(a) != len(b):
        return [f"  header or row count differs: {len(a)} -> {len(b)} rows"]
    lines = []
    for col, col_name in enumerate(a[0]):
        worst, where, worst_abs, where_abs, text = 0.0, None, 0.0, None, False
        for row, (ra, rb) in enumerate(zip(a[1:], b[1:]), start=1):
            x, y = _cell(ra[col]), _cell(rb[col])
            if isinstance(x, float) and isinstance(y, float):
                r, d = rel_diff(x, y), abs_diff(x, y)
                largest.see(r, d, f"{name}: {col_name} row {row}")
                if r > worst:
                    worst, where = r, row
                if d > worst_abs:
                    worst_abs, where_abs = d, row
            elif x != y:
                text = True
        if worst:
            lines.append(f"  {col_name}: max rel {worst:.2e} at row {where}, "
                         f"max abs {worst_abs:.2e} at row {where_abs}")
        if text:
            lines.append(f"  {col_name}: text cells differ")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_root, new_root = Path(argv[0]), Path(argv[1])
    files = {p.relative_to(old_root) for p in old_root.rglob("*") if p.is_file()}
    files |= {p.relative_to(new_root) for p in new_root.rglob("*") if p.is_file()}
    n_diff, largest = 0, Largest()
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
            lines = diff_json(old, new, largest, rel)
        elif rel.suffix == ".csv":
            lines = diff_csv(old, new, largest, rel)
        else:
            lines = ["  contents differ"]
        print(str(rel))
        print("\n".join(lines or ["  bytes differ, values equal"]))
    if n_diff:
        print(largest.line())
    print(f"{n_diff} of {len(files)} files differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
