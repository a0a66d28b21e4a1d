#!/usr/bin/env python3
"""Compare two trees of innerorbit outputs: report JSON and CSV tables.

    python3 tools/report_diff.py PARENT_DIR CHANGE_DIR

Every ``*.json`` and ``*.csv`` file under either directory is paired with
the file at the same relative path under the other. Byte-identical pairs
are counted; the others are compared value by value:

- a float is compared numerically, under a field name that drops list
  indices and run directories (``report.json:results.stages[].fidelity``,
  ``stages.csv:fidelity``); a JSON number that renders as an integer on one
  side is a float when the other side's is;
- a string (and so every CSV cell) is split into its numeric literals and
  the text between them: the text must match, and literals that are
  integers on both sides must be equal, while the rest are floats of the
  string's field (a serialized expression such as ``blaschke(0.5+0i, 0)``
  carries its parameters this way);
- anything else (a key, a length, a type, an integer, a boolean, null, a
  file on one side only) must be equal, and each place where it is not is
  printed with its path.

Prints, per float field with a difference, how many values differ and the
largest absolute and relative difference. Exits 1 on any non-float
difference, else 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from pathlib import Path

#: a decimal literal with optional sign, fraction and exponent
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class Comparison:
    def __init__(self):
        self.fields = {}  # field -> [values compared, values differing, max abs, max rel]
        self.mismatches = []  # (file, path, parent, change)

    def mismatch(self, file, path, a, b):
        self.mismatches.append((file, path, a, b))

    def floats(self, field, a: float, b: float):
        stats = self.fields.setdefault(field, [0, 0, 0.0, 0.0])
        stats[0] += 1
        if a == b or (a != a and b != b):
            return
        diff = abs(a - b)
        if math.isfinite(diff):
            rel = diff / max(abs(a), abs(b))
        else:  # a NaN or an infinity on one side only
            diff = rel = math.inf
        stats[1] += 1
        stats[2] = max(stats[2], diff)
        stats[3] = max(stats[3], rel)

    def strings(self, file, path, field, a: str, b: str):
        numbers_a, numbers_b = NUMBER.findall(a), NUMBER.findall(b)
        if NUMBER.split(a) != NUMBER.split(b) or len(numbers_a) != len(numbers_b):
            return self.mismatch(file, path, a, b)
        for x, y in zip(numbers_a, numbers_b):
            if _is_int(x) and _is_int(y):
                if int(x) != int(y):
                    return self.mismatch(file, path, a, b)
            else:
                self.floats(field, float(x), float(y))

    def values(self, file, path, field, a, b):
        if _is_number(a) and _is_number(b) and float in (type(a), type(b)):
            self.floats(field, float(a), float(b))
        elif isinstance(a, str) and isinstance(b, str):
            self.strings(file, path, field, a, b)
        elif isinstance(a, dict) and isinstance(b, dict):
            if list(a) != list(b):
                return self.mismatch(file, path + " keys", list(a), list(b))
            for key in a:
                sub = f"{path}.{key}" if path else key
                self.values(file, sub, f"{field}{'.' if path else ''}{key}",
                            a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                return self.mismatch(file, path + " length", len(a), len(b))
            for i, (x, y) in enumerate(zip(a, b)):
                self.values(file, f"{path}[{i}]", f"{field}[]", x, y)
        elif type(a) is not type(b) or a != b:
            self.mismatch(file, path, a, b)

    def files(self, name: str, a: bytes, b: bytes):
        base = Path(name).name
        try:
            if name.endswith(".json"):
                return self.values(name, "", base + ":",
                                   json.loads(a), json.loads(b))
            rows_a, rows_b = (list(csv.reader(io.StringIO(x.decode("utf-8"))))
                              for x in (a, b))
        except ValueError as exc:
            return self.mismatch(name, "(unreadable)", str(exc), "")
        if len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]:
            return self.mismatch(name, "(shape or header)", len(rows_a), len(rows_b))
        header = rows_a[0]
        for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
            if len(row_a) != len(row_b) or len(row_a) != len(header):
                self.mismatch(name, f"row {r}", row_a, row_b)
                continue
            for column, x, y in zip(header, row_a, row_b):
                self.strings(name, f"row {r} {column}", f"{base}:{column}", x, y)


def _is_int(text: str) -> bool:
    return not any(c in text for c in ".eE")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _outputs(root: Path) -> set:
    return {str(p.relative_to(root)) for pattern in ("*.json", "*.csv")
            for p in root.rglob(pattern) if p.is_file()}


def _short(x, width: int = 70) -> str:
    text = repr(x)
    return text if len(text) <= width else text[: width - 3] + "..."


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = map(Path, argv)
    names_a, names_b = _outputs(parent), _outputs(change)
    comparison = Comparison()
    for name in sorted(names_a ^ names_b):
        side = "parent" if name in names_a else "change"
        comparison.mismatch(name, "(file)", f"only under {side}", "")
    identical = 0
    for name in sorted(names_a & names_b):
        a, b = (parent / name).read_bytes(), (change / name).read_bytes()
        if a == b:
            identical += 1
        else:
            comparison.files(name, a, b)

    print(f"{identical} of {len(names_a | names_b)} files byte-identical")
    differing = {f: s for f, s in comparison.fields.items() if s[1]}
    if differing:
        width = max(map(len, differing))
        print(f"{'float field':<{width}}  {'values':>7}  {'differ':>7}  "
              f"{'max abs':>9}  {'max rel':>9}")
        for field, (count, changed, most, rel) in sorted(differing.items()):
            print(f"{field:<{width}}  {count:>7}  {changed:>7}  "
                  f"{most:>9.2e}  {rel:>9.2e}")
    same = len(comparison.fields) - len(differing)
    print(f"{same} float fields equal in every compared file")
    for file, path, a, b in comparison.mismatches:
        print(f"NON-FLOAT {file} {path}: {_short(a)} != {_short(b)}")
    print(f"{len(comparison.mismatches)} non-float differences")
    return 1 if comparison.mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
