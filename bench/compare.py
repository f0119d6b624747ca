"""Compare two sets of benchmark records.

    python3 bench/compare.py BEFORE AFTER

BEFORE and AFTER are record files written by ``run.py`` or directories
holding them.  Records are paired by workload, seed and trace mode.  The
comparison is refused (exit 2) when a pair was made from different inputs,
that is when their input digests differ, or when nothing pairs up.  For
each workload and metric it prints both sides' median over the paired
runs, the relative change, and the spread of the BEFORE side (distance
between its quartiles over its median).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> dict:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = {}
    for file in files:
        record = json.loads(file.read_text())
        records[record["workload"], record["seed"], record["trace"]] = record
    return records


def spread(values: list) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else None


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    before, after = (load(Path(p)) for p in argv)
    keys = sorted(set(before) & set(after))
    if not keys:
        print("error: no records pair up", file=sys.stderr)
        return 2
    drift = [k for k in keys
             if before[k]["inputs_digest"] != after[k]["inputs_digest"]]
    if drift:
        print(f"error: inputs differ for {drift}; refusing to compare",
              file=sys.stderr)
        return 2
    values = defaultdict(lambda: ([], []))
    units = {}
    for key in keys:
        workload, _, trace = key
        for side, record in enumerate((before[key], after[key])):
            for name, stats in record["metrics"].items():
                values[workload, trace, name][side].append(stats["median"])
                units[name] = stats["unit"]
    for (workload, trace, name), (old, new) in sorted(values.items()):
        a, b = statistics.median(old), statistics.median(new)
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        s = spread(old)
        spread_text = f"{s:.1%}" if s is not None else "n/a"
        print(f"{workload:9} {'traced ' if trace else ''}{name:24} "
              f"{a:.6g} -> {b:.6g} {units[name]} ({change}; "
              f"before spread {spread_text}, {len(old)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
