"""Do two sets of end-to-end benchmark runs agree within the benchmark's bounds?

    python benchmarks/e2e/agree.py A.jsonl B.jsonl

Each file is a set of runs: the JSON lines ``run.py --out FILE`` appends,
one per untraced workload run (traced records are ignored).  For every
workload x end-to-end metric of ``BENCHMARK.json`` the table shows each
set's median with its quartiles and run count, and the medians' difference
relative to set A's median.  The exit status is 1 when any difference
exceeds that metric's bound (or a set lacks the pair), else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` of the untraced records in ``path``."""
    runs: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"]:
            continue
        for metric, entry in record["metrics"].items():
            runs[record["workload"]][metric].append(entry["value"])
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def compare(a: dict, b: dict, bounds: dict[str, float]) -> tuple[list[str], bool]:
    """Table rows and whether every workload x metric pair agrees."""
    rows = [f"{'workload':<16} {'metric':<12} {'A median [q1, q3] (n)':>34} "
            f"{'B median [q1, q3] (n)':>34} {'diff':>8} {'bound':>6}"]
    agree = True
    for workload in sorted(set(a) | set(b)):
        for metric, bound in bounds.items():
            values_a = a.get(workload, {}).get(metric, [])
            values_b = b.get(workload, {}).get(metric, [])
            if not values_a or not values_b:
                rows.append(f"{workload:<16} {metric:<12} missing in {'A' if not values_a else 'B'}")
                agree = False
                continue
            cells = []
            for values in (values_a, values_b):
                first, median, third = summary(values)
                cells.append(f"{median:.4g} [{first:.4g}, {third:.4g}] ({len(values)})")
            median_a, median_b = summary(values_a)[1], summary(values_b)[1]
            diff = abs(median_b - median_a) / abs(median_a) if median_a else float("inf")
            verdict = "ok" if diff <= bound else "DIFFER"
            agree &= diff <= bound
            rows.append(f"{workload:<16} {metric:<12} {cells[0]:>34} {cells[1]:>34} "
                        f"{diff:>8.2%} {bound:>6.0%} {verdict}")
    return rows, agree


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    rows, agree = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), bounds)
    print("\n".join(rows))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
