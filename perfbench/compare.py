"""Compare two result files written with `run.py --out`, workload by
workload and metric by metric.

Each file holds one JSON line per run.  For every (workload, metric) the
runs of each side give a median and a spread (interquartile range as a
share of the median).  A pair is marked:

- `worse`: AFTER's median is worse than BEFORE's by more than the bound;
- `unresolved`: either side's spread exceeds the bound, unless every run
  of AFTER beats every run of BEFORE;
- `better`: AFTER's median beats BEFORE's by more than BEFORE's spread,
  and AFTER wins at least nine tenths of all (BEFORE, AFTER) run pairs;
- `same`: otherwise.

Bounds come from BENCHMARK.json's end-to-end metrics; per-layer metrics,
which have none, use DEFAULT_BOUND.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

DEFAULT_BOUND = 0.10


def _spread(values: list) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(median)


def load(path) -> dict:
    """(workload, metric) -> {"values": [...], "unit": str}"""
    runs = defaultdict(lambda: {"values": [], "unit": ""})
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        result = json.loads(line)
        for name, m in result["metrics"].items():
            entry = runs[(result["workload"], name)]
            entry["values"].append(float(m["value"]))
            entry["unit"] = m["unit"]
    return dict(runs)


def verdict(before: list, after: list, bound: float, higher_is_better: bool) -> str:
    sign = 1.0 if higher_is_better else -1.0
    b_med, a_med = statistics.median(before), statistics.median(after)
    gain = sign * (a_med - b_med) / abs(b_med) if b_med else 0.0
    if gain < -bound:
        return "worse"
    if max(_spread(before), _spread(after)) > bound:
        all_better = (min(after) > max(before)) if higher_is_better else (max(after) < min(before))
        return "better" if all_better else "unresolved"
    wins = sum(1 for b in before for a in after if sign * (a - b) > 0)
    if gain > _spread(before) and wins >= 0.9 * len(before) * len(after):
        return "better"
    return "same"


def compare_files(before_path, after_path, benchmark_json) -> str:
    spec = json.loads(Path(benchmark_json).read_text(encoding="utf-8"))
    rules = {m["name"]: (m.get("bound", DEFAULT_BOUND), m["better"] == "higher")
             for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(before_path), load(after_path)
    lines = [f"{'workload':<16} {'metric':<40} {'before':>12} {'after':>12} "
             f"{'change':>8} {'runs':>7}  verdict"]
    for key in sorted(set(before) & set(after)):
        workload, name = key
        bound, higher = rules.get(name, (DEFAULT_BOUND, False))
        b, a = before[key]["values"], after[key]["values"]
        b_med, a_med = statistics.median(b), statistics.median(a)
        change = (a_med - b_med) / abs(b_med) * 100 if b_med else 0.0
        lines.append(f"{workload:<16} {name:<40} {b_med:>12.4f} {a_med:>12.4f} "
                     f"{change:>+7.1f}% {len(b):>3}/{len(a):<3}  "
                     f"{verdict(b, a, bound, higher)}")
    for key in sorted(set(before) ^ set(after)):
        lines.append(f"{key[0]:<16} {key[1]:<40} only in {'before' if key in before else 'after'}")
    return "\n".join(lines)
