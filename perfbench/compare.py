"""Summarise or compare benchmark result files.

    python3 perfbench/compare.py RESULTS.jsonl              # spread per metric
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl  # parent vs change

A result file holds the records ``perfbench/run.py --out FILE`` appends, one
per run.  Metrics are grouped by (workload, trace, metric).  Timings are
summarised by median and quartiles (``statistics.quantiles(values, n=4)``);
the spread is the interquartile distance as a share of the median.

Bounds come from BENCHMARK.json for the end-to-end metrics and from the
``bound`` a detail metric carries.  In a comparison a metric is

  unresolved  when either side's spread is wider than its bound, unless every
              run of the change reads better than every run of the parent;
  regressed   when the change's median is worse by more than the bound;
  improved    when it is better by more than the parent's spread and reads
              better in at least nine tenths of the same-seed pairs of runs
              (ties count for neither);
  within      otherwise.

Counts (units ``count`` and ``bytes``) are exact: they are compared seed by
seed and reported as ``same`` or ``changed``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

EXACT_UNITS = ("count", "bytes")


def load(path: str) -> dict[tuple, dict]:
    """(workload, trace, metric) -> {"unit", "better", "bound", "by_seed"}."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    groups: dict[tuple, dict] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            merged = {**rec["detail"], **rec["result"]["metrics"]}
            for name, m in merged.items():
                spec = bounds.get(name, {})
                g = groups.setdefault((rec["workload"], rec["trace"], name), {
                    "unit": m["unit"],
                    "better": m.get("better", spec.get("better", "lower")),
                    "bound": m.get("bound", spec.get("bound")),
                    "by_seed": {},
                })
                g["by_seed"].setdefault(rec["seed"], []).append(m["value"])
    return groups


def values(group: dict) -> list[float]:
    return [v for vs in group["by_seed"].values() for v in vs]


def summary(vals: list[float]) -> tuple[float, float, float, float]:
    """median, first and third quartile, and spread (IQR / median)."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def fmt(x: float) -> str:
    return f"{x:.4g}"


def describe(path: str) -> int:
    wide = 0
    print(f"{'workload':14} {'metric':42} {'n':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  status")
    for (workload, trace, name), g in sorted(load(path).items()):
        vals = values(g)
        med, q1, q3, spread = summary(vals)
        bound = g["bound"]
        if g["unit"] in EXACT_UNITS or bound is None:
            status = ""
        elif spread <= bound / 3:
            status = "steady"
        elif spread <= bound:
            status = "within bound"
        else:
            status = "WIDER THAN BOUND"
            wide += 1
        label = name if not trace else f"{name} (traced)"
        print(f"{workload:14} {label:42} {len(vals):3} {fmt(med):>10} {fmt(q1):>10} {fmt(q3):>10} "
              f"{spread:7.3f} {'' if bound is None else bound:>6}  {status}")
    return 1 if wide else 0


def win_share(a: dict, b: dict, sign: int) -> float:
    """Share of same-seed pairs of runs in which the change reads better."""
    pairs = [(x, y) for seed, xs in a["by_seed"].items()
             for x, y in zip(xs, b["by_seed"].get(seed, []))]
    return sum(sign * y < sign * x for x, y in pairs) / len(pairs) if pairs else 0.0


def verdict(a: dict, b: dict) -> tuple[str, float]:
    sign = 1 if a["better"] == "lower" else -1
    if a["unit"] in EXACT_UNITS:
        same = all(b["by_seed"].get(s) == v for s, v in a["by_seed"].items())
        med_a, med_b = statistics.median(values(a)), statistics.median(values(b))
        change = (med_b - med_a) / med_a if med_a else float(med_b != med_a)
        return ("same" if same else "changed"), change
    med_a, _, _, spread_a = summary(values(a))
    med_b, _, _, spread_b = summary(values(b))
    change = (med_b - med_a) / med_a if med_a else 0.0
    worse = sign * change
    bound = a["bound"]
    if bound is None:
        return "", change
    if max(spread_a, spread_b) > bound:
        all_better = max(v * sign for v in values(b)) < min(v * sign for v in values(a))
        return ("improved" if all_better else "unresolved"), change
    if worse > bound:
        return "regressed", change
    if -worse > spread_a and win_share(a, b, sign) >= 0.9:
        return "improved", change
    return "within", change


def compare(path_a: str, path_b: str) -> int:
    a_groups, b_groups = load(path_a), load(path_b)
    regressed = 0
    print(f"{'workload':14} {'metric':42} {'parent med [q1, q3]':>32} {'change med [q1, q3]':>32} "
          f"{'change':>8} {'bound':>6}  status")
    for key in sorted(set(a_groups) | set(b_groups)):
        workload, trace, name = key
        label = name if not trace else f"{name} (traced)"
        a, b = a_groups.get(key), b_groups.get(key)
        if a is None or b is None:
            print(f"{workload:14} {label:42} only in {'change' if a is None else 'parent'}")
            continue
        cells = []
        for g in (a, b):
            med, q1, q3, _ = summary(values(g))
            cells.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]")
        status, change = verdict(a, b)
        regressed += status == "regressed"
        bound = "" if a["bound"] is None else a["bound"]
        print(f"{workload:14} {label:42} {cells[0]:>32} {cells[1]:>32} "
              f"{change:+8.2%} {bound:>6}  {status}")
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        return describe(argv[0])
    if len(argv) == 2:
        return compare(argv[0], argv[1])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
