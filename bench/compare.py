"""Compare two sets of benchmark records: the parent commit and a change.

Usage: python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that `run.py --out FILE` appended, one run per
line, for any workloads.  For each workload and end-to-end metric of
BENCHMARK.json it prints the median and quartiles of the per-run values on
both sides, and a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the run-to-run spread (quartile distance over median) of
              either side is wider than the bound, and not every change run
              beats every parent run
  better      the change wins at least 9 of 10 seed-matched pairs and the
              medians differ by more than the parent's quartile distance
  same        none of the above

Operations failed are compared too.  Per-layer figures of traced records
(--trace 1) are listed side by side without a verdict.  The exit code is 1
when a metric is worse or the change fails more operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: dict[int, float], change: dict[int, float], bound: float, lower_better: bool) -> str:
    """parent and change map seed -> the run's value."""
    sign = 1 if lower_better else -1
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    c_q1, c_med, c_q3 = quartiles(list(change.values()))
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    if lower_better:
        all_better = max(change.values()) < min(parent.values())
    else:
        all_better = min(change.values()) > max(parent.values())
    if spread > bound and not all_better:
        return "unresolved"
    seeds = parent.keys() & change.keys()
    wins = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    if all_better or (seeds and wins >= 0.9 * len(seeds) and abs(c_med - p_med) > p_q3 - p_q1):
        return "better"
    return "same"


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["provenance"]["workload"], []).append(r)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Compare parent and change benchmark records.")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    bad = False

    p_runs, c_runs = by_workload(parent, 0), by_workload(change, 0)
    print(f"{'workload':<9} {'metric':<12} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} verdict")
    for wl in sorted(p_runs.keys() & c_runs.keys()):
        for m in spec["end_to_end"]:
            pv = {r["provenance"]["seed"]: r["values"][m["name"]] for r in p_runs[wl]}
            cv = {r["provenance"]["seed"]: r["values"][m["name"]] for r in c_runs[wl]}
            v = verdict(pv, cv, m["bound"], m["better"] == "lower")
            bad |= v == "worse"
            cells = []
            for vals in (pv, cv):
                q1, med, q3 = quartiles(list(vals.values()))
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(vals)}")
            print(f"{wl:<9} {m['name']:<12} {cells[0]:<32} {cells[1]:<32} {v}")
        pf = sum(r["failed"] for r in p_runs[wl]), sum(r["attempted"] for r in p_runs[wl])
        cf = sum(r["failed"] for r in c_runs[wl]), sum(r["attempted"] for r in c_runs[wl])
        more = cf[0] / cf[1] > pf[0] / pf[1]
        bad |= more
        print(f"{wl:<9} {'failed':<12} {f'{pf[0]}/{pf[1]}':<32} {f'{cf[0]}/{cf[1]}':<32} {'worse' if more else 'same'}")

    p_tr, c_tr = by_workload(parent, 1), by_workload(change, 1)
    for wl in sorted(p_tr.keys() & c_tr.keys()):
        print(f"\n{wl}: per-layer medians over {len(p_tr[wl])} parent / {len(c_tr[wl])} change traced runs")
        for m in spec["per_layer"]:
            p = statistics.median(r["layers"][m["name"]] for r in p_tr[wl])
            c = statistics.median(r["layers"][m["name"]] for r in c_tr[wl])
            ratio = f"x{c / p:.3f}" if p else ""
            print(f"  {m['name']:<40} {p:<14.6g} {c:<14.6g} {ratio}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
