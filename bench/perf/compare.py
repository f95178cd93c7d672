#!/usr/bin/env python3
"""Compares two result sets of rfaas_perf: a parent commit and a change.

    python3 bench/perf/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory searched recursively for run
files (<workload>.json, as run.sh --out writes them) or a baseline file
holding a "runs" list (bench/perf/baseline/). Runs of one workload are
paired in path order, so write the i-th parent and change runs of a
workload under names that sort alike, and alternate which side runs
first. At least 10 pairs per workload are expected.

For every workload x end-to-end metric the script prints each side's
median and quartiles, the share of pairs the change won (ties count for
neither side) and a verdict, using the bounds in BENCHMARK.json:

  improved    the change wins >= 9/10 of the pairs and the medians differ
              by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run
  unchanged   otherwise

Virtual-time metrics (SAME_SEED_BOUND) repeat exactly for a seed, so
where both sides ran a seed they are compared seed by seed instead: a
pair is one seed, `worse` means the median over seeds of the change's
relative gap is worse than the same-seed bound (1% for means and rates,
2% for the p99), and `improved` means the change is better on >= 9/10 of
the seeds and on their median. BENCHMARK.json's looser bounds cover the
spread between different seeds; when no seed is shared they decide
`worse`, and any other row reads `unresolved`, since the gap between
two seeds can hide a change within those bounds.

It also reports, per workload, whether runs of the same seed produced the
same virtual-time digest on both sides. Exits 1 when any row is worse or
any run failed its correctness checks, else 0. Python standard library
only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
SAME_SEED_BOUND = {"op_mean_us": 0.01, "op_p99_us": 0.02, "goodput_per_s": 0.01}


def load_runs(root):
    """Returns {workload: [run, ...]} for every untraced run under root."""
    paths = [root] if root.is_file() else sorted(root.rglob("*.json"))
    runs = {}
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(doc, dict) or "workload" not in doc:
            continue
        for i, run in enumerate(doc.get("runs", [doc])):
            if run.get("trace") or "metrics" not in run:
                continue
            run["_source"] = f"{path}" + (f"#{i}" if "runs" in doc else "")
            runs.setdefault(doc["workload"], []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    worse_by = sign * (cmed - pmed) / pmed if pmed else 0.0
    better_everywhere = all(sign * (p - c) > 0 for p in parent for c in change)
    if pairs and wins >= 0.9 * len(pairs) and sign * (pmed - cmed) > p3 - p1:
        result = "improved"
    elif worse_by > bound:
        result = "worse"
    elif pmed and (p3 - p1) / abs(pmed) > bound and not better_everywhere:
        result = "unresolved"
    else:
        result = "unchanged"
    return result, wins, len(pairs)


def by_seed(runs, name):
    """{seed: value} of a virtual-time metric, equal for every run of a seed."""
    values = {}
    for r in runs:
        if name in r["metrics"]:
            values.setdefault(r.get("seed"), []).append(r["metrics"][name]["value"])
    return {seed: statistics.median(v) for seed, v in values.items()}


def seed_verdict(parent, change, bound, lower_is_better):
    """Verdict over the seeds both {seed: value} maps hold, or None."""
    sign = 1.0 if lower_is_better else -1.0
    gaps = [sign * (change[s] - parent[s]) / parent[s]
            for s in parent.keys() & change.keys() if parent[s]]
    if not gaps:
        return None
    wins = sum(1 for g in gaps if g < 0)
    worse_by = statistics.median(gaps)
    if wins >= 0.9 * len(gaps) and worse_by < 0:
        result = "improved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "unchanged"
    return f"{result} (same seed)", wins, len(gaps)


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args()

    bench = json.loads(BENCHMARK.read_text())
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    status = 0

    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for workload, rs in runs.items():
            for r in rs:
                if not r.get("correct", False):
                    print(f"FAILED run ({side}): {r['_source']}")
                    status = 1

    header = f"{'workload':<17} {'metric':<15} {'parent median [q1, q3]':<34} " \
             f"{'change median [q1, q3]':<34} {'wins':>6}  verdict"
    print(header)
    print("-" * len(header))
    for w in bench["workloads"]:
        workload = w["name"]
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            print(f"{workload:<17} (no runs on {'parent' if not parent else 'change'} side)")
            continue
        if min(len(parent), len(change)) < MIN_PAIRS:
            print(f"{workload:<17} warning: only {min(len(parent), len(change))} pairs "
                  f"(want {MIN_PAIRS})")
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
            if not pv or not cv:
                continue
            lower = m["better"] == "lower"
            row = None
            if name in SAME_SEED_BOUND:
                row = seed_verdict(by_seed(parent, name), by_seed(change, name),
                                   SAME_SEED_BOUND[name], lower)
            result, wins, pairs = row or verdict(pv, cv, m["bound"], lower)
            if name in SAME_SEED_BOUND and row is None and result != "worse":
                result = "unresolved (no common seed)"
            if result.startswith("worse"):
                status = 1
            print(f"{workload:<17} {name:<15} {fmt(quartiles(pv)):<34} "
                  f"{fmt(quartiles(cv)):<34} {wins:>2}/{pairs:<3}  {result}")

        by_digest = {}
        for side, rs in ((0, parent), (1, change)):
            for r in rs:
                by_digest.setdefault(r.get("seed"), ({}, {}))[side][r.get("digest")] = True
        same = [s for s, (p, c) in by_digest.items() if p and c and p.keys() == c.keys()]
        differ = [s for s, (p, c) in by_digest.items() if p and c and p.keys() != c.keys()]
        if same or differ:
            print(f"{workload:<17} virtual-time digests: identical for seeds {sorted(same)}"
                  + (f", different for seeds {sorted(differ)}" if differ else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
