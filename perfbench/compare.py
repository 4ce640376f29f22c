#!/usr/bin/env python3
"""Compares two sets of benchmark results, or two traces.

    python3 perfbench/compare.py BASE NEW
    python3 perfbench/compare.py --traces BASE_SPANS.json NEW_SPANS.json

BASE and NEW are each a directory of result files written by
perfbench/run.py (it saves them under .bench_build/results/; copy that
directory aside after each side's runs), or a single result file. Runs of
several seeds on one side are pooled per workload. Run both sides on the
same seeds, alternating which side runs first: a BASE run and a NEW run of
the same seed form a pair.

For every workload and every end-to-end metric the table gives each side's
run count, median and quartiles, the relative change of the median, the
bound from BENCHMARK.json and a verdict. A spread is the distance between
the quartiles as a share of the median.

  unresolved  a side has fewer than 10 runs; or a side's spread exceeds the
              bound, so the runs cannot tell a change of that size from
              noise, and NEW does not win every pair
  worse       NEW's median is worse than BASE's by more than the bound
  better      NEW wins at least 9 in 10 of the pairs (ties count for
              neither side), and the medians differ in NEW's favour by
              more than BASE's spread
  same        none of the above

Metrics BENCHMARK.json does not bound (the per-workload detail metrics and
the per-layer metrics) are listed with medians and change only.

With --traces, the two span files' self time per layer is diffed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Fewest runs a side needs before a verdict other than unresolved.
MIN_RUNS = 10
# Share of the pairs NEW must win to be called better.
WIN_SHARE = 0.9


def load_results(path):
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))
                 if f.endswith(".json")]
    runs = {}
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        runs.setdefault((r["workload"], int(r["trace"])), []).append(r)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def rel_spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound):
    """base and new map seed -> the metric's value in that seed's run."""
    if min(len(base), len(new)) < MIN_RUNS:
        return "unresolved (n<%d)" % MIN_RUNS
    sign = 1.0 if better == "lower" else -1.0
    b, n = list(base.values()), list(new.values())
    base_med, new_med = statistics.median(b), statistics.median(n)
    worse_by = sign * (new_med - base_med) / abs(base_med) if base_med else 0.0
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for bv, nv in pairs if sign * nv < sign * bv)
    if max(rel_spread(b), rel_spread(n)) > bound:
        if len(pairs) >= MIN_RUNS and wins == len(pairs):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if (len(pairs) >= MIN_RUNS and wins >= WIN_SHARE * len(pairs)
            and -worse_by > rel_spread(b)):
        return "better"
    return "same"


def compare_results(base_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    base, new = load_results(base_path), load_results(new_path)
    print("%-16s %-24s %3s %26s %3s %26s %8s %6s  %s" % (
        "workload", "metric", "n", "base median [q1, q3]", "n",
        "new median [q1, q3]", "change", "bound", "verdict"))
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        names = sorted(set.intersection(
            *[set(r["metrics"]) for r in base[key] + new[key]]))
        # Bounded metrics first.
        names.sort(key=lambda n: (n not in bounded, n))
        for name in names:
            b = {r["seed"]: r["metrics"][name]["value"] for r in base[key]}
            n = {r["seed"]: r["metrics"][name]["value"] for r in new[key]}
            bm, bq1, bq3 = summary(list(b.values()))
            nm, nq1, nq3 = summary(list(n.values()))
            change = (nm - bm) / abs(bm) if bm else 0.0
            spec_m = bounded.get(name) if not trace else None
            if spec_m:
                bound = "%.2f" % spec_m["bound"]
                v = verdict(b, n, spec_m["better"], spec_m["bound"])
            else:
                bound, v = "-", "-"
                if name in layer and layer[name]["better"] == "higher":
                    v = "(higher is better)"
            print("%-16s %-24s %3d %10.4g [%6.4g, %6.4g] %3d %10.4g "
                  "[%6.4g, %6.4g] %+7.1f%% %6s  %s" % (
                      workload + ("*" if trace else ""), name, len(b), bm,
                      bq1, bq3, len(n), nm, nq1, nq3, 100 * change, bound, v))
    missing = sorted(set(base) ^ set(new))
    for workload, trace in missing:
        print("only on one side: %s trace=%d" % (workload, trace))
    print("(* = traced run: per-layer metrics)")


def compare_traces(base_path, new_path):
    def self_times(path):
        with open(path) as f:
            return json.load(f)["self_seconds_by_layer"]
    base, new = self_times(base_path), self_times(new_path)
    print("%-24s %12s %12s %12s %8s" % ("layer", "base self s", "new self s",
                                         "delta s", "change"))
    for layer in sorted(set(base) | set(new)):
        b, n = base.get(layer, 0.0), new.get(layer, 0.0)
        change = "%+7.1f%%" % (100 * (n - b) / b) if b else "-"
        print("%-24s %12.6f %12.6f %+12.6f %8s" % (layer, b, n, n - b, change))


def main():
    parser = argparse.ArgumentParser(
        description="Compare two sets of benchmark results or two traces.")
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--traces", action="store_true",
                        help="diff per-layer self time of two span files")
    args = parser.parse_args()
    for p in (args.base, args.new):
        if not os.path.exists(p):
            sys.exit("compare: no such file or directory: " + p)
    if args.traces:
        compare_traces(args.base, args.new)
    else:
        compare_results(args.base, args.new)


if __name__ == "__main__":
    main()
