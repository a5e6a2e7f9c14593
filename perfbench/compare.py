#!/usr/bin/env python3
"""Compare two sets of benchmark results, e.g. a parent commit and a change.

Each directory holds the result files one checkout's runs wrote to
.bench_build/results (<workload>-seed<n>-<e2e|trace>.json). Runs are paired
by workload, mode and seed. For every metric the script prints both sides'
median and quartile spread, the change in the median, and how many pairs
the second side won (lower is better for every end-to-end metric).

    python3 perfbench/compare.py PARENT/.bench_build/results CHANGE/.bench_build/results
"""
import glob
import json
import os
import statistics
import sys


def load(d):
    runs = {}
    for path in glob.glob(os.path.join(d, "*.json")):
        name = os.path.basename(path)[: -len(".json")]
        workload_seed, mode = name.rsplit("-", 1)
        workload, seed = workload_seed.rsplit("-seed", 1)
        with open(path) as f:
            metrics = json.load(f)["result"]["metrics"]
        runs[(workload, mode, int(seed))] = {k: v["value"] for k, v in metrics.items()}
    return runs


def spread(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q[2] - q[0]) / med if med else 0.0


def main(a_dir, b_dir):
    a, b = load(a_dir), load(b_dir)
    keys = sorted(set(a) & set(b))
    groups = {}
    for workload, mode, seed in keys:
        groups.setdefault((workload, mode), []).append(seed)
    print("%-15s %-5s %-28s %12s %12s %8s %8s %8s %6s" % (
        "workload", "mode", "metric", "median A", "median B", "change", "iqr A", "iqr B", "B wins"))
    for (workload, mode), seeds in sorted(groups.items()):
        for metric in sorted(a[(workload, mode, seeds[0])]):
            xa = [a[(workload, mode, s)][metric] for s in seeds]
            xb = [b[(workload, mode, s)][metric] for s in seeds]
            ma, mb = statistics.median(xa), statistics.median(xb)
            change = (mb - ma) / ma if ma else 0.0
            wins = sum(1 for x, y in zip(xa, xb) if y < x)
            print("%-15s %-5s %-28s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %3d/%-2d" % (
                workload, mode, metric, ma, mb, 100 * change, 100 * spread(xa), 100 * spread(xb), wins, len(seeds)))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
