#!/usr/bin/env python3
"""Compares two perfbench result sets, or reports the spread of one.

A result set is a directory of <workload>.jsonl files (or one .jsonl file)
written by `python3 perfbench/run.py ... --out DIR`; each line holds one run.

    python3 perfbench/compare.py PARENT CHANGE   # parent vs change
    python3 perfbench/compare.py --spread SET    # run-to-run spread of one set

For every workload x metric, the comparison prints each side's median and
quartiles, the fraction of pairs (parent run i, change run i) the change
won (ties count for neither side), and a verdict against the bounds in
BENCHMARK.json:

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's own quartile distance
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (per-layer metrics, which have no bound:
              the parent wins at least 9 of 10 pairs, as above)
  unresolved  the parent's spread (quartile distance / median) exceeds the
              bound, and not every change run beats every parent run
  unchanged   none of the above

--spread prints each metric's median, quartiles and spread, flagging
end-to-end metrics whose spread exceeds their bound (the acceptance limit,
except for setup_s) or a third of it (the steadiness target).

Stdlib only.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def load_set(path):
    """Returns {workload: {metric: [values in run order]}}."""
    files = ([os.path.join(path, n) for n in sorted(os.listdir(path))
              if n.endswith(".jsonl")] if os.path.isdir(path) else [path])
    out = {}
    for name in files:
        with open(name) as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                per = out.setdefault(rec["workload"], {})
                for metric, v in rec["result"]["metrics"].items():
                    per.setdefault(metric, []).append(v["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse_by(parent_med, change_med, better):
    """Relative change, positive when the change is worse."""
    if parent_med == 0:
        return 0.0
    rel = (change_med - parent_med) / abs(parent_med)
    return rel if better == "lower" else -rel


def verdict(parent, change, better, bound):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if better == "lower" else c > p))
    losses = sum(1 for p, c in pairs if (c > p if better == "lower" else c < p))
    frac = wins / len(pairs) if pairs else 0.0
    separated = abs(cm - pm) > (p3 - p1)
    if pairs and wins >= 0.9 * len(pairs) and separated:
        return frac, "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and separated:
            return frac, "regressed"
        return frac, "unchanged" if not separated else "unresolved"
    all_better = all((c < p if better == "lower" else c > p)
                     for c in change for p in parent)
    if spread(parent) > bound and not all_better:
        return frac, "unresolved"
    if worse_by(pm, cm, better) > bound:
        return frac, "regressed"
    return frac, "unchanged"


def fmt(x):
    return "%.4g" % x


def compare(parent_path, change_path):
    spec = load_spec()
    parent, change = load_set(parent_path), load_set(change_path)
    print("%-10s %-34s %-27s %-27s %5s  %s" % (
        "workload", "metric", "parent q1/med/q3", "change q1/med/q3",
        "won", "verdict"))
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        for metric, (better, bound) in spec.items():
            p = parent[workload].get(metric)
            c = change[workload].get(metric)
            if not p or not c:
                continue
            frac, v = verdict(p, c, better, bound)
            regressed = regressed or (v == "regressed" and bound is not None)
            print("%-10s %-34s %-27s %-27s %5.2f  %s" % (
                workload, metric, "/".join(fmt(x) for x in quartiles(p)),
                "/".join(fmt(x) for x in quartiles(c)), frac, v))
    return 1 if regressed else 0


def report_spread(path):
    spec = load_spec()
    results = load_set(path)
    over = False
    print("%-10s %-34s %4s %-29s %7s %6s  %s" % (
        "workload", "metric", "runs", "q1/median/q3", "spread", "bound",
        "status"))
    for workload in sorted(results):
        for metric, (_, bound) in spec.items():
            values = results[workload].get(metric)
            if not values:
                continue
            s = spread(values)
            status = ""
            if bound is not None:
                if s > bound and metric != "setup_s":
                    status, over = "OVER BOUND", True
                elif s > bound / 3:
                    status = "above bound/3"
                else:
                    status = "steady"
            print("%-10s %-34s %4d %-29s %7.3f %6s  %s" % (
                workload, metric, len(values),
                "/".join(fmt(x) for x in quartiles(values)), s,
                "-" if bound is None else fmt(bound), status))
    return 1 if over else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sets", nargs="+", help="PARENT CHANGE, or one SET")
    ap.add_argument("--spread", action="store_true")
    args = ap.parse_args()
    if args.spread:
        if len(args.sets) != 1:
            ap.error("--spread takes one result set")
        return report_spread(args.sets[0])
    if len(args.sets) != 2:
        ap.error("give PARENT and CHANGE result sets")
    return compare(*args.sets)


if __name__ == "__main__":
    sys.exit(main())
