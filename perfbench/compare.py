#!/usr/bin/env python3
"""Spread of one set of benchmark runs, or a verdict between two sets.

Record runs with ``run.py --out FILE``, one JSON line per run, for example

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload scan_bern_32 --seed $s --out base.jsonl
    done

then

    python3 perfbench/compare.py spread base.jsonl
    python3 perfbench/compare.py diff base.jsonl new.jsonl

``spread`` prints, per (metric, workload), the median, the quartiles and
the interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json; a benchmark is steady when every share is below a
third of its bound.

``diff`` prints one row per (metric, workload) with each side's median and
quartiles, the share of runs the new side wins and a verdict.  Runs pair up
by seed (by order when the seeds differ).  Following the rule for noisy shared
machines, a gain needs the new side to win at least 9/10 of the pairs, ties
counting for neither, and a median gap larger than the base's interquartile
distance:

* ``improved``: that rule holds in the metric's better direction;
* ``worse``: the new median is worse than the base median by more than the
  bound (per-layer metrics, which have no bound: the mirror of the gain rule);
* ``unresolved``: the base's own spread is wider than the bound and not every
  new run beats every base run, or a per-layer metric moved without meeting
  either rule;
* ``no worse``: otherwise.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_runs(path):
    """{(metric, workload): [(seed, value), ...]} from a file of run records."""
    table = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                if m["value"] is not None:
                    table.setdefault((name, rec["workload"]), []).append((rec["seed"], m["value"]))
    return table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args):
    spec = load_spec()
    rows = load_runs(args.runs)
    steady = True
    print(f"{'metric':<34} {'workload':<20} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'bound':>6}")
    for (name, workload), pairs in sorted(rows.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        values = [v for _, v in pairs]
        q1, med, q3 = quartiles(values)
        share = (q3 - q1) / abs(med) if med else float("inf") if q3 > q1 else 0.0
        bound = spec.get(name, {}).get("bound")
        flag = ""
        if bound is not None and share >= bound / 3:
            flag = "  <-- above bound/3"
            steady = False
        print(f"{name:<34} {workload:<20} {len(values):>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{share:>8.4f} {bound if bound is not None else '-':>6}{flag}")
    return 0 if steady else 1


def _better(name, spec, a, b):
    """+1 when a is better than b, -1 when worse, 0 on a tie."""
    if a == b:
        return 0
    lower = spec.get(name, {}).get("better", "lower") == "lower"
    return 1 if (a < b) == lower else -1


def verdict(name, spec, base, new):
    b = [v for _, v in base]
    n = [v for _, v in new]
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    by_seed = dict(new)
    if all(seed in by_seed for seed, _ in base):
        pairs = [(by_seed[seed], v) for seed, v in base]
    else:
        pairs = list(zip(n, b))
    wins = sum(_better(name, spec, x, y) > 0 for x, y in pairs)
    losses = sum(_better(name, spec, x, y) < 0 for x, y in pairs)
    gap = abs(nmed - bmed)
    iqr = bq3 - bq1
    direction = _better(name, spec, nmed, bmed)
    bound = spec.get(name, {}).get("bound")
    if direction > 0 and wins >= 0.9 * len(pairs) and gap > iqr:
        label = "improved"
    elif bound is None:
        if direction < 0 and losses >= 0.9 * len(pairs) and gap > iqr:
            label = "worse"
        elif direction >= 0 or gap == 0:
            label = "no worse"
        else:
            label = "unresolved"
    elif iqr > bound * abs(bmed) and not all(_better(name, spec, x, y) > 0 for x in n for y in b):
        label = "unresolved"
    elif direction < 0 and gap > bound * abs(bmed):
        label = "worse"
    else:
        label = "no worse"
    return (bmed, bq1, bq3), (nmed, nq1, nq3), wins / len(pairs) if pairs else 0.0, label


def diff(args):
    spec = load_spec()
    base, new = load_runs(args.base), load_runs(args.new)
    worse = False
    print(f"{'metric':<34} {'workload':<20} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'wins':>5}  verdict")
    for key in sorted(set(base) & set(new), key=lambda k: (k[1], k[0])):
        (bm, b1, b3), (nm, n1, n3), share, label = verdict(key[0], spec, base[key], new[key])
        worse = worse or (label == "worse" and spec.get(key[0], {}).get("bound") is not None)
        print(f"{key[0]:<34} {key[1]:<20} {bm:>12.6g} [{b1:.6g}, {b3:.6g}]".ljust(94)
              + f"{nm:>12.6g} [{n1:.6g}, {n3:.6g}]".ljust(38) + f"{share:>5.2f}  {label}")
    return 1 if worse else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("spread", help="quartile spread of one set of runs")
    p.add_argument("runs")
    p.set_defaults(func=spread)
    p = sub.add_parser("diff", help="verdict per (metric, workload) between two sets")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(func=diff)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
