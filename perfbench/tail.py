#!/usr/bin/env python3
"""Which layer drives the slow requests of a traced run?

    python3 perfbench/tail.py .perfbench/out/spans-compute-seed7.jsonl \
        [--root request|coordinator] [--top 0.1]

Reads the span lines a `--trace 1` run wrote, takes the root spans of
one path (`request`: single server; `coordinator`: 2-shard path), ranks
them by duration, and for the slowest share (`--top`) shows how much
each layer's self time exceeds its median over all of them, as a share
of the slow ones' total excess.
"""

import argparse
import json
import statistics
from collections import defaultdict


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("spans")
    ap.add_argument("--root", default="request")
    ap.add_argument("--top", type=float, default=0.1)
    args = ap.parse_args()

    spans = [json.loads(line) for line in open(args.spans)]
    total = {}
    layers = defaultdict(lambda: defaultdict(int))
    for s in spans:
        if s["parent"] is None and s["name"] == args.root:
            total[s["request"]] = s["end_ns"] - s["start_ns"]
    for s in spans:
        # The root's own self time is the harness between calls.
        if s["request"] in total:
            layers[s["request"]][s["name"]] += s["self_ns"]

    names = sorted({n for per in layers.values() for n in per})
    median = {n: statistics.median(layers[r].get(n, 0) for r in total) for n in names}
    ranked = sorted(total, key=total.get, reverse=True)
    slow = ranked[: max(1, round(len(ranked) * args.top))]
    med_total = statistics.median(total.values())
    excess = {n: statistics.mean(layers[r].get(n, 0) for r in slow) - median[n] for n in names}
    whole = statistics.mean(total[r] for r in slow) - med_total

    print(f"{len(total)} requests; slowest {len(slow)}: mean {statistics.mean(total[r] for r in slow)/1e3:.0f} us "
          f"vs median {med_total/1e3:.0f} us")
    print(f"{'layer':<26} {'median us':>10} {'slow us':>10} {'share of excess':>16}")
    for n in sorted(names, key=lambda n: -excess[n]):
        print(f"{n:<26} {median[n]/1e3:>10.0f} {(median[n]+excess[n])/1e3:>10.0f} "
              f"{excess[n]/whole:>15.1%}")


if __name__ == "__main__":
    main()
