#!/usr/bin/env python3
"""Compare two result sets per (workload, end-to-end metric).

    python3 benchmark/compare.py base.jsonl change.jsonl [--spec BENCHMARK.json]
    python3 benchmark/compare.py runs.jsonl            # spread report only

Inputs are collect.py JSON-lines files. For every workload and end-to-end
metric of BENCHMARK.json it prints each side's median and quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and the share
of seed-matched pairs the second side won (ties count for neither side).
Verdict under the metric's bound:
  unresolved  either side's spread exceeds the bound
  regression  the second median is worse than the first by more than the bound
  ok          otherwise
A spread above a third of the bound is flagged "noisy". Exit status 1 when
any verdict is a regression or any run failed, else 0.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{workload: {seed: result}} of untraced runs, plus failed-run count."""
    runs = defaultdict(dict)
    failed = 0
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        res = rec.get("result")
        if res is None or not res.get("correct") or rec.get("exit") != 0:
            failed += 1
            continue
        runs[rec["workload"]][rec["seed"]] = res["metrics"]
    return runs, failed


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="+", help="one or two collect.py files")
    ap.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("give one or two result sets")

    spec = json.loads(Path(args.spec).read_text())
    loaded = [load(p) for p in args.sets]
    bad = sum(f for _, f in loaded)
    sides = [runs for runs, _ in loaded]
    workloads = [w["name"] for w in spec["workloads"]]

    regressions = 0
    hdr = f"{'workload':<13} {'metric':<18} {'bound':>6} "
    hdr += " | ".join(f"{'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}" for _ in sides)
    if len(sides) == 2:
        hdr += f" | {'delta':>7} {'won':>5} verdict"
    print(hdr)
    for w in workloads:
        if not any(w in runs for runs in sides):
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, meds, spreads = [], [], []
            for runs in sides:
                vals = [r[name]["value"] for r in runs.get(w, {}).values() if name in r]
                if not vals:
                    cols.append(f"{'-':>11} {'-':>11} {'-':>11} {'-':>7}")
                    meds.append(None)
                    spreads.append(None)
                    continue
                med, q1, q3, spread = stats(vals)
                flag = "*" if spread > bound / 3 else " "
                cols.append(f"{med:11.5g} {q1:11.5g} {q3:11.5g} {spread:6.1%}{flag}")
                meds.append(med)
                spreads.append(spread)
            line = f"{w:<13} {name:<18} {bound:6.0%} " + " | ".join(cols)
            if len(sides) == 2 and None not in meds:
                sign = 1 if m["better"] == "lower" else -1
                delta = sign * (meds[1] - meds[0]) / meds[0]  # > 0 means worse
                a, b = sides
                pairs = [(a[w][s][name]["value"], b[w][s][name]["value"])
                         for s in sorted(set(a[w]) & set(b[w]))]
                wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
                won = wins / len(pairs) if pairs else 0.0
                if max(spreads) > bound:
                    verdict = "unresolved"
                elif delta > bound:
                    verdict = "regression"
                    regressions += 1
                else:
                    verdict = "ok"
                line += f" | {delta:+6.1%} {won:5.0%} {verdict}"
            print(line)
    print("* spread above a third of the bound", file=sys.stderr)
    if bad:
        print(f"{bad} run(s) failed or were incorrect", file=sys.stderr)
    sys.exit(1 if regressions or bad else 0)


if __name__ == "__main__":
    main()
