#!/usr/bin/env python3
"""Run workloads over a list of seeds and store the results as JSON lines.

    python3 benchmark/collect.py --seeds 1-10 --sets a,b --tag noise

Writes benchmark/results/<tag>_<set>.jsonl, one line per run:
{"set", "workload", "seed", "trace", "exit", "wall_s", "result", "detail"}.
With several sets, every (seed, workload) runs once per set and the order
of the sets alternates from one seed to the next, so two sets of the same
commit can be compared with compare.py. Run from the repository root.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dram3d", "dram2d_f32", "llc_banded2d", "serve_mix")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    rec = {"workload": workload, "seed": seed, "trace": trace,
           "exit": proc.returncode, "wall_s": round(wall, 2), "result": None, "detail": None}
    try:
        rec["result"] = json.loads(lines[-1])
        rec["detail"] = json.loads(lines[-2])["detail"]
    except (IndexError, ValueError, KeyError):
        pass
    return rec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--sets", default="a", help="comma-separated set names")
    ap.add_argument("--tag", required=True, help="output file prefix")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", default=str(HERE / "results"))
    args = ap.parse_args()

    sets = args.sets.split(",")
    workloads = args.workloads.split(",")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {s: open(out_dir / f"{args.tag}_{s}.jsonl", "a") for s in sets}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = sets if i % 2 == 0 else sets[::-1]
        for w in workloads:
            for s in order:
                rec = run_once(w, seed, args.trace)
                rec["set"] = s
                files[s].write(json.dumps(rec) + "\n")
                files[s].flush()
                ok = rec["result"] is not None and rec["result"]["correct"]
                print(f"set={s} seed={seed} {w}: exit={rec['exit']} "
                      f"correct={ok} wall={rec['wall_s']}s", file=sys.stderr)
    for f in files.values():
        f.close()


if __name__ == "__main__":
    main()
