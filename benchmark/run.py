#!/usr/bin/env python3
"""Build cats_bench and run one workload.

    python3 benchmark/run.py --workload dram3d [--seed 1] [--seconds 20] [--trace 0]

Run from the repository root. The first call configures and builds
benchmark/ (libcats included) into $CARGO_TARGET_DIR, default .bench_build;
later calls rebuild incrementally. Build output goes to stderr.
cats_bench's stdout is passed through, and the last line is the result object
{"correct", "attempted", "failed", "metrics"}, holding exactly the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). Whatever the seed, cats_bench also recomputes the reference
checksums of the default seed, and they must equal benchmark/checksums.json.
Exit status: 0 when every check passed, 1 otherwise, 2 when the library
sources are missing.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dram3d", "dram2d_f32", "llc_banded2d", "serve_mix")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    bdir.mkdir(parents=True, exist_ok=True)
    # One build at a time per build directory.
    with open(bdir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            cfg = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cfg += ["-G", "Ninja"]
            steps.append(cfg)
        steps.append(["cmake", "--build", str(bdir), "--target", "cats_bench",
                      "--parallel", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return bdir / "cats_bench"


def check_metrics(result, expected):
    """Keep exactly the expected metrics; report missing or malformed ones."""
    got = result.get("metrics", {})
    errors = []
    metrics = {}
    for m in expected:
        v = got.get(m["name"])
        if v is None:
            errors.append(f"metric {m['name']} missing")
        elif v.get("unit") != m["unit"]:
            errors.append(f"metric {m['name']} has unit {v.get('unit')}, expected {m['unit']}")
        elif not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            errors.append(f"metric {m['name']} is not a finite number")
        else:
            metrics[m["name"]] = v
    result["metrics"] = metrics
    return errors


def check_checksums(workload, detail):
    stored = json.loads((HERE / "checksums.json").read_text())[workload]
    live = detail.get("default_checksums", {})
    return [f"default-seed reference {name}: {live.get(name)} != stored {value}"
            for name, value in stored.items() if live.get(name) != value]


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir() \
            or not spec_path.is_file():
        fail(f"library sources not found under {ROOT}", 2)
    spec = json.loads(spec_path.read_text())

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    bdir = build_dir()
    exe = build(bdir)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.relpath(bdir, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
    except (IndexError, ValueError, KeyError):
        sys.stderr.write(proc.stdout)
        fail(f"cats_bench exited {proc.returncode} without a result")

    errors = check_metrics(result, spec["per_layer" if args.trace else "end_to_end"])
    errors += check_checksums(args.workload, detail)
    for e in errors:
        print(f"run.py: FAILED: {e}", file=sys.stderr)
    if errors:
        result["correct"] = False
        result["failed"] = result.get("failed", 0) + 1
    ok = proc.returncode == 0 and result["correct"]

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
