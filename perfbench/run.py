"""cubehom benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run times a fresh interpreter importing ``cubehom.cli`` (setup_s), writes
the workload's documents from the seed (gen.py), then runs the workload's
CLI job in one worker process for S seconds (worker.py) and checks every
output. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line
before it records the environment of the run.

Every child runs with PYTHONHASHSEED pinned, CUBEHOM_MAX_WORKERS unset (so
fiber-criterion stays serial) and bytecode writing allowed. Only the
standard library is used here.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.pop("CUBEHOM_MAX_WORKERS", None)
    # setup_s is the import from a warm bytecode cache, as after an install
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def child(args, env, what):
    """Run a Python child to completion; return its stdout."""
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within {CHILD_TIMEOUT_S} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    return proc.stdout


def setup_seconds(env):
    """Median time a fresh interpreter takes to import cubehom.cli.

    Returns (reference-speed seconds, raw seconds). Each sample is timed
    inside its own child, so interpreter start-up, which the program does
    not control, is left out; the child then times the speed reference.
    One untimed import first writes the bytecode cache, as any earlier use
    of the package would.
    """
    probe = ("import sys, time; t0 = time.perf_counter(); import cubehom.cli; "
             "t1 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
             "from speed import reference_seconds; "
             "print(t1 - t0, reference_seconds())")
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        out = child(["-c", probe, str(HERE)], env, "importing cubehom.cli")
        samples.append([float(x) for x in out.split()])
    samples = samples[1:]
    return (statistics.median(t * REFERENCE_S / ref for t, ref in samples),
            statistics.median(t for t, _ in samples))


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def bench(args, spec):
    if not (SRC / "cubehom" / "cli.py").is_file():
        raise BenchError(f"no cubehom sources under {SRC}")
    env = child_env()
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        setup_s, raw_setup_s = (None, None) if args.trace else setup_seconds(env)
        job = child([str(HERE / "gen.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--out", work], env, "gen.py")
        out = child([str(HERE / "worker.py"), "--workload", args.workload,
                     "--job", job.strip(), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)], env, "worker.py")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res = json.loads(out.splitlines()[-1])
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        # a layer the workload never enters reads 0
        values = res["layers"]
        declared = spec["per_layer"]
    else:
        values = {"wall_s": res["wall_s"], "setup_s": setup_s,
                  "peak_rss_mb": res["peak_rss_mb"]}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"env": {
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
        "seed": args.seed, "pythonhashseed": env["PYTHONHASHSEED"],
        "workload": args.workload, "fail_ratio": failed / attempted,
        "timed_jobs": res["jobs"], "raw_wall_s": res["raw_wall_s"],
        "raw_setup_s": raw_setup_s, "reference_s": res["reference_s"]}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    try:
        bench(p.parse_args(), spec)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
