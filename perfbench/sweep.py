"""Run the benchmark over several seeds and summarize the spread.

Usage (from the repository root):

    python3 perfbench/sweep.py --seeds 1-10 [--workloads A,B] [--seconds S]
                               [--trace] [--out FILE]

Runs ``run.py`` once per workload and seed, one after another, and prints
for each end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. With --trace it also runs each workload once
traced, at the first seed, and reports each layer's self time and its share
of the summed self times. --out writes everything as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, args.seconds, False) for seed in args.seeds]
        entry = {"env": runs[0][0],
                 "failed": sum(r["failed"] for _, r in runs),
                 "attempted": sum(r["attempted"] for _, r in runs),
                 "end_to_end": {}}
        for m in spec["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for _, r in runs])
            entry["end_to_end"][m["name"]] = s
            flag = "" if s["spread"] < m["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:18} {m['name']:12} median {s['median']:.4f} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f} "
                  f"bound {m['bound']}{flag}")
        print(f"{workload:18} failed {entry['failed']} of {entry['attempted']} jobs")
        if args.trace:
            _, traced = one_run(workload, args.seeds[0], args.seconds, True)
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            busy = sum(v for k, v in layers.items()
                       if k.endswith("_s") and k != "trace.overhead_s")
            entry["per_layer"] = layers
            entry["shares"] = {k: round(v / busy, 4) for k, v in layers.items()
                               if k.endswith("_s") and k != "trace.overhead_s" and v}
            top = sorted(entry["shares"].items(), key=lambda kv: -kv[1])[:4]
            print(f"{workload:18} largest self times: "
                  + ", ".join(f"{k} {v:.0%}" for k, v in top))
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
