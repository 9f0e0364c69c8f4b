#!/usr/bin/env python3
"""Measure the stack benchmark's baseline and its run-to-run spread.

Runs the command in BENCHMARK.json once per seed (SEEDS) on every
workload it lists (untraced), then once traced per workload, and writes
the medians, quartiles and spreads to stackbench/baseline.json together
with the workloads' fixed settings (`--describe`). The spread of a metric
is the distance between the first and third quartile of its values, as
`statistics.quantiles(values, n=4)` gives them, as a share of their
median. Exits non-zero if any end-to-end metric's spread exceeds its
bound.

Run from the repository root:

    python3 stackbench/baseline.py
"""

import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join("stackbench", "baseline.json")
SEEDS = list(range(1, 11))


def run(command, args):
    out = subprocess.run(command + args, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{' '.join(args)}: exit {out.returncode}")
    return out.stdout


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    report = {
        "settings": json.loads(run(command, ["--describe"])),
        "run_seconds": bench["run_seconds"],
        "seeds": SEEDS,
        "hardware": {"cpu": cpu_model(), "cores": os.cpu_count()},
        "workloads": {},
    }
    ok = True
    for name in names:
        values = {}
        for seed in SEEDS:
            res = result_of(run(command, ["--workload", name, "--seed", str(seed),
                                          "--seconds", seconds, "--trace", "0"]))
            if not res["correct"]:
                raise SystemExit(f"{name} seed {seed}: incorrect result")
            for metric, m in res["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        e2e = {metric: summary(v) for metric, v in values.items()}
        traced = result_of(run(command, ["--workload", name, "--seed",
                                         str(report["settings"]["default_seed"]),
                                         "--seconds", seconds, "--trace", "1"]))
        report["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for metric, s in e2e.items():
            bound = bounds[metric]
            flag = ""
            if s["spread"] > bound:
                flag, ok = "  OVER BOUND", False
            elif s["spread"] > bound / 3:
                flag = "  over a third of the bound"
            print(f"{name:24} {metric:20} median {s['median']:14.6g} "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}")

    with open(os.path.join(ROOT, OUT), "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"baseline written to {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
