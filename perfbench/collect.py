"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace]
                                 [--out perfbench/trajectory/NAME.json]

Each run is a fresh ``run.py`` process, started one at a time from the
checkout root. For every metric the summary gives the median of the runs,
the first and third quartile (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``. ``--out`` also stores the per-seed values and the
environment, which makes it a trajectory point later changes compare with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, float]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    env = None
    summary = {}
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in seeds:
            result, wall = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            walls.append(wall)
            print(f"{workload} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = first["unit"]
            metrics[name] = stats
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound={bound:g}" + (
                "  OVER" if stats["spread"] > bound else "")
            print(f"  {name:<42} median={stats['median']:<12.6g} "
                  f"spread={stats['spread']:.3f}{flag}", flush=True)
        summary[workload] = {
            "seeds": seeds,
            "run_wall_s": walls,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        last = ROOT / ".bench_results" / f"{workload}-seed{seeds[-1]}-trace{int(args.trace)}.json"
        env = json.loads(last.read_text(encoding="utf-8"))["environment"]

    if args.out:
        env = dict(env or {})
        env.pop("seed", None)
        Path(args.out).write_text(json.dumps({
            "environment": env,
            "seconds": args.seconds,
            "trace": args.trace,
            "workloads": summary,
        }, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
