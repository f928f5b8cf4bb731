"""hglattice benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sparse-build --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory. Prints a report (every metric with its unit and sample count, and
for timings the raw figure beside the one at the reference speed; the
environment; the answer checks) and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``. A full record, and the spans of a traced run, go to
``.bench_results/``. Exits 2 without a result when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hglattice" / "__init__.py").is_file():
        print(f"error: no hglattice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hglattice

    if Path(hglattice.__file__).resolve().parent != SRC / "hglattice":
        print(f"error: imported hglattice from {hglattice.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    results = ROOT / ".bench_results"
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    try:
        run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        measured, raw, units = run.per_layer(), run.per_layer(raw=True), workloads.PER_LAYER_UNITS
    else:
        measured, raw, units = run.end_to_end(), run.end_to_end(raw=True), workloads.END_TO_END_UNITS
    env = environment(args.seed)
    excess, reachable = run.path_excess()

    print(f"hglattice benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={run.rounds}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if run.speed.kernel_s:
        print(f"speed: timings scaled to a {speed.REFERENCE_KERNEL_S * 1e6:g} us kernel; "
              f"median kernel {statistics.median(run.speed.kernel_s) * 1e6:.1f} us "
              f"over {len(run.speed.kernel_s)} samples")
    for name, unit in units.items():
        value, n = measured[name]
        raw_value = f"  raw {raw[name][0]:.6g}" if raw[name][0] != value else ""
        print(f"  {name:<42} {value:>14.6g} {unit:<6} n={n}{raw_value}")
    print(f"  {'error_rate':<42} {run.failed / run.attempted:>14.6g} ratio  "
          f"n={run.attempted} (failed {run.failed})")
    print(f"  {'path_excess_rate':<42} {(excess / reachable if reachable else 0.0):>14.6g} "
          f"ratio  n={reachable} (longer than shortest {excess})")

    metrics = {name: {"value": measured[name][0], "unit": unit}
               for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": run.rounds,
        "environment": env,
        "attempted": run.attempted,
        "failed": run.failed,
        "path_excess": {"longer": excess, "reachable": reachable},
        "speed": {
            "kernel_samples": len(run.speed.kernel_s),
            "kernel_median_s": statistics.median(run.speed.kernel_s) if run.speed.kernel_s else None,
            "reference_kernel_s": speed.REFERENCE_KERNEL_S,
        },
        "metrics": {name: {"value": measured[name][0], "raw": raw[name][0], "unit": unit,
                           "n": measured[name][1]}
                    for name, unit in units.items()},
    }
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if run.tracer:
        run.tracer.write(results / f"{tag}-spans.jsonl")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
