"""Run the benchmark once per seed and summarise each metric.

    python3 bench/repeat.py --workload zeros --seeds 1-10 --seconds 30
    python3 bench/repeat.py --workload all --seeds 1-10 --seconds 30

Runs are made one after another, each in a fresh `bench/run.py` process.
Prints per metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (interquartile range over median), then as its last line one JSON
object with the same numbers, every value, and the machine the runs were
made on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def summarise(workload: str, seeds: list[int], seconds: float, trace: int) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    for seed in seeds:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(trace)]
        out = subprocess.run(argv, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr, flush=True)
    metrics = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        metrics[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        print(f"{workload:9s} {name:36s} median {med:.6g} {units[name]}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}")
    return {"seeds": seeds, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seeds", type=seeds_arg, required=True, help="one seed or a range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {
        "machine": machine(),
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {w: summarise(w, args.seeds, args.seconds, args.trace) for w in names},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
