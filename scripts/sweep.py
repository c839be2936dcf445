#!/usr/bin/env python3
"""Size sweep of encode, decode and correct over the message families.

For each family and each n = 2^lo ... 2^hi (q = 4), every seed draws one
message; the sweep times its encode, the decode of the codeword, and the
correct of the codeword with one tandem duplication drawn from the seed,
in CPU seconds (time.process_time) of this one process, numpy imported
first. A point reports the median of each stage over the seeds, its
growth over the point at n/2, and, summed over the seeds' encodes, the
square searches and the symbols they read (codec.find_leftmost_long is
wrapped, as the tests wrap it) and the blocks written (counted by
wrapping the decode replay's step). bench/workloads.gauge, a fixed loop
that calls nothing of dupcode, is measured beside each point: divide two
files' timings by their gauges to compare runs on different hosts.

A family stops growing before a point that would take more than
--budget CPU seconds over its seeds, judged by the last point's cost
times its growth over the point before (at least 2; 4 after the first
point); the file records where each family stopped and why.

Families, the first two made by bench/workloads.py and the next five by
tests/messages.py:
  zeros             n - K zeros, then K seeded symbols (the benchmark's)
  uniform           n seeded symbols
  periodic          x[j] = u[j mod K] for K seeded symbols u
  runs              runs of 2K symbols cycling the alphabet
  shared-runs       runs of 2K symbols, each symbol drawn at random
  period2-runs      runs of 2K symbols, each one of four seeded period-2
                    patterns
  deep              n/2 uniform symbols, then n - n/2 symbols of periodic
  square-free-runs  runs of one symbol with lengths in [K, 2K - 1], each
                    symbol unlike the two runs before it, redrawn until
                    the message plus its flag 0 holds no long square, so
                    it is its own codeword; timed for correct only

    python3 scripts/sweep.py --out BENCH_31.json
    python3 scripts/sweep.py --src ../parent/src --out parent.json
    python3 scripts/sweep.py --compare parent.json BENCH_31.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import messages  # tests/messages.py
import workloads  # bench/workloads.py, which imports no dupcode until it runs

Q = workloads.Q
SEEDS = (1, 2, 3)
STAGES = ("encode", "decode", "correct")
COUNTS = ("searches", "symbols_searched", "blocks")
SCHEMA = "dupcode-sweep/1"


def _square_free_runs(rng, n, K):
    from dupcode import codec

    while True:
        out: list[int] = []
        last = (None, None)  # the symbols of the two runs before
        while len(out) < n:
            s = rng.choice([a for a in range(Q) if a not in last])
            last = (s, last[0])
            out += [s] * rng.randint(K, 2 * K - 1)
        x = out[:n]
        if codec.is_dup_free(bytes(x) + b"\0", K):
            return x


# Each family's make(rng, n, K) and the stages it is timed for; the
# families of tests/messages.py draw over their default q, which is Q.
FAMILIES = {
    "zeros": (workloads.zeros_message, STAGES),
    "uniform": (workloads.random_message, STAGES),
    "periodic": (messages.periodic, STAGES),
    "runs": (messages.runs, STAGES),
    "shared-runs": (messages.shared_runs, STAGES),
    "period2-runs": (messages.period2_runs, STAGES),
    "deep": (messages.deep, STAGES),
    "square-free-runs": (_square_free_runs, ("correct",)),
}


def _cpu(f, *args):
    t = time.process_time()
    out = f(*args)
    return time.process_time() - t, out


def _measure(family: str, n: int, seed: int) -> dict:
    """One seed of one point: stage CPU seconds and encode's counts."""
    from dupcode import codec, derive_params
    from dupcode.channel import apply_duplication
    from dupcode.seqword import EditableWord

    make, stages = FAMILIES[family]
    params = derive_params(Q, n)
    K = params.K
    rng = random.Random(f"{family}-{n}-{seed}")
    x = bytes(make(rng, n, K))
    out = dict.fromkeys(COUNTS, 0)
    if "encode" in stages:
        search = codec.find_leftmost_long

        def counted(w, K):
            out["searches"] += 1
            out["symbols_searched"] += len(w)
            return search(w, K)

        codec.find_leftmost_long = counted
        try:
            out["encode_s"], y = _cpu(codec.encode, x, params)
        finally:
            codec.find_leftmost_long = search
    else:
        y = x + b"\0"
    if "decode" in stages:
        redo = EditableWord._redo

        def counted_redo(word, i, l, c):
            out["blocks"] += c
            redo(word, i, l, c)

        EditableWord._redo = counted_redo
        try:
            out["decode_s"], back = _cpu(codec.decode, y, params)
        finally:
            EditableWord._redo = redo
        if back != x:
            raise SystemExit(f"{family} n={n} seed={seed}: decode(encode(x)) != x")
    l = rng.randint(K, min(4 * K, n + 1))
    z = apply_duplication(y, rng.randint(0, n + 1 - l), l)
    out["correct_s"], fixed = _cpu(codec.correct, z, params)
    if fixed != y:
        raise SystemExit(f"{family} n={n} seed={seed}: correct did not restore the codeword")
    return out


def _point(family: str, n: int, gauge) -> dict:
    stages = FAMILIES[family][1]
    g0 = gauge(3)
    start = time.process_time()
    runs = [_measure(family, n, seed) for seed in SEEDS]
    spent = time.process_time() - start
    g1 = gauge(3)
    point = {"n": n, "log2_n": n.bit_length() - 1, "cpu_s": spent, "gauge_s": (g0 + g1) / 2}
    for stage in stages:
        point[f"{stage}_s"] = statistics.median(run[f"{stage}_s"] for run in runs)
    if "encode" in stages:
        for count in COUNTS:
            point[count] = sum(run[count] for run in runs)
    point["per_seed"] = runs
    return point


def _machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "system": platform.platform(), "machine": platform.machine()}


def _revision(src: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {"revision": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--", "."))}


def sweep(args) -> dict:
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy

    from dupcode import apply_duplication, codec, derive_params

    params = derive_params(Q, 1 << 10)
    y = codec.encode(bytes(params.n), params)
    codec.decode(codec.correct(apply_duplication(y, 0, params.K), params), params)  # import every module
    result = {
        "schema": SCHEMA,
        "meta": {
            "machine": _machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git": _revision(src),
            "src": os.path.relpath(src, ROOT),
            "q": Q,
            "seeds": list(SEEDS),
            "budget_s": args.budget,
            "timer": "time.process_time",
            "gauge": "bench/workloads.gauge(3) before and after the point, averaged",
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "families": {},
    }
    for family in FAMILIES:
        stages = FAMILIES[family][1]
        points: list[dict] = []
        reason = f"reached 2^{args.max_log}"
        cost, growth = 0.0, 4.0
        for log_n in range(args.min_log, args.max_log + 1):
            if points and cost * growth > args.budget:
                reason = f"2^{log_n} would take about {cost * growth:.2f} s > budget"
                break
            point = _point(family, 1 << log_n, workloads.gauge)
            spent = point["cpu_s"]
            if points:
                point["growth"] = {
                    f"{s}_s": point[f"{s}_s"] / points[-1][f"{s}_s"] if points[-1][f"{s}_s"] else None for s in stages
                }
                growth = max(2.0, spent / cost) if cost else 4.0
            cost = spent
            points.append(point)
            print(f"{family:>16} 2^{log_n:<2}", *(f"{s} {point[f'{s}_s']:.4f}s" for s in stages), f"({spent:.1f} s)", flush=True)
        cap = {"n": points[-1]["n"], "reason": reason}
        result["families"][family] = {"stages": list(stages), "cap": cap, "points": points}
    return result


def compare(a_path: str, b_path: str) -> None:
    """Print B / A at every point both files hold: each stage's time, the
    same divided by the ratio of the gauges, and the encode counts."""
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    for doc, path in ((a, a_path), (b, b_path)):
        if doc.get("schema") != SCHEMA:
            raise SystemExit(f"{path}: not a {SCHEMA} file")
    print(f"B / A, A = {a_path} ({a['meta']['git']['revision']}), B = {b_path} ({b['meta']['git']['revision']})")
    print(f"{'family':>16} {'n':>4} {'stage':>17} {'A':>10} {'B':>10} {'B/A':>7} {'gauged':>7}")
    for family, fa in a["families"].items():
        fb = b["families"].get(family)
        if fb is None:
            continue
        by_n = {p["n"]: p for p in fb["points"]}
        for pa in fa["points"]:
            pb = by_n.get(pa["n"])
            if pb is None:
                continue
            gauge = pb["gauge_s"] / pa["gauge_s"]
            for key in [f"{s}_s" for s in fa["stages"]] + list(COUNTS):
                if key not in pa or key not in pb:
                    continue
                ratio = pb[key] / pa[key] if pa[key] else float("nan")
                gauged = f"{ratio / gauge:7.3f}" if key.endswith("_s") else ""
                print(f"{family:>16} 2^{pa['log2_n']:<2} {key:>17} {pa[key]:>10.4g} {pb[key]:>10.4g} {ratio:7.3f} {gauged:>7}")
        for f, name in ((fa, "A"), (fb, "B")):
            print(f"{family:>16} {name} stops at n = {f['cap']['n']}: {f['cap']['reason']}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the sweep's JSON to this file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print B / A at each point of two sweep files")
    ap.add_argument("--src", default=str(ROOT / "src"), help="the directory holding the dupcode package to time")
    ap.add_argument("--min-log", type=int, default=12, help="smallest n is 2**this")
    ap.add_argument("--max-log", type=int, default=20, help="largest n is 2**this")
    ap.add_argument("--budget", type=float, default=10.0, help="CPU seconds a point may take")
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if not args.out:
        ap.error("give --out or --compare")
    Path(args.out).write_text(json.dumps(sweep(args), indent=1) + "\n")


if __name__ == "__main__":
    main()
