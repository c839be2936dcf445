"""dupcode benchmark: what one message costs, end to end and layer by layer.

    python3 bench/run.py --workload zeros --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Workloads are zeros and cli-pipe (see workloads.py and README.md).
Each runs a closed loop, one caller with messages back to back, for
--seconds; `all` runs each workload in a fresh process of its own, so
that its peak_rss_mb is that workload's alone. --trace 0 reports the
end-to-end metrics untraced, rescaled by the gauge (see workloads.py);
--trace 1 reports the per-layer metrics of a traced run. dupcode is
imported from the src/ directory beside this one.
Metric lines go to stdout, and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Spans of a traced run are
written to .bench_work/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads
from workloads import SRC, WORK, WORKLOADS

#: Fresh interpreters timed for setup_s before and again after the timed
#: messages, so that its median spans the run as the other metrics do.
SETUP_RUNS = 10

E2E_UNITS = {
    "encode_s": "s",
    "correct_s": "s",
    "decode_s": "s",
    "roundtrip_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    **{m: "s" for m, _ in tracing.SELF_METRICS},
    **{m: "count" for m, _ in tracing.CALL_METRICS + tracing.COUNT_METRICS},
    "codec.encode.iterations": "count",
    "cli.startup_s": "s",
    "codec.encode.growth": "ratio",
    "codec.decode.growth": "ratio",
    "trace.overhead_frac": "ratio",
}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(wl: workloads.Workload, seed: int, seconds: float) -> tuple[dict, list]:
    """Median CPU seconds of each stage, each call rescaled by the gauge beside it.

    A message's calls are rescaled by the median of its gauge samples, a
    setup interpreter's by the gauge just before it (workloads.gauge). The
    raw medians and the gauge are printed beside the metrics.
    """
    setup = workloads.time_setup(SETUP_RUNS)
    workloads.warm_up(wl, random.Random(f"{wl.name}:{seed}:warm-up"))
    msgs = workloads.run_phase(wl, wl.n, random.Random(f"{wl.name}:{seed}"), seconds, "n")
    setup += workloads.time_setup(SETUP_RUNS)
    done = [m for m in msgs if m.cpu_roundtrip is not None]
    if wl.cli:
        rss_kib = max(m.rss_kib for m in msgs)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw, values = {}, {}
    for stage in ("encode", "correct", "decode"):
        raw[f"{stage}_s"] = _median(t for m in done for t in m.cpu[stage])
        values[f"{stage}_s"] = _median(t * m.scale for m in done for t in m.cpu[stage])
    raw["roundtrip_s"] = _median(m.cpu_roundtrip for m in done)
    values["roundtrip_s"] = _median(m.cpu_roundtrip * m.scale for m in done)
    raw["setup_s"] = statistics.median(cpu for cpu, _ in setup)
    values["setup_s"] = statistics.median(cpu * workloads.GAUGE_NOMINAL_S / g for cpu, g in setup)
    values["peak_rss_mb"] = rss_kib / 1024
    gauge = statistics.median([g for _, g in setup] + [g for m in msgs for g in m.gauge])
    raw_text = ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
    print(f"  gauge median {gauge:.6g} s; raw CPU medians: {raw_text}")
    return values, msgs


def per_layer(wl: workloads.Workload, seed: int, seconds: float) -> tuple[dict, list]:
    """Untraced, traced at n and traced at n/2, a third of the time each.

    Each message is corrected and decoded once, so its spans cover one
    roundtrip. The untraced and the traced phase at n draw the same
    messages, so trace.overhead_frac compares each message with itself.
    """
    wl = dataclasses.replace(wl, corrections=1)
    workloads.warm_up(wl, random.Random(f"{wl.name}:{seed}:warm-up"))
    third = seconds / 3
    base = workloads.run_phase(wl, wl.n, random.Random(f"{wl.name}:{seed}"), third, "untraced")
    rec = tracing.Recorder()
    # CLI processes install the wrappers themselves (cli_shim.py).
    restore = (lambda: None) if wl.cli else tracing.install(rec)
    try:
        full = workloads.run_phase(wl, wl.n, random.Random(f"{wl.name}:{seed}"), third, "n", rec)
        half = workloads.run_phase(wl, wl.n // 2, random.Random(f"{wl.name}:{seed}:half"), third, "half", rec)
    finally:
        restore()
    rec.dump(WORK / f"spans-{wl.name}-{seed}.json")
    values = tracing.layer_metrics(rec.spans, [m.id for m in full])
    table = tracing.per_message(rec.spans)
    for stage in ("encode", "decode"):
        key = f"codec.{stage}:total"
        at_n = _median(table[m.id][key] for m in full)
        at_half = _median(table[m.id][key] for m in half)
        values[f"codec.{stage}.growth"] = at_n / at_half if at_half else 0.0
    pairs = [(t.roundtrip, u.roundtrip) for t, u in zip(full, base) if t.roundtrip and u.roundtrip]
    values["trace.overhead_frac"] = _median(t / u for t, u in pairs) - 1 if pairs else 0.0
    for stage, layers in tracing.stage_shares(rec.spans, [m.id for m in full]).items():
        print(f"  share of {stage}: " + ", ".join(f"{layer} {share:.3f}" for layer, share in layers.items()))
    return values, base + full + half


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    print(f"workload {name}: n={wl.n} q={workloads.Q} seed={seed} trace={int(trace)}")
    values, msgs = (per_layer if trace else end_to_end)(wl, seed, seconds)
    units = LAYER_UNITS if trace else E2E_UNITS
    attempted = sum(m.attempted for m in msgs)
    failed = sum(m.failed for m in msgs)
    for metric, unit in units.items():
        print(f"  {metric:36s} {values[metric]:.6g} {unit}")
    if trace:
        print("  (codec.*.growth are diagnostics and are not gated)")
    print(f"  messages {len(msgs)}, fail_frac {failed / attempted:.6g} ({failed} of {attempted} stage calls)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        for name in WORKLOADS:
            child = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
            code = subprocess.call([*child, "--seconds", str(args.seconds), "--trace", str(args.trace)])
            if code != 0:
                return code
        return 0
    if not (SRC / "dupcode" / "__init__.py").is_file():
        print(f"bench: no dupcode sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dupcode

    if Path(dupcode.__file__).resolve().parent != SRC / "dupcode":
        print(f"bench: imported dupcode from {dupcode.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # One CPU for this process and the dupcode processes it starts, so
    # that the gauge measures the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
