"""Self-tests for the benchmark harness.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import random
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import dupcode  # noqa: E402
import dupcode.codec  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Q, Workload  # noqa: E402


@pytest.fixture(autouse=True)
def work_dir():
    workloads.WORK.mkdir(exist_ok=True)


def test_generators_are_deterministic_per_seed():
    for wl in workloads.WORKLOADS.values():
        K = dupcode.derive_params(Q, wl.n).K
        a = wl.message(random.Random("seed-1"), wl.n, K)
        assert a == wl.message(random.Random("seed-1"), wl.n, K)
        assert a != wl.message(random.Random("seed-2"), wl.n, K)
        assert len(a) == wl.n and set(a) <= set(range(Q))


def test_phase_inputs_follow_the_seed():
    wl = Workload("random-small", 1 << 8, workloads.random_message, cli=False)
    seen = []
    stub = types.SimpleNamespace(
        encode=lambda x, params: seen.append(tuple(x)) or dupcode.encode(x, params),
        correct=dupcode.correct,
        decode=dupcode.decode,
    )
    for _ in range(2):
        workloads.run_phase(wl, wl.n, random.Random("same"), 0, "t", codec=stub)
    assert len(seen) == 2 and seen[0] == seen[1]


@pytest.mark.parametrize(
    "wl",
    [
        Workload("zeros-small", 1 << 12, workloads.zeros_message, cli=False),
        Workload("cli-small", 1 << 8, workloads.random_message, cli=True),
    ],
    ids=lambda wl: wl.name,
)
def test_span_self_times_add_up_to_stage_wall_time(wl):
    originals = dict(vars(dupcode.codec))
    values, msgs = run.per_layer(wl, seed=5, seconds=0)
    assert all(getattr(dupcode.codec, k) is v for k, v in originals.items())
    assert sum(m.failed for m in msgs) == 0

    spans = tracing.load(workloads.WORK / f"spans-{wl.name}-5.json")
    selfs = tracing.self_times(spans)
    assert min(selfs) >= 0
    # A one-message overhead estimate can land near zero by noise, hence the floor.
    tol = max(abs(values["trace.overhead_frac"]), 0.01)
    traced = [m for m in msgs if not m.id.startswith("untraced/")]
    for m in traced:
        own = sum(s for s, span in zip(selfs, spans) if span[tracing.MSG] == m.id)
        wall = sum(sum(t) for t in m.times.values())
        assert abs(own - wall) <= tol * wall, (m.id, own, wall)
    if wl.cli:
        assert values["cli.startup_s"] > 0 and values["core.parse_word.self_s"] > 0
        assert values["seqword.ops"] == 0 and values["windows.symbols_edited"] == 0
    else:
        assert values["codec.encode.iterations"] > 0 and values["seqword.ops"] > 0


def test_wrong_output_from_a_stub_codec_is_a_failure():
    wl = Workload("zeros-small", 1 << 10, workloads.zeros_message, cli=False, corrections=3)

    def wrong_decode(y, params):
        x = dupcode.decode(y, params)
        return (1 - x[0],) + x[1:]

    def raising_encode(x, params):
        raise RuntimeError("stub")

    for stub, failed in (
        (types.SimpleNamespace(encode=dupcode.encode, correct=dupcode.correct, decode=wrong_decode), 1),
        (
            types.SimpleNamespace(encode=raising_encode, correct=dupcode.correct, decode=dupcode.decode),
            2 + 2 * wl.corrections,
        ),
    ):
        msgs = workloads.run_phase(wl, wl.n, random.Random(1), 0, "stub", codec=stub)
        assert [m.failed for m in msgs] == [failed]


def test_cli_command_that_writes_no_output_is_a_failure(monkeypatch):
    wl = Workload("cli-small", 1 << 8, workloads.random_message, cli=True)
    # A stale output of an earlier message must not be read as this one's.
    (workloads.WORK / "y.txt").write_text("0" * (wl.n + 1) + "\n", encoding="ascii")
    monkeypatch.setattr(workloads, "spawn", lambda argv, err_path: (0.0, 0.0, 0, 0, 0.0))
    msgs = workloads.run_phase(wl, wl.n, random.Random(1), 0, "no-output")
    assert [(m.attempted, m.failed) for m in msgs] == [(4, 4)]


def test_timings_are_rescaled_by_the_gauge(monkeypatch):
    wl = Workload("zeros-small", 1 << 10, workloads.zeros_message, cli=False, corrections=2)
    # A host running at half the baseline speed: every timing is halved.
    monkeypatch.setattr(workloads, "gauge", lambda samples=1: 2 * workloads.GAUGE_NOMINAL_S)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    values, msgs = run.end_to_end(wl, seed=3, seconds=0)
    (m,) = msgs
    assert m.gauge == [2 * workloads.GAUGE_NOMINAL_S] * (2 + 2 * wl.corrections)
    assert values["encode_s"] == pytest.approx(m.cpu["encode"][0] / 2)
    assert values["correct_s"] == pytest.approx(statistics.median(m.cpu["correct"]) / 2)
    assert values["roundtrip_s"] == pytest.approx(m.cpu_roundtrip / 2)


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zeros", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_metrics_match_benchmark_json():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
