"""Smoke test of scripts/sweep.py: a tiny sweep writes the documented
schema, and --compare reads it back."""

import json
import subprocess
import sys
from pathlib import Path

SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"
FAMILIES = ["zeros", "uniform", "periodic", "runs", "shared-runs", "period2-runs", "deep", "square-free-runs"]


def test_a_tiny_sweep_writes_the_schema_and_compares(tmp_path):
    out = tmp_path / "sweep.json"
    args = ["--min-log", "8", "--max-log", "9", "--budget", "0.05", "--out", str(out)]
    subprocess.run([sys.executable, str(SWEEP), *args], check=True, capture_output=True)
    doc = json.loads(out.read_text())
    assert doc["schema"] == "dupcode-sweep/1"
    meta = doc["meta"]
    assert {"machine", "python", "numpy", "git", "seeds", "budget_s", "q"} <= set(meta)
    assert meta["seeds"] == [1, 2, 3] and meta["budget_s"] == 0.05 and meta["q"] == 4
    assert list(doc["families"]) == FAMILIES
    for name, family in doc["families"].items():
        stages = ["correct"] if name == "square-free-runs" else ["encode", "decode", "correct"]
        assert family["stages"] == stages
        points = family["points"]
        assert [p["n"] for p in points] == [256, 512][: len(points)] and points
        assert family["cap"]["n"] == points[-1]["n"] and family["cap"]["reason"]
        for k, point in enumerate(points):
            assert point["log2_n"] == 8 + k and point["gauge_s"] > 0 and point["cpu_s"] >= 0
            assert len(point["per_seed"]) == 3
            for stage in stages:
                assert point[f"{stage}_s"] >= 0
            if "encode" in stages:
                assert point["searches"] >= 1 and point["symbols_searched"] >= point["n"] + 1
                assert point["blocks"] >= 0
            assert ("growth" in point) == (k > 0)
    assert doc["families"]["zeros"]["points"][0]["blocks"] > 0
    assert doc["families"]["uniform"]["points"][0]["searches"] == 3  # one per seed

    shown = subprocess.run(
        [sys.executable, str(SWEEP), "--compare", str(out), str(out)], check=True, capture_output=True, text=True
    ).stdout
    rows = [line.split() for line in shown.splitlines() if "_s " in line and "stops" not in line]
    assert ["zeros", "2^8", "encode_s"] in [row[:3] for row in rows]
    assert all(row[-2:] == ["1.000", "1.000"] for row in rows)
