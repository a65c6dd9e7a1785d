"""Self-test of the tapeout benchmark (quick mode, about a minute).

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload through ``run.py --quick`` traced and untraced, so the
result is checked against ``BENCHMARK.json`` and every correctness check
runs; unit-tests the contract validator and the raster width/space check
on planted geometry; and confirms the launcher refuses, without a result
line, in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from contract import load_spec, validate  # noqa: E402
from repro.geometry import Rect, Region  # noqa: E402

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180, check=False,
    )


def _result(metric_names, value=1.0, unit_of=None):
    return {
        "correct": True, "attempted": 4, "failed": 0,
        "metrics": {
            name: {"value": value, "unit": unit_of[name]} for name in metric_names
        },
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_meets_contract(workload, trace):
    done = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert validate(result, SPEC, traced=bool(trace)) == []
    assert result["correct"], done.stderr[-2000:]
    if workload == "contacts_pw":
        # Every dark-field tapeout fails sign-off through the ORC
        # polarity fault (README); the checks confirm that is the cause.
        assert result["failed"] == result["attempted"]
    else:
        assert result["failed"] == 0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


class TestContract:
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    def test_complete_result_passes(self):
        assert validate(_result(self.units, unit_of=self.units), SPEC, False) == []
        assert validate(
            _result(self.layer_units, 0.0, self.layer_units), SPEC, True
        ) == []

    def test_missing_undeclared_and_wrong_unit(self):
        result = _result(self.units, unit_of=self.units)
        del result["metrics"]["setup_s"]
        result["metrics"]["bogus"] = {"value": 1.0, "unit": "s"}
        result["metrics"]["epe_rms_nm"]["unit"] = "um"
        problems = " ".join(validate(result, SPEC, False))
        assert "'setup_s' missing" in problems
        assert "undeclared metric 'bogus'" in problems
        assert "epe_rms_nm: unit" in problems

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"),
                                       None, True, "1.0"])
    def test_placeholder_values_rejected(self, value):
        result = _result(self.units, unit_of=self.units)
        result["metrics"]["op_s.p50"]["value"] = value
        assert validate(result, SPEC, False)

    def test_counts_must_be_whole(self):
        result = _result(self.units, unit_of=self.units)
        result["attempted"], result["failed"] = 0, 0
        assert validate(result, SPEC, False)
        result["attempted"], result["failed"] = 3, 4
        assert validate(result, SPEC, False)
        result["attempted"], result["failed"] = 3.0, 0
        assert validate(result, SPEC, False)


class TestWidthSpace:
    def test_limit_is_legal(self):
        bars = Region.from_rects([Rect(0, 0, 40, 500), Rect(80, 0, 120, 500)])
        assert checks.width_space(bars, 40, 40) == []

    def test_narrow_bar_and_close_pair(self):
        narrow = Region(Rect(0, 0, 39, 500))
        assert any("width 39" in f for f in checks.width_space(narrow, 40, 40))
        pair = Region.from_rects([Rect(0, 0, 100, 100), Rect(0, 139, 100, 300)])
        assert any("space 39" in f for f in checks.width_space(pair, 40, 40))

    def test_notch_in_a_ring_and_corner_gap(self):
        # A ring's hole is a bounded gap; a 30 nm slot in it is flagged.
        ring = Region(Rect(0, 0, 300, 300)) - Region(Rect(100, 100, 130, 200))
        assert any("space 30" in f for f in checks.width_space(ring, 40, 40))
        # Corner-to-corner squares face no edge: legal.
        corners = Region.from_rects([Rect(0, 0, 100, 100),
                                     Rect(120, 120, 220, 220)])
        assert checks.width_space(corners, 40, 40) == []
