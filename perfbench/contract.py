"""The benchmark's output, checked against ``BENCHMARK.json``.

A result is one JSON object with exactly ``correct``, ``attempted``,
``failed`` and ``metrics``.  With tracing off it carries every
``end_to_end`` metric, with tracing on every ``per_layer`` metric -- each
with its declared unit and a finite value, end-to-end values above 0 --
and no other name.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate(result: object, spec: dict, traced: bool) -> List[str]:
    """Every way ``result`` breaks the contract (empty when it holds)."""
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a boolean")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not _is_int(attempted) or attempted < 1:
        problems.append(f"attempted must be a whole number >= 1, got {attempted!r}")
    if not _is_int(failed) or failed < 0 or (
        _is_int(attempted) and failed > attempted
    ):
        problems.append(f"failed must be a whole number in 0..attempted, got {failed!r}")
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name in sorted(set(metrics) - set(units)):
        problems.append(f"undeclared metric {name!r}")
    for name in sorted(set(units) - set(metrics)):
        problems.append(f"declared metric {name!r} missing")
    for name, unit in units.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: entry must be {{value, unit}}")
            continue
        value = entry["value"]
        if entry["unit"] != unit:
            problems.append(f"{name}: unit {entry['unit']!r} != declared {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{name}: value {value!r} is not a number")
        elif not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not finite")
        elif not traced and value <= 0:
            problems.append(f"{name}: end-to-end value {value!r} is not above 0")
    return problems
