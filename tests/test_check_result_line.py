"""The CI gate on a traced benchmark run's result line refuses what it must."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_result_line", ROOT / ".github" / "check_result_line.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


problems = _load_checker().problems
DECLARED = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
FIRST = DECLARED[0]


def result_output(**changed) -> str:
    """A traced run's output: a human line, then a result line with every
    declared per-layer metric at 1.5 except the ``changed`` ones (``...``
    drops a metric)."""
    values = {name: 1.5 for name in DECLARED} | changed
    metrics = {name: {"value": value, "unit": "s"}
               for name, value in values.items() if value is not ...}
    line = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})
    return f"desk  miner.mine_s  1.5 s n=1\n{line}\n"


def test_a_line_of_finite_metrics_passes():
    assert problems(result_output()) == []


@pytest.mark.parametrize("output, named", [
    pytest.param(result_output(**{"miner.search_us_per_row": None}),
                 "miner.search_us_per_row is None", id="null"),
    pytest.param(result_output(**{FIRST: float("nan")}), "NaN is not strict JSON", id="nan"),
    pytest.param(result_output(**{FIRST: True}), f"{FIRST} is True", id="true"),
    pytest.param(result_output(**{FIRST: ...}), f"missing metric {FIRST}", id="missing"),
    pytest.param(result_output() + "done\n", "the last line is no result", id="not-json"),
    pytest.param("", "the run printed nothing", id="empty"),
])
def test_a_bad_result_line_is_refused(output, named):
    found = problems(output)
    assert any(named in problem for problem in found), found
