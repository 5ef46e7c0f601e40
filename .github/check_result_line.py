"""Check the result line of a traced perfbench run.

The last line of the run's standard output must be strict JSON (``NaN`` and
``Infinity`` refused) that reports every per-layer metric BENCHMARK.json
declares, each as a finite number:

    python3 perfbench/run.py --workload wide --seconds 5 --trace 1 | tee wide.out
    python3 .github/check_result_line.py wide.out
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _refuse(constant: str):
    raise ValueError(f"{constant} is not strict JSON")


def problems(output: str) -> list[str]:
    lines = output.splitlines()
    if not lines:
        return ["the run printed nothing"]
    try:
        metrics = json.loads(lines[-1], parse_constant=_refuse)["metrics"]
    except (ValueError, TypeError, KeyError) as exc:
        return [f"the last line is no result: {exc}"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {metric["name"] for metric in spec["per_layer"]}
    found = [f"missing metric {name}" for name in sorted(declared - metrics.keys())]
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else entry
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            found.append(f"{name} is {value!r}, not a finite number")
    return found


def main(argv: list[str]) -> int:
    (path,) = argv
    found = problems(Path(path).read_text(encoding="utf-8"))
    for problem in found:
        print(f"check_result_line: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
