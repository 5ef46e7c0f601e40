"""Benchmark of the ``cousr mine`` path, end to end and per layer.

    python3 perfbench/run.py --workload desk --seed 3 --seconds 50 --trace 1
    python3 perfbench/run.py --workload all          # desk, wide and long, traced

For one workload it makes the seeded input files (cached), then runs the
mine path in fresh processes, one at a time (a closed loop with a single
client), for ``--seconds`` seconds. With ``--trace 1`` one more, traced,
process follows and yields the per-layer metrics. Every output is checked
after the timed span: each rule is recomputed exactly, all runs must print
the same CSV and the same deterministic ``MiningStats`` counters, and at the
default seed the CSV must match its pinned digest.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
The exit code is 0 only when every run passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
DEADLINE_S = 165.0  # the whole command ends well within 180 s
CHECK_RESERVE_S = 15.0  # kept free for the output check after the last run

sys.path.insert(0, str(HERE))
import metrics  # noqa: E402
import workloads  # noqa: E402


class RunFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(inputs: dict, thresholds, out: Path, timeout: float, *extra: str):
    """One fresh-process run; returns (record, CSV bytes) or raises RunFailed.

    ``extra`` holds further ``child.py`` flags.
    """
    min_util, min_conf, min_bond, min_lift = thresholds
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--db", inputs["db"], "--utils", inputs["ut"],
        "--min-util", min_util, "--min-conf", min_conf,
        "--min-bond", min_bond, "--min-lift", min_lift,
        "--variant", workloads.VARIANT, "--out", str(out), *extra,
    ]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=max(timeout, 1.0),
                              env=_child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"run passed its time limit of {timeout:.0f} s") from None
    if done.returncode != 0:
        raise RunFailed(f"run exited with {done.returncode}: {done.stderr.strip()[-2000:]}")
    try:
        record = json.loads(done.stdout.strip().splitlines()[-1])
        csv = out.read_bytes()
    except (IndexError, ValueError, OSError) as exc:
        raise RunFailed(f"run left no readable result: {exc}") from None
    finally:
        out.unlink(missing_ok=True)
    return record, csv


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    """Run one workload and check its outputs; returns its report."""
    workload = workloads.WORKLOADS[name]
    inputs = workloads.ensure_inputs(workload, seed, CACHE, SRC)
    thresholds = workload.thresholds(inputs)
    rundir = Path(inputs["db"]).parent
    runs: list[dict] = []

    def attempt(kind: str, *extra: str) -> None:
        budget = DEADLINE_S - CHECK_RESERVE_S - (time.perf_counter() - started)
        try:
            record, csv = run_child(inputs, thresholds, rundir / f"rules-{len(runs)}.csv",
                                    budget, *extra)
            runs.append({"kind": kind, "record": record, "csv": csv})
        except RunFailed as exc:
            runs.append({"kind": kind, "error": str(exc)})

    window_start = time.perf_counter()
    while True:
        attempt("full")
        elapsed = time.perf_counter() - window_start
        times = [r["record"]["e2e_s"] for r in runs if r["kind"] == "full" and "record" in r]
        typical = statistics.median(times) if times else elapsed
        remaining = DEADLINE_S - CHECK_RESERVE_S - (time.perf_counter() - started)
        # a run that would end past the window by half a run or more is not
        # started, so on average the window lasts ``seconds``
        if elapsed + typical / 2 > seconds or remaining <= typical:
            break
    if trace:
        attempt("traced", "--trace", str(rundir / "spans.json"))
    return {"workload": name, "seed": seed, "inputs": inputs,
            **check(name, seed, runs, inputs, thresholds, workloads.PINNED)}


def check(name: str, seed: int, runs: list[dict], inputs: dict, thresholds, pinned) -> dict:
    """Mark each run as passed or failed and collect the problems found."""
    from cousr import seqdb

    problems = [r["error"] for r in runs if "error" in r]
    ok = [r for r in runs if "error" not in r]
    verdicts: dict[str, list[str]] = {}
    passed = []
    if ok:
        db = seqdb.load_database(inputs["db"], inputs["ut"])
        for r in ok:
            digest = hashlib.sha256(r["csv"]).hexdigest()
            if digest not in verdicts:
                verdicts[digest] = workloads.check_pinned(name, seed, r["csv"], pinned) + \
                    workloads.check_rules(r["csv"], db, thresholds)
                problems.extend(verdicts[digest])
            r["digest"] = digest
            r["counters"] = json.dumps(
                workloads.deterministic_counters(r["record"]["stats"]), sort_keys=True)
        common_digest = Counter(r["digest"] for r in ok).most_common(1)[0][0]
        common_counters = Counter(r["counters"] for r in ok).most_common(1)[0][0]
        for r in ok:
            if r["digest"] != common_digest:
                problems.append(f"run printed a different CSV (sha256 {r['digest']})")
            if r["counters"] != common_counters:
                problems.append(f"run gave different MiningStats counters: {r['counters']}")
        passed = [r for r in ok if not verdicts[r["digest"]]
                   and r["digest"] == common_digest and r["counters"] == common_counters]
    traced = [r["record"] for r in passed if r["kind"] == "traced"]
    return {
        "attempted": len(runs),
        "failed": len(runs) - len(passed),
        "problems": problems,
        "full": [r["record"] for r in passed if r["kind"] == "full"],
        "traced": traced[0] if traced else None,
    }


def summarize(report: dict) -> dict:
    """Medians, quartiles and sample counts of every metric of one workload."""
    out: dict[str, dict] = {}
    for metric, unit in metrics.END_TO_END.items():
        values = [r[metric] for r in report["full"]]
        if values:
            q1, median, q3 = quartiles(values)
            out[metric] = {"value": median, "q1": q1, "q3": q3, "n": len(values), "unit": unit}
    out["failed_frac"] = {"value": report["failed"] / report["attempted"], "n": report["attempted"],
                          "unit": "ratio"}
    if report["traced"] is not None:
        e2e = out.get("e2e_s", {}).get("value")
        layer = metrics.per_layer(report["traced"], report["inputs"], e2e)
        for metric, value in layer.items():
            out[metric] = {"value": value, "n": 1, "unit": metrics.PER_LAYER[metric]}
    return out


def _print_report(report: dict, summary: dict) -> None:
    name = report["workload"]
    print(f"# {name} seed {report['seed']}: {report['attempted']} runs,"
          f" {report['failed']} failed")
    for problem in report["problems"]:
        print(f"#   problem: {problem}")
    for metric, entry in summary.items():
        value = entry["value"]
        if value is None:
            text = "absent"
        elif "q1" in entry:
            text = f"{value:.6g} (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g})"
        else:
            text = f"{value:.6g}"
        print(f"{name:5} {metric:28} {text} {entry['unit']} n={entry['n']}")


def _result_line(reports: list[dict], summaries: list[dict], trace: bool, prefix: bool) -> dict:
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    out_metrics = {}
    for report, summary in zip(reports, summaries):
        for metric, unit in wanted.items():
            value = summary.get(metric, {}).get("value")
            key = f"{report['workload']}.{metric}" if prefix else metric
            out_metrics[key] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in reports)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports),
            "failed": failed, "metrics": out_metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(workloads.WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="length of the timed window of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds a traced run and reports per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "cousr" / "__init__.py").is_file():
        print(f"perfbench: no cousr package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(SRC))
    # Write bytecode caches now, even under PYTHONDONTWRITEBYTECODE, so every
    # run imports cousr from them, as from an installed package.
    sys.dont_write_bytecode = False
    import cousr
    import cousr.cli  # noqa: F401

    if not Path(cousr.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported cousr from {cousr.__file__}, not {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    reports, summaries = [], []
    for name in names:
        # each workload gets the whole deadline when several run in one command
        report = measure(name, args.seed, args.seconds, bool(args.trace),
                         started if len(names) == 1 else time.perf_counter())
        summary = summarize(report)
        _print_report(report, summary)
        reports.append(report)
        summaries.append(summary)
    result = _result_line(reports, summaries, bool(args.trace), prefix=len(names) > 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
