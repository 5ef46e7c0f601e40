"""Self-test of the benchmark harness on the worked example (milliseconds).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXAMPLE = {"db": str(ROOT / "data" / "example.db"), "ut": str(ROOT / "data" / "example.ut"),
           "sequences": 1, "items": 1, "occurrences": 1}
EXAMPLE["bytes"] = sum(Path(EXAMPLE[k]).stat().st_size for k in ("db", "ut"))
THRESHOLDS = ("50", "0.7", "0.3", "1.1")  # the README's example flags


def _example_runs(tmp_path, traced: bool = True) -> list[dict]:
    kinds = {"full": ()}
    if traced:
        kinds["traced"] = ("--trace", str(tmp_path / "spans.json"))
    runs = []
    for kind, extra in kinds.items():
        record, csv = run.run_child(EXAMPLE, THRESHOLDS, tmp_path / f"{kind}.csv", 60, *extra)
        runs.append({"kind": kind, "record": record, "csv": csv})
    return runs


def test_every_named_metric_is_emitted_with_a_unit(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER

    report = {"workload": "example", "inputs": EXAMPLE,
              **run.check("example", 3, _example_runs(tmp_path), EXAMPLE, THRESHOLDS, {})}
    assert report["failed"] == 0, report["problems"]
    summary = run.summarize(report)
    for name, unit in {**metrics.END_TO_END, **metrics.PER_LAYER}.items():
        assert summary[name]["unit"] == unit
        assert summary[name]["n"] >= 1
    absent = [n for n in metrics.PER_LAYER if summary[n]["value"] is None]
    assert absent == [], absent
    for trace in (False, True):
        line = run._result_line([report], [summary], trace, prefix=False)
        wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
        assert line["correct"] and line["attempted"] == 2 and line["failed"] == 0
        assert line["metrics"] == {n: {"value": summary[n]["value"], "unit": u}
                                   for n, u in wanted.items()}


def test_a_wrong_pinned_digest_is_a_failure(tmp_path):
    runs = _example_runs(tmp_path, traced=False)
    digest = hashlib.sha256(runs[0]["csv"]).hexdigest()
    rules = runs[0]["csv"].count(b"\n") - 1
    good = run.check("example", 3, runs, EXAMPLE, THRESHOLDS, {"example": (rules, digest)})
    assert good["failed"] == 0, good["problems"]
    bad = run.check("example", 3, runs, EXAMPLE, THRESHOLDS, {"example": (rules, "0" * 64)})
    assert bad["failed"] == 1 and bad["attempted"] == 1
    assert "pinned" in bad["problems"][0]
    # pins hold only at the default seed
    other = run.check("example", 4, runs, EXAMPLE, THRESHOLDS, {"example": (rules, "0" * 64)})
    assert other["failed"] == 0


def test_a_tampered_rule_is_a_failure(tmp_path):
    runs = _example_runs(tmp_path, traced=False)
    header, first, *rest = runs[0]["csv"].split(b"\n")
    fields = first.split(b";")
    fields[3] = str(int(fields[3]) + 1).encode()  # support
    runs[0]["csv"] = b"\n".join([header, b";".join(fields), *rest])
    report = run.check("example", 4, runs, EXAMPLE, THRESHOLDS, {})
    assert report["failed"] == 1 and "recomputed" in report["problems"][0]


def test_a_missing_wrapped_name_is_reported_absent():
    import gc

    tracer = tracing.Tracer((
        ("cousr.rulecore", "build_bond_matrix_gone", "rulecore.build_bond_matrix", None),
        ("cousr.no_such_module", "scan_rule_pairs", "rulecore.scan_rule_pairs", None),
    ))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["rulecore.build_bond_matrix", "rulecore.scan_rule_pairs"]
    assert tracer._on_gc not in gc.callbacks

    traced = {"spans": {}, "absent": tracer.absent, "stats": {"utility_lists_built": 3},
              "gc_s": 0.0, "gc_collections": 0, "csv_bytes": 1, "rules": 0, "e2e_s": 1.0}
    values = metrics.per_layer(traced, EXAMPLE, 1.0)
    for name in ("rulecore.bond_matrix_s", "rulecore.bond_pairs", "rulecore.pair_scan_s",
                 "miner.pruned_s6", "miner.rows_built", "miner.candidates"):
        assert values[name] is None, name
    # present but never called: measured as no work
    assert values["measures.bitvectors_s"] == 0.0
    assert values["miner.lists_built"] == 3


def test_each_wrapped_layer_is_called_the_expected_number_of_times():
    from cousr import miner, seqdb

    tracer = tracing.Tracer()
    tracer.install()
    try:
        db = seqdb.load_database(EXAMPLE["db"], EXAMPLE["ut"])
        config = miner.MinerConfig.for_variant(
            "s6s7", **dict(zip(("min_util", "min_conf", "min_bond", "min_lift"), THRESHOLDS)))
        result = tracer.call("miner.mine", miner.mine, db, config)
    finally:
        tracer.uninstall()
    calls = {name: entry["calls"] for name, entry in tracer.summary().items()}
    assert tracer.absent == []
    assert calls["seqdb.load_database"] == 1
    assert calls["miner.filter_unpromising_items"] == 1
    assert calls["measures.build_item_bitvectors"] == 1
    assert calls["rulecore.build_bond_matrix"] == 1
    assert calls["rulecore.scan_rule_pairs"] == 1
    assert calls["rulecore.build_utility_list"] == result.stats.initial_rules_kept > 0
    mine_index = next(i for i, s in enumerate(tracer.spans) if s.name == "miner.mine")
    assert all(s.parent == mine_index for s in tracer.spans[mine_index + 1:])


def test_calibrated_min_util_keeps_the_asked_number_of_root_rules():
    from fractions import Fraction

    from cousr import miner, seqdb

    db = seqdb.load_database(EXAMPLE["db"], EXAMPLE["ut"])
    scale = db.require_utilities().scale
    for roots in (1, 3, 6):
        cut = workloads.calibrate_min_util(db, roots)

        def kept(min_util) -> int:
            config = miner.MinerConfig.for_variant("s6s7", min_util=min_util)
            return miner.mine(db, config).stats.initial_rules_kept

        assert kept(cut) >= roots > kept(cut + Fraction(1, scale))
