"""Names, units and derivation of the benchmark's metrics.

End-to-end metrics come from untraced runs; per-layer metrics from the one
traced run of a workload. A per-layer metric whose source (a wrapped function
or a ``MiningStats`` key) no longer exists is absent: its value is ``None``
and the report prints it as absent, so a refactor that removes a layer never
reads as a layer that got infinitely fast.
"""

from __future__ import annotations

END_TO_END = {
    "e2e_s": "s",
    "e2e_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "seqdb.load_s": "s",
    "seqdb.parse_db_s": "s",
    "seqdb.parse_ut_s": "s",
    "seqdb.load_rss_mb": "MiB",
    "seqdb.input_mb": "MiB",
    "seqdb.parse_mb_per_s": "MiB/s",
    "seqdb.sequences": "count",
    "seqdb.items": "count",
    "seqdb.occurrences": "count",
    "miner.filter_s": "s",
    "miner.filter_rss_mb": "MiB",
    "miner.promising_items": "count",
    "miner.pruned_s1": "count",
    "measures.bitvectors_s": "s",
    "measures.bitvectors_rss_mb": "MiB",
    "rulecore.bond_matrix_s": "s",
    "rulecore.bond_matrix_rss_mb": "MiB",
    "rulecore.bond_pairs": "count",
    "rulecore.pair_scan_s": "s",
    "rulecore.pair_scan_rss_mb": "MiB",
    "rulecore.rule_pairs": "count",
    "miner.pruned_s2": "count",
    "rulecore.root_lists_s": "s",
    "rulecore.root_lists": "count",
    "rulecore.root_rows": "count",
    "miner.mine_s": "s",
    "miner.search_s": "s",
    "miner.search_rss_mb": "MiB",
    "miner.lists_built": "count",
    "miner.rows_built": "count",
    "miner.candidates": "count",
    "miner.list_yield": "ratio",
    "miner.pruned_s3": "count",
    "miner.pruned_s4": "count",
    "miner.pruned_s5": "count",
    "miner.pruned_s6": "count",
    "miner.pruned_s7": "count",
    "miner.search_us_per_row": "us",
    "python.gc_s": "s",
    "python.gc_collections": "count",
    "cli.csv_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.rules": "count",
    "trace.overhead_s": "s",
}

# per-layer metric -> (span name, field of the tracer summary)
_SPAN_FIELDS = {
    "seqdb.load_s": ("seqdb.load_database", "total_s"),
    "seqdb.parse_db_s": ("seqdb.parse_database", "total_s"),
    "seqdb.parse_ut_s": ("seqdb.parse_utility_table", "total_s"),
    "seqdb.load_rss_mb": ("seqdb.load_database", "rss_mib"),
    "miner.filter_s": ("miner.filter_unpromising_items", "total_s"),
    "miner.filter_rss_mb": ("miner.filter_unpromising_items", "rss_mib"),
    "measures.bitvectors_s": ("measures.build_item_bitvectors", "total_s"),
    "measures.bitvectors_rss_mb": ("measures.build_item_bitvectors", "rss_mib"),
    "rulecore.bond_matrix_s": ("rulecore.build_bond_matrix", "total_s"),
    "rulecore.bond_matrix_rss_mb": ("rulecore.build_bond_matrix", "rss_mib"),
    "rulecore.bond_pairs": ("rulecore.build_bond_matrix", "size"),
    "rulecore.pair_scan_s": ("rulecore.scan_rule_pairs", "total_s"),
    "rulecore.pair_scan_rss_mb": ("rulecore.scan_rule_pairs", "rss_mib"),
    "rulecore.rule_pairs": ("rulecore.scan_rule_pairs", "size"),
    "rulecore.root_lists_s": ("rulecore.build_utility_list", "total_s"),
    "rulecore.root_lists": ("rulecore.build_utility_list", "calls"),
    "rulecore.root_rows": ("rulecore.build_utility_list", "size"),
    "miner.mine_s": ("miner.mine", "total_s"),
    "miner.search_s": ("miner.mine", "self_s"),
    "miner.search_rss_mb": ("miner.mine", "self_rss_mib"),
    "cli.csv_s": ("cli.csv", "total_s"),
}

# per-layer metric -> MiningStats key
_STATS_KEYS = {
    "miner.promising_items": "promising_items",
    "miner.pruned_s1": "pruned_s1",
    "miner.pruned_s2": "pruned_s2",
    "miner.pruned_s3": "pruned_s3",
    "miner.pruned_s4": "pruned_s4",
    "miner.pruned_s5": "pruned_s5",
    "miner.pruned_s6": "pruned_s6",
    "miner.pruned_s7": "pruned_s7",
    "miner.lists_built": "utility_lists_built",
    "miner.rows_built": "utility_list_rows",
}


def _ratio(numerator, denominator):
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _difference(a, b):
    return None if a is None or b is None else a - b


def per_layer(traced: dict, inputs: dict, untraced_e2e_s: float | None) -> dict:
    """Per-layer metrics of one traced run; ``None`` marks an absent metric.

    ``traced`` is the record a traced child prints, ``inputs`` the workload's
    input description and ``untraced_e2e_s`` the untraced median, from which
    the tracing overhead follows.
    """
    summary = traced["spans"]
    absent = set(traced["absent"])
    stats = traced["stats"]
    values: dict[str, float | int | None] = {}
    for metric, (span, field) in _SPAN_FIELDS.items():
        if span in absent:
            values[metric] = None
        else:
            # a present function that was never called did no work
            values[metric] = summary.get(span, {"calls": 0, "size": 0}).get(field, 0.0)
    for metric, key in _STATS_KEYS.items():
        values[metric] = stats.get(key)

    mib = inputs["bytes"] / 2**20
    values["seqdb.input_mb"] = mib
    values["seqdb.parse_mb_per_s"] = _ratio(mib, values["seqdb.load_s"])
    for key in ("sequences", "items", "occurrences"):
        values[f"seqdb.{key}"] = inputs[key]

    non_root_lists = _difference(values["miner.lists_built"], stats.get("initial_rules_kept"))
    parts = [values["miner.pruned_s3"], values["miner.pruned_s6"], values["miner.pruned_s7"],
             non_root_lists]
    values["miner.candidates"] = None if None in parts else sum(parts)
    values["miner.list_yield"] = _ratio(non_root_lists, values["miner.candidates"])
    search_rows = _difference(values["miner.rows_built"], values["rulecore.root_rows"])
    values["miner.search_us_per_row"] = _ratio(
        None if values["miner.search_s"] is None else values["miner.search_s"] * 1e6,
        search_rows,
    )
    values["python.gc_s"] = traced["gc_s"]
    values["python.gc_collections"] = traced["gc_collections"]
    values["cli.csv_bytes"] = traced["csv_bytes"]
    values["cli.rules"] = traced["rules"]
    values["trace.overhead_s"] = _difference(traced["e2e_s"], untraced_e2e_s)
    return {name: values[name] for name in PER_LAYER}
