"""Workloads, their seeded input files and the check of a run's output.

Inputs are made by ``cousr.synth.synthesize_database`` and written with the
package's serializers, once per (workload, seed), outside any timed span; the
program under test sees only the ``.db``/``.ut`` files.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from pathlib import Path

DEFAULT_SEED = 3
VARIANT = "s6s7"
RULES_HEADER = "antecedent;consequent;utility;support;confidence;lift;bond_x;bond_y"


@dataclass(frozen=True)
class Workload:
    name: str
    n_sequences: int
    n_items: int
    avg_len: int
    max_unit_utility: int
    min_util: str  # a number, or "roots:N" for calibrate_min_util(db, N)
    min_conf: str
    min_bond: str
    min_lift: str

    def thresholds(self, inputs: dict) -> tuple[str, str, str, str]:
        """The four thresholds as ``cousr mine`` flags, for the given inputs."""
        return inputs["min_util"], self.min_conf, self.min_bond, self.min_lift


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", 10_000, 500, 8, 10, "2000", "0.3", "0.1", "0"),
        Workload("wide", 30_000, 2000, 8, 10, "roots:58", "0", "0", "0"),
        # unit utility 1 and a calibrated cut keep the search size steady across seeds
        Workload("long", 2_000, 200, 30, 1, "roots:150", "0", "0", "0"),
    )
}

# Output of each workload at DEFAULT_SEED: (rule count, sha256 of the rules CSV).
PINNED = {
    "desk": (36, "132ed37d4c7b9b77cf705aae2019f6eca56a2bf989014c11f562af730741dc94"),
    "wide": (8, "beed5eb27131554571dfe84672c32be3c2224b083aa8a99c5c64d17fc3d34c83"),
    # header only: completeness on long rests on the oracle tests
    "long": (0, "acffec7c5ef8e8f9ab9e781a3da9cd97ee0efe31943a5badcac18a5bcc4aa60b"),
}


def _source_digest(src: Path) -> str:
    """Digest of the sources the cached inputs came from: the generator, the
    serializers and this file, which defines the workloads and the cache."""
    digest = hashlib.sha256()
    for path in (src / "cousr" / "synth.py", src / "cousr" / "seqdb.py", Path(__file__)):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def ensure_inputs(workload: Workload, seed: int, cache: Path, src: Path) -> dict:
    """The workload's ``.db``/``.ut`` files for ``seed``, made on first use.

    Returns the input description: paths, bytes, sequences, distinct items,
    item occurrences and the ``--min-util`` flag.
    """
    from cousr import seqdb, synth

    directory = cache / f"{workload.name}-{seed}"
    meta_path = directory / "inputs.json"
    key = {"workload": asdict(workload), "seed": seed, "source": _source_digest(src)}
    db_path, ut_path = directory / "input.db", directory / "input.ut"
    if meta_path.is_file() and db_path.is_file() and ut_path.is_file():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("key") == key:
            return {**meta, "db": str(db_path), "ut": str(ut_path)}
    directory.mkdir(parents=True, exist_ok=True)
    db = synth.synthesize_database(
        workload.n_sequences, workload.n_items, workload.avg_len, seed,
        max_unit_utility=workload.max_unit_utility,
    )
    db_text = seqdb.serialize_database(db)
    ut_text = seqdb.serialize_utility_table(db.utilities)
    _write_atomic(db_path, db_text)
    _write_atomic(ut_path, ut_text)
    meta = {
        "key": key,
        "bytes": len(db_text.encode()) + len(ut_text.encode()),
        "sequences": len(db.sequences),
        "items": len(db.item_universe),
        "occurrences": sum(len(itemset) for seq in db.sequences for itemset in seq.itemsets),
        "min_util": (
            str(calibrate_min_util(db, int(workload.min_util.removeprefix("roots:"))))
            if workload.min_util.startswith("roots:") else workload.min_util
        ),
    }
    _write_atomic(meta_path, json.dumps(meta, indent=1) + "\n")
    return {**meta, "db": str(db_path), "ut": str(ut_path)}


def calibrate_min_util(db, roots: int) -> Fraction:
    """The highest ``min_util`` at which at least ``roots`` 1*1 rules survive
    the miner's two SEU cuts.

    Strategy 1 keeps the items whose SEU (summed utility of the sequences
    holding them) reaches ``min_util``; strategy 2 keeps the ordered pairs
    a => b (a in an earlier itemset) whose SEU over the item-filtered
    sequences reaches it. Both are recomputed here from their definitions,
    so the workload does not depend on how the package implements them.

    The kept-pair count falls as ``min_util`` rises, and the items kept by
    strategy 1 change only at the items' SEU values. So the search runs over
    those values: one pass over the sequences gives the pair SEUs for a set
    of kept items, and the best cut with that set is read off them.
    """
    units = db.utilities.entries
    scale = lcm(*(unit.denominator for unit in units.values()))
    scaled = {item: int(unit * scale) for item, unit in units.items()}
    sequences = [
        [(pos, item, int(qty * scaled[item]))
         for pos, itemset in enumerate(seq.itemsets) for item, qty in itemset]
        for seq in db.sequences
    ]
    item_seu: Counter = Counter()
    for seq in sequences:
        su = sum(u for _, _, u in seq)
        for _, item, _ in seq:
            item_seu[item] += su
    # A cut in (levels[k + 1], levels[k]] keeps the items whose SEU reaches levels[k].
    levels = sorted(set(item_seu.values()), reverse=True) + [-1]

    @cache
    def best_cut(k: int) -> int:
        """The highest cut in level k's range that keeps ``roots`` pairs, or
        ``levels[k + 1]`` when no cut in that range does."""
        promising = {item for item, seu in item_seu.items() if seu >= levels[k]}
        pair_seu: Counter = Counter()
        for seq in sequences:
            left = [(pos, item, u) for pos, item, u in seq if item in promising]
            su = sum(u for _, _, u in left)
            for index, (pos_a, a, _) in enumerate(left):
                for pos_b, b, _ in left[index + 1:]:  # positions never fall
                    if pos_a < pos_b:
                        pair_seu[(a, b)] += su
        ranked = sorted(pair_seu.values(), reverse=True)
        reached = ranked[roots - 1] if len(ranked) >= roots else levels[k + 1]
        return max(levels[k + 1], min(levels[k], reached))

    # Every range of lower cuts than the answer's holds a good cut, and no
    # range of higher cuts does: find the first good range, going down from
    # the highest cuts, by doubling and then bisection.
    def good(k: int) -> bool:
        return best_cut(k) > levels[k + 1]

    last = len(levels) - 2
    low, high = -1, 0  # range low has no good cut; range high has one, or is the last
    while high < last and not good(high):
        low, high = high, min(2 * high + 1, last)
    while high - low > 1:
        middle = (low + high) // 2
        if good(middle):
            high = middle
        else:
            low = middle
    return Fraction(max(best_cut(high), 0), scale)


def check_rules(csv: bytes, db, thresholds) -> list[str]:
    """Problems with a rules CSV; an empty list means every rule checks out.

    Every emitted rule is recomputed exactly with :mod:`cousr.measures` and
    must print the same utility, support, confidence, lift and bonds, clear
    all four thresholds, and appear once, in canonical order. Completeness is
    not checked here; the pinned digests and the oracle tests cover it.
    """
    from cousr import measures
    from cousr.cli import format_fraction
    from cousr.miner import as_fraction

    min_util, min_conf, min_bond, min_lift = (as_fraction(t) for t in thresholds)
    lines = csv.decode("utf-8").split("\n")
    if lines[0] != RULES_HEADER or lines[-1] != "":
        return ["rules CSV has a wrong header or no final newline"]
    bitvectors = measures.build_item_bitvectors(db)
    problems: list[str] = []
    previous = None
    for line in lines[1:-1]:
        fields = line.split(";")
        try:
            antecedent, consequent = (tuple(map(int, side.split(","))) for side in fields[:2])
            rule = measures.Rule(antecedent, consequent)
        except ValueError:
            problems.append(f"unreadable rule line {line!r}")
            continue
        key = (rule.antecedent, rule.consequent)
        if previous is not None and key <= previous:
            problems.append(f"{rule} out of canonical order or repeated")
        previous = key
        rule_mask = measures.rule_sids(rule, db)
        support = rule_mask.bit_count()
        if not support:
            problems.append(f"{rule} occurs in no sequence")
            continue
        x_mask = _support_mask(rule.antecedent, bitvectors)
        y_mask = _support_mask(rule.consequent, bitvectors)
        utility = measures.rule_utility(rule, db)
        confidence = measures.confidence(rule_mask, x_mask)
        lift = measures.lift(rule_mask, x_mask, y_mask, db.sequence_count)
        bond_x = measures.bond(rule.antecedent, bitvectors).value
        bond_y = measures.bond(rule.consequent, bitvectors).value
        expected = [format_fraction(utility), str(support), format_fraction(confidence),
                    format_fraction(lift), format_fraction(bond_x), format_fraction(bond_y)]
        if fields[2:] != expected:
            problems.append(f"{rule}: printed {fields[2:]}, recomputed {expected}")
        if not (utility >= min_util and confidence >= min_conf and lift >= min_lift
                and bond_x >= min_bond and bond_y >= min_bond):
            problems.append(f"{rule} misses a threshold")
    return problems


def _support_mask(items, bitvectors) -> int:
    mask = -1
    for item in items:
        mask &= bitvectors.get(item, 0)
    return mask


def check_pinned(name: str, seed: int, csv: bytes, pinned: dict) -> list[str]:
    """At the default seed, the rule count and CSV digest must match the pins."""
    if seed != DEFAULT_SEED or name not in pinned:
        return []
    rules, digest = pinned[name]
    got_rules = csv.count(b"\n") - 1
    got_digest = hashlib.sha256(csv).hexdigest()
    if (got_rules, got_digest) != (rules, digest):
        return [f"{name} at seed {seed}: {got_rules} rules, sha256 {got_digest};"
                f" pinned {rules} rules, sha256 {digest}"]
    return []


def deterministic_counters(stats: dict) -> dict:
    """The ``MiningStats`` entries that must repeat exactly: whole numbers,
    possibly nested in lists or dicts. Timings (floats) are left out."""

    def exact(value) -> bool:
        if isinstance(value, dict):
            return all(exact(v) for v in value.values())
        if isinstance(value, list):
            return all(exact(v) for v in value)
        return isinstance(value, int)

    return {key: value for key, value in stats.items() if exact(value)}
