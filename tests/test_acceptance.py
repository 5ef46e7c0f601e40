"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations

import pytest

from cousr import MinerConfig, Rule, mine
from cousr.cli import EXIT_OK, main, rules_csv_text
from cousr.measures import (
    bond,
    build_item_bitvectors,
    confidence,
    itemset_dissup,
    itemset_support,
    lift,
    rule_sids,
    rule_utility,
)
from cousr.miner import VARIANTS, filter_unpromising_items, keep_items
from cousr.oracle import enumerate_all_rules, oracle_chusrs
from cousr.rulecore import SequenceTables, build_bond_matrix, scan_rule_pairs
from cousr.seqdb import Sequence, SequenceDatabase, UtilityTable
from cousr.synth import random_small_database, random_thresholds, synthesize_database

from conftest import A, B, C, D, E, G
from reference import (
    class_sums,
    descendant_keys,
    feasible_items,
    pair_values,
    random_expansions,
    rebuild_utility_list,
    reference_mine,
    rule_of,
    seu_of_rule,
    sids_of,
)

GOLDEN = dict(min_util=50, min_conf="0.7", min_bond="0.3", min_lift="1.1")
DESK = dict(min_util=2000, min_conf="0.3", min_bond="0.1", min_lift="0")


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


def rule_keys(result):
    return [(m.antecedent, m.consequent) for m in result.rules]


# 1 ------------------------------------------------------------------------------

def test_golden_example(example_db):
    with criterion("golden example: 4 rules, exact measures, < 1 s"):
        started = time.perf_counter()
        result = mine(example_db, MinerConfig(**GOLDEN))
        elapsed = time.perf_counter() - started
        assert [(m.antecedent, m.consequent, m.utility) for m in result.rules] == [
            ((A, B, C, D), (G,), 55),
            ((A, B, D), (G,), 74),
            ((A, D), (G,), 54),
            ((B, D), (G,), 53),
        ]
        assert all(m.confidence == 1 for m in result.rules)
        assert all(m.lift == Fraction(5, 4) for m in result.rules)
        assert elapsed < 1.0


# 2 ------------------------------------------------------------------------------

def test_intermediate_example_values(example_db):
    with criterion("intermediate worked-example values, exact"):
        bvs = build_item_bitvectors(example_db)
        a_to_b = rule_sids(rule_of([A], [B]), example_db)
        assert confidence(a_to_b, bvs[A]) == Fraction(2, 5)
        assert rule_utility(rule_of([A], [B]), example_db) == 24
        assert seu_of_rule(a_to_b, example_db) == 62
        assert bond([A, B], bvs).value == 1
        ab_g = rule_sids(rule_of([A, B], [G]), example_db)
        assert lift(ab_g, bvs[A] & bvs[B], bvs[G], example_db.sequence_count) == 1
        assert example_db.utilities.scale == 1
        assert example_db.grid_sequence_utilities == (21, 34, 28, 22, 42)
        assert sids_of(bvs[A]) == {1, 2, 3, 4, 5}
        assert sids_of(bvs[C]) == {2, 5}
        assert itemset_support([A, C], bvs) == 2
        assert itemset_dissup([A, C], bvs) == 5
        tables = SequenceTables(example_db)
        ul = rebuild_utility_list(rule_of([A], [E]), tables)
        # (seq_index, iutil, total, left_total, max_pos_x, min_pos_y); the
        # class sums (lutil, rutil, lrutil) are the paper's
        assert ul.rows[0] == (0, 9, 16, 14, 1, 2)
        assert class_sums(ul, example_db.sequences[0], example_db) == (5, 2, 0)
        expanded = ul.expand(C, False, tables)
        assert expanded.rows[0] == (1, 16, 29, 25, 2, 4)
        assert class_sums(expanded, example_db.sequences[1], example_db) == (9, 4, 0)


# 3 ------------------------------------------------------------------------------

def test_oracle_equivalence_on_1000_random_databases():
    with criterion("oracle equivalence: 1000 random dbs x 4 variants, < 60 s"):
        started = time.perf_counter()
        assert main(["verify", "--random", "1000", "--seed", "0"]) == EXIT_OK
        assert time.perf_counter() - started < 60.0


# 4 ------------------------------------------------------------------------------

def test_strategy_output_invariance(example_db):
    with criterion("strategy-output invariance: base == s6 == s7 == s6s7"):
        draws = [(example_db, GOLDEN)]
        for seed in range(80):
            rng = random.Random(10_000 + seed)
            db = random_small_database(rng)
            draws.append((db, dict(zip(GOLDEN, random_thresholds(rng, db)))))
        for index, (db, thresholds) in enumerate(draws):
            outputs = {mine(db, MinerConfig.for_variant(v, **thresholds)).rules for v in VARIANTS}
            assert len(outputs) == 1, f"draw {index}"


# 5 ------------------------------------------------------------------------------

def test_pruning_effectiveness_on_synthetic_database():
    with criterion("pruning effectiveness: UL counts ordered, s6/s7 prune > 0"):
        db = synthesize_database(1200, 80, 8, seed=11)
        stats = {}
        for variant in VARIANTS:
            config = MinerConfig.for_variant(
                variant, min_util=200, min_conf="0.3", min_bond="0.3", min_lift="1.0"
            )
            stats[variant] = mine(db, config).stats
        built = {v: s.utility_lists_built for v, s in stats.items()}
        assert built["s6s7"] <= built["s6"] <= built["base"]
        assert built["s6s7"] <= built["s7"] <= built["base"]
        assert stats["s6"].pruned_s6 > 0
        assert stats["s7"].pruned_s7 > 0
        assert stats["s6s7"].pruned_s6 > 0 and stats["s6s7"].pruned_s7 > 0


# 6 ------------------------------------------------------------------------------

def _assert_descending_chain(db, base, axis, values):
    previous = None
    for value in values:
        config = MinerConfig(**{**base, axis: value})
        got = set(rule_keys(mine(db, config)))
        if previous is not None:
            assert got <= previous, f"{axis}={value} is not a subset"
        previous = got


def test_threshold_monotonicity(example_db):
    with criterion("threshold monotonicity: ascending sweeps nest downward"):
        synthetic = synthesize_database(400, 30, 6, seed=5)
        for db in (example_db, synthetic):
            total = sum(db.grid_sequence_utilities) // db.utilities.scale
            base = dict(min_util=total // 100, min_conf="0.25", min_bond="0.1", min_lift="0")
            _assert_descending_chain(
                db, base, "min_util", [0, total // 50, total // 10, total // 2]
            )
            _assert_descending_chain(db, base, "min_conf", ["0", "0.25", "0.5", "0.75", "1"])
            _assert_descending_chain(db, base, "min_bond", ["0", "0.3", "0.6", "1"])
            _assert_descending_chain(db, base, "min_lift", ["0", "1", "1.25", "2"])


# 7 ------------------------------------------------------------------------------

def _assert_bounds_dominate(db):
    """Every pruning bound is at least what it stands in for, for each rule
    of positive utility ``u``, at the tightest threshold that keeps it.

    s1 keeps the rule's items at ``min_util = u``; s2/s7 give each pair
    ``a`` in X, ``b`` in Y a rule SEU of at least ``u`` on that filtered
    database; s3/s6 bond each pair and each prefix of a side of two or more
    items at least as high as the side; s4/s5 bound the utility of every
    canonical descendant (all of them, and the left-only ones) by the
    utility-list's ``total`` and ``left_total``; the child bound of
    ``UtilityList.expand`` cuts no canonical child whose own utility or a
    descendant's reaches the floor; and the pair reduction keeps the rule's
    items. s4/s5 and the child bound are checked on ``db`` and on the
    database the miner searches at ``min_util = u``: s1-filtered, then
    reduced to the items of the kept pairs.
    """
    scale = db.utilities.scale
    rules = list(enumerate_all_rules(db))
    grid_utility = {(r.antecedent, r.consequent): int(r.utility * scale) for r in rules}
    tables = SequenceTables(db)
    bitvectors = build_item_bitvectors(db)
    co_counts = pair_values(build_bond_matrix(db))
    at_util = {}

    def pair_bond(a, b):
        co = co_counts.get((a, b), 0)
        return Fraction(co, bitvectors[a].bit_count() + bitvectors[b].bit_count() - co)

    for r in rules:
        key = (r.antecedent, r.consequent)
        u = grid_utility[key]
        if u == 0:
            continue
        if u not in at_util:
            promising, filtered = filter_unpromising_items(db, u)
            pair_seu = pair_values(scan_rule_pairs(filtered))
            paired = frozenset(chain.from_iterable(p for p, seu in pair_seu.items() if seu >= u))
            at_util[u] = promising, pair_seu, SequenceTables(keep_items(filtered, paired))
        promising, pair_seu, searched = at_util[u]
        assert set(r.antecedent + r.consequent) <= promising, f"s1 drops an item of {key}"
        for a in r.antecedent:
            for b in r.consequent:
                assert pair_seu.get((a, b), 0) >= u, f"s2/s7 pair {(a, b)} under {key}"
        assert set(r.antecedent + r.consequent) <= set(searched.items), (
            f"the pair reduction drops an item of {key}"
        )
        sides = ((r.antecedent, r.bond_antecedent), (r.consequent, r.bond_consequent))
        for side, side_bond in sides:
            for a, b in combinations(side, 2):
                assert pair_bond(a, b) >= side_bond, f"s6 pair {(a, b)} under {key}"
            for k in range(2, len(side)):
                assert bond(side[:k], bitvectors).value >= side_bond, f"s3 prefix under {key}"
        for row_tables in (tables, searched):
            items = row_tables.items
            ul = rebuild_utility_list(Rule(*key), row_tables)
            for right, bound in ((True, ul.total), (False, ul.left_total)):
                for descendant in descendant_keys(*key, items, right=right):
                    assert bound >= grid_utility.get(descendant, 0), (
                        f"{'s4 total' if right else 's5 left_total'} of {key} under {descendant}"
                    )
                for item in feasible_items(ul, row_tables.db, right):
                    child = ul.expand(item, right, row_tables)[:2]
                    reach = max(grid_utility.get(descendant, 0) for descendant in
                                descendant_keys(*child, items, right))
                    assert ul.expand(item, right, row_tables, reach) is not None, (
                        f"child bound of {key} cuts {child}"
                    )


def test_upper_bound_soundness(example_db):
    with criterion("upper-bound soundness: no prune loses a desired rule"):
        draws = [(example_db, MinerConfig(**GOLDEN))]
        for seed in range(40):
            rng = random.Random(20_000 + seed)
            db = random_small_database(rng, max_items=6)
            draws.append((db, MinerConfig(*random_thresholds(rng, db))))
        for index, (db, config) in enumerate(draws):
            expected = oracle_chusrs(db, config)
            for variant, (s6, s7) in VARIANTS.items():
                variant_config = replace(config, bond_matrix_prune=s6, esucs_prune=s7)
                assert mine(db, variant_config).rules == expected, f"draw {index}, {variant}"
            _assert_bounds_dominate(db)


# 8 ------------------------------------------------------------------------------

def test_incremental_expansion_equivalence_at_scale():
    with criterion("expansion equivalence: incremental == rebuild on 10^4 cases"):
        rng = random.Random(99)
        cases = 0
        while cases < 10_000:
            db = random_small_database(rng)
            pairs = list(pair_values(scan_rule_pairs(db)))
            if not pairs:
                continue
            tables = SequenceTables(db)
            for _ in range(4):
                a, b = pairs[rng.randrange(len(pairs))]
                ul = rebuild_utility_list(rule_of([a], [b]), tables)
                for expanded in random_expansions(ul, tables, rng, 3):
                    assert expanded == rebuild_utility_list(expanded, tables)
                    cases += 1
        assert cases >= 10_000


# 9 ------------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk():
    """The desk database, its rules at the desk thresholds and the mining time."""
    db = synthesize_database(10_000, 500, 8, seed=3)
    started = time.perf_counter()
    result = mine(db, MinerConfig.for_variant("s6s7", **DESK))
    return db, result, time.perf_counter() - started


def test_desk_scale_performance_smoke(desk):
    with criterion("performance smoke: 10k sequences x 500 items < 30 s"):
        _, result, elapsed = desk
        assert elapsed < 30.0
        assert len(result.rules) > 0
        assert result.stats.utility_lists_built > 0


# 10 -----------------------------------------------------------------------------

def test_desk_unit_utilities_scaled(desk):
    with criterion("metamorphic: unit utilities and min_util x3 triple only the utility"):
        db, result, _ = desk
        entries = {item: 3 * unit for item, unit in db.utilities.entries.items()}
        tripled = replace(db, utilities=UtilityTable(entries=entries))
        got = mine(tripled, MinerConfig(**{**DESK, "min_util": 3 * DESK["min_util"]}))
        assert got.rules == tuple(m._replace(utility=3 * m.utility) for m in result.rules)


def test_desk_item_ids_reversed(desk):
    with criterion("metamorphic: item ids i -> 501 - i give the mapped rule set"):
        db, result, _ = desk

        def flip(items):
            return tuple(sorted(501 - item for item in items))

        sequences = (
            Sequence(tuple(
                tuple(sorted((501 - item, qty) for item, qty in itemset))
                for itemset in seq.itemsets
            ))
            for seq in db.sequences
        )
        entries = {501 - item: unit for item, unit in db.utilities.entries.items()}
        flipped = SequenceDatabase.from_sequences(sequences, UtilityTable(entries=entries))
        assert set(mine(flipped, MinerConfig(**DESK)).rules) == {
            m._replace(antecedent=flip(m.antecedent), consequent=flip(m.consequent))
            for m in result.rules
        }


def test_desk_variants_write_identical_csv(desk):
    with criterion("desk: base, s6, s7 and s6s7 write byte-identical rule CSVs"):
        db, result, _ = desk
        expected = rules_csv_text(result)
        for variant in ("base", "s6", "s7"):
            got = mine(db, MinerConfig.for_variant(variant, **DESK))
            assert rules_csv_text(got) == expected, variant


def test_desk_sequences_repeated(desk):
    with criterion("metamorphic: every sequence twice and min_util x2 double support and utility"):
        db, result, _ = desk
        doubled = SequenceDatabase.from_sequences(db.sequences * 2, db.utilities)
        got = mine(doubled, MinerConfig(**{**DESK, "min_util": 2 * DESK["min_util"]}))
        assert got.rules == tuple(
            m._replace(utility=2 * m.utility, support=2 * m.support) for m in result.rules
        )


# 11 -----------------------------------------------------------------------------

def test_reference_miner_matches_the_oracle():
    with criterion("reference miner == oracle on 300 random small dbs, side caps included"):
        rng = random.Random(30_000)
        for index in range(300):
            db = random_small_database(rng)
            config = MinerConfig(*random_thresholds(rng, db),
                                 max_rule_side=rng.choice((None, None, 1, 2)))
            assert reference_mine(db, config) == oracle_chusrs(db, config), f"draw {index}"


# (synthesize_database arguments, thresholds); wide's and long's min_util are
# the cuts perfbench calibrates at seed 3 to keep 58 and 150 root rules
BEYOND_THE_ORACLE = {
    "dense": (dict(n_sequences=3000, n_items=200, avg_len=12, seed=3),
              dict(min_util=3000, min_conf="0.3", min_bond="0.1")),
    "wide": (dict(n_sequences=30_000, n_items=2000, avg_len=8, seed=3, max_unit_utility=10),
             dict(min_util=50225)),
    "long": (dict(n_sequences=2000, n_items=200, avg_len=30, seed=3, max_unit_utility=1),
             dict(min_util=25309)),
}


@pytest.mark.parametrize("name", BEYOND_THE_ORACLE)
def test_reference_miner_matches_mine_beyond_the_oracle(name):
    with criterion(f"{name}: mine == reference miner"):
        spec, thresholds = BEYOND_THE_ORACLE[name]
        db = synthesize_database(**spec)
        config = MinerConfig(**thresholds)
        assert mine(db, config).rules == reference_mine(db, config)


def test_desk_reference_miner_matches_mine(desk):
    with criterion("desk: mine == reference miner"):
        db, result, _ = desk
        assert result.rules == reference_mine(db, MinerConfig(**DESK))
