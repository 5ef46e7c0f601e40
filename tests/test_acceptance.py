"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from fractions import Fraction

from cousr import MinerConfig, Rule, mine
from cousr.cli import _verify_random_seed
from cousr.measures import (
    bond,
    build_item_bitvectors,
    confidence,
    itemset_dissup,
    itemset_support,
    lift,
    rule_sids,
    rule_utility,
    seu_of_rule,
    sids_of,
)
from cousr.miner import VARIANTS
from cousr.oracle import oracle_chusrs
from cousr.rulecore import (
    Expansion,
    SequenceTables,
    build_utility_list,
    expand_utility_list,
    scan_rule_pairs,
)
from cousr.synth import random_small_database, random_thresholds, synthesize_database

from conftest import A, B, C, D, E, G

GOLDEN = dict(min_util=50, min_conf="0.7", min_bond="0.3", min_lift="1.1")


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
        a_to_b = rule_sids(Rule.of([A], [B]), example_db)
        assert confidence(a_to_b, bvs[A]) == Fraction(2, 5)
        assert rule_utility(Rule.of([A], [B]), example_db) == 24
        assert seu_of_rule(a_to_b, example_db) == 62
        assert bond([A, B], bvs).value == 1
        ab_g = rule_sids(Rule.of([A, B], [G]), example_db)
        assert lift(ab_g, bvs[A] & bvs[B], bvs[G], example_db.sequence_count) == 1
        scale = example_db.utilities.scale
        assert tuple(
            Fraction(v, scale) for v in example_db.grid_sequence_utilities
        ) == (21, 34, 28, 22, 42)
        assert sids_of(bvs[A]) == {1, 2, 3, 4, 5}
        assert sids_of(bvs[C]) == {2, 5}
        assert itemset_support([A, C], bvs) == 2
        assert itemset_dissup([A, C], bvs) == 5
        tables = SequenceTables(example_db)
        ul = build_utility_list(Rule.of([A], [E]), tables)
        assert tuple(ul.rows[0]) == (1, 9, 5, 2, 0, 1, 2)
        expanded = expand_utility_list(ul, C, "left", tables)
        assert tuple(expanded.rows[0]) == (2, 16, 9, 4, 0, 2, 4)


# 3 ------------------------------------------------------------------------------

def test_oracle_equivalence_on_1000_random_databases():
    with criterion("oracle equivalence: 1000 random dbs x 4 variants, < 60 s"):
        started = time.perf_counter()
        seeds = list(range(1000))
        problems = []
        with ProcessPoolExecutor(max_workers=2) as pool:
            for chunk in pool.map(_verify_random_seed, seeds, chunksize=25):
                problems.extend(chunk)
        elapsed = time.perf_counter() - started
        assert problems == []
        assert elapsed < 60.0


# 4 ------------------------------------------------------------------------------

def test_strategy_output_invariance(example_db):
    with criterion("strategy-output invariance: base == s6 == s7 == s6s7"):
        reference = mine(example_db, MinerConfig.for_variant("base", **GOLDEN)).rules
        for variant in ("s6", "s7", "s6s7"):
            assert mine(example_db, MinerConfig.for_variant(variant, **GOLDEN)).rules == reference
        for seed in range(80):
            rng = random.Random(10_000 + seed)
            db = random_small_database(rng)
            mu, mc, mb, ml = random_thresholds(rng, db)
            rows = None
            for variant in VARIANTS:
                config = MinerConfig.for_variant(
                    variant, min_util=mu, min_conf=mc, min_bond=mb, min_lift=ml
                )
                got = mine(db, config).rules
                if rows is None:
                    rows = got
                assert got == rows, f"seed {seed}, variant {variant}"


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

def _lost_rule_keys(event, items):
    """Rule keys the search can no longer reach after the prune event."""
    ant, cons = event.antecedent, event.consequent
    max_x, max_y = ant[-1], cons[-1]
    used = set(ant) | set(cons)
    left_pool = [i for i in items if i > max_x and i not in used]
    right_pool = [i for i in items if i > max_y and i not in used]
    kind = event.kind
    if kind == "s2" or kind.endswith("-right"):
        include_self, allow_right, required = True, True, None
    elif kind.endswith("-left"):
        include_self, allow_right, required = True, False, None
    elif kind == "s4":
        include_self, allow_right, required = False, True, "right"
    elif kind == "s5":
        include_self, allow_right, required = False, False, "left"
    else:
        raise AssertionError(f"unexpected prune kind {kind}")
    keys = set()
    right_range = 2 ** len(right_pool) if allow_right else 1
    for r_bits in range(right_range):
        radd = tuple(right_pool[k] for k in range(len(right_pool)) if r_bits >> k & 1)
        if required == "right" and not radd:
            continue
        for l_bits in range(2 ** len(left_pool)):
            ladd = tuple(left_pool[k] for k in range(len(left_pool)) if l_bits >> k & 1)
            if set(ladd) & set(radd):
                continue
            if required == "left" and not ladd:
                continue
            if not include_self and not radd and not ladd:
                continue
            keys.add((tuple(sorted(ant + ladd)), tuple(sorted(cons + radd))))
    return keys


def _audit_prunes(db, thresholds):
    desired = {
        (r.antecedent, r.consequent)
        for r in oracle_chusrs(db, *thresholds)
    }
    items = sorted(db.item_universe)
    mu, mc, mb, ml = thresholds
    for variant in ("base", "s6s7"):
        config = MinerConfig.for_variant(
            variant, min_util=mu, min_conf=mc, min_bond=mb, min_lift=ml,
            record_prune_events=True,
        )
        result = mine(db, config)
        assert set(rule_keys(result)) == desired
        for event in result.stats.prune_events:
            if event.kind == "s1":
                item = event.antecedent[0]
                hit = [k for k in desired if item in k[0] or item in k[1]]
                assert not hit, f"s1 pruned item {item} used by {hit}"
            else:
                lost = _lost_rule_keys(event, items) & desired
                assert not lost, f"{event} cut off desired rules {lost}"


def test_upper_bound_soundness(example_db):
    with criterion("upper-bound soundness: no prune loses a desired rule"):
        _audit_prunes(
            example_db,
            (Fraction(50), Fraction(7, 10), Fraction(3, 10), Fraction(11, 10)),
        )
        for seed in range(40):
            rng = random.Random(20_000 + seed)
            db = random_small_database(rng, max_items=6)
            _audit_prunes(db, random_thresholds(rng, db))


# 8 ------------------------------------------------------------------------------

def test_incremental_expansion_equivalence_at_scale():
    with criterion("expansion equivalence: incremental == rebuild on 10^4 cases"):
        rng = random.Random(99)
        cases = 0
        while cases < 10_000:
            db = random_small_database(rng)
            pairs = sorted(scan_rule_pairs(db))
            if not pairs:
                continue
            tables = SequenceTables(db)
            for _ in range(4):
                a, b = pairs[rng.randrange(len(pairs))]
                ul = build_utility_list(Rule.of([a], [b]), tables)
                for _ in range(3):
                    direction = rng.choice(("left", "right"))
                    feasible = tables.items_of(Expansion(ul, direction, tables).candidates)
                    if not feasible:
                        break
                    item = rng.choice(feasible)
                    expanded = expand_utility_list(ul, item, direction, tables)
                    rebuilt = build_utility_list(expanded.rule, tables)
                    assert expanded.rule == rebuilt.rule
                    assert expanded.rows == rebuilt.rows
                    cases += 1
                    if not expanded.rows:
                        break
                    ul = expanded
        assert cases >= 10_000


# 9 ------------------------------------------------------------------------------

def test_desk_scale_performance_smoke():
    with criterion("performance smoke: 10k sequences x 500 items < 30 s"):
        db = synthesize_database(10_000, 500, 8, seed=3)
        config = MinerConfig.for_variant(
            "s6s7", min_util=2000, min_conf="0.3", min_bond="0.1", min_lift="0"
        )
        started = time.perf_counter()
        result = mine(db, config)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        assert len(result.rules) > 0
        assert result.stats.utility_lists_built > 0
