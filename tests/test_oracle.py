from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cousr import MinerConfig, Rule, mine, parse_database, parse_utility_table, with_utilities
from cousr.measures import rule_utility
from cousr.miner import VARIANTS
from cousr.oracle import (
    MAX_ITEMS,
    MAX_SEQUENCES,
    OracleLimitError,
    enumerate_all_rules,
    oracle_chusrs,
)
from cousr.synth import random_small_database, random_thresholds, synthesize_database

from conftest import A, B, C, D, G

GOLDEN = (50, Fraction(7, 10), Fraction(3, 10), Fraction(11, 10))


def test_candidate_count_formula():
    # ordered pairs of disjoint non-empty subsets of m items: 3^m - 2*2^m + 1
    db = with_utilities(
        parse_database("1:1 -1 2:1 -1 3:1 -1 -2\n"),
        parse_utility_table("1 1\n2 1\n3 1\n"),
    )
    assert sum(1 for _ in enumerate_all_rules(db)) == 12


def test_candidate_count_on_example(example_db):
    assert sum(1 for _ in enumerate_all_rules(example_db)) == 3**7 - 2 * 2**7 + 1


def test_single_item_db_yields_nothing():
    db = with_utilities(parse_database("1:4 -1 -2\n"), parse_utility_table("1 2\n"))
    assert list(enumerate_all_rules(db)) == []


def test_oracle_reproduces_golden_rules(example_db):
    rules = oracle_chusrs(example_db, *GOLDEN)
    assert [(r.antecedent, r.consequent) for r in rules] == [
        ((A, B, C, D), (G,)),
        ((A, B, D), (G,)),
        ((A, D), (G,)),
        ((B, D), (G,)),
    ]
    assert [r.utility for r in rules] == [55, 74, 54, 53]
    assert all(r.confidence == 1 and r.lift == Fraction(5, 4) for r in rules)


def test_oracle_full_measure_tuple(example_db):
    match = [
        r
        for r in enumerate_all_rules(example_db)
        if (r.antecedent, r.consequent) == ((A, B, D), (G,))
    ]
    assert len(match) == 1
    r = match[0]
    assert (r.utility, r.confidence, r.lift, r.bond_antecedent, r.bond_consequent, r.support) == (
        74, 1, Fraction(5, 4), Fraction(4, 5), 1, 4,
    )


def test_raising_min_lift_empties_the_golden_set(example_db):
    assert oracle_chusrs(example_db, 50, Fraction(7, 10), Fraction(3, 10), Fraction(13, 10)) == ()


def test_zero_thresholds_keep_every_occurring_rule(example_db):
    rules = oracle_chusrs(example_db, 0, 0, 0, 0)
    occurring = [r for r in enumerate_all_rules(example_db) if r.support >= 1]
    assert len(rules) == len(occurring)
    assert all(r.support >= 1 for r in rules)
    keys = {(r.antecedent, r.consequent) for r in rules}
    assert ((A,), (B,)) in keys
    assert ((B,), (A,)) not in keys  # b never strictly precedes a


def test_float_thresholds_coerce_like_the_miner():
    # conf(1 => 2) is exactly 1/10; a float 0.1 must mean 1/10 to both, not
    # the binary fraction 0.1000000000000000055...
    db = with_utilities(
        parse_database("1:1 -1 2:1 -1 -2\n" + "1:1 -1 -2\n" * 9),
        parse_utility_table("1 1\n2 1\n"),
    )
    mined = mine(db, MinerConfig(min_conf=0.1))
    assert [(m.antecedent, m.consequent) for m in mined.rules] == [((1,), (2,))]
    assert oracle_chusrs(db, 0, 0.1, 0, 0) == mined.rules


def test_oracle_is_deterministic(example_db):
    assert oracle_chusrs(example_db, *GOLDEN) == oracle_chusrs(example_db, *GOLDEN)


def test_limits_rejected():
    assert (MAX_ITEMS, MAX_SEQUENCES) == (12, 16)
    big = synthesize_database(4, 20, 6, seed=1)
    with pytest.raises(OracleLimitError):
        list(enumerate_all_rules(big))
    many = synthesize_database(20, 6, 3, seed=1)
    with pytest.raises(OracleLimitError):
        oracle_chusrs(many, 0, 0, 0, 0)
    # the refusal starts one sequence past the limit
    ut = parse_utility_table("1 1\n")
    at_limit = with_utilities(parse_database("1:1 -1 -2\n" * MAX_SEQUENCES), ut)
    assert oracle_chusrs(at_limit, 0, 0, 0, 0) == ()
    with pytest.raises(OracleLimitError):
        oracle_chusrs(with_utilities(parse_database("1:1 -1 -2\n" * (MAX_SEQUENCES + 1)), ut),
                      0, 0, 0, 0)


def test_oracle_utility_matches_measures_path():
    # two independent code paths must agree on rule utility
    for seed in range(10):
        db = random_small_database(random.Random(seed))
        for r in enumerate_all_rules(db):
            assert r.utility == rule_utility(Rule(r.antecedent, r.consequent), db)


THRESHOLD_NAMES = ("min_util", "min_conf", "min_bond", "min_lift")


def _random_case(seed, **size):
    rng = random.Random(seed)
    db = random_small_database(rng, **size)
    return db, dict(zip(THRESHOLD_NAMES, random_thresholds(rng, db)))


@pytest.mark.parametrize("cap", [1, 2])
def test_miner_matches_oracle_with_a_rule_side_cap(cap):
    for seed in range(40):
        db, thresholds = _random_case(20_000 + seed)
        expected = tuple(
            r for r in oracle_chusrs(db, *thresholds.values())
            if len(r.antecedent) <= cap and len(r.consequent) <= cap
        )
        for variant in ("base", "s6s7"):
            config = MinerConfig.for_variant(variant, max_rule_side=cap, **thresholds)
            assert mine(db, config).rules == expected, (seed, variant)


def test_miner_matches_oracle_at_the_oracle_limits():
    # random_small_database stays at 8 items and 8 sequences by default; these
    # draws reach the oracle's limits of 12 items and 16 sequences. The oracle
    # takes seconds per 12-item database, so the sample is three seeds whose
    # rule sets are not empty (606, 401 and 5 rules).
    sizes = []
    for seed in (30, 53, 103):
        db, thresholds = _random_case(seed, max_items=12, max_sequences=16)
        sizes.append((len(db.item_universe), db.sequence_count))
        expected = oracle_chusrs(db, *thresholds.values())
        assert expected
        for variant in VARIANTS:
            assert mine(db, MinerConfig.for_variant(variant, **thresholds)).rules == expected
    assert max(sizes) == (12, 15) and max(n for _, n in sizes) == 16
