from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from cousr import MinerConfig, Rule, mine, parse_database, parse_utility_table, with_utilities
from cousr.measures import rule_sids, rule_utility
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

GOLDEN = MinerConfig(min_util=50, min_conf="0.7", min_bond="0.3", min_lift="1.1")
UNFILTERED = MinerConfig()


def _candidates(items):
    """Every ordered pair of disjoint non-empty subsets of ``items``."""
    for sides in product((0, 1, 2), repeat=len(items)):
        x = tuple(item for item, side in zip(items, sides) if side == 1)
        y = tuple(item for item, side in zip(items, sides) if side == 2)
        if x and y:
            yield x, y


def _walk_candidates(db):
    """Check that ``enumerate_all_rules`` yields exactly the candidates that occur.

    Returns the number of candidates and the number of rules yielded.
    """
    candidates = list(_candidates(sorted(db.item_universe)))
    occurring = {key for key in candidates if rule_sids(Rule(*key), db) != 0}
    yielded = [(r.antecedent, r.consequent) for r in enumerate_all_rules(db)]
    assert len(yielded) == len(set(yielded))
    assert set(yielded) == occurring
    return len(candidates), len(yielded)


def test_candidate_count_formula():
    # ordered pairs of disjoint non-empty subsets of m items: 3^m - 2*2^m + 1
    db = with_utilities(
        parse_database("1:1 -1 2:1 -1 3:1 -1 -2\n"),
        parse_utility_table("1 1\n2 1\n3 1\n"),
    )
    # of the 12 candidates only 1 => 2, 1 => 3, 2 => 3, {1, 2} => 3 and 1 => {2, 3} occur
    assert _walk_candidates(db) == (12, 5)


def test_candidate_count_on_example(example_db):
    assert _walk_candidates(example_db) == (3**7 - 2 * 2**7 + 1, 367)


def test_enumeration_yields_exactly_the_occurring_rules():
    rng = random.Random(7)
    for _ in range(24):
        db = random_small_database(rng)
        m = len(db.item_universe)
        candidates, _ = _walk_candidates(db)
        assert candidates == 3**m - 2 * 2**m + 1


def test_single_item_db_yields_nothing():
    db = with_utilities(parse_database("1:4 -1 -2\n"), parse_utility_table("1 2\n"))
    assert list(enumerate_all_rules(db)) == []


def test_oracle_reproduces_golden_rules(example_db):
    rules = oracle_chusrs(example_db, GOLDEN)
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
    assert oracle_chusrs(example_db, replace(GOLDEN, min_lift=Fraction(13, 10))) == ()


def test_zero_thresholds_keep_every_occurring_rule(example_db):
    rules = oracle_chusrs(example_db, UNFILTERED)
    assert rules == tuple(sorted(enumerate_all_rules(example_db)))
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
    config = MinerConfig(min_conf=0.1)
    mined = mine(db, config)
    assert [(m.antecedent, m.consequent) for m in mined.rules] == [((1,), (2,))]
    assert oracle_chusrs(db, config) == mined.rules


def test_oracle_is_deterministic(example_db):
    assert oracle_chusrs(example_db, GOLDEN) == oracle_chusrs(example_db, GOLDEN)


def test_limits_rejected():
    assert (MAX_ITEMS, MAX_SEQUENCES) == (12, 16)
    big = synthesize_database(4, 20, 6, seed=1)
    with pytest.raises(OracleLimitError):
        list(enumerate_all_rules(big))
    many = synthesize_database(20, 6, 3, seed=1)
    with pytest.raises(OracleLimitError):
        oracle_chusrs(many, UNFILTERED)
    # the refusal starts one sequence past the limit
    ut = parse_utility_table("1 1\n")
    at_limit = with_utilities(parse_database("1:1 -1 -2\n" * MAX_SEQUENCES), ut)
    assert oracle_chusrs(at_limit, UNFILTERED) == ()
    with pytest.raises(OracleLimitError):
        oracle_chusrs(with_utilities(parse_database("1:1 -1 -2\n" * (MAX_SEQUENCES + 1)), ut),
                      UNFILTERED)


def test_oracle_utility_matches_measures_path():
    # two independent code paths must agree on rule utility
    for seed in range(10):
        db = random_small_database(random.Random(seed))
        for r in enumerate_all_rules(db):
            assert r.utility == rule_utility(Rule(r.antecedent, r.consequent), db)


def _random_case(seed, **size):
    rng = random.Random(seed)
    db = random_small_database(rng, **size)
    return db, MinerConfig(*random_thresholds(rng, db))


def _variant_configs(config):
    return [replace(config, bond_matrix_prune=s6, esucs_prune=s7) for s6, s7 in VARIANTS.values()]


@pytest.mark.parametrize("cap", [1, 2])
def test_miner_matches_oracle_with_a_rule_side_cap(cap):
    for seed in range(40):
        db, config = _random_case(20_000 + seed)
        config = replace(config, max_rule_side=cap)
        expected = oracle_chusrs(db, config)
        for variant_config in _variant_configs(config):
            assert mine(db, variant_config).rules == expected, (seed, variant_config)


def test_miner_matches_oracle_at_the_oracle_limits():
    # random_small_database stays at 8 items and 8 sequences by default; these
    # draws reach the oracle's limits of 12 items and 16 sequences. The oracle
    # takes seconds per 12-item database, so the sample is six seeds with
    # hundreds to thousands of rules: 33 (12 items, 4 sequences, 1,819
    # rules), 306 (9 items, 16 sequences, 160 rules), 1049 (12 items, 16
    # sequences, 480 rules), 1594 (11 items, 16 sequences, 732 rules), 1803
    # (11 items, 15 sequences, 676 rules) and 1991 (12 items, 8 sequences,
    # 2,835 rules, 6 items of unit utility 0). A draw change that shrinks a
    # rule set below 100 fails here instead of thinning the sample.
    sizes = []
    for seed in (33, 306, 1049, 1594, 1803, 1991):
        db, config = _random_case(seed, max_items=12, max_sequences=16)
        sizes.append((len(db.item_universe), db.sequence_count))
        expected = oracle_chusrs(db, config)
        assert len(expected) >= 100, (seed, len(expected))
        for variant_config in _variant_configs(config):
            assert mine(db, variant_config).rules == expected
    assert max(sizes) == (12, 16)
