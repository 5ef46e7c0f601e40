from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cousr.rulecore import scan_rule_pairs
from cousr.synth import random_small_database, random_thresholds, synthesize_database

from reference import pair_values, positions


def test_same_seed_same_database():
    a = synthesize_database(50, 20, 5, seed=42)
    b = synthesize_database(50, 20, 5, seed=42)
    assert a.sequences == b.sequences
    assert a.utilities.entries == b.utilities.entries
    c = synthesize_database(50, 20, 5, seed=43)
    assert c.sequences != a.sequences


def test_synthetic_database_shape():
    db = synthesize_database(200, 30, 6, seed=7)
    assert db.sequence_count == 200
    for seq in db.sequences:
        assert all(len(itemset) <= 3 for itemset in seq.itemsets)
        for item, qty in ((i, q) for itemset in seq.itemsets for i, q in itemset):
            assert 1 <= item <= 30
            assert 1 <= qty <= 5
    assert all(1 <= v <= 10 for v in db.utilities.entries.values())


def test_zipf_weighting_favors_low_ranks():
    db = synthesize_database(400, 30, 6, seed=3)
    rank1 = sum(1 for s in db.sequences if 1 in positions(s))
    rank30 = sum(1 for s in db.sequences if 30 in positions(s))
    assert rank1 > rank30


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        synthesize_database(0, 10, 5, seed=1)
    with pytest.raises(ValueError):
        synthesize_database(10, 10, 0, seed=1)


def test_random_small_database_stays_within_oracle_limits():
    for seed in range(40):
        db = random_small_database(random.Random(seed))
        assert db.sequence_count <= 8
        assert len(db.item_universe) <= 8
        for seq in db.sequences:
            assert all(len(itemset) <= 3 for itemset in seq.itemsets)


def test_random_small_database_sometimes_uses_decimal_utilities():
    scales = {
        random_small_database(random.Random(seed)).utilities.scale for seed in range(40)
    }
    assert 1 in scales
    assert any(s > 1 for s in scales)


def test_random_small_database_sometimes_has_pairs_of_rule_seu_0():
    # items of unit utility 0 make some sequences worth 0, and a pair that
    # only such sequences hold occurs with a rule SEU of 0
    zero_units = zero_pairs = 0
    for seed in range(300):
        db = random_small_database(random.Random(seed))
        zero_units += 0 in db.utilities.entries.values()
        zero_pairs += 0 in pair_values(scan_rule_pairs(db)).values()
    assert 40 <= zero_units <= 110
    assert zero_pairs >= 5


def test_random_thresholds_are_exact_and_in_range():
    rng = random.Random(5)
    db = random_small_database(rng)
    for _ in range(50):
        mu, mc, mb, ml = random_thresholds(rng, db)
        assert isinstance(mu, Fraction) and mu >= 0
        assert 0 <= mc <= 1 and 0 <= mb <= 1
        assert ml >= 0
