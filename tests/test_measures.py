from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cousr import Rule
from cousr.measures import (
    UndefinedMeasureError,
    bond,
    build_item_bitvectors,
    confidence,
    itemset_dissup,
    itemset_support,
    lift,
    rule_occurs,
    rule_sids,
    rule_utility,
)
from cousr.miner import filter_unpromising_items
from cousr.seqdb import SequenceDatabase
from cousr.synth import random_small_database

from conftest import A, B, C, D, E, F, G
from reference import positions, rule_of, seu_of_item, seu_of_rule, sids_of


# -- naive re-implementations used as local cross-checks ----------------------

def naive_support(items, db):
    return sum(1 for seq in db.sequences if set(items) <= positions(seq).keys())


def naive_dissup(items, db):
    return sum(1 for seq in db.sequences if set(items) & positions(seq).keys())


# -- bit vectors ---------------------------------------------------------------

def test_bitvectors_examples(example_db):
    bvs = build_item_bitvectors(example_db)
    assert sids_of(bvs[A]) == {1, 2, 3, 4, 5}
    assert sids_of(bvs[C]) == {2, 5}
    assert sids_of(bvs[F]) == {3, 5}


def test_absent_item_has_zero_support(example_db):
    bvs = build_item_bitvectors(example_db)
    assert itemset_support([A, 99], bvs) == 0
    assert bond([99], bvs) == (Fraction(0), False)


def test_support_and_dissup_examples(example_db):
    bvs = build_item_bitvectors(example_db)
    assert itemset_support([A, C], bvs) == 2
    assert itemset_dissup([A, C], bvs) == 5
    assert itemset_support([A], bvs) == 5
    assert itemset_dissup([A, B], bvs) == 5
    # for singletons both supports coincide
    for item in (A, B, C, D, E, F, G):
        assert itemset_support([item], bvs) == itemset_dissup([item], bvs)


def test_bond_examples(example_db):
    bvs = build_item_bitvectors(example_db)
    assert bond([A, B], bvs).value == 1
    assert bond([G], bvs).value == 1
    assert bond([A, B, C, D], bvs).value == Fraction(2, 5)


def test_support_requires_non_empty_itemset(example_db):
    bvs = build_item_bitvectors(example_db)
    with pytest.raises(ValueError):
        itemset_support([], bvs)
    with pytest.raises(ValueError):
        itemset_dissup([], bvs)


# -- rules ----------------------------------------------------------------------

def test_rule_validation():
    with pytest.raises(ValueError):
        Rule((1,), (1,))
    with pytest.raises(ValueError):
        Rule((), (1,))
    with pytest.raises(ValueError):
        Rule((2, 1), (3,))
    rule = rule_of([4, 1], [7])
    assert rule.antecedent == (1, 4)
    assert str(rule) == "{1,4}=>{7}"


def test_rule_occurs_examples(example_db):
    a_to_b = rule_of([A], [B])
    assert rule_occurs(a_to_b, example_db.sequences[1])
    assert not rule_occurs(a_to_b, example_db.sequences[0])  # same itemset
    assert rule_occurs(rule_of([B, D], [G]), example_db.sequences[4])
    # consequent sharing an itemset with the antecedent does not count
    assert not rule_occurs(rule_of([E], [G]), example_db.sequences[1])


def test_rule_sids_examples(example_db):
    assert sids_of(rule_sids(rule_of([A], [B]), example_db)) == {2, 3}
    assert sids_of(rule_sids(rule_of([A, B, D], [G]), example_db)) == {1, 2, 4, 5}
    assert rule_sids(rule_of([A], [99]), example_db) == 0


def test_confidence_examples(example_db):
    bvs = build_item_bitvectors(example_db)
    r = rule_sids(rule_of([A], [B]), example_db)
    assert confidence(r, bvs[A]) == Fraction(2, 5)
    assert confidence(bvs[A], bvs[A]) == 1
    abd_eg = rule_sids(rule_of([A, B, D], [E, G]), example_db)
    sids_abd = bvs[A] & bvs[B] & bvs[D]
    assert confidence(abd_eg, sids_abd) == Fraction(1, 2)
    with pytest.raises(UndefinedMeasureError):
        confidence(r, 0)


def test_lift_examples(example_db):
    bvs = build_item_bitvectors(example_db)
    n = example_db.sequence_count
    ab_g = rule_sids(rule_of([A, B], [G]), example_db)
    assert lift(ab_g, bvs[A] & bvs[B], bvs[G], n) == 1
    abd_g = rule_sids(rule_of([A, B, D], [G]), example_db)
    assert lift(abd_g, bvs[A] & bvs[B] & bvs[D], bvs[G], n) == Fraction(5, 4)
    assert lift(0, bvs[A], bvs[G], n) == 0
    with pytest.raises(UndefinedMeasureError):
        lift(0, 0, bvs[G], n)


def test_rule_utility_examples(example_db):
    assert rule_utility(rule_of([A], [B]), example_db) == 24
    assert rule_utility(rule_of([A, B, C, D], [G]), example_db) == 55
    assert rule_utility(rule_of([A, B, D], [E, G]), example_db) == 52
    assert rule_utility(rule_of([G], [A]), example_db) == 0  # never occurs


def test_seu_examples(example_db):
    assert seu_of_rule(rule_sids(rule_of([A], [B]), example_db), example_db) == 62
    assert seu_of_item(D, example_db) == 119
    assert seu_of_item(F, example_db) == 70
    assert seu_of_item(99, example_db) == 0
    assert seu_of_rule(0, example_db) == 0


# -- measure properties ----------------------------------------------------------

def all_itemsets(db, max_size):
    items = sorted(db.item_universe)
    for size in range(1, max_size + 1):
        yield from combinations(items, size)


def test_support_bounds_and_bond_range(example_db):
    bvs = build_item_bitvectors(example_db)
    for itemset in all_itemsets(example_db, 4):
        sup = itemset_support(itemset, bvs)
        dis = itemset_dissup(itemset, bvs)
        assert sup <= dis
        value = bond(itemset, bvs).value
        assert 0 <= value <= 1


def test_bond_is_anti_monotone_exhaustive(example_db):
    bvs = build_item_bitvectors(example_db)
    items = sorted(example_db.item_universe)
    for itemset in all_itemsets(example_db, 3):
        base_value = bond(itemset, bvs).value
        for extra in items:
            if extra in itemset:
                continue
            assert bond(itemset + (extra,), bvs).value <= base_value


def test_bitset_matches_naive_scan(example_db):
    bvs = build_item_bitvectors(example_db)
    for itemset in all_itemsets(example_db, 4):
        assert itemset_support(itemset, bvs) == naive_support(itemset, example_db)
        assert itemset_dissup(itemset, bvs) == naive_dissup(itemset, example_db)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_bitset_matches_naive_scan_randomized(seed):
    rng = random.Random(seed)
    db = random_small_database(rng)
    bvs = build_item_bitvectors(db)
    for itemset in all_itemsets(db, 3):
        assert itemset_support(itemset, bvs) == naive_support(itemset, db)
        assert itemset_dissup(itemset, bvs) == naive_dissup(itemset, db)
    # a filtered database numbers its sequences from 0 again, and bit k
    # still marks the k-th; the filter's threshold is on the utility grid
    scale = db.utilities.scale
    levels = sorted({int(seu_of_item(item, db) * scale) for item in db.item_universe})
    _, filtered = filter_unpromising_items(db, rng.choice(levels))
    for view in (filtered, SequenceDatabase.from_sequences(())):
        assert build_item_bitvectors(view) == {
            item: sum(1 << k for k, seq in enumerate(view.sequences) if item in positions(seq))
            for item in view.item_universe
        }


def test_confidence_anti_monotone_under_right_expansion(example_db):
    # conf(X => Y+{c}) <= conf(X => Y) because the antecedent is unchanged
    bvs = build_item_bitvectors(example_db)
    items = sorted(example_db.item_universe)
    for x in items:
        for y in items:
            if y == x:
                continue
            base = rule_of([x], [y])
            base_conf = confidence(rule_sids(base, example_db), bvs[x])
            for extra in items:
                if extra in (x, y):
                    continue
                grown = rule_of([x], sorted({y, extra}))
                assert confidence(rule_sids(grown, example_db), bvs[x]) <= base_conf


def test_seu_dominates_rule_utility_and_expansions(example_db):
    items = sorted(example_db.item_universe)
    for x in items:
        for y in items:
            if y == x:
                continue
            rule = rule_of([x], [y])
            mask = rule_sids(rule, example_db)
            seu = seu_of_rule(mask, example_db)
            assert rule_utility(rule, example_db) <= seu
            for extra in items:
                if extra in (x, y):
                    continue
                for grown in (rule_of([x, extra], [y]), rule_of([x], [y, extra])):
                    assert rule_utility(grown, example_db) <= seu
