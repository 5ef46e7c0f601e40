from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cousr import Rule, parse_database, parse_utility_table, with_utilities
from cousr.measures import build_item_bitvectors, rule_sids, rule_utility, seu_of_rule, sids_of
from cousr.miner import filter_unpromising_items
from cousr.rulecore import (
    Expansion,
    RuleAbsentError,
    SequenceTables,
    build_bond_matrix,
    build_utility_list,
    classify_expansion_items,
    expand_utility_list,
    scan_rule_pairs,
)
from cousr.seqdb import Sequence, SequenceDatabase, UtilityTable
from cousr.synth import random_small_database

from conftest import A, B, C, D, E, F, G

AE = Rule.of([A], [E])


def tiny_db(text, utils="1 1\n2 1\n3 1\n4 1\n"):
    return with_utilities(parse_database(text), parse_utility_table(utils))


@pytest.fixture(scope="module")
def tables(example_db):
    return SequenceTables(example_db)


# -- expansion-item classification ------------------------------------------------

def test_classify_examples(example_db):
    s1, s2 = example_db.sequences[0], example_db.sequences[1]
    assert classify_expansion_items(AE, s1) == (frozenset({B}), frozenset({G}), frozenset())
    assert classify_expansion_items(AE, s2) == (frozenset({B, C, D}), frozenset({G}), frozenset())
    # f in S3 can go either way: f > e, positioned between a and e's itemsets
    s3 = example_db.sequences[2]
    assert classify_expansion_items(AE, s3).left_right == frozenset({F})


def test_classify_rule_covering_all_items():
    db = tiny_db("1:1 -1 2:1 -1 -2\n")
    classes = classify_expansion_items(Rule.of([1], [2]), db.sequences[0])
    assert classes == (frozenset(), frozenset(), frozenset())


def test_classify_rejects_non_occurring_rule(example_db):
    with pytest.raises(RuleAbsentError):
        classify_expansion_items(Rule.of([A], [B]), example_db.sequences[0])
    with pytest.raises(RuleAbsentError):
        classify_expansion_items(Rule.of([A], [F]), example_db.sequences[0])


# -- utility-list construction -----------------------------------------------------

def test_initial_utility_list_rows(example_db, tables):
    ul = build_utility_list(AE, tables)
    # (sid, iutil, lutil, rutil, lrutil, max_pos_x, min_pos_y)
    assert [tuple(row) for row in ul.rows] == [
        (1, 9, 5, 2, 0, 1, 2),
        (2, 12, 18, 4, 0, 1, 4),
        (3, 15, 10, 0, 3, 1, 4),
        (4, 9, 7, 6, 0, 1, 2),
        (5, 15, 5, 11, 0, 1, 2),
    ]
    assert ul.utility == rule_utility(AE, example_db) == 60
    assert ul.support == 5
    assert sids_of(ul.sids_mask) == {1, 2, 3, 4, 5}


def test_utility_list_of_larger_rule_from_scratch(example_db, tables):
    # any rule size builds from scratch, with the rows its expansion derives
    rule = Rule.of([A, B], [E])
    ul = build_utility_list(rule, tables)
    assert ul.rows == expand_utility_list(build_utility_list(AE, tables), B, "left",
                                          tables).rows
    assert ul.utility == rule_utility(rule, example_db)
    assert ul.sids_mask == rule_sids(rule, example_db)


def test_utility_list_of_absent_rule_is_empty(example_db, tables):
    ul = build_utility_list(Rule.of([G], [A]), tables)
    assert ul.rows == ()
    assert ul.total == 0
    assert ul.left_total == 0


def test_restricting_to_known_sids_gives_same_rows(example_db, tables):
    mask = rule_sids(AE, example_db)
    assert build_utility_list(AE, tables, sids=mask).rows == build_utility_list(AE, tables).rows


# -- expansion ----------------------------------------------------------------------

def test_left_expansion_with_c_matches_worked_values(example_db, tables):
    parent = build_utility_list(AE, tables)
    expanded = expand_utility_list(parent, C, "left", tables)
    assert expanded.rule == Rule.of([A, C], [E])
    assert [tuple(row) for row in expanded.rows] == [(2, 16, 9, 4, 0, 2, 4)]
    assert expanded.rows == build_utility_list(expanded.rule, tables).rows


def test_right_expansion_with_g(example_db, tables):
    parent = build_utility_list(AE, tables)
    expanded = expand_utility_list(parent, G, "right", tables)
    assert sids_of(expanded.sids_mask) == {1, 2, 4, 5}
    assert expanded.utility == rule_utility(Rule.of([A], [E, G]), example_db) == 59
    assert expanded.rows == build_utility_list(expanded.rule, tables).rows


def test_expansion_with_item_absent_from_all_rows():
    # item 4 exists in the db but never after the antecedent of 1 => 2
    tables = SequenceTables(tiny_db("4:1 1:1 -1 2:1 -1 -2\n1:1 -1 2:1 3:1 -1 -2\n"))
    parent = build_utility_list(Rule.of([1], [2]), tables)
    assert parent.support == 2
    expanded = expand_utility_list(parent, 4, "right", tables)
    assert expanded.rows == ()


@pytest.mark.parametrize(
    "item,direction",
    [(A, "left"), (A, "right"), (E, "right"), (B, "right"), (C, "right")],
)
def test_expansion_order_constraint_violations(example_db, tables, item, direction):
    parent = build_utility_list(AE, tables)
    with pytest.raises(ValueError):
        expand_utility_list(parent, item, direction, tables)


def test_expansion_rejects_bad_direction(example_db, tables):
    parent = build_utility_list(AE, tables)
    with pytest.raises(ValueError):
        expand_utility_list(parent, G, "up", tables)


# -- upper bounds --------------------------------------------------------------------

def _descendant_rules(rule, items, left_only=False):
    """Every rule reachable from ``rule`` by canonical expansions."""
    max_x, max_y = rule.antecedent[-1], rule.consequent[-1]
    used = set(rule.items)
    left_pool = [i for i in items if i > max_x and i not in used]
    right_pool = [i for i in items if i > max_y and i not in used]
    out = []
    r_count = 1 if left_only else 2 ** len(right_pool)
    for r_bits in range(r_count):
        radd = [right_pool[k] for k in range(len(right_pool)) if r_bits >> k & 1]
        for l_bits in range(2 ** len(left_pool)):
            ladd = [left_pool[k] for k in range(len(left_pool)) if l_bits >> k & 1]
            if set(ladd) & set(radd):
                continue
            out.append(Rule.of(rule.antecedent + tuple(ladd), rule.consequent + tuple(radd)))
    return out


def test_totals_bound_every_descendant_utility(example_db, tables):
    items = sorted(example_db.item_universe)
    ul = build_utility_list(AE, tables)
    assert ul.total == 131
    assert ul.left_total == 108
    for descendant in _descendant_rules(AE, items):
        assert rule_utility(descendant, example_db) <= ul.total
    for descendant in _descendant_rules(AE, items, left_only=True):
        assert rule_utility(descendant, example_db) <= ul.left_total


def test_total_bounded_by_rule_seu(example_db, tables):
    for x in sorted(example_db.item_universe):
        for y in sorted(example_db.item_universe):
            if x == y:
                continue
            rule = Rule.of([x], [y])
            ul = build_utility_list(rule, tables)
            seu = seu_of_rule(ul.sids_mask, example_db)
            assert ul.total <= seu
            assert ul.left_total <= ul.total


# -- co-occurrence tables ---------------------------------------------------------------

def test_bond_matrix_examples(example_db):
    counts = build_bond_matrix(example_db)
    assert counts[(A, B)] == 5  # a and b always occur together: bond 5 / 5
    assert counts[(C, F)] == 1  # bond 1 / (2 + 2 - 1)
    assert all(a < b for a, b in counts)
    db = tiny_db("1:1 -1 -2\n2:1 -1 -2\n")
    assert build_bond_matrix(db) == {}  # 1 and 2 never co-occur


def test_bond_matrix_restricted_to_items(example_db):
    # the miner restricts the table to promising items by building it on the
    # strategy-1 filtered database: the counts of the surviving pairs stay
    promising, filtered = filter_unpromising_items(example_db, 120)
    assert promising == {A, B, E}
    full = build_bond_matrix(example_db)
    restricted = build_bond_matrix(filtered)
    assert restricted == {pair: co for pair, co in full.items() if set(pair) <= promising}
    assert set(restricted) == {(A, B), (A, E), (B, E)}


def test_esucs_examples(example_db):
    table = scan_rule_pairs(example_db)
    assert table[(A, B)] == 62
    assert (B, A) not in table  # b never strictly precedes a
    assert all(a != b for a, b in table)
    assert table[(E, G)] == 85  # e precedes g in S1, S4, S5 only


def test_scan_rule_pairs_agrees_with_direct_measures(example_db, tables):
    pairs = scan_rule_pairs(example_db)
    bitvectors = build_item_bitvectors(example_db)
    for (a, b), seu in pairs.items():
        rule = Rule.of([a], [b])
        sids = rule_sids(rule, example_db)
        assert seu == seu_of_rule(sids, example_db)
        root = build_utility_list(rule, tables, sids=bitvectors[a] & bitvectors[b])
        assert root.sids_mask == sids
    assert (B, A) not in pairs


# -- randomized invariants ----------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_incremental_expansion_equals_rebuild(seed):
    rng = random.Random(seed)
    db = random_small_database(rng)
    pairs = scan_rule_pairs(db)
    if not pairs:
        return
    a, b = sorted(pairs)[rng.randrange(len(pairs))]
    tables = SequenceTables(db)
    ul = build_utility_list(Rule.of([a], [b]), tables)
    for _ in range(4):
        direction = rng.choice(("left", "right"))
        feasible = tables.items_of(Expansion(ul, direction, tables).candidates)
        if not feasible:
            break
        item = rng.choice(feasible)
        expanded = expand_utility_list(ul, item, direction, tables)
        rebuilt = build_utility_list(expanded.rule, tables)
        assert expanded.rows == rebuilt.rows
        if not expanded.rows:
            break
        ul = expanded


def _long_database():
    """Three sequences of 48 items in 24 itemsets, each in its own item order."""
    sequences = []
    for sid, step in enumerate((5, 7, 11), start=1):
        itemsets = [[] for _ in range(24)]
        for item in range(1, 49):
            itemsets[item * step % 24].append((item, 1 + item % 5))
        sequences.append(Sequence(sid=sid, itemsets=tuple(map(tuple, itemsets))))
    entries = {item: Fraction(1 + item % 7, 1 + item % 2) for item in range(1, 49)}
    return SequenceDatabase(sequences=tuple(sequences), utilities=UtilityTable(entries=entries))


LONG_DB = _long_database()


def _assert_table_layout(db):
    """Every table reads back each item's position and grid utility, and its
    cumulative masks give the items after / before every position."""
    tables = SequenceTables(db)
    for seq, grid in zip(db.sequences, db.grid_item_utilities):
        table = tables.table(seq.sid)
        sums, last, upto = table.sums, table.last, table.upto
        width = last + 2
        assert last == len(seq.itemsets)
        assert table.where.keys() == seq.positions.keys()
        for item, base in table.where.items():
            assert sums[base + last + 1] == seq.positions[item]
            # T[rank][last] - T[rank + 1][last]
            assert sums[base - width + last] - sums[base + last] == grid[item]
        for q in range(1, last + 1):
            after = before = 0
            for item, pos in seq.positions.items():
                if pos > q:
                    after |= 1 << tables.rank[item]
                elif pos < q:
                    before |= 1 << tables.rank[item]
            assert upto[last] ^ upto[q] == after
            assert upto[q - 1] == before


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_table_layout_matches_positions_and_grid_utilities(seed):
    _assert_table_layout(random_small_database(random.Random(seed)))


def test_table_layout_with_sid_gaps():
    sequences = tuple(
        Sequence(sid=sid, itemsets=seq.itemsets)
        for sid, seq in zip((2, 5, 9), LONG_DB.sequences)
    )
    _assert_table_layout(SequenceDatabase(sequences=sequences, utilities=LONG_DB.utilities))


def _assert_rows_match_classification(ul, db, tables):
    """Rows and candidates agree with the item-by-item reference classification."""
    grids = {seq.sid: grid for seq, grid in zip(db.sequences, db.grid_item_utilities)}
    left, right = set(), set()
    for row in ul.rows:
        seq, grid = tables.sequences[row.sid], grids[row.sid]
        classes = classify_expansion_items(ul.rule, seq)
        assert (row.lutil, row.rutil, row.lrutil) == tuple(
            sum(grid[item] for item in part) for part in classes
        )
        assert row.iutil == sum(grid[item] for item in ul.rule.items)
        assert row.max_pos_x == max(seq.positions[item] for item in ul.rule.antecedent)
        assert row.min_pos_y == min(seq.positions[item] for item in ul.rule.consequent)
        left |= classes.only_left | classes.left_right
        right |= classes.only_right | classes.left_right
    assert tables.items_of(Expansion(ul, "left", tables).candidates) == sorted(left)
    assert tables.items_of(Expansion(ul, "right", tables).candidates) == sorted(right)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_rows_equal_class_sums_of_reference_classification(seed, long):
    rng = random.Random(seed)
    db = LONG_DB if long else random_small_database(rng)
    pairs = sorted(scan_rule_pairs(db))
    if not pairs:
        return
    tables = SequenceTables(db)
    for _ in range(3):
        a, b = pairs[rng.randrange(len(pairs))]
        ul = build_utility_list(Rule.of([a], [b]), tables)
        for _ in range(6):
            _assert_rows_match_classification(ul, db, tables)
            direction = rng.choice(("left", "right"))
            feasible = tables.items_of(Expansion(ul, direction, tables).candidates)
            if not feasible:
                break
            ul = expand_utility_list(ul, rng.choice(feasible), direction, tables)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_utility_list_totals_match_direct_measures(seed):
    db = random_small_database(random.Random(seed))
    tables = SequenceTables(db)
    for a, b in scan_rule_pairs(db):
        rule = Rule.of([a], [b])
        ul = build_utility_list(rule, tables)
        scale = db.utilities.scale
        assert Fraction(ul.utility, scale) == rule_utility(rule, db)
        sids = rule_sids(rule, db)
        assert ul.support == sids.bit_count()
        assert ul.sids_mask == sids
        for row in ul.rows:
            assert min(row.iutil, row.lutil, row.rutil, row.lrutil) >= 0

