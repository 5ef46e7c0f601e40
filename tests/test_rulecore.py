from __future__ import annotations

import random
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cousr import Rule, parse_database, parse_utility_table, with_utilities
from cousr.measures import build_item_bitvectors, rule_sids, rule_utility
from cousr.miner import filter_unpromising_items
from cousr.rulecore import (
    SequenceTables,
    UtilityList,
    build_bond_matrix,
    build_utility_list,
    scan_rule_pairs,
)
from cousr.seqdb import Sequence, SequenceDatabase, UtilityTable
from cousr.synth import random_small_database, synthesize_database

from conftest import A, B, C, D, E, F, G
from reference import (
    RuleAbsentError,
    class_sums,
    classify_expansion_items,
    co_occurrence_counts,
    descendant_keys,
    grid_utilities,
    pair_values,
    positions,
    random_expansions,
    rebuild_utility_list,
    row_offset,
    rule_of,
    rule_pair_seus,
    seu_of_rule,
    sids_mask,
    sids_of,
)

AE = rule_of([A], [E])


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
    classes = classify_expansion_items(rule_of([1], [2]), db.sequences[0])
    assert classes == (frozenset(), frozenset(), frozenset())


def test_classify_rejects_non_occurring_rule(example_db):
    with pytest.raises(RuleAbsentError):
        classify_expansion_items(rule_of([A], [B]), example_db.sequences[0])
    with pytest.raises(RuleAbsentError):
        classify_expansion_items(rule_of([A], [F]), example_db.sequences[0])


# -- utility-list construction -----------------------------------------------------

def test_initial_utility_list_rows(example_db, tables):
    ul = rebuild_utility_list(AE, tables)
    # (seq_index, iutil, total, left_total, max_pos_x, min_pos_y)
    assert ul.rows == (
        (0, 9, 16, 14, 1, 2),
        (1, 12, 34, 30, 1, 4),
        (2, 15, 28, 28, 1, 4),
        (3, 9, 22, 16, 1, 2),
        (4, 15, 31, 20, 1, 2),
    )
    # the worked example's (lutil, rutil, lrutil): total = iutil + all three,
    # left_total = iutil + lutil + lrutil
    assert [class_sums(AE, seq, example_db) for seq in example_db.sequences] == [
        (5, 2, 0), (18, 4, 0), (10, 0, 3), (7, 6, 0), (5, 11, 0),
    ]
    assert ul.utility == rule_utility(AE, example_db) == 60
    assert ul.support == 5
    assert sids_of(sids_mask(ul)) == {1, 2, 3, 4, 5}


def test_utility_list_of_larger_rule_from_scratch(example_db, tables):
    # the reference builds any rule size from scratch, with the rows its
    # expansion derives
    rule = rule_of([A, B], [E])
    ul = rebuild_utility_list(rule, tables)
    assert ul.rows == rebuild_utility_list(AE, tables).expand(B, False, tables).rows
    assert ul.utility == rule_utility(rule, example_db)
    assert sids_mask(ul) == rule_sids(rule, example_db)


def test_utility_list_of_absent_rule_is_empty(example_db, tables):
    ul = rebuild_utility_list(rule_of([G], [A]), tables)
    assert ul.rows == ()
    assert ul.total == 0
    assert ul.left_total == 0


def test_restricting_to_known_sids_gives_same_rows(example_db, tables):
    mask = rule_sids(AE, example_db)
    assert build_utility_list(A, E, tables, sids=mask).rows == rebuild_utility_list(AE, tables).rows


@pytest.mark.parametrize("a,b", [(A, G), (C, E)])
def test_root_builder_refuses_a_sequence_without_an_item(example_db, tables, a, b):
    # the third sequence holds a and e but neither c nor g; the others hold both items
    assert not positions(example_db.sequences[2]).keys() & {C, G}
    bitvectors = build_item_bitvectors(example_db)
    with pytest.raises(ValueError, match="sequence 2 lacks"):
        build_utility_list(a, b, tables, sids=bitvectors[a] & bitvectors[b] | 1 << 2)


# -- expansion ----------------------------------------------------------------------

def test_left_expansion_with_c_matches_worked_values(example_db, tables):
    parent = rebuild_utility_list(AE, tables)
    expanded = parent.expand(C, False, tables)
    assert expanded[:2] == ((A, C), (E,))
    assert expanded.rows == ((1, 16, 29, 25, 2, 4),)
    assert class_sums(expanded, example_db.sequences[1], example_db) == (9, 4, 0)
    assert expanded.rows == rebuild_utility_list(expanded, tables).rows


def test_right_expansion_with_g(example_db, tables):
    parent = rebuild_utility_list(AE, tables)
    expanded = parent.expand(G, True, tables)
    assert sids_of(sids_mask(expanded)) == {1, 2, 4, 5}
    assert expanded.utility == rule_utility(rule_of([A], [E, G]), example_db) == 59
    assert expanded.rows == rebuild_utility_list(expanded, tables).rows


@pytest.mark.parametrize(
    "rule,item,right", [(((C,), (E,)), G, True), (((A,), (G,)), B, False)]
)
def test_expansion_refuses_a_row_without_the_fixed_item(tables, rule, item, right):
    # a's rows for a => e, relabelled: the third sequence lacks c and g
    corrupt = UtilityList(*rule, rebuild_utility_list(AE, tables).rows)
    with pytest.raises(ValueError, match="lacks item"):
        corrupt.expand(item, right, tables)


def test_expansion_with_item_absent_from_all_rows():
    # item 4 exists in the db but never after the antecedent of 1 => 2
    tables = SequenceTables(tiny_db("4:1 1:1 -1 2:1 -1 -2\n1:1 -1 2:1 3:1 -1 -2\n"))
    parent = rebuild_utility_list(rule_of([1], [2]), tables)
    assert parent.support == 2
    expanded = parent.expand(4, True, tables)
    assert expanded.rows == ()


@pytest.mark.parametrize(
    "item,side",
    [(A, "left"), (A, "right"), (E, "right"), (B, "right"), (C, "right")],
)
def test_expansion_order_constraint_violations(example_db, tables, item, side):
    parent = rebuild_utility_list(AE, tables)
    with pytest.raises(ValueError):
        parent.expand(item, side == "right", tables)


@pytest.mark.parametrize("sides,right", [(((A, G), (E,)), True), (((A,), (E, G)), False)])
def test_expansion_refuses_an_item_of_the_other_side(tables, sides, right):
    # g follows the grown side's last item, but the rule already holds it
    with pytest.raises(ValueError, match="cannot extend"):
        rebuild_utility_list(rule_of(*sides), tables).expand(G, right, tables)


# -- upper bounds --------------------------------------------------------------------

def test_totals_bound_every_descendant_utility(example_db, tables):
    items = sorted(example_db.item_universe)
    ul = rebuild_utility_list(AE, tables)
    assert ul.total == 131
    assert ul.left_total == 108
    for key in descendant_keys(AE.antecedent, AE.consequent, items):
        assert rule_utility(Rule(*key), example_db) <= ul.total
    for key in descendant_keys(AE.antecedent, AE.consequent, items, right=False):
        assert rule_utility(Rule(*key), example_db) <= ul.left_total


def test_total_bounded_by_rule_seu(example_db, tables):
    for x in sorted(example_db.item_universe):
        for y in sorted(example_db.item_universe):
            if x == y:
                continue
            rule = rule_of([x], [y])
            ul = rebuild_utility_list(rule, tables)
            seu = seu_of_rule(sids_mask(ul), example_db)
            assert ul.total <= seu
            assert ul.left_total <= ul.total


# -- co-occurrence tables ---------------------------------------------------------------

def test_bond_matrix_examples(example_db):
    counts = pair_values(build_bond_matrix(example_db))
    assert counts[(A, B)] == 5  # a and b always occur together: bond 5 / 5
    assert counts[(C, F)] == 1  # bond 1 / (2 + 2 - 1)
    assert all(a < b for a, b in counts)
    db = tiny_db("1:1 -1 -2\n2:1 -1 -2\n")
    assert len(build_bond_matrix(db)) == 0  # 1 and 2 never co-occur


def test_bond_matrix_restricted_to_items(example_db):
    # the miner restricts the table to promising items by building it on the
    # strategy-1 filtered database: the counts of the surviving pairs stay
    promising, filtered = filter_unpromising_items(example_db, 120)
    assert promising == {A, B, E}
    full = pair_values(build_bond_matrix(example_db))
    restricted = pair_values(build_bond_matrix(filtered))
    assert restricted == {pair: co for pair, co in full.items() if set(pair) <= promising}
    assert set(restricted) == {(A, B), (A, E), (B, E)}


def test_esucs_examples(example_db):
    table = pair_values(scan_rule_pairs(example_db))
    assert table[(A, B)] == 62
    assert (B, A) not in table  # b never strictly precedes a
    assert all(a != b for a, b in table)
    assert table[(E, G)] == 85  # e precedes g in S1, S4, S5 only


def test_scan_rule_pairs_agrees_with_direct_measures(example_db, tables):
    pairs = pair_values(scan_rule_pairs(example_db))
    bitvectors = build_item_bitvectors(example_db)
    for (a, b), seu in pairs.items():
        rule = rule_of([a], [b])
        sids = rule_sids(rule, example_db)
        assert seu == seu_of_rule(sids, example_db)
        root = build_utility_list(a, b, tables, sids=bitvectors[a] & bitvectors[b])
        assert sids_mask(root) == sids
    assert (B, A) not in pairs


def random_sparse_database(rng) -> SequenceDatabase:
    """A few short sequences over 1,000 items, some of unit utility 0."""
    sequences = []
    for _ in range(rng.randint(1, 12)):
        items = rng.sample(range(1, 1001), rng.randint(1, 4))
        cuts = sorted(rng.sample(range(1, len(items)), rng.randint(0, len(items) - 1)))
        sequences.append(Sequence(tuple(
            tuple(sorted((item, rng.randint(1, 3)) for item in items[start:stop]))
            for start, stop in zip([0] + cuts, cuts + [len(items)])
        )))
    units = {item: Fraction(rng.choice((0, 0, 1, 5))) for item in range(1, 1001)}
    return SequenceDatabase.from_sequences(sequences, UtilityTable(units))


def assert_table_equals(table, reference):
    """``table`` holds exactly the reference's pairs and values, in ascending
    order, with the same strategy-2 count at every cut."""
    pairs = pair_values(table)
    assert pairs == reference
    assert len(table) == len(reference)
    assert list(pairs) == sorted(reference)
    values = set(reference.values())
    for floor in sorted(values | {value + 1 for value in values} | {0, 1}):
        kept = sorted((a, b, value) for (a, b), value in reference.items() if value >= floor)
        entries = list(table.entries(floor))
        assert entries == kept
        # pruned_s2 as mine() counts it: the occurring pairs minus the kept ones
        assert len(table) - len(entries) == len(reference) - len(kept)


def test_pair_tables_match_the_reference():
    # the small oracle databases and sparse ones over 1,000 items; both meet
    # sequences of utility 0, whose pairs occur with an SEU of 0
    zero_seu = 0
    for seed in range(300):
        rng = random.Random(seed)
        db = random_small_database(rng) if seed % 2 else random_sparse_database(rng)
        seus = rule_pair_seus(db)
        zero_seu += 0 in seus.values()
        assert_table_equals(scan_rule_pairs(db), seus)
        assert_table_equals(build_bond_matrix(db), co_occurrence_counts(db))
    assert zero_seu >= 5


@pytest.mark.parametrize("unit", [2**63 - 1, 2**63, 2**64, 2**70])
def test_rule_seu_cells_past_64_bits(unit):
    # only item 2 has a unit utility, so rule 1 => 3 has the SEU ``unit``,
    # which a signed 64-bit cell could not hold from 2**63 on
    units = "".join(f"{item} {unit if item == 2 else 0}\n" for item in range(1, 5))
    db = with_utilities(parse_database("1:1 -1 2:1 -1 3:1 -1 -2\n4:1 -1 -2\n"),
                        parse_utility_table(units))
    table = scan_rule_pairs(db)
    assert_table_equals(table, rule_pair_seus(db))
    assert pair_values(table)[(1, 3)] == unit
    assert list(table.entries(unit)) == [(1, 2, unit), (1, 3, unit), (2, 3, unit)]


def test_pair_tables_stay_small_on_many_items():
    # 5,000 two-itemset sequences over 10,000 distinct items: both tables
    # keep only their 5,000 pairs, where an R x R table would take 10**8 cells
    db = SequenceDatabase.from_sequences(
        (Sequence((((item, 1),), ((item + 1, 1),))) for item in range(1, 10_001, 2)),
        UtilityTable({item: Fraction(1) for item in range(1, 10_001)}),
    )
    assert db.grid_sequence_utilities and db.item_universe  # cached before tracing
    tracemalloc.start()
    try:
        seus = scan_rule_pairs(db)
        co = build_bond_matrix(db)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(seus) == len(co) == 5_000
    seus, co = pair_values(seus), pair_values(co)
    assert seus[(1, 2)] == 2 and co[(1, 2)] == 1 and (2, 3) not in co
    assert peak < 4 * 2**20, peak


def test_pair_tables_stay_small_on_many_pairs_per_item():
    # 2,000 sequences over 100 items: about 75 rule-SEU pairs per antecedent
    # item, where one row of cells per item costs less than an int key per pair
    db = synthesize_database(2_000, 100, 8, seed=0)
    assert db.grid_sequence_utilities and db.item_universe  # cached before tracing
    tracemalloc.start()
    try:
        seus = scan_rule_pairs(db)
        co = build_bond_matrix(db)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    antecedents = {a for a, _, _ in seus.entries()}
    assert len(seus) >= 50 * len(antecedents) and len(co) > 4_000
    assert peak < 0.9 * 2**20, peak


# -- randomized invariants ----------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_incremental_expansion_equals_rebuild(seed):
    rng = random.Random(seed)
    db = random_small_database(rng)
    pairs = list(pair_values(scan_rule_pairs(db)))
    if not pairs:
        return
    a, b = pairs[rng.randrange(len(pairs))]
    tables = SequenceTables(db)
    ul = rebuild_utility_list(rule_of([a], [b]), tables)
    for expanded in random_expansions(ul, tables, rng, 4):
        assert expanded.rows == rebuild_utility_list(expanded, tables).rows


def _long_database():
    """Three sequences of 48 items in 24 itemsets, each in its own item order."""
    sequences = []
    for step in (5, 7, 11):
        itemsets = [[] for _ in range(24)]
        for item in range(1, 49):
            itemsets[item * step % 24].append((item, 1 + item % 5))
        sequences.append(Sequence(tuple(map(tuple, itemsets))))
    entries = {item: Fraction(1 + item % 7, 1 + item % 2) for item in range(1, 49)}
    return SequenceDatabase.from_sequences(sequences, UtilityTable(entries=entries))


LONG_DB = _long_database()


def _many_items_database():
    """Four sequences over 130 items in 10 itemsets, so item masks span three
    64-bit words; each sequence leaves out the multiples of its step."""
    sequences = []
    for step in (3, 7, 9, 11):
        itemsets = [[] for _ in range(10)]
        for item in range(1, 131):
            if item % step:
                itemsets[item * step % 10].append((item, 1 + item % 4))
        sequences.append(Sequence(tuple(map(tuple, itemsets))))
    entries = {item: Fraction(1 + item % 5, 1 + item % 3) for item in range(1, 131)}
    return SequenceDatabase.from_sequences(sequences, UtilityTable(entries=entries))


MANY_ITEMS_DB = _many_items_database()


def _assert_table_layout(db):
    """Every sequence's columns find each item's row from its item mask, and
    that row reads back the item's position and grid utility; an item
    outside the sequence has no bit; the shared cumulative masks, at the
    offsets the CSR columns give, hold the items after / before every
    position."""
    tables = SequenceTables(db)
    assert tables.sums == [None] * db.sequence_count  # nothing filled before use
    for index, seq in enumerate(db.sequences):
        sums = tables.table(index)
        assert sums is tables.sums[index] is tables.table(index)
        last, mask = tables.lasts[index], tables.masks[index]
        at = db.seq_starts[index] + index
        upto = tables.upto[at:at + last + 1]
        width = last + 2
        position, grid = positions(seq), grid_utilities(seq, db)
        assert last == len(seq.itemsets)
        assert len(sums) == (len(position) + 1) * width
        assert mask is tables.upto[at + last]
        assert upto[0] == 0  # positions start at 1
        for item in tables.items:
            bit = 1 << tables.rank[item]
            assert bool(mask & bit) == (item in position)
        for item in position:
            base = row_offset(seq, item)
            # the package's offset: the mask's set bits up to the item's rank
            assert (mask & (2 << tables.rank[item]) - 1).bit_count() * width == base
            assert sums[base + last + 1] == position[item]
            # T[rank][last] - T[rank + 1][last]
            assert sums[base - width + last] - sums[base + last] == grid[item]
        for q in range(1, last + 1):
            after = before = 0
            for item, pos in position.items():
                if pos > q:
                    after |= 1 << tables.rank[item]
                elif pos < q:
                    before |= 1 << tables.rank[item]
            assert upto[last] ^ upto[q] == after
            assert upto[q - 1] == before
    # every slot of the shared list belongs to exactly one sequence
    assert len(tables.upto) == len(db.set_starts) - 1 + db.sequence_count


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_table_layout_matches_positions_and_grid_utilities(seed):
    _assert_table_layout(random_small_database(random.Random(seed)))


def test_table_layout_of_long_sequences():
    _assert_table_layout(LONG_DB)


def test_table_layout_beyond_one_mask_word():
    assert len(MANY_ITEMS_DB.item_universe) == 130
    _assert_table_layout(MANY_ITEMS_DB)


def test_table_layout_with_empty_sequences():
    # an empty sequence (a ``-2`` line) has a one-row table and one mask slot
    db = tiny_db("-2\n1:1 -1 2:1 3:1 -1 -2\n-2\n3:2 -1 1:1 -1 -2\n-2\n")
    assert [len(seq.itemsets) for seq in db.sequences] == [0, 2, 0, 2, 0]
    _assert_table_layout(db)


def test_tables_are_columns_with_no_object_per_sequence():
    db = MANY_ITEMS_DB
    tables = SequenceTables(db)
    bitvectors = build_item_bitvectors(db)
    for a, b in list(pair_values(scan_rule_pairs(db)))[:20]:
        ul = build_utility_list(a, b, tables, bitvectors[a] & bitvectors[b])
        for row in ul.rows:
            assert type(row) is tuple
            assert all(type(field) is int for field in row)  # the row holds no buffer
            assert tables.sums[row[0]] is not None
    assert any(sums is not None for sums in tables.sums)
    for sums in tables.sums:
        assert sums is None or type(sums) in (bytes, array, list)
    # the store's own state: one entry per sequence in each column, and the
    # shared mask list; nothing else per sequence
    assert set(vars(tables)) == {
        "db", "_grid_units", "lasts", "sums", "masks", "upto", "items", "rank",
    }
    for column in (tables.lasts, tables.sums, tables.masks):
        assert type(column) is list and len(column) == db.sequence_count
    assert all(type(value) is int for value in tables.lasts + tables.masks + tables.upto)


@pytest.mark.parametrize(
    "unit,typecode",
    [(1, "B"), (127, "B"), (128, "H"), (200, "H"), (2**20, "I"), (2**40, "Q"), (2**70, None)],
)
def test_table_sums_take_the_narrowest_unsigned_array(unit, typecode):
    # "B" stands for ``bytes``, None for a list; the largest cell is the
    # sequence utility 2 * unit + 1: 255 at unit 127, 257 at 128
    db = tiny_db("1:1 -1 2:1 3:1 -1 -2\n", f"1 {unit}\n2 {unit}\n3 1\n")
    tables = SequenceTables(db)
    sums = tables.table(0)
    if typecode is None:
        assert type(sums) is list
    elif typecode == "B":
        assert type(sums) is bytes
    else:
        assert type(sums) is array and sums.typecode == typecode
    assert max(sums) == 2 * unit + 1
    _assert_table_layout(db)
    ul = rebuild_utility_list(rule_of([1], [2]), tables)
    assert ul.utility == 2 * unit
    _assert_rows_match_classification(ul, db, tables)


def test_table_sums_of_256_take_two_bytes():
    # one cell of exactly 256 is past a byte
    db = tiny_db("1:1 -1 2:1 -1 -2\n", "1 128\n2 128\n")
    sums = SequenceTables(db).table(0)
    assert max(sums) == 256
    assert type(sums) is array and sums.typecode == "H"
    _assert_table_layout(db)


def test_table_sums_hold_positions_beyond_the_utility():
    # zero utilities, yet positions reach 300: one byte is not enough
    db = tiny_db(" ".join(f"{item}:1 -1" for item in range(1, 301)) + " -2\n",
                 "".join(f"{item} 0\n" for item in range(1, 301)))
    assert SequenceTables(db).table(0).typecode == "H"
    _assert_table_layout(db)


def _assert_rows_match_classification(ul, db, tables):
    """Rows and candidates agree with the item-by-item reference classification."""
    left, right = set(), set()
    for seq_index, iutil, total, left_total, max_pos_x, min_pos_y in ul.rows:
        assert tables.sums[seq_index] is not None  # filled before its rows
        seq = db.sequences[seq_index]
        position, grid = positions(seq), grid_utilities(seq, db)
        classes = classify_expansion_items(ul, seq)
        lutil, rutil, lrutil = class_sums(ul, seq, db)
        assert iutil == sum(grid[item] for item in ul.antecedent + ul.consequent)
        assert total == iutil + lutil + rutil + lrutil
        assert left_total == iutil + lutil + lrutil
        assert max_pos_x == max(position[item] for item in ul.antecedent)
        assert min_pos_y == min(position[item] for item in ul.consequent)
        left |= classes.only_left | classes.left_right
        right |= classes.only_right | classes.left_right
    assert tables.items_of(ul.candidates(False, tables)) == sorted(left)
    assert tables.items_of(ul.candidates(True, tables)) == sorted(right)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_rows_equal_class_sums_of_reference_classification(seed, long):
    rng = random.Random(seed)
    db = LONG_DB if long else random_small_database(rng)
    pairs = list(pair_values(scan_rule_pairs(db)))
    if not pairs:
        return
    tables = SequenceTables(db)
    for _ in range(3):
        a, b = pairs[rng.randrange(len(pairs))]
        root = rebuild_utility_list(rule_of([a], [b]), tables)
        for ul in (root, *random_expansions(root, tables, rng, 5)):
            _assert_rows_match_classification(ul, db, tables)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_utility_list_totals_match_direct_measures(seed, long):
    # the root builder, given the mask the miner passes, equals the reference
    db = LONG_DB if long else random_small_database(random.Random(seed))
    tables = SequenceTables(db)
    bitvectors = build_item_bitvectors(db)
    for a, b in pair_values(scan_rule_pairs(db)):
        rule = rule_of([a], [b])
        ul = rebuild_utility_list(rule, tables)
        assert build_utility_list(a, b, tables, bitvectors[a] & bitvectors[b]).rows == ul.rows
        scale = db.utilities.scale
        assert Fraction(ul.utility, scale) == rule_utility(rule, db)
        sids = rule_sids(rule, db)
        assert ul.support == sids.bit_count()
        assert sids_mask(ul) == sids
        for _, iutil, total, left_total, _, _ in ul.rows:
            assert 0 <= iutil <= left_total <= total


@pytest.mark.parametrize("seed", range(8))
def test_rows_across_several_mask_words(seed):
    # roots and expansions over 130 dense ranks equal the rebuild and the
    # reference classification
    rng = random.Random(seed)
    db = MANY_ITEMS_DB
    tables = SequenceTables(db)
    bitvectors = build_item_bitvectors(db)
    a, b = rng.choice(list(pair_values(scan_rule_pairs(db))))
    root = build_utility_list(a, b, tables, bitvectors[a] & bitvectors[b])
    assert root.rows == rebuild_utility_list(root, tables).rows
    for ul in (root, *random_expansions(root, tables, rng, 5)):
        assert ul.rows == rebuild_utility_list(ul, tables).rows
        _assert_rows_match_classification(ul, db, tables)
