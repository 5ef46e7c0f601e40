from __future__ import annotations

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cousr import ParseError, load_database, parse_database, parse_utility_table, with_utilities
from cousr.seqdb import (
    AbsentItemError,
    Sequence,
    item_utility,
    sequence_utility,
    serialize_database,
    serialize_utility_table,
)
from cousr.synth import random_small_database

from conftest import A, B, C, D, E, F, G, EXAMPLE_DB, EXAMPLE_UT


def test_parse_single_sequence_structure():
    db = parse_database("1:1 2:1 -1 5:1 -1 4:5 -1 7:1 -1 -2\n")
    assert db.sequence_count == 1
    seq = db.sequences[0]
    assert seq.sid == 1
    assert seq.itemsets == (((1, 1), (2, 1)), ((5, 1),), ((4, 5),), ((7, 1),))


def test_parse_empty_input_gives_empty_database():
    db = parse_database("")
    assert db.sequence_count == 0
    assert db.item_universe == frozenset()


def test_parse_skips_comments_and_blank_lines():
    db = parse_database("# header\n\n1:1 -1 -2\n   # indented comment\n2:1 -1 -2\n")
    assert [seq.sid for seq in db.sequences] == [1, 2]
    assert db.sequences[1].items == {2}


def test_parse_duplicate_item_in_sequence_rejected():
    with pytest.raises(ParseError) as err:
        parse_database("1:1 1:2 -1 -2\n")
    assert err.value.kind == ParseError.DUPLICATE_ITEM
    assert err.value.line == 1
    assert err.value.column == 5


def test_parse_duplicate_item_across_itemsets_rejected():
    with pytest.raises(ParseError) as err:
        parse_database("1:1 -1 1:2 -1 -2\n")
    assert err.value.kind == ParseError.DUPLICATE_ITEM


def test_parse_shares_one_pair_per_token_text_and_one_tuple_per_itemset():
    db = parse_database("3:1 -1 4:2 -1 -2\n4:2 3:1 -1 -2\n5:1 -1 3:1 -1 -2\n")
    (first,), (second,) = db.sequences[0].itemsets
    assert db.sequences[1].itemsets[0][0] is first
    assert db.sequences[1].itemsets[0][1] is second
    assert db.sequences[2].itemsets[1] is db.sequences[0].itemsets[0]


@pytest.mark.parametrize(
    "text,column",
    [
        ("3:1 -1 3:1 -1 -2", 8),  # the same text again, in another itemset
        ("03:1 3:1 -1 -2", 6),  # another text for the same item
        ("3:1 -1 -2\n3:1 -1 3:1 -1 -2", 8),  # cached on an earlier line
    ],
)
def test_parse_shared_pairs_keep_the_duplicate_check(text, column):
    with pytest.raises(ParseError) as err:
        parse_database(text + "\n")
    assert err.value.kind == ParseError.DUPLICATE_ITEM
    assert err.value.line == text.count("\n") + 1
    assert err.value.column == column


@pytest.mark.parametrize(
    "bad,column",
    [("2:x", 8), ("0:1", 8), ("1:0", 8), ("1:1:1", 8)],
)
def test_parse_malformed_token_after_cached_ones_reports_its_place(bad, column):
    with pytest.raises(ParseError) as err:
        parse_database(f"1:1 2:1 -1 -2\n1:1 -1 {bad} -1 2:1 -1 -2\n")
    assert err.value.kind == ParseError.MALFORMED_TOKEN
    assert err.value.line == 2
    assert err.value.column == column


@pytest.mark.parametrize(
    "sid,itemsets",
    [
        (0, (((1, 1),),)),  # sid below 1
        (1, ((),)),  # empty itemset
        (1, (((0, 1),),)),  # item id below 1
        (1, (((1, 0),),)),  # quantity below 1
        (1, (((2, 1), (1, 1)),)),  # items not ascending
        (1, (((1, 1),), ((1, 2),))),  # item in two itemsets
    ],
)
def test_sequence_constructor_rejects_invalid_itemsets(sid, itemsets):
    # the parser builds sequences without these checks, having made them
    # itself; every other caller goes through them
    with pytest.raises(ValueError):
        Sequence(sid=sid, itemsets=itemsets)


@pytest.mark.parametrize(
    "text,kind,column",
    [
        ("1:1 -1 -1 -2", ParseError.EMPTY_ITEMSET, 8),
        ("1:1 -1", ParseError.MISSING_TERMINATOR, 5),
        ("1:1 -2", ParseError.MISSING_TERMINATOR, 5),
        ("1:1 -1 -2 2:1", ParseError.MALFORMED_TOKEN, 11),
        ("1;1 -1 -2", ParseError.MALFORMED_TOKEN, 1),
        ("1:0 -1 -2", ParseError.MALFORMED_TOKEN, 1),
        ("0:1 -1 -2", ParseError.MALFORMED_TOKEN, 1),
        # columns count characters, whatever the whitespace
        ("1:1\t-1\t-1 -2", ParseError.EMPTY_ITEMSET, 8),
        ("1:1   -1  -1 -2", ParseError.EMPTY_ITEMSET, 11),
        ("\t 1:1 -1 -1 -2", ParseError.EMPTY_ITEMSET, 10),
        ("1:1\t\t-1", ParseError.MISSING_TERMINATOR, 6),
        ("1:1 -1 -2    2:1", ParseError.MALFORMED_TOKEN, 14),
        ("1:1 2:1 -1 3:1 -1  2:5 -1 -2", ParseError.DUPLICATE_ITEM, 20),
        # '²' is a digit to str.isdigit() but not to int()
        ("1\u00b2:1 -1 -2", ParseError.MALFORMED_TOKEN, 1),
        ("1:1 2:\u00b2 -1 -2", ParseError.MALFORMED_TOKEN, 5),
    ],
)
def test_parse_errors_name_line_and_column(text, kind, column):
    with pytest.raises(ParseError) as err:
        parse_database(text + "\n")
    assert err.value.kind == kind
    assert err.value.line == 1
    assert err.value.column == column


@pytest.mark.parametrize("enabled", [True, False])
def test_load_database_restores_callers_gc_state(tmp_path, enabled):
    good, bad, utils = tmp_path / "good.db", tmp_path / "bad.db", tmp_path / "db.ut"
    good.write_text("1:1 -1 2:1 -1 -2\n")
    bad.write_text("1:1 -1 2:1 -1 -2\n1:1 -1\n")
    utils.write_text("1 1\n2 1\n")
    was_enabled = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        assert load_database(good, utils).sequence_count == 1
        assert gc.isenabled() is enabled
        with pytest.raises(ParseError):
            load_database(bad, utils)
        assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_parse_error_reports_correct_line_number():
    with pytest.raises(ParseError) as err:
        parse_database("1:1 -1 -2\n2:1 -1 -2\nbogus -2\n")
    assert err.value.line == 3


def test_parse_utility_table_example():
    table = parse_utility_table(EXAMPLE_UT.read_text())
    assert table.entries == {
        A: 3, B: 5, C: 2, D: 1, E: 6, F: 3, G: 2,
    }
    assert table.scale == 1


def test_parse_utility_table_empty():
    assert parse_utility_table("").entries == {}


def test_parse_utility_table_decimal_is_exact():
    table = parse_utility_table("1 0.35\n2 2\n")
    assert table.entries[1] == Fraction(7, 20)
    assert table.scale == 20
    assert table.grid_units == {1: 7, 2: 40}


def test_parse_utility_table_conflicting_duplicate():
    with pytest.raises(ParseError) as err:
        parse_utility_table("1 3\n1 4\n")
    assert err.value.kind == ParseError.CONFLICTING_DUPLICATE
    assert err.value.line == 2
    # a redundant duplicate with the same value is fine
    assert parse_utility_table("1 3\n1 3\n").entries == {1: 3}


@pytest.mark.parametrize("text", ["1 abc", "x 3", "1 -2", "1 3 4", "1", "1\u00b2 3"])
def test_parse_utility_table_bad_lines(text):
    with pytest.raises(ParseError):
        parse_utility_table(text + "\n")


def test_with_utilities_requires_full_coverage():
    db = parse_database("1:1 -1 2:1 -1 -2\n")
    with pytest.raises(ParseError) as err:
        with_utilities(db, parse_utility_table("1 3\n"))
    assert err.value.kind == ParseError.MISSING_UTILITY
    assert "2" in str(err.value)


def test_item_utility_worked_values(example_db):
    table = example_db.utilities
    s2 = example_db.sequences[1]
    assert item_utility(A, s2, table) == 6
    assert item_utility(B, s2, table) == 5
    with pytest.raises(AbsentItemError):
        item_utility(F, s2, table)


def test_sequence_utility_per_sequence(example_db):
    table = example_db.utilities
    values = tuple(sequence_utility(s, table) for s in example_db.sequences)
    assert values == (21, 34, 28, 22, 42)


def test_sequence_utility_dominates_item_utility(example_db):
    table = example_db.utilities
    for seq in example_db.sequences:
        su = sequence_utility(seq, table)
        for item in seq.items:
            assert su >= item_utility(item, seq, table)


def test_item_positions_examples(example_db):
    assert example_db.sequences[1].positions == {A: 1, D: 1, C: 2, B: 3, E: 4, G: 4}
    assert example_db.sequences[4].positions == {A: 1, B: 1, E: 2, F: 3, C: 4, D: 5, G: 6}
    single = parse_database("1:1 2:2 3:1 -1 -2\n").sequences[0]
    assert set(single.positions.values()) == {1}


def test_item_positions_bounded_by_itemset_count(example_db):
    for seq in example_db.sequences:
        positions = seq.positions
        assert len(positions) == len(seq.items)
        assert all(1 <= p <= len(seq.itemsets) for p in positions.values())


def test_serialize_round_trip(example_db):
    text = EXAMPLE_DB.read_text()
    once = parse_database(text)
    canonical = serialize_database(once)
    again = parse_database(canonical)
    assert again.sequences == once.sequences
    # canonical form is a fixed point
    assert serialize_database(again) == canonical


def test_serialize_utility_table_round_trip():
    table = parse_utility_table("1 3\n2 0.35\n")
    assert parse_utility_table(serialize_utility_table(table)).entries == table.entries


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_serialize_parse_identity_on_random_databases(seed):
    db = random_small_database(random.Random(seed))
    assert parse_database(serialize_database(db)).sequences == db.sequences
