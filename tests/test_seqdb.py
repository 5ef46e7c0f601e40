from __future__ import annotations

import hashlib
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cousr import ParseError, load_database, parse_database, parse_utility_table, with_utilities
from cousr.seqdb import (
    INT_MAX,
    MAX_DECIMAL_EXPONENT,
    Sequence,
    SequenceDatabase,
    UtilityTable,
    exact_decimal,
    serialize_database,
    serialize_utility_table,
)
from cousr.synth import random_small_database, synthesize_database

from conftest import A, B, C, D, E, F, G, EXAMPLE_DB, EXAMPLE_UT


def test_parse_single_sequence_structure():
    db = parse_database("1:1 2:1 -1 5:1 -1 4:5 -1 7:1 -1 -2\n")
    assert db.sequence_count == 1
    seq = db.sequences[0]
    assert Sequence.__slots__ == ("itemsets",)  # a plain record, no cached views
    assert seq.itemsets == (((1, 1), (2, 1)), ((5, 1),), ((4, 5),), ((7, 1),))


def test_parse_empty_input_gives_empty_database():
    db = parse_database("")
    assert db.sequence_count == 0
    assert db.item_universe == frozenset()


def test_parse_skips_comments_and_blank_lines():
    db = parse_database("# header\n\n1:1 -1 -2\n   # indented comment\n2:1 -1 -2\n")
    assert db.sequence_count == 2
    assert db.sequences[1].itemsets == (((2, 1),),)


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


def test_parse_appends_occurrences_to_flat_columns():
    db = parse_database("3:1 -1 4:2 -1 -2\n# note\n4:2 3:1 -1 -2\n-2\n5:1 -1 3:1 -1 -2\n")
    assert db.sequence_count == 4
    assert list(db.seq_starts) == [0, 2, 3, 3, 5]
    assert list(db.set_starts) == [0, 1, 2, 4, 5, 6]
    # items ascend within an itemset, whatever their order in the line
    assert list(db.items) == [3, 4, 3, 4, 5, 3]
    assert list(db.qtys) == [1, 2, 1, 2, 1, 1]
    assert all(column.typecode == "i" for column in (
        db.seq_starts, db.set_starts, db.items, db.qtys))


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
    "token",
    [f"{INT_MAX + 1}:1", f"1:{INT_MAX + 1}", f"{10**12}:1", "9" * 5000 + ":1"],
)
def test_parse_rejects_ids_and_quantities_beyond_the_int_range(token):
    # the columns are array('i'), SPMF's Java int range
    with pytest.raises(ParseError) as err:
        parse_database(f"1:1 -1 -2\n2:1 -1 {token} -1 -2\n")
    assert err.value.kind == ParseError.MALFORMED_TOKEN
    assert (err.value.line, err.value.column) == (2, 8)
    assert len(str(err.value)) < 160  # a long token is quoted as an excerpt


def test_parse_accepts_the_int_range_limit():
    db = parse_database(f"{INT_MAX}:{INT_MAX} -1 -2\n")
    assert db.sequences[0].itemsets == (((INT_MAX, INT_MAX),),)


@pytest.mark.parametrize(
    "text",
    [
        "",
        EXAMPLE_DB.read_text(),
        "# an empty sequence keeps its sid\n1:1 -1 -2\n-2\n3:2 1:1 -1 2:2 -1 -2\n",
    ],
)
def test_from_sequences_round_trips_parsed_columns(text):
    db = parse_database(text)
    assert SequenceDatabase.from_sequences(db.sequences) == db


@pytest.mark.parametrize(
    "itemsets",
    [
        pytest.param(((),), id="empty-itemset"),
        pytest.param((((0, 1),),), id="item-below-1"),
        pytest.param((((1, 0),),), id="qty-below-1"),
        pytest.param((((INT_MAX + 1, 1),),), id="item-above-int-max"),
        pytest.param((((1, INT_MAX + 1),),), id="qty-above-int-max"),
        pytest.param((((2, 1), (1, 1)),), id="not-ascending"),
        pytest.param((((1, 1),), ((1, 2),)), id="repeated-item"),
    ],
)
def test_from_sequences_rejects_invalid_sequences(itemsets):
    # the parser checks text itself; sequences given as objects are checked
    # as they are encoded, and the message counts sequences from 1
    sequences = (Sequence((((1, 1),),)), Sequence(itemsets))
    with pytest.raises(ValueError, match=r"^sequence 2: "):
        SequenceDatabase.from_sequences(sequences)


@pytest.mark.parametrize(
    "args,digest",
    [
        ((300, 40, 6, 3), "7f7b6d874813135500e13c52121c4140b84b4d1995a78581fdb51ae536e83bba"),
        ((200, 2000, 12, 7), "b4ef34fe5116fb262507fc350529633d1eeaab51a7e086682a8eac312bff048d"),
    ],
)
def test_serialized_synthetic_databases_are_pinned(args, digest):
    # the benchmark's inputs are serialized synthetic databases: the bytes
    # must not move with the in-memory encoding
    n_sequences, n_items, avg_len, seed = args
    db = synthesize_database(n_sequences, n_items, avg_len, seed, max_itemset=4)
    assert hashlib.sha256(serialize_database(db).encode()).hexdigest() == digest


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


def test_parse_error_reports_correct_line_number():
    with pytest.raises(ParseError) as err:
        parse_database("1:1 -1 -2\n2:1 -1 -2\nbogus -2\n")
    assert err.value.line == 3


# characters that str.splitlines() breaks a line at but str.split() reads as whitespace
INLINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", INLINE_BREAKS)
def test_parse_comment_ends_only_at_a_newline(char):
    db = parse_database(f"# note{char}more\n1:1 -1 -2\n")
    assert db.sequences == (Sequence((((1, 1),),)),)


@pytest.mark.parametrize("char", INLINE_BREAKS)
def test_parse_inline_break_character_separates_tokens(char):
    db = parse_database(f"1:1 -1{char}2:1 -1 -2\n")
    assert db.sequences == (Sequence((((1, 1),), ((2, 1),))),)
    assert parse_utility_table(f"1{char}3\n").entries == {1: 3}


def test_parse_error_line_counts_only_newlines():
    with pytest.raises(ParseError) as err:
        parse_database("1:1 -1 2:1 -1 -2\n\x85bad -2\n")
    assert err.value.kind == ParseError.MALFORMED_TOKEN
    assert (err.value.line, err.value.column) == (2, 2)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_parse_crlf_and_cr_only_files(newline):
    db = parse_database(newline.join(["# two sequences", "1:1 -1 -2", "", "2:1 -1 -2", ""]))
    assert db.sequences == (Sequence((((1, 1),),)), Sequence((((2, 1),),)))
    assert parse_utility_table(f"1 3{newline}2 0.5{newline}").entries == {1: 3, 2: Fraction(1, 2)}
    with pytest.raises(ParseError) as err:
        parse_database(newline.join(["1:1 -1 -2", "bogus -2", ""]))
    assert err.value.line == 2


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_not_utf8_error_counts_lines_as_the_parser_does(tmp_path, newline):
    bad = tmp_path / "bad.db"
    # byte 0xff, which no UTF-8 text holds, is the fifth byte of line 3
    bad.write_bytes(newline.join([b"# first", b"# second\xe2\x80\xa8", b"# ab\xff", b""]))
    with pytest.raises(ParseError) as err:
        load_database(bad, EXAMPLE_UT)
    assert err.value.kind == ParseError.NOT_UTF8
    assert (err.value.line, err.value.column) == (3, 5)


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


def test_parse_utility_table_item_id_beyond_int_conversion_is_non_numeric():
    # more digits than int() converts from text
    with pytest.raises(ParseError) as err:
        parse_utility_table("1 3\n  " + "9" * 5000 + " 2\n")
    assert (err.value.kind, err.value.line, err.value.column) == (ParseError.NON_NUMERIC, 2, 3)
    assert "5000 characters" in str(err.value) and len(str(err.value)) < 160


@pytest.mark.parametrize("value", ["inf", "Infinity", "-inf", "nan", "x" * 5000])
def test_parse_utility_table_non_finite_is_non_numeric(value):
    with pytest.raises(ParseError) as err:
        parse_utility_table(f"1 3\n2 {value}\n")
    assert (err.value.kind, err.value.line, err.value.column) == (ParseError.NON_NUMERIC, 2, 3)
    assert len(str(err.value)) < 160


@pytest.mark.parametrize(
    "value", ["1e999999999999999999", "1e-999999999", f"1e{MAX_DECIMAL_EXPONENT + 1}"]
)
def test_parse_utility_table_refuses_huge_exponents_at_once(value):
    started = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_utility_table(f"1 {value}\n")
    assert (err.value.kind, err.value.line, err.value.column) == (ParseError.NON_NUMERIC, 1, 3)
    assert time.perf_counter() - started < 0.1


def test_exact_decimal_accepts_exponents_up_to_the_bound():
    assert exact_decimal(f"1e{MAX_DECIMAL_EXPONENT}") == 10**MAX_DECIMAL_EXPONENT
    assert exact_decimal(f"1e-{MAX_DECIMAL_EXPONENT}") == Fraction(1, 10**MAX_DECIMAL_EXPONENT)
    assert exact_decimal("0.35") == Fraction(7, 20)


def test_with_utilities_requires_full_coverage():
    db = parse_database("1:1 -1 2:1 -1 -2\n")
    with pytest.raises(ParseError) as err:
        with_utilities(db, parse_utility_table("1 3\n"))
    assert err.value.kind == ParseError.MISSING_UTILITY
    assert "2" in str(err.value)


def test_missing_utility_message_stays_bounded():
    db = parse_database(" ".join(f"{item}:1 -1" for item in range(1, 20_001)) + " -2\n")
    with pytest.raises(ParseError) as err:
        with_utilities(db, parse_utility_table("1 3\n"))
    assert err.value.kind == ParseError.MISSING_UTILITY
    message = str(err.value)
    assert len(message) < 200
    assert message.startswith("utility table has no entry for items: 2, 3, 4,")
    assert "(19999 items)" in message


def test_sequence_utility_per_sequence(example_db):
    assert example_db.grid_sequence_utilities == (21, 34, 28, 22, 42)


def test_sequence_utility_dominates_item_utility(example_db):
    units = example_db.utilities.grid_units
    for seq, su in zip(example_db.sequences, example_db.grid_sequence_utilities):
        for itemset in seq.itemsets:
            for item, qty in itemset:
                assert su >= qty * units[item]


def test_serialize_round_trip(example_db):
    text = EXAMPLE_DB.read_text()
    once = parse_database(text)
    canonical = serialize_database(once)
    again = parse_database(canonical)
    assert again.sequences == once.sequences
    # canonical form is a fixed point
    assert serialize_database(again) == canonical


@pytest.mark.parametrize("entries, message", [
    ({0: Fraction(1)}, "item ids must be >= 1, got 0"),
    ({-4: Fraction(1)}, "item ids must be >= 1, got -4"),
    ({1: Fraction(2), 2: Fraction(-1, 2)}, "unit utilities must be non-negative, got 2 -> -1/2"),
])
def test_utility_table_refuses_bad_entries(entries, message):
    # the parser refuses such lines first; the constructor checks tables built in code
    with pytest.raises(ValueError, match=re.escape(message)):
        UtilityTable(entries=entries)


def test_serialize_utility_table_round_trip():
    table = parse_utility_table("1 3\n2 0.35\n")
    assert parse_utility_table(serialize_utility_table(table)).entries == table.entries
    # every terminating decimal is written exactly, without an exponent
    fine = UtilityTable(entries={1: Fraction(1, 2**100), 2: Fraction(10**40 + 1, 10**12)})
    text = serialize_utility_table(fine)
    assert "E" not in text.upper()
    assert parse_utility_table(text).entries == fine.entries
    with pytest.raises(ValueError, match="no finite decimal form"):
        serialize_utility_table(UtilityTable(entries={1: Fraction(1, 3)}))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_serialize_parse_identity_on_random_databases(seed):
    db = random_small_database(random.Random(seed))
    parsed = parse_database(serialize_database(db))
    assert parsed.sequences == db.sequences
    assert SequenceDatabase.from_sequences(parsed.sequences, db.utilities) == db
