"""Quantitative sequence databases and their on-disk formats.

A sequence database is an ordered list of sequences; each sequence is an
ordered list of itemsets, and each itemset holds (item, quantity) pairs.
Items are positive integers, totally ordered by numeric value, and an item
may occur in *at most one* itemset of a sequence. A companion utility table
assigns every item a non-negative unit utility, so the utility of item ``i``
in sequence ``S`` is ``quantity(i, S) * unit_utility(i)``.

In memory a database is one flat encoding (:class:`SequenceDatabase`): four
``array('i')`` columns in compressed-sparse-row form, so item ids and
quantities lie in ``1..2**31 - 1`` (the Java ``int`` range of SPMF's
format). A sequence's number is its position ``k`` (from 0): bit ``k`` of
every sequence mask, slot ``k`` of every per-sequence table. Messages meant
for people count sequences from 1. :class:`Sequence` records
(``Sequence(itemsets)``, with no cached views) are the reference view of the
same data, built only when :attr:`SequenceDatabase.sequences` is read.

On-disk formats (UTF-8; lines whose first non-blank character is ``#`` are
comments; blank lines are skipped):

* Database file, one sequence per line::

      1:1 2:1 -1 5:1 -1 4:5 -1 7:1 -1 -2

  ``item:qty`` pairs separated by whitespace, ``-1`` closes an itemset,
  ``-2`` closes the sequence. Item ids and quantities are base-10 unsigned
  integers from 1 to 2**31 - 1. Sequences are numbered in line order.

* Utility file, one ``item utility`` pair per line. The utility may be a
  decimal (e.g. ``0.35``).

Utility arithmetic is exact everywhere: unit utilities are parsed as
rationals, and the table exposes a common integer grid (:attr:`UtilityTable.scale`)
so that every item utility in the database is an integer count of grid units.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from pathlib import Path
from typing import Iterable, Iterator

# largest item id, quantity or offset the ``array('i')`` columns hold
INT_MAX = 2**31 - 1
# largest decimal exponent, either sign, an exact conversion accepts: its
# power of ten has as many digits as ``int()`` reads from text by default
MAX_DECIMAL_EXPONENT = sys.int_info.default_max_str_digits
# a longer token is quoted in messages as its first and last characters
_QUOTED_CHARS = 12
# a message lists at most this many missing item ids, then their count
_LISTED_IDS = 10


class ParseError(ValueError):
    """Input file violates the format; carries location and a stable kind."""

    MALFORMED_TOKEN = "malformed-token"
    DUPLICATE_ITEM = "duplicate-item-in-sequence"
    EMPTY_ITEMSET = "empty-itemset"
    MISSING_TERMINATOR = "missing-terminator"
    NON_NUMERIC = "non-numeric"
    CONFLICTING_DUPLICATE = "conflicting-duplicate"
    MISSING_UTILITY = "missing-utility"
    NOT_UTF8 = "not-utf-8"

    def __init__(self, kind: str, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}" if line else message)
        self.kind = kind
        self.line = line
        self.column = column


@dataclass(frozen=True, slots=True)
class Sequence:
    """One sequence: its ordered itemsets of (item, quantity) pairs.

    Itemsets are stored canonically, items ascending within each itemset.
    Because items occur at most once per sequence, every item has a unique
    1-based itemset position.

    Sequences are the reference view of a :class:`SequenceDatabase`: the
    miner reads the database's flat columns and never builds them. A
    sequence holds nothing but its ``itemsets``, and its number is its
    position in the database; :meth:`SequenceDatabase.from_sequences`
    checks sequences built by hand.
    """

    itemsets: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class UtilityTable:
    """Unit utility per item, as exact non-negative rationals."""

    entries: dict[int, Fraction]

    def __post_init__(self) -> None:
        for item, value in self.entries.items():
            if item < 1:
                raise ValueError(f"item ids must be >= 1, got {item}")
            if value < 0:
                raise ValueError(f"unit utilities must be non-negative, got {item} -> {value}")

    @cached_property
    def scale(self) -> int:
        """Common denominator: every unit utility times scale is an integer."""
        denominators = [v.denominator for v in self.entries.values()]
        return lcm(*denominators) if denominators else 1

    @cached_property
    def grid_units(self) -> dict[int, int]:
        """Unit utilities expressed as integer counts of 1/scale."""
        scale = self.scale
        return {item: int(value * scale) for item, value in self.entries.items()}


@dataclass(frozen=True)
class SequenceDatabase:
    """Immutable database of sequences plus (optionally) their utility table.

    The sequences are one flat encoding in compressed-sparse-row form, four
    ``array('i')`` columns:

    * ``seq_starts``: sequence ``k`` holds the itemsets
      ``seq_starts[k]`` to ``seq_starts[k + 1] - 1`` (``n + 1`` entries);
    * ``set_starts``: itemset ``s`` holds the occurrences
      ``set_starts[s]`` to ``set_starts[s + 1] - 1`` (``m + 1`` entries);
    * ``items`` and ``qtys``: one per occurrence, items ascending within
      each itemset.

    The miner reads index ranges of these columns. :attr:`sequences` is the
    same data as :class:`Sequence` objects, for the reference paths
    (:mod:`cousr.measures`, the oracle, the tests); it is built on first
    access and never on the mine path. :meth:`from_sequences` checks and
    encodes sequences. A sequence's number is its position ``k``: no
    column stores it, and a derived database (filtering) that drops
    sequences numbers the kept ones from 0 again.
    """

    seq_starts: array
    set_starts: array
    items: array
    qtys: array
    utilities: UtilityTable | None = None

    @classmethod
    def from_sequences(
        cls, sequences: Iterable[Sequence], utilities: UtilityTable | None = None
    ) -> SequenceDatabase:
        """Check and encode sequences. ``ValueError``, naming the sequence
        by its 1-based number, for an empty itemset, an item id or quantity
        outside ``1..``:data:`INT_MAX`, items not ascending within an
        itemset, or an item repeated in a sequence."""
        items, qtys = array("i"), array("i")
        seq_starts, set_starts = array("i", [0]), array("i", [0])
        for number, seq in enumerate(sequences, start=1):
            seen: set[int] = set()
            for itemset in seq.itemsets:
                if not itemset:
                    raise ValueError(f"sequence {number}: empty itemset")
                previous = 0
                for item, qty in itemset:
                    if not (previous < item <= INT_MAX and 1 <= qty <= INT_MAX) or item in seen:
                        raise ValueError(
                            f"sequence {number}: {item}:{qty} is out of order, repeated or"
                            f" outside 1..{INT_MAX}"
                        )
                    previous = item
                    seen.add(item)
                    items.append(item)
                    qtys.append(qty)
                set_starts.append(len(items))
            seq_starts.append(len(set_starts) - 1)
        return cls(seq_starts, set_starts, items, qtys, utilities)

    @cached_property
    def sequences(self) -> tuple[Sequence, ...]:
        """The sequences as :class:`Sequence` objects (the reference view)."""
        items, qtys, set_starts = self.items, self.qtys, self.set_starts
        itemsets = [tuple(zip(items[a:b], qtys[a:b])) for a, b in zip(set_starts, set_starts[1:])]
        starts = self.seq_starts
        return tuple(Sequence(tuple(itemsets[a:b])) for a, b in zip(starts, starts[1:]))

    @property
    def sequence_count(self) -> int:
        return len(self.seq_starts) - 1

    def occurrence_spans(self) -> Iterator[tuple[int, int]]:
        """Per sequence, in order: the start and end of its occurrences."""
        starts = [self.set_starts[s] for s in self.seq_starts]
        return zip(starts, starts[1:])

    @cached_property
    def item_universe(self) -> frozenset[int]:
        return frozenset(self.items)

    def require_utilities(self) -> UtilityTable:
        if self.utilities is None:
            raise ValueError("database has no utility table attached")
        return self.utilities

    @cached_property
    def grid_sequence_utilities(self) -> tuple[int, ...]:
        """Per sequence: whole-sequence utility in grid units."""
        unit_of = self.require_utilities().grid_units.__getitem__
        items, qtys = self.items, self.qtys
        return tuple(
            sum(map(mul, qtys[start:end], map(unit_of, items[start:end])))
            for start, end in self.occurrence_spans()
        )


def exact_decimal(text: str | Decimal) -> Fraction:
    """The exact value of a finite decimal such as ``0.35`` or ``1e-3``.

    ``ValueError`` for anything else (``inf``, ``nan``, text that is no
    number) and for an exponent beyond +-:data:`MAX_DECIMAL_EXPONENT`, which
    is refused before its power of ten is built.
    """
    try:
        number = Decimal(text)
    except InvalidOperation:
        raise ValueError("not a decimal number") from None
    if not number.is_finite():
        raise ValueError("not a finite number")
    if abs(number.as_tuple().exponent) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}")
    return Fraction(number)


def decimal_text(value: Fraction, places: int | None = None) -> str:
    """Plain decimal notation of ``value``, trailing fractional zeros trimmed.

    With ``places`` the value is rounded exactly, half to even, to that many
    fractional digits, at any magnitude. Without, it is written exactly; a
    value with no finite decimal form (a denominator with a prime factor other
    than 2 and 5) raises ``ValueError``.
    """
    if places is None:
        denominator = value.denominator
        twos = (denominator & -denominator).bit_length() - 1
        rest, fives = denominator >> twos, 0
        while rest % 5 == 0:
            rest, fives = rest // 5, fives + 1
        if rest != 1:
            raise ValueError("no finite decimal form")
        places = max(twos, fives)
    scaled = round(value * 10**places)
    # Decimal writes an integer of any length; str() of an int stops at
    # sys.int_info.default_max_str_digits digits
    digits = str(Decimal(abs(scaled))).rjust(places + 1, "0")
    split = len(digits) - places
    text = f"{'-' if scaled < 0 else ''}{digits[:split]}"
    fraction = digits[split:].rstrip("0")
    return f"{text}.{fraction}" if fraction else text


def exact_text(value: Fraction) -> str:
    """``value`` written exactly, at any length: a terminating decimal in plain
    notation (:func:`decimal_text`), any other value as ``p/q``."""
    try:
        return decimal_text(value)
    except ValueError:
        return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def quote(token: str) -> str:
    """``token`` quoted for a message; a long one as an excerpt plus its length."""
    if len(token) <= 2 * _QUOTED_CHARS + 3:
        return repr(token)
    excerpt = f"{token[:_QUOTED_CHARS]}...{token[-_QUOTED_CHARS:]}"
    return f"{excerpt!r} ({len(token)} characters)"


def _column(line: str, index: int) -> int:
    """1-based column of the ``index``-th whitespace-separated token of ``line``."""
    col = 0
    for _ in range(index + 1):
        while line[col].isspace():
            col += 1
        start = col
        while col < len(line) and not line[col].isspace():
            col += 1
    return start + 1


def _is_comment(tokens: list[str]) -> bool:
    """A line's tokens are blank or start with ``#``."""
    return not tokens or tokens[0].startswith("#")


def parse_database(text: str) -> SequenceDatabase:
    """Parse database text into the flat encoding (no utility table attached).

    Every occurrence is appended straight to the columns. Each distinct
    ``item:qty`` text is validated and converted once per call; the
    duplicate-item check still runs per occurrence.
    """
    items, qtys = array("i"), array("i")
    seq_starts, set_starts = array("i", [0]), array("i", [0])
    pairs: dict[str, tuple[int, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if _is_comment(tokens):
            continue
        current: list[tuple[int, int]] = []
        seen: set[int] = set()
        for index, token in enumerate(tokens):
            if token == "-1":
                if not current:
                    raise ParseError(
                        ParseError.EMPTY_ITEMSET, "itemset closed with no items",
                        lineno, _column(line, index),
                    )
                current.sort()
                for item, qty in current:
                    items.append(item)
                    qtys.append(qty)
                set_starts.append(len(items))
                current = []
            elif token == "-2":
                if current:
                    raise ParseError(
                        ParseError.MISSING_TERMINATOR, "itemset not closed with -1 before -2",
                        lineno, _column(line, index),
                    )
                if index + 1 < len(tokens):
                    raise ParseError(
                        ParseError.MALFORMED_TOKEN,
                        f"unexpected token {quote(tokens[index + 1])} after sequence terminator",
                        lineno, _column(line, index + 1),
                    )
                break
            else:
                pair = pairs.get(token)
                if pair is None:
                    pair = pairs[token] = _parse_pair(token, lineno, line, index)
                item = pair[0]
                if item in seen:
                    raise ParseError(
                        ParseError.DUPLICATE_ITEM,
                        f"item {item} occurs more than once in the sequence",
                        lineno, _column(line, index),
                    )
                seen.add(item)
                current.append(pair)
        else:  # the loop ended without meeting -2
            raise ParseError(
                ParseError.MISSING_TERMINATOR, "sequence not closed with -2",
                lineno, _column(line, len(tokens) - 1),
            )
        seq_starts.append(len(set_starts) - 1)
    return SequenceDatabase(seq_starts, set_starts, items, qtys)


def _parse_pair(token: str, lineno: int, line: str, index: int) -> tuple[int, int]:
    """Validate and convert one ``item:qty`` token, the ``index``-th of ``line``."""
    # isdecimal() accepts exactly the digits int() parses
    item_text, colon, qty_text = token.partition(":")
    if not (colon and item_text.isdecimal() and qty_text.isdecimal()):
        raise ParseError(
            ParseError.MALFORMED_TOKEN,
            f"expected item:qty, -1 or -2, got {quote(token)}",
            lineno, _column(line, index),
        )
    try:
        item, qty = int(item_text), int(qty_text)
    except ValueError:  # more digits than int() converts from text
        item = qty = INT_MAX + 1
    if not (1 <= item <= INT_MAX and 1 <= qty <= INT_MAX):
        raise ParseError(
            ParseError.MALFORMED_TOKEN,
            f"item ids and quantities must be in 1..{INT_MAX}, got {quote(token)}",
            lineno, _column(line, index),
        )
    return item, qty


def parse_utility_table(text: str) -> UtilityTable:
    """Parse ``item utility`` lines into a utility table."""
    entries: dict[int, Fraction] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if _is_comment(tokens):
            continue
        if len(tokens) != 2:
            raise ParseError(
                ParseError.MALFORMED_TOKEN,
                f"expected 'item utility', got {quote(line.strip())}", lineno, _column(line, 0),
            )
        item_tok, value_tok = tokens
        try:
            item = int(item_tok) if item_tok.isdecimal() else 0
        except ValueError:  # more digits than int() converts from text
            item = 0
        if item < 1:
            raise ParseError(
                ParseError.NON_NUMERIC,
                f"item id must be a positive integer, got {quote(item_tok)}",
                lineno, _column(line, 0),
            )
        try:
            value = exact_decimal(value_tok)
        except ValueError as exc:
            raise ParseError(
                ParseError.NON_NUMERIC, f"utility must be a number, got {quote(value_tok)}: {exc}",
                lineno, _column(line, 1),
            ) from None
        if value < 0:
            raise ParseError(
                ParseError.NON_NUMERIC, f"utility must be non-negative, got {quote(value_tok)}",
                lineno, _column(line, 1),
            )
        if item in entries and entries[item] != value:
            raise ParseError(
                ParseError.CONFLICTING_DUPLICATE,
                f"item {item} already has utility {quote(exact_text(entries[item]))},"
                f" conflicting {quote(value_tok)}",
                lineno, _column(line, 0),
            )
        entries[item] = value
    return UtilityTable(entries=entries)


def with_utilities(db: SequenceDatabase, table: UtilityTable) -> SequenceDatabase:
    """Attach a utility table, checking it covers every item in the database."""
    missing = sorted(db.item_universe - table.entries.keys())
    if missing:
        listed = ", ".join(map(str, missing[:_LISTED_IDS]))
        if len(missing) > _LISTED_IDS:
            listed += f", ... ({len(missing)} items)"
        raise ParseError(
            ParseError.MISSING_UTILITY, f"utility table has no entry for items: {listed}"
        )
    return replace(db, utilities=table)


def _read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; :class:`ParseError` names the file and the
    line and byte column of the first byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise ParseError(
            ParseError.NOT_UTF8, f"{path}: byte 0x{data[exc.start]:02x} is not UTF-8 text",
            data.count(b"\n", 0, exc.start) + 1, exc.start - line_start + 1,
        ) from None


def load_database(db_path: str | Path, utils_path: str | Path) -> SequenceDatabase:
    """Read and cross-validate a database file and its utility file."""
    db = parse_database(_read_utf8(db_path))
    table = parse_utility_table(_read_utf8(utils_path))
    return with_utilities(db, table)


def serialize_database(db: SequenceDatabase) -> str:
    """Canonical text form: items ascending within itemsets, single spaces."""
    lines = []
    for seq in db.sequences:
        tokens: list[str] = []
        for itemset in seq.itemsets:
            tokens.extend(f"{item}:{qty}" for item, qty in itemset)
            tokens.append("-1")
        tokens.append("-2")
        lines.append(" ".join(tokens))
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_utility_table(table: UtilityTable) -> str:
    """One ``item utility`` line per item, ascending, each utility written
    exactly (``ValueError`` for one with no finite decimal form)."""
    entries = table.entries
    return "".join(f"{item} {decimal_text(entries[item])}\n" for item in sorted(entries))

