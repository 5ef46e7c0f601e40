"""Quantitative sequence databases and their on-disk formats.

A sequence database is an ordered list of sequences; each sequence is an
ordered list of itemsets, and each itemset holds (item, quantity) pairs.
Items are positive integers, totally ordered by numeric value, and an item
may occur in *at most one* itemset of a sequence. A companion utility table
assigns every item a non-negative unit utility, so the utility of item ``i``
in sequence ``S`` is ``quantity(i, S) * unit_utility(i)``.

On-disk formats (UTF-8; lines whose first non-blank character is ``#`` are
comments; blank lines are skipped):

* Database file, one sequence per line::

      1:1 2:1 -1 5:1 -1 4:5 -1 7:1 -1 -2

  ``item:qty`` pairs separated by whitespace, ``-1`` closes an itemset,
  ``-2`` closes the sequence. Item ids and quantities are base-10 unsigned
  integers. Sequence ids are assigned 1..n in line order.

* Utility file, one ``item utility`` pair per line. The utility may be a
  decimal (e.g. ``0.35``).

Utility arithmetic is exact everywhere: unit utilities are parsed as
rationals, and the table exposes a common integer grid (:attr:`UtilityTable.scale`)
so that every item utility in the database is an integer count of grid units.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property
from math import lcm
from pathlib import Path


class ParseError(ValueError):
    """Input file violates the format; carries location and a stable kind."""

    MALFORMED_TOKEN = "malformed-token"
    DUPLICATE_ITEM = "duplicate-item-in-sequence"
    EMPTY_ITEMSET = "empty-itemset"
    MISSING_TERMINATOR = "missing-terminator"
    NON_NUMERIC = "non-numeric"
    CONFLICTING_DUPLICATE = "conflicting-duplicate"
    MISSING_UTILITY = "missing-utility"

    def __init__(self, kind: str, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}" if line else message)
        self.kind = kind
        self.line = line
        self.column = column


class AbsentItemError(KeyError):
    """An item was looked up in a sequence that does not contain it."""


@dataclass(frozen=True)
class Sequence:
    """One sequence: ordered itemsets of (item, quantity) pairs.

    Itemsets are stored canonically, items ascending within each itemset.
    Because items occur at most once per sequence, every item has a unique
    1-based itemset position.

    The cached ``items``, ``positions`` and ``quantities`` views serve the
    reference paths (:mod:`cousr.measures`, the oracle, the tests); the
    miner reads ``itemsets`` directly and never fills them.
    """

    sid: int
    itemsets: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        if self.sid < 1:
            raise ValueError(f"sequence id must be >= 1, got {self.sid}")
        seen: set[int] = set()
        for itemset in self.itemsets:
            if not itemset:
                raise ValueError("itemsets must be non-empty")
            previous = 0
            for item, qty in itemset:
                if item < 1 or qty < 1:
                    raise ValueError(f"items and quantities are positive, got {item}:{qty}")
                if item <= previous:
                    raise ValueError(f"itemset items must be strictly ascending in sequence {self.sid}")
                previous = item
                if item in seen:
                    raise ValueError(f"item {item} occurs more than once in sequence {self.sid}")
                seen.add(item)

    @classmethod
    def _trusted(cls, sid: int, itemsets: tuple[tuple[tuple[int, int], ...], ...]) -> Sequence:
        """Build without :meth:`__post_init__`'s checks, for itemsets that
        already satisfy them: the parser's, and subsets of a valid sequence."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "sid", sid)
        object.__setattr__(seq, "itemsets", itemsets)
        return seq

    @cached_property
    def items(self) -> frozenset[int]:
        return frozenset(item for itemset in self.itemsets for item, _ in itemset)

    @cached_property
    def positions(self) -> dict[int, int]:
        """Map item -> 1-based index of its (unique) containing itemset."""
        return {
            item: index
            for index, itemset in enumerate(self.itemsets, start=1)
            for item, _ in itemset
        }

    @cached_property
    def quantities(self) -> dict[int, int]:
        return {item: qty for itemset in self.itemsets for item, qty in itemset}


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

    Parsing assigns dense sids 1..n; derived views (filtering) may drop
    sequences but always preserve the original sids, so sid-indexed
    structures built on the original database stay valid.
    """

    sequences: tuple[Sequence, ...]
    utilities: UtilityTable | None = None

    @property
    def sequence_count(self) -> int:
        return len(self.sequences)

    @cached_property
    def item_universe(self) -> frozenset[int]:
        return frozenset(
            item for seq in self.sequences for itemset in seq.itemsets for item, _ in itemset
        )

    def require_utilities(self) -> UtilityTable:
        if self.utilities is None:
            raise ValueError("database has no utility table attached")
        return self.utilities

    @cached_property
    def grid_item_utilities(self) -> tuple[dict[int, int], ...]:
        """Per sequence: item -> utility in grid units (quantity * unit).

        For the reference paths only; the miner reads ``itemsets`` and
        :attr:`UtilityTable.grid_units` directly.
        """
        units = self.require_utilities().grid_units
        return tuple(
            {item: qty * units[item] for item, qty in seq.quantities.items()}
            for seq in self.sequences
        )

    @cached_property
    def grid_sequence_utilities(self) -> tuple[int, ...]:
        """Per sequence: whole-sequence utility in grid units."""
        units = self.require_utilities().grid_units
        return tuple(
            sum(qty * units[item] for itemset in seq.itemsets for item, qty in itemset)
            for seq in self.sequences
        )


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
    """Parse database text into sequences (no utility table attached).

    Pairs and itemsets are shared immutable tuples: every occurrence of the
    same ``item:qty`` text is one ``(item, qty)`` tuple, validated the first
    time the text appears, and equal itemsets are one tuple.
    """
    sequences: list[Sequence] = []
    pairs: dict[str, tuple[int, int]] = {}
    shared: dict[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]] = {}
    sid = 1
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if _is_comment(tokens):
            continue
        itemsets: list[tuple[tuple[int, int], ...]] = []
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
                itemset = tuple(current)
                itemsets.append(shared.setdefault(itemset, itemset))
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
                        f"unexpected token {tokens[index + 1]!r} after sequence terminator",
                        lineno, _column(line, index + 1),
                    )
                break
            else:
                pair = pairs.get(token)
                if pair is None:
                    # isdecimal() accepts exactly the digits int() parses
                    item_text, colon, qty_text = token.partition(":")
                    if not (colon and item_text.isdecimal() and qty_text.isdecimal()):
                        raise ParseError(
                            ParseError.MALFORMED_TOKEN,
                            f"expected item:qty, -1 or -2, got {token!r}",
                            lineno, _column(line, index),
                        )
                    item, qty = int(item_text), int(qty_text)
                    if item < 1 or qty < 1:
                        raise ParseError(
                            ParseError.MALFORMED_TOKEN,
                            f"item ids and quantities must be >= 1, got {token!r}",
                            lineno, _column(line, index),
                        )
                    pair = pairs[token] = (item, qty)
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
        sequences.append(Sequence._trusted(sid, tuple(itemsets)))
        sid += 1
    return SequenceDatabase(sequences=tuple(sequences))


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
                f"expected 'item utility', got {line.strip()!r}", lineno, _column(line, 0),
            )
        item_tok, value_tok = tokens
        if not item_tok.isdecimal() or int(item_tok) < 1:
            raise ParseError(
                ParseError.NON_NUMERIC, f"item id must be a positive integer, got {item_tok!r}",
                lineno, _column(line, 0),
            )
        item = int(item_tok)
        try:
            value = Fraction(Decimal(value_tok))
        except (InvalidOperation, ValueError):
            raise ParseError(
                ParseError.NON_NUMERIC, f"utility must be a number, got {value_tok!r}",
                lineno, _column(line, 1),
            ) from None
        if value < 0:
            raise ParseError(
                ParseError.NON_NUMERIC, f"utility must be non-negative, got {value_tok!r}",
                lineno, _column(line, 1),
            )
        if item in entries and entries[item] != value:
            raise ParseError(
                ParseError.CONFLICTING_DUPLICATE,
                f"item {item} already has utility {entries[item]}, conflicting {value_tok!r}",
                lineno, _column(line, 0),
            )
        entries[item] = value
    return UtilityTable(entries=entries)


def with_utilities(db: SequenceDatabase, table: UtilityTable) -> SequenceDatabase:
    """Attach a utility table, checking it covers every item in the database."""
    missing = sorted(db.item_universe - table.entries.keys())
    if missing:
        raise ParseError(
            ParseError.MISSING_UTILITY,
            f"utility table has no entry for items: {', '.join(map(str, missing))}",
        )
    return replace(db, utilities=table)


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector, restoring the caller's state on exit.

    Parsing and mining allocate millions of acyclic tuples; with the
    collector on, they trigger repeated full collections that free nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def load_database(db_path: str | Path, utils_path: str | Path) -> SequenceDatabase:
    """Read and cross-validate a database file and its utility file.

    The cyclic garbage collector is paused while parsing (see :func:`gc_paused`).
    """
    with gc_paused():
        db = parse_database(Path(db_path).read_text(encoding="utf-8"))
        table = parse_utility_table(Path(utils_path).read_text(encoding="utf-8"))
        return with_utilities(db, table)


def item_utility(item: int, seq: Sequence, table: UtilityTable) -> Fraction:
    """Utility of one item in one sequence: quantity times unit utility."""
    qty = seq.quantities.get(item)
    if qty is None:
        raise AbsentItemError(f"item {item} does not occur in sequence {seq.sid}")
    return qty * table.entries[item]


def sequence_utility(seq: Sequence, table: UtilityTable) -> Fraction:
    """Whole-sequence utility: sum of item utilities over all its items."""
    return sum((qty * table.entries[item] for item, qty in seq.quantities.items()), Fraction(0))


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
    lines = []
    for item in sorted(table.entries):
        value = table.entries[item]
        text = str(value.numerator) if value.denominator == 1 else str(Decimal(value.numerator) / Decimal(value.denominator))
        lines.append(f"{item} {text}")
    return "\n".join(lines) + ("\n" if lines else "")

