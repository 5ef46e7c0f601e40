"""Utility-lists, per-sequence row tables, and co-occurrence tables.

The search grows rules one item at a time: a *left* expansion adds an item to
the antecedent, a *right* expansion adds one to the consequent. To keep the
enumeration canonical (each rule reachable exactly once), an added item must
be strictly greater than every item already on the extended side.

For a rule occurring in a sequence, let ``max_pos_x`` be the (1-based)
itemset position of its last antecedent itemset and ``min_pos_y`` that of its
first consequent itemset. An outside item is

* left-feasible  iff it is greater than the last antecedent item ``last_x``
  and positioned strictly before ``min_pos_y``, and
* right-feasible iff it is greater than the last consequent item ``last_y``
  and positioned strictly after ``max_pos_x``.

These two conditions already exclude the rule's own items: antecedent items
fail the order bound on the left and the position bound on the right, and
consequent items the other way round. ``only_left`` / ``only_right`` /
``left_right`` partition the feasible items by which of the two hold.

The utility-list of a rule has one row per supporting sequence::

    (seq_index, iutil, lutil, rutil, lrutil, max_pos_x, min_pos_y, table)

``seq_index`` is the sequence's position ``k`` in the database (from 0, the
bit ``k`` of every sequence mask and slot ``k`` of a :class:`SequenceTables`),
``iutil`` is the rule's utility in that sequence, ``lutil``, ``rutil``,
``lrutil`` are the utility sums over the three classes and ``table`` is the
sequence's row table (below). Consequences used by the miner:

* sum of ``iutil``          = rule utility; row count = rule support
* sum of the four utilities >= utility of the rule and of every descendant
  reachable by further expansions (and is itself bounded by the rule's
  sequence-estimated utility)
* sum minus ``rutil``       >= utility of every left-only descendant

**Row tables.** Each sequence with ``k`` items in ``l`` itemsets gets one
:class:`SequenceTable`, built from the database's flat columns on first use
and held in the sequence's slot of a :class:`SequenceTables`, which the
caller creates and passes to :func:`build_utility_list` (the miner's search
owns one and drops it on return); every row keeps its sequence's table.
A table is a flat ``(k+1) x (l+1)`` array ``T`` of dominance sums,
``T[r][q]`` = utility of the items whose rank in the sequence (ascending
item order, from 0) is ``>= r`` and whose position is ``<= q``; each table
row ``r`` carries one more cell, the position of the item of rank
``r - 1``. ``where`` maps an item to the offset of row ``rank(item) + 1``
only: the item's position is that row's extra cell and its utility is
``T[r][l] - T[r+1][l]`` (``r`` its rank).
With ``rL = rank(last_x) + 1``, ``rR = rank(last_y) + 1``, ``mx = max_pos_x``
and ``my = min_pos_y``, the class sums are rectangles::

    L      = T[rL][my - 1]                      left-feasible
    R      = T[rR][l] - T[rR][mx]               right-feasible
    lrutil = T[max(rL, rR)][my - 1] - T[max(rL, rR)][mx]
    lutil  = L - lrutil,   rutil = R - lrutil

:meth:`SequenceTable.row` is the one place rows are derived. A child row
needs only its parent row's ``mx``/``my`` and table: a right expansion by an
item at position ``p`` sets ``my' = min(my, p)``, a left one
``mx' = max(mx, p)``, so :meth:`UtilityList.expand` grows a rule by one item
with a constant-time step per parent row, and :func:`build_utility_list`
builds the 1*1 roots, the only lists made from scratch, through the same
function.
The table also keeps, per position ``q``, the items at or before ``q`` as a
cumulative bit mask ``upto[q]`` over the database's dense item ranks; the
items after ``q`` are ``upto[l] ^ upto[q]`` and those before it
``upto[q - 1]``, so a node's candidate items
(:meth:`UtilityList.candidates`) are the OR of one mask per row.

All utility amounts in this module are integers on the utility table's grid
(see :attr:`cousr.seqdb.UtilityTable.scale`).

Two sparse pruning tables summarize item pairs:

* bond matrix: unordered pair -> co-occurrence count ``co`` (the number of
  sequences holding both items); absent pair means the items never
  co-occur. The bond of the two-item itemset is derived from it and the
  items' supports as ``co / (sup_a + sup_b - co)``, so the miner tests
  ``bond >= min_bond`` by integer cross-multiplication.
* rule-seu table ("ESUCS", :func:`scan_rule_pairs`): ordered pair (a, b) ->
  sequence-estimated utility of the rule a => b; absent means the rule never
  occurs. The table is asymmetric because occurrence is order-sensitive.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import NamedTuple

from .measures import Rule
from .seqdb import SequenceDatabase

# builds a row without the Python-level NamedTuple constructor (hot path)
_new_tuple = tuple.__new__

# (exclusive upper bound, typecode) of the unsigned arrays a table's sums may use
_SUM_TYPECODES = tuple((1 << 8 * array(code).itemsize, code) for code in "BHIQ")


class UtilityListRow(NamedTuple):
    """Per-sequence record of a utility-list (amounts in grid units)."""

    seq_index: int
    iutil: int
    lutil: int
    rutil: int
    lrutil: int
    max_pos_x: int
    min_pos_y: int
    table: SequenceTable


@dataclass(frozen=True)
class UtilityList:
    rule: Rule
    rows: tuple[UtilityListRow, ...]

    @property
    def support(self) -> int:
        return len(self.rows)

    @property
    def utility(self) -> int:
        return sum(row.iutil for row in self.rows)

    @property
    def total(self) -> int:
        return sum(row.iutil + row.lutil + row.rutil + row.lrutil for row in self.rows)

    @property
    def left_total(self) -> int:
        return sum(row.iutil + row.lutil + row.lrutil for row in self.rows)

    def candidates(self, right: bool, rank: dict[int, int]) -> int:
        """Mask (over the dense item ranks ``rank``) of the items feasible in
        at least one row for a right (consequent) or left expansion."""
        mask = 0
        if right:
            for _, _, _, _, _, max_pos_x, _, table in self.rows:
                upto = table.upto
                mask |= upto[-1] ^ upto[max_pos_x]
        else:
            for _, _, _, _, _, _, min_pos_y, table in self.rows:
                mask |= table.upto[min_pos_y - 1]
        if mask:
            rule = self.rule
            cut = rank[rule.consequent[-1] if right else rule.antecedent[-1]] + 1
            mask = mask >> cut << cut
        return mask

    def expand(self, item: int, right: bool) -> UtilityList:
        """The utility-list of the rule grown by ``item`` on the right
        (consequent) or left side, derived row by row from this one.

        :class:`Rule` raises ``ValueError`` when the item breaks the canonical
        order constraint (it must exceed every item of the extended side) or
        already belongs to the rule.
        """
        antecedent, consequent = self.rule.antecedent, self.rule.consequent
        if right:
            rule, fixed = Rule(antecedent, consequent + (item,)), antecedent[-1]
        else:
            rule, fixed = Rule(antecedent + (item,), consequent), consequent[-1]
        rows = []
        for seq_index, iutil, _, _, _, max_pos_x, min_pos_y, table in self.rows:
            where = table.where
            base = where.get(item)
            if base is None:
                continue
            sums, last = table.sums, table.last
            pos = sums[base + last + 1]
            iutil += sums[base - 2] - sums[base + last]
            if right:
                if pos > max_pos_x:
                    rows.append(table.row(seq_index, iutil, where[fixed], base, max_pos_x,
                                          pos if pos < min_pos_y else min_pos_y))
            elif pos < min_pos_y:
                rows.append(table.row(seq_index, iutil, base, where[fixed],
                                      pos if pos > max_pos_x else max_pos_x, min_pos_y))
        return UtilityList(rule=rule, rows=tuple(rows))


class SequenceTable:
    """Row table of one sequence: dominance sums plus feasible-item masks.

    Built from the index ranges of the ``index``-th sequence of a
    database's flat columns and the grid unit utilities
    (:attr:`cousr.seqdb.UtilityTable.grid_units`); it builds no
    :class:`~cousr.seqdb.Sequence`. ``sums`` is the narrowest unsigned
    ``array`` that holds every cell (a list when the sequence's utility
    needs more than 64 bits) and holds the table rows ``0..k`` one after
    the other, each ``width = last + 2`` cells long: the ``last + 1``
    sums ``T[r][0..last]``, then one cell holding the position of the item
    of rank ``r - 1`` (0 in row 0). ``where[item]`` is the offset in
    ``sums`` of the table row ``rank(item) + 1``, so with ``base =
    where[item]`` the item's position is ``sums[base + last + 1]`` and its
    utility ``T[r][last] - T[r + 1][last]`` is
    ``sums[base - 2] - sums[base + last]``. ``upto[q]`` masks the items
    positioned at or before ``q``; the items after ``q`` are
    ``upto[last] ^ upto[q]`` and those before it ``upto[q - 1]``.
    """

    __slots__ = ("sums", "last", "where", "upto")

    def __init__(
        self, db: SequenceDatabase, index: int, grid_units: dict[int, int], rank: dict[int, int]
    ):
        first, end = db.seq_starts[index], db.seq_starts[index + 1]
        start = stop = db.set_starts[first]
        positions: list[int] = []  # the itemset position of each occurrence
        for pos, next_stop in enumerate(db.set_starts[first + 1:end + 1], start=1):
            positions += [pos] * (next_stop - stop)
            stop = next_stop
        occurrences = sorted(
            zip(db.items[start:stop], positions, db.qtys[start:stop]), reverse=True
        )
        last = end - first
        width = last + 2
        # table rows from the highest item rank down; row r sums ranks >= r
        row = [0] * width
        rows = [row]
        where = {}
        upto = [0] * (last + 1)
        base = len(occurrences) * width
        for item, pos, qty in occurrences:
            value = qty * grid_units[item]
            where[item] = base
            row[-1] = pos
            row = row[:pos] + [cell + value for cell in row[pos:-1]]
            row.append(0)
            rows.append(row)
            base -= width
            upto[pos] |= 1 << rank[item]
        rows.reverse()
        for q in range(1, last + 1):
            upto[q] |= upto[q - 1]
        sums = [cell for row in rows for cell in row]
        # the largest cell is the sequence's utility T[0][last] or a position
        largest = max(rows[0][last], last)
        typecode = next((code for bound, code in _SUM_TYPECODES if largest < bound), None)
        self.sums = sums if typecode is None else array(typecode, sums)
        self.last = last
        self.where = where
        self.upto = upto

    def row(
        self, seq_index: int, iutil: int, base_x: int, base_y: int, max_pos_x: int, min_pos_y: int
    ) -> UtilityListRow:
        """A rule's row in this sequence; the row keeps this table.

        ``base_x`` / ``base_y`` are ``where[last_x]`` / ``where[last_y]``
        for the rule's last antecedent / consequent item.
        """
        sums = self.sums
        both = base_x if base_x > base_y else base_y
        lrutil = sums[both + min_pos_y - 1] - sums[both + max_pos_x]
        return _new_tuple(UtilityListRow, (
            seq_index,
            iutil,
            sums[base_x + min_pos_y - 1] - lrutil,
            sums[base_y + self.last] - sums[base_y + max_pos_x] - lrutil,
            lrutil,
            max_pos_x,
            min_pos_y,
            self,
        ))


def _set_bits(mask: int) -> list[int]:
    """The positions of a mask's set bits, lowest first."""
    bits = bin(mask)[:1:-1]
    found = []
    bit = bits.find("1")
    while bit >= 0:
        found.append(bit)
        bit = bits.find("1", bit + 1)
    return found


class SequenceTables:
    """The row tables of one database, one slot per sequence (slot ``k``
    for the ``k``-th), each table built on first use.

    Item masks index :attr:`items` (the database's items, ascending) by
    position, so the lowest set bit is the smallest item.
    """

    def __init__(self, db: SequenceDatabase):
        self.db = db
        self._grid_units = db.require_utilities().grid_units
        self._slots: list[SequenceTable | None] = [None] * db.sequence_count
        self.items = tuple(sorted(db.item_universe))
        self.rank = {item: bit for bit, item in enumerate(self.items)}

    def table(self, index: int) -> SequenceTable:
        table = self._slots[index]
        if table is None:
            table = self._slots[index] = SequenceTable(self.db, index, self._grid_units, self.rank)
        return table

    def items_of(self, mask: int) -> list[int]:
        """The items of a mask, ascending."""
        items = self.items
        return [items[bit] for bit in _set_bits(mask)]


def build_utility_list(rule: Rule, tables: SequenceTables, sids: int) -> UtilityList:
    """The utility-list of a 1*1 rule ``a => b`` (a search root).

    ``sids`` masks the sequences to scan (bit ``k`` for the ``k``-th);
    each must hold both items, and any superset of the supporting
    sequences gives the same rows. The miner passes the AND of the two
    items' bit vectors.
    """
    (a,), (b,) = rule.antecedent, rule.consequent
    table_of = tables.table
    rows: list[UtilityListRow] = []
    for index in _set_bits(sids):
        table = table_of(index)
        where, sums, last = table.where, table.sums, table.last
        base_x, base_y = where[a], where[b]
        max_pos_x, min_pos_y = sums[base_x + last + 1], sums[base_y + last + 1]
        if max_pos_x < min_pos_y:
            iutil = sums[base_x - 2] - sums[base_x + last] + sums[base_y - 2] - sums[base_y + last]
            rows.append(table.row(index, iutil, base_x, base_y, max_pos_x, min_pos_y))
    return UtilityList(rule=rule, rows=tuple(rows))


def build_bond_matrix(db: SequenceDatabase) -> dict[tuple[int, int], int]:
    """Co-occurrence count per co-occurring unordered item pair, keyed (smaller, larger).

    The bond of the pair is ``co / (sup_a + sup_b - co)``, where the supports
    are the popcounts of the items' bit vectors.
    """
    items = db.items
    return Counter(chain.from_iterable(
        combinations(sorted(items[start:end]), 2) for start, end in db.occurrence_spans()
    ))


def scan_rule_pairs(db: SequenceDatabase) -> dict[tuple[int, int], int]:
    """Ordered pair (a, b) -> SEU of the rule a => b, in grid units.

    One database scan over all ordered pairs (a before b, distinct
    itemsets). It feeds both the initial 1*1 rules (strategy 2) and the
    rule-seu pruning table (strategy 7).
    """
    db.require_utilities()
    items, set_starts, seq_starts = db.items, db.set_starts, db.seq_starts
    pairs: dict[tuple[int, int], int] = {}
    for index, su in enumerate(db.grid_sequence_utilities):
        earlier: list[int] = []
        stops = set_starts[seq_starts[index]:seq_starts[index + 1] + 1]
        start = stops[0]
        for stop in stops[1:]:
            current = items[start:stop]
            for b in current:
                for a in earlier:
                    key = (a, b)
                    pairs[key] = pairs.get(key, 0) + su
            earlier.extend(current)
            start = stop
    return pairs

