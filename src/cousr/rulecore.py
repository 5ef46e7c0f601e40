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

    (sid, iutil, lutil, rutil, lrutil, max_pos_x, min_pos_y)

``iutil`` is the rule's utility in that sequence and ``lutil``, ``rutil``,
``lrutil`` are the utility sums over the three classes. Consequences used by
the miner:

* sum of ``iutil``          = rule utility; row count = rule support
* sum of the four utilities >= utility of the rule and of every descendant
  reachable by further expansions (and is itself bounded by the rule's
  sequence-estimated utility)
* sum minus ``rutil``       >= utility of every left-only descendant

**Row tables.** Each sequence with ``k`` items in ``l`` itemsets gets one
:class:`SequenceTable`, built from its itemsets on first use and held by a
:class:`SequenceTables`, which the caller creates and passes to
:func:`build_utility_list` and :class:`Expansion` (the miner's search owns
one and drops it on return). A table is a flat
``(k+1) x (l+1)`` list ``T`` of dominance sums, ``T[r][q]`` = utility of the
items whose rank in the sequence (ascending item order, from 0) is ``>= r``
and whose position is ``<= q``; each table row ``r`` carries one more cell,
the position of the item of rank ``r - 1``. ``where`` maps an item to the
offset of row ``rank(item) + 1`` only: the item's position is that row's
extra cell and its utility is ``T[r][l] - T[r+1][l]`` (``r`` its rank).
With ``rL = rank(last_x) + 1``, ``rR = rank(last_y) + 1``, ``mx = max_pos_x``
and ``my = min_pos_y``, the class sums are rectangles::

    L      = T[rL][my - 1]                      left-feasible
    R      = T[rR][l] - T[rR][mx]               right-feasible
    lrutil = T[max(rL, rR)][my - 1] - T[max(rL, rR)][mx]
    lutil  = L - lrutil,   rutil = R - lrutil

:meth:`SequenceTable.row` is the one place rows are derived. A child row
needs only its parent's ``mx``/``my``: a right expansion by an item at
position ``p`` sets ``my' = min(my, p)``, a left one ``mx' = max(mx, p)``,
so :class:`Expansion` builds each child row in constant time and
:func:`build_utility_list` builds from scratch through the same function.
The table also keeps, per position ``q``, the items at or before ``q`` as a
cumulative bit mask ``upto[q]`` over the database's dense item ranks; the
items after ``q`` are ``upto[l] ^ upto[q]`` and those before it
``upto[q - 1]``, so a node's candidate items are the OR of one mask per row.

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

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Literal, NamedTuple

from .measures import Rule
from .seqdb import Sequence, SequenceDatabase

Direction = Literal["left", "right"]

# builds a row without the Python-level NamedTuple constructor (hot path)
_new_tuple = tuple.__new__


class RuleAbsentError(ValueError):
    """The rule does not occur in the given sequence."""


class ExpansionClasses(NamedTuple):
    only_left: frozenset[int]
    only_right: frozenset[int]
    left_right: frozenset[int]


class UtilityListRow(NamedTuple):
    """Per-sequence record of a utility-list (amounts in grid units)."""

    sid: int
    iutil: int
    lutil: int
    rutil: int
    lrutil: int
    max_pos_x: int
    min_pos_y: int


@dataclass(frozen=True)
class UtilityList:
    rule: Rule
    rows: tuple[UtilityListRow, ...]

    @property
    def support(self) -> int:
        return len(self.rows)

    @cached_property
    def utility(self) -> int:
        return sum(row.iutil for row in self.rows)

    @cached_property
    def total(self) -> int:
        return sum(row.iutil + row.lutil + row.rutil + row.lrutil for row in self.rows)

    @cached_property
    def left_total(self) -> int:
        return sum(row.iutil + row.lutil + row.lrutil for row in self.rows)

    @cached_property
    def sids_mask(self) -> int:
        mask = 0
        for row in self.rows:
            mask |= 1 << (row.sid - 1)
        return mask


def classify_expansion_items(rule: Rule, seq: Sequence) -> ExpansionClasses:
    """Partition the items that can extend the rule in this sequence.

    Item by item from the definitions above; the row tables must agree with
    it (the tests use it as their reference).
    """
    positions = seq.positions
    try:
        max_pos_x = max(positions[i] for i in rule.antecedent)
        min_pos_y = min(positions[i] for i in rule.consequent)
    except KeyError:
        raise RuleAbsentError(f"rule {rule} does not occur in sequence {seq.sid}") from None
    if max_pos_x >= min_pos_y:
        raise RuleAbsentError(f"rule {rule} does not occur in sequence {seq.sid}")
    last_x = rule.antecedent[-1]
    last_y = rule.consequent[-1]
    members = set(rule.items)
    only_left, only_right, left_right = set(), set(), set()
    for item, pos in positions.items():
        if item in members:
            continue
        left_ok = item > last_x and pos < min_pos_y
        right_ok = item > last_y and pos > max_pos_x
        if left_ok and right_ok:
            left_right.add(item)
        elif left_ok:
            only_left.add(item)
        elif right_ok:
            only_right.add(item)
    return ExpansionClasses(frozenset(only_left), frozenset(only_right), frozenset(left_right))


class SequenceTable:
    """Row table of one sequence: dominance sums plus feasible-item masks.

    Built straight from the sequence's itemsets and the grid unit utilities
    (:attr:`cousr.seqdb.UtilityTable.grid_units`); it fills none of the
    sequence's cached views. ``sums`` holds the table rows ``0..k`` one
    after the other, each ``width = last + 2`` cells long: the ``last + 1``
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

    def __init__(self, seq: Sequence, grid_units: dict[int, int], rank: dict[int, int]):
        occurrences = sorted(
            ((item, pos, qty)
             for pos, itemset in enumerate(seq.itemsets, start=1) for item, qty in itemset),
            reverse=True,
        )
        last = len(seq.itemsets)
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
        self.sums = [cell for row in rows for cell in row]
        self.last = last
        self.where = where
        self.upto = upto

    def row(
        self, sid: int, iutil: int, base_x: int, base_y: int, max_pos_x: int, min_pos_y: int
    ) -> UtilityListRow:
        """A rule's row in this sequence.

        ``base_x`` / ``base_y`` are ``where[last_x]`` / ``where[last_y]``
        for the rule's last antecedent / consequent item.
        """
        sums = self.sums
        both = base_x if base_x > base_y else base_y
        lrutil = sums[both + min_pos_y - 1] - sums[both + max_pos_x]
        return _new_tuple(UtilityListRow, (
            sid,
            iutil,
            sums[base_x + min_pos_y - 1] - lrutil,
            sums[base_y + self.last] - sums[base_y + max_pos_x] - lrutil,
            lrutil,
            max_pos_x,
            min_pos_y,
        ))


class SequenceTables:
    """The row tables of one database, each built on first use.

    ``sequences`` maps sid -> sequence, in database order. Item masks index
    :attr:`items` (the database's items, ascending) by position, so the
    lowest set bit is the smallest item.
    """

    def __init__(self, db: SequenceDatabase):
        self.sequences = {seq.sid: seq for seq in db.sequences}
        self._grid_units = db.require_utilities().grid_units
        self._by_sid: dict[int, SequenceTable] = {}
        self.items = tuple(sorted(db.item_universe))
        self.rank = {item: bit for bit, item in enumerate(self.items)}

    def table(self, sid: int) -> SequenceTable:
        table = self._by_sid.get(sid)
        if table is None:
            table = SequenceTable(self.sequences[sid], self._grid_units, self.rank)
            self._by_sid[sid] = table
        return table

    def items_of(self, mask: int) -> list[int]:
        """The items of a mask, ascending."""
        items = self.items
        found = []
        while mask:
            low = mask & -mask
            found.append(items[low.bit_length() - 1])
            mask ^= low
        return found


def build_utility_list(rule: Rule, tables: SequenceTables, sids: int | None = None) -> UtilityList:
    """Build a rule's utility-list from scratch by scanning the tables' database.

    ``sids`` optionally restricts the scan to a mask of candidate sequences
    (any superset of the supporting ones gives the same rows).
    """
    if sids is None:
        candidates = tables.sequences
    else:
        # set bits of the mask, lowest first (sid j is bit j - 1)
        bits = bin(sids)[:1:-1]
        candidates = []
        bit = bits.find("1")
        while bit >= 0:
            candidates.append(bit + 1)
            bit = bits.find("1", bit + 1)
    antecedent, consequent = rule.antecedent, rule.consequent
    table_of = tables.table
    rows: list[UtilityListRow] = []
    for sid in candidates:
        table = table_of(sid)
        where, sums, last = table.where, table.sums, table.last
        iutil = max_pos_x = 0
        min_pos_y = last
        try:
            for item in antecedent:
                base_x = where[item]
                iutil += sums[base_x - 2] - sums[base_x + last]
                pos = sums[base_x + last + 1]
                if pos > max_pos_x:
                    max_pos_x = pos
            for item in consequent:
                base_y = where[item]
                iutil += sums[base_y - 2] - sums[base_y + last]
                pos = sums[base_y + last + 1]
                if pos < min_pos_y:
                    min_pos_y = pos
        except KeyError:
            continue
        if max_pos_x < min_pos_y:
            rows.append(table.row(sid, iutil, base_x, base_y, max_pos_x, min_pos_y))
    return UtilityList(rule=rule, rows=tuple(rows))


def expanded_rule(rule: Rule, item: int, direction: Direction) -> Rule:
    """The rule grown by one item on the side ``direction`` names.

    :class:`Rule` raises ``ValueError`` when the item breaks the canonical
    order constraint (it must exceed every item of the extended side) or
    already belongs to the rule.
    """
    if direction == "right":
        return Rule(rule.antecedent, rule.consequent + (item,))
    if direction == "left":
        return Rule(rule.antecedent + (item,), rule.consequent)
    raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")


class Expansion:
    """A utility-list's rows made ready to grow in one direction.

    ``candidates`` masks every item feasible in at least one row (the
    items a search node may try); :meth:`rows` derives the expanded rule's
    rows for one such item.
    """

    __slots__ = ("right", "prepared", "candidates")

    def __init__(self, ul: UtilityList, direction: Direction, tables: SequenceTables):
        right = direction == "right"
        rule = ul.rule
        # the side that does not grow keeps its last item, hence its table row
        fixed = rule.antecedent[-1] if right else rule.consequent[-1]
        bound = rule.consequent[-1] if right else rule.antecedent[-1]
        table_of = tables.table
        prepared = []
        mask = 0
        for sid, iutil, _, _, _, max_pos_x, min_pos_y in ul.rows:
            table = table_of(sid)
            upto = table.upto
            mask |= upto[-1] ^ upto[max_pos_x] if right else upto[min_pos_y - 1]
            prepared.append((sid, iutil, max_pos_x, min_pos_y, table, table.where[fixed]))
        if mask:
            cut = tables.rank[bound] + 1
            mask = mask >> cut << cut
        self.right = right
        self.prepared = prepared
        self.candidates = mask

    def rows(self, item: int) -> list[UtilityListRow]:
        rows = []
        if self.right:
            for sid, iutil, max_pos_x, min_pos_y, table, base_x in self.prepared:
                base_y = table.where.get(item)
                if base_y is not None:
                    sums, last = table.sums, table.last
                    pos = sums[base_y + last + 1]
                    if pos > max_pos_x:
                        rows.append(table.row(
                            sid, iutil + sums[base_y - 2] - sums[base_y + last],
                            base_x, base_y, max_pos_x, pos if pos < min_pos_y else min_pos_y,
                        ))
        else:
            for sid, iutil, max_pos_x, min_pos_y, table, base_y in self.prepared:
                base_x = table.where.get(item)
                if base_x is not None:
                    sums, last = table.sums, table.last
                    pos = sums[base_x + last + 1]
                    if pos < min_pos_y:
                        rows.append(table.row(
                            sid, iutil + sums[base_x - 2] - sums[base_x + last],
                            base_x, base_y, pos if pos > max_pos_x else max_pos_x, min_pos_y,
                        ))
        return rows


def expand_utility_list(
    parent: UtilityList, item: int, direction: Direction, tables: SequenceTables
) -> UtilityList:
    """Incrementally derive the expanded rule's utility-list from the parent.

    Rows survive only where the new item is feasible for the chosen
    direction; each is derived in constant time from its parent row.
    """
    new_rule = expanded_rule(parent.rule, item, direction)
    expansion = Expansion(parent, direction, tables)
    return UtilityList(rule=new_rule, rows=tuple(expansion.rows(item)))


def build_bond_matrix(db: SequenceDatabase) -> dict[tuple[int, int], int]:
    """Co-occurrence count per co-occurring unordered item pair, keyed (smaller, larger).

    The bond of the pair is ``co / (sup_a + sup_b - co)``, where the supports
    are the popcounts of the items' bit vectors.
    """
    return Counter(chain.from_iterable(
        combinations(sorted([item for itemset in seq.itemsets for item, _ in itemset]), 2)
        for seq in db.sequences
    ))


def scan_rule_pairs(db: SequenceDatabase) -> dict[tuple[int, int], int]:
    """Ordered pair (a, b) -> SEU of the rule a => b, in grid units.

    One database scan over all ordered pairs (a before b, distinct
    itemsets). It feeds both the initial 1*1 rules (strategy 2) and the
    rule-seu pruning table (strategy 7).
    """
    db.require_utilities()
    pairs: dict[tuple[int, int], int] = {}
    for index, seq in enumerate(db.sequences):
        su = db.grid_sequence_utilities[index]
        earlier: list[int] = []
        for itemset in seq.itemsets:
            current = [item for item, _ in itemset]
            for b in current:
                for a in earlier:
                    key = (a, b)
                    pairs[key] = pairs.get(key, 0) + su
            earlier.extend(current)
    return pairs

