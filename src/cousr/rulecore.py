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

A rule's utility-list (:class:`UtilityList`) holds the rule's two sides, as
ascending item tuples, and one row per supporting sequence, a plain tuple
of six ints that the hot loops read by position::

    (seq_index, iutil, total, left_total, max_pos_x, min_pos_y)

``seq_index`` is the sequence's position ``k`` in the database (from 0, the
bit ``k`` of every sequence mask and index ``k`` of every column of a
:class:`SequenceTables`) and ``iutil`` is the rule's utility in that
sequence. With ``lutil``, ``rutil``, ``lrutil`` the utility sums over the
three classes, ``total = iutil + lutil + rutil + lrutil`` and
``left_total = iutil + lutil + lrutil``; the search reads the class sums
only through these two. Consequences used by the miner:

* sum of ``iutil``      = rule utility; row count = rule support
* sum of ``total``      >= utility of the rule and of every descendant
  reachable by further expansions (and is itself bounded by the rule's
  sequence-estimated utility)
* sum of ``left_total`` >= utility of every left-only descendant
* the same two sums, taken only over the rows in which an item ``i`` is
  right- (left-) feasible, bound the right (left) child by ``i`` and every
  canonical descendant of that child: the child occurs only in those rows,
  and each item it can still add is in one of the parent's classes there
  (a left child grows only to the left). This *child bound* follows
  US-Rule's right/left expansion-estimated utilities (REEU/LEEU; Huang,
  Gan et al., arXiv 2111.15020); it is a sound cut outside the paper's
  seven strategies, and :meth:`UtilityList.expand` applies it before it
  derives a row

**Row tables.** A :class:`SequenceTables`, which the caller creates and
passes to :func:`build_utility_list` (the miner's search owns one and drops
it on return), holds the row tables of one database as columns indexed by
the sequence's position ``k``; no Python object stands for one sequence.
Sequence ``k``'s table is filled from the database's flat columns on first
use. Of a sequence with ``k`` items in ``l`` itemsets, ``sums[k]`` is a
flat ``(k+1) x (l+1)`` array ``T`` of dominance sums, ``T[r][q]`` =
utility of the items whose rank in the sequence (ascending item order, from
0) is ``>= r`` and whose position is ``<= q``; each table row ``r`` carries
one more cell, the position of the item of rank ``r - 1``: an item of rank
``r`` has its position in row ``r + 1``'s extra cell and its utility in
``T[r][l] - T[r+1][l]``. Each buffer is its own, so every offset into it
stays small, and it is as narrow as its cells allow: ``bytes`` when every
cell is below 256, else the narrowest unsigned ``array``, else a list.
With ``rL = rank(last_x) + 1``, ``rR = rank(last_y) + 1``, ``mx = max_pos_x``
and ``my = min_pos_y``, the class sums are rectangles::

    L      = T[rL][my - 1]                      left-feasible
    R      = T[rR][l] - T[rR][mx]               right-feasible
    lrutil = T[max(rL, rR)][my - 1] - T[max(rL, rR)][mx]
    lutil  = L - lrutil,   rutil = R - lrutil

so ``left_total = iutil + L`` and ``total = left_total + R - lrutil``.
:meth:`SequenceTables.row` is the one place rows are derived. A child row
needs only its parent row's ``mx``/``my`` and its sequence's table: a right
expansion by an item at position ``p`` sets ``my' = min(my, p)``, a left
one ``mx' = max(mx, p)``, so :meth:`UtilityList.expand` grows a rule by one
item with a constant-time step per parent row, and
:func:`build_utility_list` builds the 1*1 roots, the only lists made from
scratch, through the same method.
The store also keeps, per sequence, ``masks[k]``, the bit mask of its items
over the database's dense item ranks, and ``lasts[k]``, its ``l``. The mask
is the table's only item index: an item is in the sequence iff its bit is
set, and as dense ranks follow item order, the set bits below it count its
rank in the sequence, which gives its row's offset (the formula is in
:class:`SequenceTables`). The OR of the masks of a node's rows, cut to the
canonical order, gives its candidates (:meth:`UtilityList.candidates`), a
superset of the feasible items: :meth:`UtilityList.expand` tests each row's
position as it sums the child bound, and an item feasible in no row gives
no child.

All utility amounts in this module are integers on the utility table's grid
(see :attr:`cousr.seqdb.UtilityTable.scale`).

Two pruning tables summarize item pairs, each a :class:`PairTable` that
holds exactly the pairs that occur, as one row per antecedent item: row
``ra`` is a dict from ``rb`` to the pair's value, where ``ra``, ``rb`` are
the items' dense ranks among the database's items (the class docstring
gives the layout's cost). It is read through :meth:`PairTable.entries` and
``len()``. A pair occurs when some sequence holds it, so its cell is
present even if every such sequence adds 0.

* bond matrix (:func:`build_bond_matrix`): unordered pair -> co-occurrence
  count ``co`` (the number of sequences holding both items), in the row of
  the smaller item; absent pair means the items never co-occur. The bond
  of the two-item itemset is derived from it and the items' supports as
  ``co / (sup_a + sup_b - co)``, so the miner tests ``bond >= min_bond`` by
  integer cross-multiplication.
* rule-seu table ("ESUCS", :func:`scan_rule_pairs`): ordered pair (a, b) ->
  sequence-estimated utility of the rule a => b; absent means the rule never
  occurs. The table is asymmetric because occurrence is order-sensitive. A
  sequence of utility 0 adds 0, so a pair can occur with SEU 0: it is kept
  at ``min_util`` 0 and counted in ``pruned_s2`` above it.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from typing import NamedTuple

from .seqdb import SequenceDatabase

# (exclusive upper bound, typecode) of the unsigned arrays a table's sums may
# use when a cell reaches 256 (below that, ``bytes``)
_SUM_TYPECODES = tuple((1 << 8 * array(code).itemsize, code) for code in "HIQ")


class UtilityList(NamedTuple):
    """A rule ``antecedent => consequent`` (ascending item tuples) and its
    rows, one per supporting sequence (the tuples of the module docstring)."""

    antecedent: tuple[int, ...]
    consequent: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def support(self) -> int:
        return len(self.rows)

    @property
    def utility(self) -> int:
        return sum(row[1] for row in self.rows)

    @property
    def total(self) -> int:
        return sum(row[2] for row in self.rows)

    @property
    def left_total(self) -> int:
        return sum(row[3] for row in self.rows)

    def candidates(self, tables: SequenceTables) -> tuple[int, int]:
        """The ``(left, right)`` candidate masks (over the dense item ranks of
        ``tables``), indexed by ``right``: the items of the rows' sequences
        above the grown side's last item and outside the other side. They
        hold every item feasible in some row on that side, and may hold
        items feasible in none (see :meth:`expand`)."""
        masks, rank = tables.masks, tables.rank
        mask = 0
        for row in self.rows:
            mask |= masks[row[0]]
        for item in self.antecedent + self.consequent:
            mask &= ~(1 << rank[item])
        cut_x, cut_y = rank[self.antecedent[-1]] + 1, rank[self.consequent[-1]] + 1
        return mask >> cut_x << cut_x, mask >> cut_y << cut_y

    def expand(
        self, item: int, right: bool, tables: SequenceTables, floor: int = 0
    ) -> UtilityList | None:
        """The utility-list of the rule grown by ``item`` on the right
        (consequent) or left side, derived row by row from this one, or
        ``None`` when ``item`` is feasible in no row or the child's
        expansion bound is below ``floor``; ``tables`` holds the rows'
        tables.

        The child occurs in the rows whose sequence holds ``item`` (a mask
        test) after ``max_pos_x`` for a right child, or before ``min_pos_y``
        for a left one (a position read). The bound sums ``total`` (right)
        or ``left_total`` (left) over those rows; it bounds the utility of
        the child and of every canonical descendant of it. A cut child
        derives no row. Each row's table is ``tables.sums[seq_index]``.

        An item that breaks the canonical order constraint (it must exceed
        every item of the extended side) or already belongs to the rule
        raises ``ValueError``; so does a row whose sequence lacks the other
        side's last item.
        """
        antecedent, consequent = self.antecedent, self.consequent
        grown, fixed = (consequent, antecedent) if right else (antecedent, consequent)
        if item <= grown[-1] or item in fixed:
            raise ValueError(f"item {item} cannot extend {antecedent} => {consequent}")
        rank, masks, lasts, row_of = tables.rank, tables.masks, tables.lasts, tables.row
        all_sums = tables.sums
        bit = 1 << rank[item]
        through = (bit << 1) - 1
        fixed_bit = 1 << rank[fixed[-1]]
        fixed_through = (fixed_bit << 1) - 1
        feasible = []
        bound = 0
        for row in self.rows:
            seq_index = row[0]
            # the item's row offset (see SequenceTables): its sequence's items up to it
            below = masks[seq_index] & through
            if below < bit:
                continue
            width = lasts[seq_index] + 2
            base = below.bit_count() * width
            pos = all_sums[seq_index][base + width - 1]
            if right:
                if pos > row[4]:
                    bound += row[2]
                    feasible.append((row, base, pos))
            elif pos < row[5]:
                bound += row[3]
                feasible.append((row, base, pos))
        if not feasible or bound < floor:
            return None
        rows = []
        for (seq_index, iutil, _, _, max_pos_x, min_pos_y), base, pos in feasible:
            below = masks[seq_index] & fixed_through
            if below < fixed_bit:
                raise ValueError(f"sequence {seq_index} lacks item {fixed[-1]}"
                                 f" of {antecedent} => {consequent}")
            last, sums = lasts[seq_index], all_sums[seq_index]
            fixed_base = below.bit_count() * (last + 2)
            iutil += sums[base - 2] - sums[base + last]
            if right:
                rows.append(row_of(seq_index, iutil, fixed_base, base, max_pos_x,
                                   pos if pos < min_pos_y else min_pos_y))
            else:
                rows.append(row_of(seq_index, iutil, base, fixed_base,
                                   pos if pos > max_pos_x else max_pos_x, min_pos_y))
        child = (antecedent, consequent + (item,)) if right else (antecedent + (item,), consequent)
        return UtilityList(*child, tuple(rows))


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
    """The row tables of one database, as columns indexed by the sequence's
    position ``k``; sequence ``k``'s entries are filled on first use
    (:meth:`table`).

    ``sums[k]`` is the sequence's packed table, ``None`` until filled: its
    rows ``0..n`` (``n`` items) one after the other, each ``last + 2``
    cells long, the ``last + 1`` sums ``T[r][0..last]`` and then the
    position of the item of rank ``r - 1`` (0 in row 0). ``lasts[k]`` is
    the sequence's itemset count ``last`` and ``masks[k]`` the mask of its
    items (0 until filled); only ``sums`` keeps positions. Item masks index
    :attr:`items` (the database's items, ascending) by position, so the
    lowest set bit is the smallest item; :attr:`rank` maps an item to its
    bit.

    An item of sequence ``k`` has its table row at offset
    ``base = (masks[k] & through).bit_count() * (last + 2)``, where
    ``through = (2 << rank[item]) - 1`` masks the dense ranks up to the
    item's: the set bits it keeps number the item's rank in the sequence
    plus one. The item's position is ``sums[k][base + last + 1]`` and its
    utility ``sums[k][base - 2] - sums[k][base + last]``.
    """

    def __init__(self, db: SequenceDatabase):
        self.db = db
        self._grid_units = db.require_utilities().grid_units
        starts = db.seq_starts
        self.lasts = [end - first for first, end in zip(starts, starts[1:])]
        self.sums: list[bytes | array | list[int] | None] = [None] * db.sequence_count
        self.masks = [0] * db.sequence_count
        self.items, self.rank = item_ranks(db)

    def table(self, index: int) -> bytes | array | list[int]:
        """The ``index``-th sequence's ``sums``, filling its entries of every
        column on first use."""
        sums = self.sums[index]
        if sums is not None:
            return sums
        db, rank, grid_units = self.db, self.rank, self._grid_units
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
        # table rows from the highest item rank down; row r sums ranks >= r
        row = [0] * (last + 2)
        rows = [row]
        mask = 0
        for item, pos, qty in occurrences:
            value = qty * grid_units[item]
            row[-1] = pos
            row = row[:pos] + [cell + value for cell in row[pos:-1]]
            row.append(0)
            rows.append(row)
            mask |= 1 << rank[item]
        rows.reverse()
        cells = [cell for row in rows for cell in row]
        # the largest cell is the sequence's utility T[0][last] or a position
        largest = max(rows[0][last], last)
        if largest < 256:
            sums = bytes(cells)
        else:
            typecode = next((code for bound, code in _SUM_TYPECODES if largest < bound), None)
            sums = cells if typecode is None else array(typecode, cells)
        self.sums[index] = sums
        self.masks[index] = mask
        return sums

    def row(
        self, index: int, iutil: int, base_x: int, base_y: int, max_pos_x: int, min_pos_y: int
    ) -> tuple[int, ...]:
        """A rule's row in the ``index``-th sequence, whose table is filled: the
        plain tuple of the module docstring.

        ``base_x`` / ``base_y`` are the table-row offsets (see the class
        docstring) of the rule's last antecedent / consequent item; the
        class sums are the rectangles of the module docstring.
        """
        sums = self.sums[index]
        both = base_x if base_x > base_y else base_y
        lrutil = sums[both + min_pos_y - 1] - sums[both + max_pos_x]
        left_total = iutil + sums[base_x + min_pos_y - 1]
        right = sums[base_y + self.lasts[index]] - sums[base_y + max_pos_x]
        return index, iutil, left_total + right - lrutil, left_total, max_pos_x, min_pos_y

    def items_of(self, mask: int) -> list[int]:
        """The items of a mask, ascending."""
        items = self.items
        return [items[bit] for bit in _set_bits(mask)]


def build_utility_list(a: int, b: int, tables: SequenceTables, sids: int) -> UtilityList:
    """The utility-list of the 1*1 rule ``a => b`` (a search root).

    ``sids`` masks the sequences to scan (bit ``k`` for the ``k``-th);
    each must hold both items, and any superset of the supporting
    sequences gives the same rows. The miner passes the AND of the two
    items' bit vectors. A masked sequence that lacks ``a`` or ``b`` raises
    ``ValueError``.
    """
    rank = tables.rank
    bit_a, bit_b = 1 << rank[a], 1 << rank[b]
    through_a, through_b = (bit_a << 1) - 1, (bit_b << 1) - 1
    table_of, row_of = tables.table, tables.row
    masks, lasts = tables.masks, tables.lasts
    rows = []
    for index in _set_bits(sids):
        sums = table_of(index)
        # a's and b's row offsets (see SequenceTables): the sequence's items up to each
        mask, last = masks[index], lasts[index]
        below_x, below_y = mask & through_a, mask & through_b
        if below_x < bit_a or below_y < bit_b:
            raise ValueError(f"sequence {index} lacks item {a} or {b} of {a} => {b}")
        width = last + 2
        base_x, base_y = below_x.bit_count() * width, below_y.bit_count() * width
        max_pos_x, min_pos_y = sums[base_x + last + 1], sums[base_y + last + 1]
        if max_pos_x < min_pos_y:
            iutil = sums[base_x - 2] - sums[base_x + last] + sums[base_y - 2] - sums[base_y + last]
            rows.append(row_of(index, iutil, base_x, base_y, max_pos_x, min_pos_y))
    return UtilityList((a,), (b,), tuple(rows))


class PairTable:
    """Item pair ``(a, b)`` -> an integer summed over the sequences holding
    the pair, read through :meth:`entries` and ``len()``.

    The table is indexed by the dense ranks of its database's items
    (:attr:`items`, ascending) and kept as rows: ``rows[ra]`` is ``None`` or
    a dict from the rank ``rb`` of each item ``b`` paired after ``a`` to
    the pair's value, where ``ra``, ``rb`` are the items' ranks. Only a
    rank that precedes some item has a row. A cell is present exactly when
    the pair occurs, that is, when some sequence holds it, even if every
    such sequence adds 0 (a rule-SEU sequence of utility 0): a present cell
    may hold 0. ``len()`` counts the occurring pairs.

    A row costs about 230 B (a small dict and its slot in :attr:`rows`),
    where a single dict keyed ``ra * R + rb`` (``R`` items) costs a 28 B int
    key per pair, so the rows are smaller from about 8 pairs per antecedent
    item.
    """

    def __init__(self, items: tuple[int, ...], rows: list[dict[int, int] | None]):
        self.items = items
        self.rows = rows

    def __len__(self) -> int:
        return sum(map(len, filter(None, self.rows)))

    def entries(self, floor: int = 0) -> Iterator[tuple[int, int, int]]:
        """``(a, b, value)`` of each occurring pair whose value is at least
        ``floor``, ascending by ``(a, b)``; each row's cells are filtered and
        sorted in bulk, then yielded one at a time."""
        items = self.items
        for ra, row in enumerate(self.rows):
            if row:
                a = items[ra]
                for rb in sorted(rb for rb, value in row.items() if value >= floor):
                    yield a, items[rb], row[rb]


def item_ranks(db: SequenceDatabase) -> tuple[tuple[int, ...], dict[int, int]]:
    """The database's items ascending, and item -> its dense rank (its index
    there): the one ranking of the row tables, the pair tables and the
    miner's pass masks."""
    items = tuple(sorted(db.item_universe))
    return items, {item: rank for rank, item in enumerate(items)}


def _ranked(db: SequenceDatabase) -> tuple[tuple[int, ...], array]:
    """The database's items ascending and each occurrence's rank: the
    indices of a :class:`PairTable`'s rows and cells."""
    items, rank = item_ranks(db)
    return items, array("i", map(rank.__getitem__, db.items))


def build_bond_matrix(db: SequenceDatabase) -> PairTable:
    """A :class:`PairTable`, read through ``entries()`` and ``len()``, of the
    co-occurring unordered item pairs (smaller, larger) and their
    co-occurrence counts. The bond of a pair is ``co / (sup_a + sup_b - co)``,
    where the supports are the popcounts of the items' bit vectors. Each
    sequence adds 1 to the cell ``rb`` of row ``ra`` (``ra < rb``) of each
    pair of its items, so a count is never 0; a sequence's highest rank
    gets no row from it.
    """
    items, ranks = _ranked(db)
    rows: list[dict[int, int] | None] = [None] * len(items)
    for start, end in db.occurrence_spans():
        earlier: list[dict[int, int]] = []  # the rows of the lower ranks of the sequence
        ordered = sorted(ranks[start:end])
        for b in ordered:
            for row in earlier:
                row[b] = row.get(b, 0) + 1
            if b != ordered[-1]:
                row = rows[b]
                if row is None:
                    row = rows[b] = {}
                earlier.append(row)
    return PairTable(items, rows)


def scan_rule_pairs(db: SequenceDatabase) -> PairTable:
    """A :class:`PairTable`, read through ``entries()`` and ``len()``, of the
    ordered pairs (a, b) and the SEU of the rule a => b, in grid units.

    One database scan over all ordered pairs (a before b, distinct itemsets)
    feeds both the initial 1*1 rules (strategy 2) and the rule-seu pruning
    table (strategy 7). Each sequence adds its utility to the cell ``rb`` of
    row ``ra`` of each of its ordered pairs; the items of its last itemset
    get no row from it. A sequence of utility 0 stores 0, so a pair held
    only by such sequences occurs with SEU 0.
    """
    items, ranks = _ranked(db)
    set_starts, seq_starts = db.set_starts, db.seq_starts
    rows: list[dict[int, int] | None] = [None] * len(items)
    for first, end, su in zip(seq_starts, seq_starts[1:], db.grid_sequence_utilities):
        earlier: list[dict[int, int]] = []  # the rows of the earlier itemsets' items
        stops = set_starts[first:end + 1]
        start, last = stops[0], stops[-1]
        for stop in stops[1:]:
            current = ranks[start:stop]
            for b in current:
                for row in earlier:
                    row[b] = row.get(b, 0) + su
            if stop != last:
                for a in current:
                    row = rows[a]
                    if row is None:
                        row = rows[a] = {}
                    earlier.append(row)
            start = stop
    return PairTable(items, rows)
