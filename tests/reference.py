"""Reference derivations that only the tests call.

Each works item by item from the definitions in :mod:`cousr.rulecore` and
:mod:`cousr.measures`, reading a sequence's itemsets or a utility-list's
rows, so the tests can hold the package's fast paths against them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import chain, combinations
from math import ceil
from typing import Iterable, NamedTuple

from cousr import measures
from cousr.measures import MinedRule, Rule
from cousr.miner import MinerConfig
from cousr.rulecore import PairTable, SequenceTables, UtilityList
from cousr.seqdb import Sequence, SequenceDatabase


class RuleAbsentError(ValueError):
    """The rule does not occur in the given sequence."""


class _ItemClasses(NamedTuple):
    only_left: frozenset[int]
    only_right: frozenset[int]
    left_right: frozenset[int]


def rule_of(antecedent: Iterable[int], consequent: Iterable[int]) -> Rule:
    """The rule of two item collections, each side sorted ascending."""
    return Rule(tuple(sorted(antecedent)), tuple(sorted(consequent)))


def positions(seq: Sequence) -> dict[int, int]:
    """Item -> 1-based index of its (unique) containing itemset."""
    return {item: pos for pos, itemset in enumerate(seq.itemsets, start=1) for item, _ in itemset}


def grid_utilities(seq: Sequence, db: SequenceDatabase) -> dict[int, int]:
    """Item -> its utility in ``seq``, in grid units (quantity * unit)."""
    units = db.require_utilities().grid_units
    return {item: qty * units[item] for itemset in seq.itemsets for item, qty in itemset}


def classify_expansion_items(rule: Rule | UtilityList, seq: Sequence) -> _ItemClasses:
    """Partition the items that can extend the rule (a :class:`Rule` or a
    utility-list's two sides) in this sequence.

    Item by item from the feasibility definitions of :mod:`cousr.rulecore`;
    the row tables must agree with it.
    """
    position = positions(seq)
    try:
        max_pos_x = max(position[i] for i in rule.antecedent)
        min_pos_y = min(position[i] for i in rule.consequent)
    except KeyError:
        raise RuleAbsentError(f"rule {rule} does not occur in {seq}") from None
    if max_pos_x >= min_pos_y:
        raise RuleAbsentError(f"rule {rule} does not occur in {seq}")
    last_x = rule.antecedent[-1]
    last_y = rule.consequent[-1]
    members = set(rule.antecedent + rule.consequent)
    only_left, only_right, left_right = set(), set(), set()
    for item, pos in position.items():
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
    return _ItemClasses(frozenset(only_left), frozenset(only_right), frozenset(left_right))


def class_sums(
    rule: Rule | UtilityList, seq: Sequence, db: SequenceDatabase
) -> tuple[int, int, int]:
    """The grid utilities of the rule's ``only_left``, ``only_right`` and
    ``left_right`` items in the sequence: ``lutil``, ``rutil``, ``lrutil``."""
    grid = grid_utilities(seq, db)
    return tuple(sum(grid[item] for item in part) for part in classify_expansion_items(rule, seq))


def row_offset(seq: Sequence, item: int) -> int:
    """Offset of an item's row in its sequence's packed table, from the
    itemsets: rows are ``len(seq.itemsets) + 2`` cells long, and the item of
    rank ``r`` in the sequence (ascending item order, from 0) has row
    ``r + 1``."""
    return (sorted(positions(seq)).index(item) + 1) * (len(seq.itemsets) + 2)


def rebuild_utility_list(rule: Rule | UtilityList, tables: SequenceTables) -> UtilityList:
    """A rule of any size's utility-list from scratch (the rule is a
    :class:`Rule` or another list's two sides): positions and utilities read
    from every sequence's itemsets, each row derived by
    :meth:`cousr.rulecore.SequenceTables.row` from its sequence's table."""
    db, rows = tables.db, []
    members = set(rule.antecedent + rule.consequent)
    for index, seq in enumerate(db.sequences):
        position = positions(seq)
        if not position.keys() >= members:
            continue
        max_pos_x = max(position[item] for item in rule.antecedent)
        min_pos_y = min(position[item] for item in rule.consequent)
        if max_pos_x < min_pos_y:
            grid = grid_utilities(seq, db)
            tables.table(index)
            base_x = row_offset(seq, rule.antecedent[-1])
            base_y = row_offset(seq, rule.consequent[-1])
            iutil = sum(grid[item] for item in members)
            rows.append(tables.row(index, iutil, base_x, base_y, max_pos_x, min_pos_y))
    return UtilityList(rule.antecedent, rule.consequent, tuple(rows))


def feasible_items(ul: UtilityList, db: SequenceDatabase, right: bool) -> list[int]:
    """The items, ascending, that the reference classification finds
    feasible on the given side in at least one of the list's rows."""
    feasible: set[int] = set()
    for row in ul.rows:
        classes = classify_expansion_items(ul, db.sequences[row[0]])
        feasible |= classes.left_right | (classes.only_right if right else classes.only_left)
    return sorted(feasible)


def random_expansions(ul: UtilityList, tables: SequenceTables, rng, steps: int):
    """Up to ``steps`` utility-lists, each a random feasible expansion (by
    :func:`feasible_items`) of the one before, starting from ``ul``; ends
    early when the drawn side has no feasible item."""
    for _ in range(steps):
        right = rng.choice((False, True))
        feasible = feasible_items(ul, tables.db, right)
        if not feasible:
            return
        ul = ul.expand(rng.choice(feasible), right, tables)
        yield ul


def sids_mask(ul: UtilityList) -> int:
    """Bit vector of the sequences the utility-list has a row for."""
    return sum(1 << row[0] for row in ul.rows)


def sids_of(mask: int) -> set[int]:
    """Decode a bit vector into the 1-based numbers of its sequences (the
    worked example's s1..s5)."""
    return {bit + 1 for bit in range(mask.bit_length()) if mask >> bit & 1}


def pair_values(table: PairTable) -> dict[tuple[int, int], int]:
    """A pair table as a tuple-keyed dict ``(a, b) -> value`` of its
    occurring pairs, ascending, read through ``entries()`` (every value is
    at least 0)."""
    return {(a, b): value for a, b, value in table.entries()}


def rule_pair_seus(db: SequenceDatabase) -> dict[tuple[int, int], int]:
    """Ordered pair (a, b) -> SEU of the rule a => b, in grid units, as a
    tuple-keyed dict: one scan over all ordered pairs (a before b, distinct
    itemsets). :func:`cousr.rulecore.scan_rule_pairs` must equal it."""
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


def co_occurrence_counts(db: SequenceDatabase) -> Counter:
    """Unordered pair (smaller, larger) -> the number of sequences holding
    both items. :func:`cousr.rulecore.build_bond_matrix` must equal it."""
    items = db.items
    return Counter(chain.from_iterable(
        combinations(sorted(items[start:end]), 2) for start, end in db.occurrence_spans()
    ))


def seu_of_item(item: int, db: SequenceDatabase) -> Fraction:
    """Sum of whole-sequence utilities over the sequences containing the item."""
    sus = zip(db.sequences, db.grid_sequence_utilities)
    return Fraction(sum(su for seq, su in sus if item in positions(seq)), db.utilities.scale)


def seu_of_rule(rule_mask: int, db: SequenceDatabase) -> Fraction:
    """Sum of whole-sequence utilities over the rule's supporting sequences."""
    sus = enumerate(db.grid_sequence_utilities)
    return Fraction(sum(su for index, su in sus if rule_mask >> index & 1), db.utilities.scale)


def descendant_keys(antecedent, consequent, items, right=True) -> set:
    """The ``(antecedent, consequent)`` keys that canonical expansions reach
    from the rule, its own included; left expansions only unless ``right``."""
    used = set(antecedent) | set(consequent)
    left_pool = [i for i in items if i > antecedent[-1] and i not in used]
    right_pool = [i for i in items if i > consequent[-1] and i not in used] if right else []

    def subsets(pool):
        return chain.from_iterable(combinations(pool, size) for size in range(len(pool) + 1))

    return {
        (tuple(sorted(antecedent + ladd)), tuple(sorted(consequent + radd)))
        for radd in subsets(right_pool)
        for ladd in subsets(left_pool)
        if not set(ladd) & set(radd)
    }


def reference_mine(db: SequenceDatabase, config: MinerConfig) -> tuple[MinedRule, ...]:
    """The rules that clear ``config``'s thresholds and side cap, found by a
    plain depth-first search with no utility-list, row table, pair table or
    strategy mask.

    Each sequence is one ``{item: (position, grid utility)}`` dict, and each
    searched rule carries the list of its supporting sequences; one scan of
    those gives every child (one more item on either side) with its own
    supporting sequences. A rule is searched only when its SEU (the summed
    utility of its supporting sequences) reaches ``min_util`` and the bond
    of each side reaches ``min_bond``: both only fall as a rule grows, so
    every sub-rule of a qualifying rule passes them. For the same reason the
    dicts keep only the items whose own SEU reaches ``min_util``. A
    seen-set, not an expansion order, keeps each rule from being searched
    twice.
    """
    units = db.require_utilities().grid_units
    scale = db.utilities.scale
    floor = ceil(config.min_util * scale)  # sums are whole grid units
    cap = config.max_rule_side or len(db.item_universe)
    bitvectors = measures.build_item_bitvectors(db)
    seq_utility = db.grid_sequence_utilities
    item_seu: defaultdict[int, int] = defaultdict(int)
    for seq, su in zip(db.sequences, seq_utility):
        for itemset in seq.itemsets:
            for item, _ in itemset:
                item_seu[item] += su
    seqs = [
        {item: (pos, qty * units[item]) for pos, itemset in enumerate(seq.itemsets)
         for item, qty in itemset if item_seu[item] >= floor}
        for seq in db.sequences
    ]

    def side_mask(items) -> int:
        mask = -1
        for item in items:
            mask &= bitvectors[item]
        return mask

    seen: set = set()
    stack: list = []

    def seu_reached(sids) -> bool:
        return sum(map(seq_utility.__getitem__, sids)) >= floor

    def push(x, y, sids) -> None:
        if (x, y) not in seen:
            seen.add((x, y))
            if (measures.bond(x, bitvectors).value >= config.min_bond
                    and measures.bond(y, bitvectors).value >= config.min_bond):
                stack.append((x, y, sids))

    roots = defaultdict(list)
    for k, seq in enumerate(seqs):
        for a, (pos_a, _) in seq.items():
            for b, (pos_b, _) in seq.items():
                if pos_a < pos_b:
                    roots[a, b].append(k)
    for (a, b), sids in roots.items():
        if seu_reached(sids):
            push((a,), (b,), sids)
    found = []
    while stack:
        x, y, sids = stack.pop()
        rule_mask = sum(1 << k for k in sids)
        x_mask, y_mask = side_mask(x), side_mask(y)
        rule = MinedRule(
            antecedent=x,
            consequent=y,
            utility=Fraction(sum(seqs[k][item][1] for k in sids for item in x + y), scale),
            support=len(sids),
            confidence=measures.confidence(rule_mask, x_mask),
            lift=measures.lift(rule_mask, x_mask, y_mask, db.sequence_count),
            bond_antecedent=measures.bond(x, bitvectors).value,
            bond_consequent=measures.bond(y, bitvectors).value,
        )
        if (rule.utility >= config.min_util and rule.confidence >= config.min_conf
                and rule.lift >= config.min_lift):
            found.append(rule)
        left, right = defaultdict(list), defaultdict(list)
        for k in sids:
            seq = seqs[k]
            max_pos_x = max(seq[item][0] for item in x)
            min_pos_y = min(seq[item][0] for item in y)
            for item, (pos, _) in seq.items():
                if pos < min_pos_y and item not in x:
                    left[item].append(k)
                if pos > max_pos_x and item not in y:
                    right[item].append(k)
        if len(x) < cap:
            for item, item_sids in left.items():
                if seu_reached(item_sids):
                    push(tuple(sorted(x + (item,))), y, item_sids)
        if len(y) < cap:
            for item, item_sids in right.items():
                if seu_reached(item_sids):
                    push(x, tuple(sorted(y + (item,))), item_sids)
    return tuple(sorted(found))
