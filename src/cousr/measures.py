"""Itemset and rule measures, computed on per-item bit vectors.

Bit vectors index sequences by their number, the position ``k`` (from 0):
bit ``k`` of an item's vector is set iff the item occurs in the ``k``-th
sequence. Vectors are plain Python integers, so intersection/union are
single ``&``/``|`` operations and cardinality is ``int.bit_count()``. Rule
occurrence and rule utility are read straight from each sequence's itemsets
and the grid unit utilities, with no per-sequence cache.

Measures:

* support of an itemset  = cardinality of the AND of its item vectors
* disjunctive support    = cardinality of the OR of its item vectors
* bond                   = support / disjunctive support (local correlation)
* a rule X => Y occurs in a sequence iff every item of X sits in a strictly
  earlier itemset than every item of Y (and all items are present)
* confidence of a rule   = |sids(rule)| / |sids(X)|
* lift of a rule         = (n * |sids(rule)|) / (sup(X) * sup(Y)) for a
  database of n sequences (global correlation)

Zero-denominator confidence/lift raise :class:`UndefinedMeasureError`; the
bond of an itemset whose items are all absent is reported as 0 with
``defined=False`` so callers can prune it rather than crash.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

from .seqdb import Sequence, SequenceDatabase


class UndefinedMeasureError(ValueError):
    """A measure's denominator is zero (e.g. confidence of an absent antecedent)."""


@dataclass(frozen=True)
class Rule:
    """A sequential rule: disjoint, non-empty antecedent and consequent item sets.

    Both sides are stored as strictly ascending tuples of item ids.
    """

    antecedent: tuple[int, ...]
    consequent: tuple[int, ...]

    def __post_init__(self) -> None:
        for name, side in (("antecedent", self.antecedent), ("consequent", self.consequent)):
            if not side:
                raise ValueError(f"rule {name} must be non-empty")
            if any(i < 1 for i in side):
                raise ValueError(f"rule {name} items must be >= 1: {side}")
            if any(a >= b for a, b in zip(side, side[1:])):
                raise ValueError(f"rule {name} must be strictly ascending: {side}")
        if set(self.antecedent) & set(self.consequent):
            raise ValueError("antecedent and consequent must be disjoint")

    @cached_property
    def items(self) -> tuple[int, ...]:
        return tuple(sorted(self.antecedent + self.consequent))

    def __str__(self) -> str:
        left = ",".join(map(str, self.antecedent))
        right = ",".join(map(str, self.consequent))
        return f"{{{left}}}=>{{{right}}}"


class MinedRule(NamedTuple):
    """A rule with all of its reported measures (exact rationals).

    The miner emits these records and the oracle yields them, so the two
    compare directly; records order by (antecedent, consequent) first.
    """

    antecedent: tuple[int, ...]
    consequent: tuple[int, ...]
    utility: Fraction
    support: int
    confidence: Fraction
    lift: Fraction
    bond_antecedent: Fraction
    bond_consequent: Fraction


class BondValue(NamedTuple):
    """Bond of an itemset; ``defined`` is False when every item is absent."""

    value: Fraction
    defined: bool


def build_item_bitvectors(db: SequenceDatabase) -> dict[int, int]:
    """One bit vector per occurring item; bit ``k`` set per containing ``k``-th sequence.

    Each vector is built once from its item's bits: OR-ing one bit per
    occurrence into the vector would copy the growing integer every time.
    """
    sid_bits: defaultdict[int, list[int]] = defaultdict(list)
    items = db.items
    for bit, (start, end) in enumerate(db.occurrence_spans()):
        for item in items[start:end]:
            sid_bits[item].append(bit)
    width = (db.sequence_count + 7) // 8
    vectors: dict[int, int] = {}
    for item, item_bits in sid_bits.items():
        buffer = bytearray(width)
        for bit in item_bits:
            buffer[bit >> 3] |= 1 << (bit & 7)
        vectors[item] = int.from_bytes(buffer, "little")
    return vectors


def itemset_support(items: Iterable[int], bitvectors: dict[int, int]) -> int:
    """Number of sequences containing every item (absent item gives 0)."""
    mask = -1
    for item in items:
        mask &= bitvectors.get(item, 0)
    if mask == -1:
        raise ValueError("support of an empty itemset is undefined")
    return mask.bit_count()


def itemset_dissup(items: Iterable[int], bitvectors: dict[int, int]) -> int:
    """Number of sequences containing at least one of the items."""
    mask = 0
    empty = True
    for item in items:
        mask |= bitvectors.get(item, 0)
        empty = False
    if empty:
        raise ValueError("disjunctive support of an empty itemset is undefined")
    return mask.bit_count()


def bond(items: Iterable[int], bitvectors: dict[int, int]) -> BondValue:
    """Local correlation of an itemset: support over disjunctive support."""
    items = tuple(items)
    dis = itemset_dissup(items, bitvectors)
    if dis == 0:
        return BondValue(Fraction(0), False)
    return BondValue(Fraction(itemset_support(items, bitvectors), dis), True)


def rule_occurs(rule: Rule, seq: Sequence) -> bool:
    """True iff the whole antecedent precedes the whole consequent in ``seq``.

    Walks the itemsets in order, counting the items of each side not met
    yet: a consequent item fails the rule unless the whole antecedent was
    met in earlier itemsets.
    """
    antecedent, consequent = rule.antecedent, rule.consequent
    missing_x, missing_y = len(antecedent), len(consequent)
    for itemset in seq.itemsets:
        earlier_x = missing_x  # antecedent items missing before this itemset
        for item, _ in itemset:
            if item in antecedent:
                missing_x -= 1
            elif item in consequent:
                if earlier_x:
                    return False
                missing_y -= 1
    return not missing_x and not missing_y


def rule_sids(rule: Rule, db: SequenceDatabase) -> int:
    """Bit vector of the sequences supporting the rule."""
    mask = 0
    for index, seq in enumerate(db.sequences):
        if rule_occurs(rule, seq):
            mask |= 1 << index
    return mask


def confidence(rule_mask: int, antecedent_mask: int) -> Fraction:
    """|sids(rule)| / |sids(antecedent)|; undefined when the antecedent never occurs."""
    denom = antecedent_mask.bit_count()
    if denom == 0:
        raise UndefinedMeasureError("confidence undefined: antecedent occurs in no sequence")
    return Fraction(rule_mask.bit_count(), denom)


def lift(rule_mask: int, antecedent_mask: int, consequent_mask: int, sequence_count: int) -> Fraction:
    """Global correlation: (n * sup(rule)) / (sup(X) * sup(Y))."""
    sup_x = antecedent_mask.bit_count()
    sup_y = consequent_mask.bit_count()
    if sup_x == 0 or sup_y == 0:
        raise UndefinedMeasureError("lift undefined: a rule side occurs in no sequence")
    return Fraction(sequence_count * rule_mask.bit_count(), sup_x * sup_y)


def rule_utility(rule: Rule, db: SequenceDatabase) -> Fraction:
    """Sum, over supporting sequences, of the utilities of the rule's items."""
    table = db.require_utilities()
    units, members = table.grid_units, rule.items
    total = sum(
        qty * units[item]
        for seq in db.sequences if rule_occurs(rule, seq)
        for itemset in seq.itemsets for item, qty in itemset if item in members
    )
    return Fraction(total, table.scale)
