"""Exhaustive reference miner: slow, direct, and independent of the fast path.

Every candidate rule over the occurring items is measured straight from the
definitions by per-sequence scans: occurrence is checked by trying every
split point of a sequence (antecedent inside the prefix union of itemsets,
consequent inside the suffix union), supports by set containment, utilities
by summing quantity times unit price, all read from each sequence's
itemsets. No bit vectors, no flat columns, no utility-lists or row tables,
no pruning; only the data model, the measured-rule record
(:class:`cousr.measures.MinedRule`) and the threshold coercion
(:func:`cousr.miner.as_fraction`) are shared with the fast miner, so
agreement between the two is meaningful evidence of correctness.

Enumeration is refused beyond :data:`MAX_ITEMS` occurring items or
:data:`MAX_SEQUENCES` sequences because the candidate count grows as 3^m
for m occurring items.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Iterator, NamedTuple

from .measures import MinedRule
from .miner import as_fraction
from .seqdb import SequenceDatabase


class OracleLimitError(ValueError):
    """Database exceeds the size the exhaustive oracle is willing to process."""


MAX_ITEMS = 12
MAX_SEQUENCES = 16


class _SequenceView(NamedTuple):
    seq_index: int
    items: frozenset[int]
    prefix_unions: tuple[frozenset[int], ...]  # prefix_unions[p] = items of itemsets 1..p
    suffix_unions: tuple[frozenset[int], ...]  # suffix_unions[p] = items of itemsets p+1..l
    item_utilities: dict[int, int]  # in grid units


def _views(db: SequenceDatabase) -> list[_SequenceView]:
    units = db.require_utilities().grid_units
    views = []
    for seq_index, seq in enumerate(db.sequences):
        sets = [frozenset(item for item, _ in itemset) for itemset in seq.itemsets]
        prefixes: list[frozenset[int]] = []
        acc: frozenset[int] = frozenset()
        for s in sets:
            acc |= s
            prefixes.append(acc)
        suffixes: list[frozenset[int]] = [frozenset()] * len(sets)
        tail: frozenset[int] = frozenset()
        for index in range(len(sets) - 1, -1, -1):
            suffixes[index] = tail
            tail |= sets[index]
        utilities = {
            item: qty * units[item] for itemset in seq.itemsets for item, qty in itemset
        }
        views.append(
            _SequenceView(seq_index, acc, tuple(prefixes), tuple(suffixes), utilities)
        )
    return views


def _occurs(antecedent: frozenset[int], consequent: frozenset[int], view: _SequenceView) -> bool:
    # try every split point; the first prefix containing the antecedent is
    # the best chance since suffixes only shrink
    for p in range(len(view.prefix_unions) - 1):
        if antecedent <= view.prefix_unions[p]:
            return consequent <= view.suffix_unions[p]
    return False


def _check_limits(db: SequenceDatabase) -> tuple[int, ...]:
    occurring = tuple(sorted(db.item_universe))
    if len(occurring) > MAX_ITEMS:
        raise OracleLimitError(
            f"{len(occurring)} occurring items exceed the oracle limit of {MAX_ITEMS}"
        )
    if db.sequence_count > MAX_SEQUENCES:
        raise OracleLimitError(
            f"{db.sequence_count} sequences exceed the oracle limit of {MAX_SEQUENCES}"
        )
    return occurring


def enumerate_all_rules(db: SequenceDatabase) -> Iterator[MinedRule]:
    """Measure every ordered pair of disjoint non-empty subsets of occurring items.

    For rules that never occur, confidence and lift are reported as 0 so the
    stream stays total.
    """
    occurring = _check_limits(db)
    views = _views(db)
    n = db.sequence_count
    scale = db.utilities.scale

    @cache
    def containing(itemset: frozenset[int]) -> list[_SequenceView]:
        return [v for v in views if itemset <= v.items]

    @cache
    def dissup(itemset: frozenset[int]) -> int:
        return sum(1 for v in views if itemset & v.items)

    for size in range(2, len(occurring) + 1):
        for union in combinations(occurring, size):
            union_set = frozenset(union)
            candidates = containing(union_set)
            union_utility = {
                v.seq_index: sum(v.item_utilities[item] for item in union) for v in candidates
            }
            for split in range(1, 2 ** size - 1):
                antecedent = tuple(
                    item for index, item in enumerate(union) if split >> index & 1
                )
                consequent = tuple(
                    item for index, item in enumerate(union) if not split >> index & 1
                )
                x_set = frozenset(antecedent)
                y_set = frozenset(consequent)
                supporters = [v for v in candidates if _occurs(x_set, y_set, v)]
                rule_support = len(supporters)
                utility = Fraction(sum(union_utility[v.seq_index] for v in supporters), scale)
                sup_x = len(containing(x_set))
                sup_y = len(containing(y_set))
                conf = Fraction(rule_support, sup_x) if sup_x else Fraction(0)
                lift_value = (
                    Fraction(n * rule_support, sup_x * sup_y)
                    if sup_x and sup_y
                    else Fraction(0)
                )
                yield MinedRule(
                    antecedent=antecedent,
                    consequent=consequent,
                    utility=utility,
                    support=rule_support,
                    confidence=conf,
                    lift=lift_value,
                    bond_antecedent=Fraction(sup_x, dissup(x_set)),
                    bond_consequent=Fraction(sup_y, dissup(y_set)),
                )


def oracle_chusrs(
    db: SequenceDatabase, min_util, min_conf, min_bond, min_lift
) -> tuple[MinedRule, ...]:
    """Every occurring rule that clears all four thresholds, canonically ordered."""
    min_util = as_fraction(min_util)
    min_conf = as_fraction(min_conf)
    min_bond = as_fraction(min_bond)
    min_lift = as_fraction(min_lift)
    kept = [
        rule
        for rule in enumerate_all_rules(db)
        if rule.support >= 1
        and rule.utility >= min_util
        and rule.confidence >= min_conf
        and rule.bond_antecedent >= min_bond
        and rule.bond_consequent >= min_bond
        and rule.lift >= min_lift
    ]
    kept.sort()
    return tuple(kept)
