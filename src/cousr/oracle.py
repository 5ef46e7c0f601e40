"""Exhaustive reference miner: slow, direct, and independent of the fast path.

Every rule over the occurring items that occurs in at least one sequence is
measured straight from the definitions by per-sequence scans: occurrence is
checked by trying every split point of a sequence (antecedent inside the
prefix union of itemsets, consequent inside the suffix union), supports by
set containment, utilities by summing quantity times unit price, all read
from each sequence's itemsets. No bit vectors, no flat columns, no
utility-lists or row tables, no pruning; only the data model, the
measured-rule record (:class:`cousr.measures.MinedRule`) and the
configuration (:class:`cousr.miner.MinerConfig`, whose thresholds are
already exact and range-checked) are shared with the fast miner, so
agreement between the two is meaningful evidence of correctness.

Enumeration is refused beyond :data:`MAX_ITEMS` occurring items or
:data:`MAX_SEQUENCES` sequences because the candidate count grows as 3^m
for m occurring items.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from typing import Iterator, NamedTuple

from .measures import MinedRule
from .miner import MinerConfig
from .seqdb import SequenceDatabase


class OracleLimitError(ValueError):
    """Database exceeds the size the exhaustive oracle is willing to process."""


MAX_ITEMS = 12
MAX_SEQUENCES = 16


class _SequenceView(NamedTuple):
    items: frozenset[int]
    prefix_unions: tuple[frozenset[int], ...]  # prefix_unions[p] = items of itemsets 1..p
    suffix_unions: tuple[frozenset[int], ...]  # suffix_unions[p] = items of itemsets p+1..l
    item_utilities: dict[int, int]  # in grid units


def _views(db: SequenceDatabase) -> list[_SequenceView]:
    units = db.require_utilities().grid_units
    views = []
    for seq in db.sequences:
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
        views.append(_SequenceView(acc, tuple(prefixes), tuple(suffixes), utilities))
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
    """Measure every rule ``X => Y`` (disjoint non-empty sets of occurring
    items) that occurs in at least one sequence."""
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
            candidates = containing(frozenset(union))
            if not candidates:
                continue
            # each candidate with the union's utility in it
            holders = [(v, sum(v.item_utilities[item] for item in union)) for v in candidates]
            for antecedent in chain.from_iterable(combinations(union, k) for k in range(1, size)):
                x_set = frozenset(antecedent)
                consequent = tuple(item for item in union if item not in x_set)
                y_set = frozenset(consequent)
                supported = [u for v, u in holders if _occurs(x_set, y_set, v)]
                if not supported:
                    continue
                rule_support = len(supported)
                sup_x = len(containing(x_set))
                sup_y = len(containing(y_set))
                yield MinedRule(
                    antecedent=antecedent,
                    consequent=consequent,
                    utility=Fraction(sum(supported), scale),
                    support=rule_support,
                    confidence=Fraction(rule_support, sup_x),
                    lift=Fraction(n * rule_support, sup_x * sup_y),
                    bond_antecedent=Fraction(sup_x, dissup(x_set)),
                    bond_consequent=Fraction(sup_y, dissup(y_set)),
                )


def oracle_chusrs(db: SequenceDatabase, config: MinerConfig) -> tuple[MinedRule, ...]:
    """Every occurring rule that clears ``config``'s four thresholds and side
    cap, canonically ordered: the rules :func:`cousr.miner.mine` must return.

    The strategy toggles are ignored; they cannot change the rule set.
    """
    cap = config.max_rule_side or MAX_ITEMS
    return tuple(sorted(
        rule
        for rule in enumerate_all_rules(db)
        if rule.utility >= config.min_util
        and rule.confidence >= config.min_conf
        and rule.bond_antecedent >= config.min_bond
        and rule.bond_consequent >= config.min_bond
        and rule.lift >= config.min_lift
        and len(rule.antecedent) <= cap
        and len(rule.consequent) <= cap
    ))
