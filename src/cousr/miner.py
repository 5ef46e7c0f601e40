"""Depth-first miner for correlated high-utility sequential rules.

A rule qualifies when it clears four inclusive thresholds at once: utility
(``min_util``), confidence (``min_conf``), bond of both sides (``min_bond``),
and lift (``min_lift``). The search:

1. drops items whose sequence-estimated utility (SEU) is below ``min_util``
   and rebuilds the database without them (strategy 1);
2. scans once for all occurring 1*1 rules, recording per ordered pair the
   rule SEU (which doubles as the rule-seu pruning table), and keeps the
   pairs with SEU >= ``min_util`` (strategy 2);
3. builds those rules' utility-lists and explores expansions depth-first,
   right (consequent) expansions first, then left; a left expansion is never
   followed by a right one, which makes the enumeration canonical.

Candidate expansions are filtered, in order, by the rule-seu table
(strategy 7, toggleable), the pairwise bond matrix (strategy 6, toggleable),
and the exact bond of the extended side (strategy 3). A node's candidates
are one item mask (see :class:`cousr.rulecore.Expansion`); strategies 7 and 6
intersect it with per-item pass masks taken from their tables once, before
the search, and only the survivors of strategy 3 get utility-lists, built in
ascending item order. Recursion is gated by the utility-list bounds: the
four-column sum for right subtrees (strategy 4) and the sum without
``rutil`` for left subtrees (strategy 5). Strategies 6 and 7 are sound, so
toggling them never changes the mined rule set, only the number of
utility-lists constructed. Confidence gates no recursion: a low-confidence
rule can still have high-confidence left descendants, because left
expansions shrink the antecedent's support (see the counterexample in the
test suite).

The search owns its row tables (:class:`cousr.rulecore.SequenceTables` of
the filtered database), so they go when :func:`mine` returns.

Threshold comparisons are exact: utilities are compared on the utility
table's integer grid and the ratio measures by integer cross-multiplication.
Lift is always computed against the sequence count of the database handed to
:func:`mine`, not of the filtered one, since item filtering may drop
sequences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal
from fractions import Fraction
from math import ceil
from typing import NamedTuple

from . import measures, rulecore
from .measures import MinedRule, Rule
from .rulecore import UtilityList
from .seqdb import Sequence, SequenceDatabase, gc_paused

VARIANTS = {
    "base": (False, False),
    "s6": (True, False),
    "s7": (False, True),
    "s6s7": (True, True),
}


class ConfigError(ValueError):
    """Mining configuration outside its documented ranges."""


def as_fraction(value) -> Fraction:
    """Exact threshold coercion; floats go through their decimal repr.

    Anything without a finite exact value (``inf``, ``nan``, ``1/0``, text
    that is no number) raises :class:`ConfigError`.
    """
    if isinstance(value, Fraction):
        return value
    number = repr(value) if isinstance(value, float) else value
    try:
        if isinstance(number, str):
            try:
                return Fraction(number)
            except ValueError:
                number = Decimal(number)
        if isinstance(number, (int, Decimal)):
            return Fraction(number)
    except (ArithmeticError, ValueError):  # decimal's InvalidOperation is an ArithmeticError
        pass
    raise ConfigError(f"cannot interpret threshold {value!r} as a number")


@dataclass
class MinerConfig:
    """Thresholds plus strategy toggles.

    ``bond_matrix_prune`` enables strategy 6, ``esucs_prune`` strategy 7;
    both default on (the full algorithm). ``max_rule_side`` caps the item
    count of each rule side. ``record_prune_events`` keeps a log of every
    pruned subtree root for soundness audits (testing only).
    """

    min_util: Fraction = Fraction(0)
    min_conf: Fraction = Fraction(0)
    min_bond: Fraction = Fraction(0)
    min_lift: Fraction = Fraction(0)
    bond_matrix_prune: bool = True
    esucs_prune: bool = True
    max_rule_side: int | None = None
    record_prune_events: bool = False

    def __post_init__(self) -> None:
        self.min_util = as_fraction(self.min_util)
        self.min_conf = as_fraction(self.min_conf)
        self.min_bond = as_fraction(self.min_bond)
        self.min_lift = as_fraction(self.min_lift)
        if self.min_util < 0:
            raise ConfigError(f"min_util must be >= 0, got {self.min_util}")
        if not 0 <= self.min_conf <= 1:
            raise ConfigError(f"min_conf must be in [0, 1], got {self.min_conf}")
        if not 0 <= self.min_bond <= 1:
            raise ConfigError(f"min_bond must be in [0, 1], got {self.min_bond}")
        if self.min_lift < 0:
            raise ConfigError(f"min_lift must be >= 0, got {self.min_lift}")
        if self.max_rule_side is not None and self.max_rule_side < 1:
            raise ConfigError(f"max_rule_side must be >= 1, got {self.max_rule_side}")

    @classmethod
    def for_variant(cls, variant: str, **kwargs) -> "MinerConfig":
        try:
            s6, s7 = VARIANTS[variant]
        except KeyError:
            raise ConfigError(
                f"unknown variant {variant!r}; expected one of {', '.join(VARIANTS)}"
            ) from None
        return cls(bond_matrix_prune=s6, esucs_prune=s7, **kwargs)


class PruneEvent(NamedTuple):
    """A pruned subtree root: what was cut and by which strategy.

    Kinds: ``s1`` (item; antecedent holds the item), ``s2`` (1*1 rule and
    all expansions), ``s3/s6/s7-right`` (candidate rule plus all its
    expansions), ``s3/s6/s7-left`` (candidate rule plus left expansions),
    ``s4`` (right subtree of the rule), ``s5`` (left subtree).
    """

    kind: str
    antecedent: tuple[int, ...]
    consequent: tuple[int, ...]


@dataclass
class MiningStats:
    """Counters mirroring the pruning strategies (s1..s7) plus build totals.

    ``utility_list_rows`` counts every utility-list tuple allocated and
    serves as the memory proxy reported by the CLI.
    """

    promising_items: int = 0
    initial_rules_kept: int = 0
    pruned_s1: int = 0
    pruned_s2: int = 0
    pruned_s3: int = 0
    pruned_s4: int = 0
    pruned_s5: int = 0
    pruned_s6: int = 0
    pruned_s7: int = 0
    utility_lists_built: int = 0
    utility_list_rows: int = 0
    wall_ms: float = 0.0
    prune_events: list[PruneEvent] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "prune_events"}


@dataclass(frozen=True)
class MiningResult:
    rules: tuple[MinedRule, ...]
    stats: MiningStats


@dataclass
class RuleContext:
    """A search node: the rule, its utility-list, and its side bit vectors.

    ``sids_x``/``sids_y`` are the intersection masks (itemset support) of the
    antecedent/consequent items; ``sids_or_x``/``sids_or_y`` the union masks
    (disjunctive support).
    """

    rule: Rule
    ul: UtilityList
    sids_x: int
    sids_y: int
    sids_or_x: int
    sids_or_y: int


def filter_unpromising_items(
    db: SequenceDatabase, min_util
) -> tuple[frozenset[int], SequenceDatabase]:
    """Drop items whose SEU is below the threshold (strategy 1).

    Emptied itemsets and sequences are dropped too; surviving sequences keep
    their original sids. Itemsets are shared immutable tuples: one that
    loses no item is the input's own, and equal pruned ones are one tuple.
    Returns (promising items, filtered database).
    """
    table = db.require_utilities()
    threshold = ceil(as_fraction(min_util) * table.scale)
    seu: dict[int, int] = {}
    for seq, su in zip(db.sequences, db.grid_sequence_utilities):
        for itemset in seq.itemsets:
            for item, _ in itemset:
                seu[item] = seu.get(item, 0) + su
    promising = frozenset(item for item, value in seu.items() if value >= threshold)
    if len(promising) == len(seu):
        return promising, db
    kept: list[Sequence] = []
    shared: dict[tuple, tuple] = {}
    for seq in db.sequences:
        itemsets = tuple(
            itemset if len(pruned) == len(itemset) else shared.setdefault(pruned, pruned)
            for itemset in seq.itemsets
            if (pruned := tuple(pair for pair in itemset if pair[0] in promising))
        )
        if itemsets:
            kept.append(Sequence._trusted(seq.sid, itemsets))
    return promising, replace(db, sequences=tuple(kept))


class _Search:
    """Mutable search state shared across one mine() run."""

    def __init__(self, db: SequenceDatabase, config: MinerConfig, sequence_count: int,
                 bitvectors, stats: MiningStats):
        self.config = config
        self.n = sequence_count
        self.scale = db.require_utilities().scale
        self.bitvectors = bitvectors
        self.tables = rulecore.SequenceTables(db)
        self.stats = stats
        self.emitted: list[MinedRule] = []
        self.min_util_grid = ceil(config.min_util * self.scale)
        self.conf_num = config.min_conf.numerator
        self.conf_den = config.min_conf.denominator
        self.bond_num = config.min_bond.numerator
        self.bond_den = config.min_bond.denominator
        self.lift_num = config.min_lift.numerator
        self.lift_den = config.min_lift.denominator
        # pass masks, per anchor item: strategy 7 for right expansions keys
        # the antecedent's last item, for left ones the consequent's last;
        # strategy 6 keys the last item of the side that grows
        self.s7_right: dict[int, int] | None = None
        self.s7_left: dict[int, int] | None = None
        self.s6_pass: dict[int, int] | None = None

    def set_rule_seu_passes(self, kept_pairs) -> None:
        """Strategy 7: the pairs whose rule SEU reaches ``min_util``."""
        rank = self.tables.rank
        self.s7_right, self.s7_left = {}, {}
        for a, b in kept_pairs:
            self.s7_right[a] = self.s7_right.get(a, 0) | 1 << rank[b]
            self.s7_left[b] = self.s7_left.get(b, 0) | 1 << rank[a]

    def set_bond_passes(self, co_counts) -> None:
        """Strategy 6: the unordered pairs whose bond reaches ``min_bond``.

        ``co_counts`` maps each co-occurring pair to the number of sequences
        holding both items; the pair's disjunctive support is
        ``sup_a + sup_b - co``.
        """
        rank = self.tables.rank
        support = {item: vector.bit_count() for item, vector in self.bitvectors.items()}
        passes: dict[int, int] = {}
        for (a, b), co in co_counts.items():
            if self._bond_ok(co, support[a] + support[b] - co):
                passes[a] = passes.get(a, 0) | 1 << rank[b]
                passes[b] = passes.get(b, 0) | 1 << rank[a]
        self.s6_pass = passes

    # -- threshold checks (exact integer arithmetic) --

    def _conf_ok(self, sup_rule: int, sup_x: int) -> bool:
        return sup_rule * self.conf_den >= self.conf_num * sup_x

    def _lift_ok(self, sup_rule: int, sup_x: int, sup_y: int) -> bool:
        return self.n * sup_rule * self.lift_den >= self.lift_num * sup_x * sup_y

    def _bond_ok(self, sup: int, dissup: int) -> bool:
        return sup * self.bond_den >= self.bond_num * dissup

    def _record(self, kind: str, rule: Rule) -> None:
        if self.config.record_prune_events:
            self.stats.prune_events.append(PruneEvent(kind, rule.antecedent, rule.consequent))

    # -- node processing --

    def handle(self, ctx: RuleContext, left_only: bool) -> None:
        ul = ctx.ul
        sup_rule = ul.support
        sup_x = ctx.sids_x.bit_count()
        sup_y = ctx.sids_y.bit_count()
        if (
            ul.utility >= self.min_util_grid
            and self._conf_ok(sup_rule, sup_x)
            and self._lift_ok(sup_rule, sup_x, sup_y)
        ):
            self.emitted.append(
                MinedRule(
                    antecedent=ctx.rule.antecedent,
                    consequent=ctx.rule.consequent,
                    utility=Fraction(ul.utility, self.scale),
                    support=sup_rule,
                    confidence=Fraction(sup_rule, sup_x),
                    lift=Fraction(self.n * sup_rule, sup_x * sup_y),
                    bond_antecedent=Fraction(sup_x, ctx.sids_or_x.bit_count()),
                    bond_consequent=Fraction(sup_y, ctx.sids_or_y.bit_count()),
                )
            )
        cap = self.config.max_rule_side
        want_right = False
        if not left_only and (cap is None or len(ctx.rule.consequent) < cap):
            if ul.total < self.min_util_grid:
                self.stats.pruned_s4 += 1
                self._record("s4", ctx.rule)
            else:
                want_right = True
        want_left = False
        if cap is None or len(ctx.rule.antecedent) < cap:
            if ul.left_total < self.min_util_grid:
                self.stats.pruned_s5 += 1
                self._record("s5", ctx.rule)
            else:
                want_left = True
        if want_right:
            self.expand(ctx, "right")
        if want_left:
            self.expand(ctx, "left")

    def _cut(self, candidates: int, passes: int, strategy: str, rule: Rule, direction: str):
        """Keep the candidates in ``passes``; returns (kept, number cut)."""
        cut = candidates & ~passes
        if cut and self.config.record_prune_events:
            for item in self.tables.items_of(cut):
                self._record(f"{strategy}-{direction}",
                             rulecore.expanded_rule(rule, item, direction))
        return candidates & passes, cut.bit_count()

    def expand(self, ctx: RuleContext, direction: str) -> None:
        right = direction == "right"
        recording = self.config.record_prune_events
        expansion = rulecore.Expansion(ctx.ul, direction, self.tables)
        candidates = expansion.candidates
        last_x = ctx.rule.antecedent[-1]
        last_y = ctx.rule.consequent[-1]
        if candidates and self.s7_right is not None:
            passes = self.s7_right.get(last_x, 0) if right else self.s7_left.get(last_y, 0)
            candidates, cut = self._cut(candidates, passes, "s7", ctx.rule, direction)
            self.stats.pruned_s7 += cut
        if candidates and self.s6_pass is not None:
            passes = self.s6_pass.get(last_y if right else last_x, 0)
            candidates, cut = self._cut(candidates, passes, "s6", ctx.rule, direction)
            self.stats.pruned_s6 += cut
        for item in self.tables.items_of(candidates):
            vector = self.bitvectors[item]
            if right:
                new_side = ctx.sids_y & vector
                new_or = ctx.sids_or_y | vector
            else:
                new_side = ctx.sids_x & vector
                new_or = ctx.sids_or_x | vector
            if not self._bond_ok(new_side.bit_count(), new_or.bit_count()):
                self.stats.pruned_s3 += 1
                if recording:
                    self._record(f"s3-{direction}",
                                 rulecore.expanded_rule(ctx.rule, item, direction))
                continue
            new_rows = expansion.rows(item)
            new_rule = rulecore.expanded_rule(ctx.rule, item, direction)
            ul = UtilityList(rule=new_rule, rows=tuple(new_rows))
            self.stats.utility_lists_built += 1
            self.stats.utility_list_rows += len(new_rows)
            if right:
                child = RuleContext(new_rule, ul, ctx.sids_x, new_side, ctx.sids_or_x, new_or)
            else:
                child = RuleContext(new_rule, ul, new_side, ctx.sids_y, new_or, ctx.sids_or_y)
            self.handle(child, left_only=not right)


def mine(db: SequenceDatabase, config: MinerConfig) -> MiningResult:
    """Mine the complete set of correlated high-utility sequential rules.

    The result is independent of the strategy-6/7 toggles; the stats are not.
    The cyclic garbage collector is paused while mining and restored to the
    caller's state on return or error (see :func:`cousr.seqdb.gc_paused`).
    """
    with gc_paused():
        return _mine(db, config)


def _mine(db: SequenceDatabase, config: MinerConfig) -> MiningResult:
    if not isinstance(config, MinerConfig):
        raise ConfigError(f"expected a MinerConfig, got {type(config).__name__}")
    db.require_utilities()
    started = time.perf_counter()
    stats = MiningStats()
    sequence_count = db.sequence_count

    promising, filtered = filter_unpromising_items(db, config.min_util)
    stats.promising_items = len(promising)
    stats.pruned_s1 = len(db.item_universe) - len(promising)
    if config.record_prune_events:
        for item in sorted(db.item_universe - promising):
            stats.prune_events.append(PruneEvent("s1", (item,), ()))

    bitvectors = measures.build_item_bitvectors(filtered)
    search = _Search(filtered, config, sequence_count, bitvectors, stats)
    if config.bond_matrix_prune:
        search.set_bond_passes(rulecore.build_bond_matrix(filtered))
    pair_seu = rulecore.scan_rule_pairs(filtered)
    kept = []
    for (a, b) in sorted(pair_seu):
        if pair_seu[(a, b)] < search.min_util_grid:
            stats.pruned_s2 += 1
            if config.record_prune_events:
                stats.prune_events.append(PruneEvent("s2", (a,), (b,)))
            continue
        kept.append((a, b))
    del pair_seu  # the search needs only the kept pairs; free the table first
    if config.esucs_prune:
        search.set_rule_seu_passes(kept)
    stats.initial_rules_kept = len(kept)

    for a, b in kept:
        rule = Rule((a,), (b,))
        ul = rulecore.build_utility_list(rule, search.tables, sids=bitvectors[a] & bitvectors[b])
        stats.utility_lists_built += 1
        stats.utility_list_rows += len(ul.rows)
        search.handle(
            RuleContext(rule, ul, bitvectors[a], bitvectors[b], bitvectors[a], bitvectors[b]),
            left_only=False,
        )

    rules = tuple(sorted(search.emitted))
    if len({(m.antecedent, m.consequent) for m in rules}) != len(rules):
        raise AssertionError("canonical enumeration produced a duplicate rule")
    stats.wall_ms = (time.perf_counter() - started) * 1000.0
    return MiningResult(rules=rules, stats=stats)
