"""Depth-first miner for correlated high-utility sequential rules.

A rule qualifies when it clears four inclusive thresholds at once: utility
(``min_util``), confidence (``min_conf``), bond of both sides (``min_bond``),
and lift (``min_lift``). The search:

1. drops items whose sequence-estimated utility (SEU) is below ``min_util``
   and rebuilds the database without them (strategy 1);
2. scans once for all occurring 1*1 rules, recording per ordered pair the
   rule SEU (which doubles as the rule-seu pruning table), and keeps the
   pairs with SEU >= ``min_util`` (strategy 2);
3. drops, once, every item that is in no kept pair, with the same masked
   copy as step 1 (the pair reduction);
4. builds the kept pairs' utility-lists and explores expansions depth-first,
   right (consequent) expansions first, then left; a left expansion is never
   followed by a right one, which makes the enumeration canonical.

Candidate expansions are filtered, in order, by the rule-seu table
(strategy 7, toggleable), the pairwise bond matrix (strategy 6, toggleable),
the exact bond of the extended side (strategy 3) and the child's expansion
bound (the child bound). A node's candidates are one item mask
(:meth:`cousr.rulecore.UtilityList.candidates`); strategies 7 and 6
intersect it with per-item pass masks taken from their tables once, before
the search. :meth:`~cousr.rulecore.UtilityList.expand` sums the child
bound over the parent's rows and builds the utility-list, in ascending item
order, only when the bound reaches ``min_util``. Recursion is gated by the
utility-list bounds: the four-column sum for right subtrees (strategy 4) and
the sum without ``rutil`` for left subtrees (strategy 5). Strategies 6 and 7
are sound, so toggling them never changes the mined rule set, only the
number of utility-lists constructed. Confidence gates no recursion: a
low-confidence rule can still have high-confidence left descendants, because
left expansions shrink the antecedent's support (see the counterexample in
the test suite).

The pair reduction and the child bound are sound additions outside the
paper's seven strategies, and neither can be toggled; the four variants
differ only in strategies 6 and 7. The pair reduction is sound because each
pair ``a`` in X, ``b`` in Y of a rule has a rule SEU of at least the rule's
utility, so an item in no kept pair is in no qualifying rule. The child
bound follows the left/right expansion-estimated utilities (LEEU/REEU) of
US-Rule (Huang, Gan et al., arXiv 2111.15020); see
:meth:`~cousr.rulecore.UtilityList.expand`.

The search owns its row tables (:class:`cousr.rulecore.SequenceTables` of
the filtered database), so they go when :func:`mine` returns.

Threshold comparisons are exact: utilities are compared on the utility
table's integer grid, against ``ceil(min_util * scale)`` computed once per
run, and the ratio measures by integer cross-multiplication.
Lift is always computed against the sequence count of the database handed to
:func:`mine`, not of the filtered one, since item filtering may drop
sequences.
"""

from __future__ import annotations

import re
import time
from array import array
from dataclasses import asdict, dataclass, replace
from decimal import Decimal
from fractions import Fraction
from itertools import chain, compress
from math import ceil

from . import measures, rulecore
from .measures import MinedRule, Rule
from .rulecore import UtilityList
from .seqdb import SequenceDatabase, exact_decimal, exact_text, gc_paused, quote

VARIANTS = {
    "base": (False, False),
    "s6": (True, False),
    "s7": (False, True),
    "s6s7": (True, True),
}


# ``p/q`` as Fraction() reads it: a signed numerator over an unsigned denominator
_RATIO = re.compile(r"([+-]?\d+(?:_\d+)*)/(\d+(?:_\d+)*)")


class ConfigError(ValueError):
    """Mining configuration outside its documented ranges."""


def as_fraction(value) -> Fraction:
    """Exact threshold coercion; floats go through their decimal repr.

    Text is a ratio ``p/q`` or a decimal for :func:`cousr.seqdb.exact_decimal`.
    Anything without a finite exact value (``inf``, ``nan``, ``1/0``, a
    decimal exponent beyond +-:data:`cousr.seqdb.MAX_DECIMAL_EXPONENT`, text
    that is no number) raises :class:`ConfigError`.
    """
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    text = repr(value) if isinstance(value, float) else value
    if isinstance(text, str) and "/" in text:
        ratio = _RATIO.fullmatch(text.strip())
        # Decimal reads digits of any length; Fraction(text) stops at
        # sys.int_info.default_max_str_digits
        if ratio and Decimal(ratio[2]):
            return Fraction(Decimal(ratio[1])) / Fraction(Decimal(ratio[2]))
    elif isinstance(text, (str, Decimal)):
        try:
            return exact_decimal(text)
        except ValueError as exc:
            raise ConfigError(
                f"cannot interpret threshold {_shown(value)} as a number: {exc}"
            ) from None
    raise ConfigError(f"cannot interpret threshold {_shown(value)} as a number")


def _shown(value) -> str:
    """``value`` for a message, bounded in length at any size (see :func:`quote`)."""
    if type(value) is int:  # str() of an int stops at sys.int_info.default_max_str_digits
        return quote(exact_text(Fraction(value)))
    return quote(value if isinstance(value, str) else repr(value))


@dataclass
class MinerConfig:
    """Thresholds plus strategy toggles.

    ``bond_matrix_prune`` enables strategy 6, ``esucs_prune`` strategy 7;
    both default on (the full algorithm). ``max_rule_side`` caps the item
    count of each rule side.
    """

    min_util: Fraction = Fraction(0)
    min_conf: Fraction = Fraction(0)
    min_bond: Fraction = Fraction(0)
    min_lift: Fraction = Fraction(0)
    bond_matrix_prune: bool = True
    esucs_prune: bool = True
    max_rule_side: int | None = None

    def __post_init__(self) -> None:
        for name in ("min_util", "min_conf", "min_bond", "min_lift"):
            value = as_fraction(getattr(self, name))
            setattr(self, name, value)
            # every threshold is >= 0; confidence and bond are also <= 1
            ratio = name in ("min_conf", "min_bond")
            if value < 0 or (ratio and value > 1):
                bounds = "in [0, 1]" if ratio else ">= 0"
                raise ConfigError(f"{name} must be {bounds}, got {quote(exact_text(value))}")
        side = self.max_rule_side
        # exactly int: a float would be truncated, and a bool is no size
        if side is not None and (type(side) is not int or side < 1):
            raise ConfigError(f"max_rule_side must be an integer >= 1, got {_shown(side)}")

    @classmethod
    def for_variant(cls, variant: str, **kwargs) -> "MinerConfig":
        try:
            s6, s7 = VARIANTS[variant]
        except KeyError:
            raise ConfigError(
                f"unknown variant {variant!r}; expected one of {', '.join(VARIANTS)}"
            ) from None
        return cls(bond_matrix_prune=s6, esucs_prune=s7, **kwargs)


@dataclass
class MiningStats:
    """Counters mirroring the pruning strategies (s1..s7) plus build totals.

    ``pruned_unpaired`` counts the s1-promising items that the pair
    reduction drops and ``pruned_child_bound`` the candidates the child
    bound cuts; ``initial_rules_kept`` is the number of pairs strategy 2
    keeps. ``utility_list_rows`` counts every utility-list tuple allocated
    and serves as the memory proxy reported by the CLI.
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
    pruned_unpaired: int = 0
    pruned_child_bound: int = 0
    utility_lists_built: int = 0
    utility_list_rows: int = 0
    wall_ms: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MiningResult:
    rules: tuple[MinedRule, ...]
    stats: MiningStats


@dataclass
class RuleContext:
    """A search node: its rule's utility-list and side bit vectors.

    ``sids_x``/``sids_y`` are the intersection masks (itemset support) of the
    antecedent/consequent items; ``sids_or_x``/``sids_or_y`` the union masks
    (disjunctive support).
    """

    ul: UtilityList
    sids_x: int
    sids_y: int
    sids_or_x: int
    sids_or_y: int


def filter_unpromising_items(
    db: SequenceDatabase, min_util_grid: int
) -> tuple[frozenset[int], SequenceDatabase]:
    """Drop items whose SEU is below ``min_util_grid`` (strategy 1).

    The threshold is in grid units of the utility table, as :func:`mine`
    computes it once. The filtered database is :func:`keep_items`' masked
    copy. Returns (promising items, filtered database).
    """
    items = db.items
    seu: dict[int, int] = {}
    for (start, end), su in zip(db.occurrence_spans(), db.grid_sequence_utilities):
        for item in items[start:end]:
            seu[item] = seu.get(item, 0) + su
    promising = frozenset(item for item, value in seu.items() if value >= min_util_grid)
    return promising, keep_items(db, promising)


def keep_items(db: SequenceDatabase, kept: frozenset[int]) -> SequenceDatabase:
    """The database without the occurrences of items outside ``kept``.

    A masked copy of the columns: the other items' occurrences go, then the
    itemsets and sequences they empty; the surviving sequences are numbered
    from 0 again, in order. When ``kept`` holds every item of the database
    the database itself is returned.
    """
    if kept >= db.item_universe:
        return db
    items = db.items
    keep = bytes([item in kept for item in items])
    set_bounds = zip(db.set_starts, db.set_starts[1:])
    kept_per_set = [keep.count(1, start, stop) for start, stop in set_bounds]
    seq_starts, set_starts = array("i", [0]), array("i", [0])
    for first, end in zip(db.seq_starts, db.seq_starts[1:]):
        for count in kept_per_set[first:end]:
            if count:
                set_starts.append(set_starts[-1] + count)
        if len(set_starts) - 1 > seq_starts[-1]:
            seq_starts.append(len(set_starts) - 1)
    return replace(
        db, seq_starts=seq_starts, set_starts=set_starts,
        items=array("i", compress(items, keep)), qtys=array("i", compress(db.qtys, keep)),
    )


class _Search:
    """Mutable search state shared across one mine() run."""

    def __init__(self, db: SequenceDatabase, config: MinerConfig, min_util_grid: int,
                 sequence_count: int, bitvectors, stats: MiningStats):
        self.config = config
        self.min_util_grid = min_util_grid
        self.n = sequence_count
        self.scale = db.require_utilities().scale
        self.bitvectors = bitvectors
        self.tables = rulecore.SequenceTables(db)
        self.stats = stats
        self.emitted: list[MinedRule] = []
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

    # -- node processing --

    def handle(self, ctx: RuleContext, left_only: bool) -> None:
        ul = ctx.ul
        rule = ul.rule
        sup_rule = ul.support
        sup_x = ctx.sids_x.bit_count()
        sup_y = ctx.sids_y.bit_count()
        utility = ul.utility
        if (
            utility >= self.min_util_grid
            and self._conf_ok(sup_rule, sup_x)
            and self._lift_ok(sup_rule, sup_x, sup_y)
        ):
            self.emitted.append(
                MinedRule(
                    antecedent=rule.antecedent,
                    consequent=rule.consequent,
                    utility=Fraction(utility, self.scale),
                    support=sup_rule,
                    confidence=Fraction(sup_rule, sup_x),
                    lift=Fraction(self.n * sup_rule, sup_x * sup_y),
                    bond_antecedent=Fraction(sup_x, ctx.sids_or_x.bit_count()),
                    bond_consequent=Fraction(sup_y, ctx.sids_or_y.bit_count()),
                )
            )
        cap = self.config.max_rule_side
        want_right = False
        if not left_only and (cap is None or len(rule.consequent) < cap):
            if ul.total < self.min_util_grid:
                self.stats.pruned_s4 += 1
            else:
                want_right = True
        want_left = False
        if cap is None or len(rule.antecedent) < cap:
            if ul.left_total < self.min_util_grid:
                self.stats.pruned_s5 += 1
            else:
                want_left = True
        if want_right:
            self.expand(ctx, right=True)
        if want_left:
            self.expand(ctx, right=False)

    def expand(self, ctx: RuleContext, right: bool) -> None:
        parent = ctx.ul
        candidates = parent.candidates(right, self.tables.rank)
        last_x = parent.rule.antecedent[-1]
        last_y = parent.rule.consequent[-1]
        if candidates and self.s7_right is not None:
            passes = self.s7_right.get(last_x, 0) if right else self.s7_left.get(last_y, 0)
            self.stats.pruned_s7 += (candidates & ~passes).bit_count()
            candidates &= passes
        if candidates and self.s6_pass is not None:
            passes = self.s6_pass.get(last_y if right else last_x, 0)
            self.stats.pruned_s6 += (candidates & ~passes).bit_count()
            candidates &= passes
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
                continue
            ul = parent.expand(item, right, self.min_util_grid)
            if ul is None:
                self.stats.pruned_child_bound += 1
                continue
            self.stats.utility_lists_built += 1
            self.stats.utility_list_rows += len(ul.rows)
            if right:
                child = RuleContext(ul, ctx.sids_x, new_side, ctx.sids_or_x, new_or)
            else:
                child = RuleContext(ul, new_side, ctx.sids_y, new_or, ctx.sids_or_y)
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
    min_util_grid = ceil(config.min_util * db.require_utilities().scale)
    started = time.perf_counter()
    stats = MiningStats()
    sequence_count = db.sequence_count

    promising, filtered = filter_unpromising_items(db, min_util_grid)
    stats.promising_items = len(promising)
    stats.pruned_s1 = len(db.item_universe) - len(promising)

    pair_seu = rulecore.scan_rule_pairs(filtered)
    kept = [p for p in sorted(pair_seu) if pair_seu[p] >= min_util_grid]
    stats.pruned_s2 = len(pair_seu) - len(kept)
    stats.initial_rules_kept = len(kept)
    del pair_seu  # the search needs only the kept pairs; free the table first
    paired = frozenset(chain.from_iterable(kept))
    stats.pruned_unpaired = len(promising) - len(paired)
    filtered = keep_items(filtered, paired)

    bitvectors = measures.build_item_bitvectors(filtered)
    search = _Search(filtered, config, min_util_grid, sequence_count, bitvectors, stats)
    if config.bond_matrix_prune:
        search.set_bond_passes(rulecore.build_bond_matrix(filtered))
    if config.esucs_prune:
        search.set_rule_seu_passes(kept)

    for a, b in kept:
        rule = Rule((a,), (b,))
        ul = rulecore.build_utility_list(rule, search.tables, sids=bitvectors[a] & bitvectors[b])
        stats.utility_lists_built += 1
        stats.utility_list_rows += len(ul.rows)
        search.handle(
            RuleContext(ul, bitvectors[a], bitvectors[b], bitvectors[a], bitvectors[b]),
            left_only=False,
        )

    rules = tuple(sorted(search.emitted))
    if len({(m.antecedent, m.consequent) for m in rules}) != len(rules):
        raise AssertionError("canonical enumeration produced a duplicate rule")
    stats.wall_ms = (time.perf_counter() - started) * 1000.0
    return MiningResult(rules=rules, stats=stats)
