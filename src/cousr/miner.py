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

The search is one loop in :func:`mine` over a stack of generators nested in
it: ``roots`` yields the kept pairs' utility-lists, and ``node`` counts a
node, emits its rule if it qualifies, then yields its children, right (unless
it came from a left expansion) then left; it makes and counts the cuts (s3 to
s7 and the child bound). No function calls itself, so rule size is not bounded
by the interpreter's recursion limit. A direction is gated by
``max_rule_side``, then by the utility-list bounds: the rows' summed
``total`` for right subtrees (strategy 4), ``left_total`` for left ones
(strategy 5). Its candidates are one item mask
(:meth:`cousr.rulecore.UtilityList.candidates`) cut by the pass masks of the
rule-seu table (strategy 7, toggleable) and of the pairwise bond matrix
(strategy 6, toggleable), taken from the tables once before the search;
then, item by item in ascending order, by the exact bond of the extended
side (strategy 3) and the child bound, which
:meth:`~cousr.rulecore.UtilityList.expand` sums over the parent's rows,
building the child's utility-list only when it reaches ``min_util``.
Strategies 6 and 7 are sound, so toggling them never changes the mined rule
set, only the stats: which check cuts a candidate and, where no later check
would, how many utility-lists are built. Confidence gates no descent: a low-confidence
rule can still have high-confidence left descendants, because left
expansions shrink the antecedent's support (see the counterexample in the
test suite).

The pair reduction and the child bound are sound additions outside the
paper's seven strategies, and neither can be toggled; the four variants
differ only in strategies 6 and 7. The pair reduction is sound because each
pair ``a`` in X, ``b`` in Y of a rule has a rule SEU of at least the rule's
utility, so an item in no kept pair is in no qualifying rule. The child
bound follows the left/right expansion-estimated utilities (LEEU/REEU) of
US-Rule (Huang, Gan et al., arXiv 2111.15020); see
:meth:`~cousr.rulecore.UtilityList.expand`.

:func:`mine` holds the row tables (:class:`cousr.rulecore.SequenceTables`
of the filtered database) for its search alone; no function of the search
refers to itself, so they go when it returns, without the cyclic collector.

Threshold comparisons are exact: utilities are compared on the utility
table's integer grid, against ``ceil(min_util * scale)`` computed once per
run; bond is checked by integer cross-multiplication, and confidence and
lift are compared as exact :class:`~fractions.Fraction` values.
Lift is always computed against the sequence count of the database handed to
:func:`mine`, not of the filtered one, since item filtering may drop
sequences.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import asdict, dataclass, replace
from decimal import Decimal
from fractions import Fraction
from itertools import chain, compress
from math import ceil

from . import measures, rulecore
from .measures import MinedRule
from .rulecore import UtilityList
from .seqdb import SequenceDatabase, exact_decimal, exact_text, quote

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
    that is no number) raises :class:`ConfigError`, and so does a ``bool``,
    which ``int`` would read as 0 or 1.
    """
    if isinstance(value, bool):
        raise ConfigError(f"a bool is no threshold, got {_shown(value)}")
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


@dataclass(frozen=True)
class MinerConfig:
    """Thresholds plus strategy toggles.

    ``bond_matrix_prune`` enables strategy 6, ``esucs_prune`` strategy 7;
    both default on (the full algorithm). ``max_rule_side`` caps the item
    count of each rule side. Frozen, so every field stays as checked and
    coerced here; ``dataclasses.replace`` runs the checks again.
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
            object.__setattr__(self, name, value)
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
    """Counters mirroring the pruning strategies (s1..s7) plus build totals,
    each an integer that the inputs and config fix (the caller times a run).

    ``pruned_unpaired`` counts the s1-promising items that the pair
    reduction drops and ``pruned_child_bound`` the candidates the child
    bound cuts; ``initial_rules_kept`` is the number of pairs strategy 2
    keeps. ``utility_list_rows`` counts every utility-list tuple allocated.
    ``row_tables`` counts the sequences whose row table the search filled
    (each one a root touched); with the rows, the tables are most of the
    search's memory.
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
    row_tables: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MiningResult:
    rules: tuple[MinedRule, ...]
    stats: MiningStats


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


def _bond_test(min_bond: Fraction):
    """The bond test of strategies 3 and 6: ``sup / dissup >= min_bond``, by
    integer cross-multiplication."""
    num, den = min_bond.numerator, min_bond.denominator
    return lambda sup, dissup: sup * den >= num * dissup


def _pass_masks(pairs, rank: dict[int, int]) -> dict[int, int]:
    """Per first item ``a`` of the pairs ``(a, b)``, the mask over ``rank`` of its ``b``."""
    masks: dict[int, int] = {}
    for a, b in pairs:
        masks[a] = masks.get(a, 0) | 1 << rank[b]
    return masks


def _bond_passes(co_counts, bitvectors, min_bond: Fraction, rank) -> dict[int, int]:
    """Strategy 6's pass masks: per item, the items whose pair with it has a
    bond of at least ``min_bond``. ``co_counts`` is
    :func:`cousr.rulecore.build_bond_matrix`, read through
    :meth:`~cousr.rulecore.PairTable.entries`: ``(a, b, co)`` with ``a < b``
    and ``co`` the number of sequences holding both, for exactly the
    co-occurring pairs (a count is never 0). A pair's disjunctive support
    is ``sup_a + sup_b - co``."""
    bond_ok = _bond_test(min_bond)
    support = {item: vector.bit_count() for item, vector in bitvectors.items()}
    return _pass_masks(chain.from_iterable(
        ((a, b), (b, a)) for a, b, co in co_counts.entries()
        if bond_ok(co, support[a] + support[b] - co)
    ), rank)


def mine(db: SequenceDatabase, config: MinerConfig) -> MiningResult:
    """Mine the complete set of correlated high-utility sequential rules.

    The result is independent of the strategy-6/7 toggles; the stats are not.

    Every input of the search, the ``node`` generators, is built first,
    from the reduced database and in this order: its item bit vectors, its
    items' dense ranks (:func:`cousr.rulecore.item_ranks`), the pass masks of
    :func:`_pass_masks` over those ranks, and last the row tables, created
    once both pair tables are freed (their entries fill on first use).
    Strategy 7 keys right expansions by the antecedent's last item
    (``s7_right``, the kept pairs ``a => b``) and left ones by the
    consequent's last (``s7_left``, the kept pairs reversed); strategy 6
    (``s6_pass``, :func:`_bond_passes`) keys the last item of the side that
    grows. ``None`` turns a strategy off; at ``min_bond`` 0 strategy 6 is
    off too, as it would cut nothing.
    """
    if not isinstance(config, MinerConfig):
        raise ConfigError(f"expected a MinerConfig, got {type(config).__name__}")
    scale = db.require_utilities().scale
    min_util_grid = ceil(config.min_util * scale)
    stats = MiningStats()

    promising, filtered = filter_unpromising_items(db, min_util_grid)
    stats.promising_items = len(promising)
    stats.pruned_s1 = len(db.item_universe) - len(promising)

    pair_seu = rulecore.scan_rule_pairs(filtered)
    kept = [(a, b) for a, b, _ in pair_seu.entries(min_util_grid)]
    stats.pruned_s2 = len(pair_seu) - len(kept)
    stats.initial_rules_kept = len(kept)
    del pair_seu  # the search needs only the kept pairs; free the table first
    paired = frozenset(chain.from_iterable(kept))
    stats.pruned_unpaired = len(promising) - len(paired)
    filtered = keep_items(filtered, paired)

    bitvectors = measures.build_item_bitvectors(filtered)
    _, rank = rulecore.item_ranks(filtered)
    s6_pass = s7_right = s7_left = None
    # at min_bond 0 strategy 6 passes every candidate: each one shares a
    # sequence with the grown side's last item, so it skips the bond table
    if config.bond_matrix_prune and config.min_bond:
        s6_pass = _bond_passes(rulecore.build_bond_matrix(filtered), bitvectors,
                               config.min_bond, rank)
    if config.esucs_prune:
        s7_right = _pass_masks(kept, rank)
        s7_left = _pass_masks(((b, a) for a, b in kept), rank)
    # created once the bond table is freed, so its columns miss that peak
    tables = rulecore.SequenceTables(filtered)
    bond_ok = _bond_test(config.min_bond)
    cap = config.max_rule_side
    emitted: list[MinedRule] = []

    def node(ul: UtilityList, sids_x: int, sids_y: int, or_x: int, or_y: int,
             left_only: bool):
        """Count the node ``ul`` (the rule ``ul.antecedent => ul.consequent``
        and its rows), emit the rule if it qualifies, then yield its children's
        arguments, right (unless ``left_only``) then left. ``sids_*``/``or_*``
        are the intersection/union masks of the sides (support/disjunctive support)."""
        x, y = ul.antecedent, ul.consequent
        sup_rule = ul.support
        stats.utility_lists_built += 1
        stats.utility_list_rows += sup_rule
        if ul.utility >= min_util_grid:
            sup_x, sup_y = sids_x.bit_count(), sids_y.bit_count()
            confidence = Fraction(sup_rule, sup_x)
            lift = Fraction(db.sequence_count * sup_rule, sup_x * sup_y)
            if confidence >= config.min_conf and lift >= config.min_lift:
                emitted.append(MinedRule(
                    x, y, Fraction(ul.utility, scale), sup_rule, confidence, lift,
                    Fraction(sup_x, or_x.bit_count()), Fraction(sup_y, or_y.bit_count()),
                ))
        for right in (False,) if left_only else (True, False):
            grown, fixed = (y, x) if right else (x, y)
            if cap is not None and len(grown) >= cap:
                continue
            if right and ul.total < min_util_grid:
                stats.pruned_s4 += 1
                continue
            if not right and ul.left_total < min_util_grid:
                stats.pruned_s5 += 1
                continue
            candidates = ul.candidates(right, tables)
            if candidates and s7_right is not None:
                passes = (s7_right if right else s7_left).get(fixed[-1], 0)
                stats.pruned_s7 += (candidates & ~passes).bit_count()
                candidates &= passes
            if candidates and s6_pass is not None:
                passes = s6_pass.get(grown[-1], 0)
                stats.pruned_s6 += (candidates & ~passes).bit_count()
                candidates &= passes
            sids, union = (sids_y, or_y) if right else (sids_x, or_x)
            for item in tables.items_of(candidates):
                vector = bitvectors[item]
                new_sids, new_union = sids & vector, union | vector
                if not bond_ok(new_sids.bit_count(), new_union.bit_count()):
                    stats.pruned_s3 += 1
                    continue
                child = ul.expand(item, right, tables, min_util_grid)
                if child is None:
                    stats.pruned_child_bound += 1
                elif right:
                    yield child, sids_x, new_sids, or_x, new_union, False
                else:
                    yield child, new_sids, sids_y, new_union, or_y, True

    def roots():
        for a, b in kept:
            ul = rulecore.build_utility_list(a, b, tables, sids=bitvectors[a] & bitvectors[b])
            yield ul, bitvectors[a], bitvectors[b], bitvectors[a], bitvectors[b], False

    stack = [roots()]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(node(*child))

    stats.row_tables = sum(sums is not None for sums in tables.sums)
    rules = tuple(sorted(emitted))
    if len({(m.antecedent, m.consequent) for m in rules}) != len(rules):
        raise AssertionError("canonical enumeration produced a duplicate rule")
    return MiningResult(rules=rules, stats=stats)
