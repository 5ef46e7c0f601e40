from __future__ import annotations

import gc
import random
import sys
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cousr import (
    MinerConfig,
    Rule,
    load_database,
    mine,
    oracle_chusrs,
    parse_database,
    parse_utility_table,
    rulecore,
    with_utilities,
)
from cousr.measures import bond, build_item_bitvectors, itemset_support
from cousr.miner import (
    VARIANTS,
    ConfigError,
    _bond_passes,
    as_fraction,
    filter_unpromising_items,
)
from cousr.rulecore import (
    SequenceTables,
    build_bond_matrix,
    build_utility_list,
    item_ranks,
    scan_rule_pairs,
)
from cousr.seqdb import Sequence, SequenceDatabase
from cousr.synth import random_small_database, random_thresholds, synthesize_database

from conftest import A, B, C, D, E, F, G, EXAMPLE_DB, EXAMPLE_UT
from reference import pair_values, positions, reference_mine, rule_of, sids_mask, sids_of

GOLDEN_THRESHOLDS = dict(min_util=50, min_conf="0.7", min_bond="0.3", min_lift="1.1")


def rule_keys(result):
    return [(m.antecedent, m.consequent) for m in result.rules]


# -- threshold coercion / config validation -----------------------------------------

def test_as_fraction_is_exact():
    assert as_fraction("0.7") == Fraction(7, 10)
    assert as_fraction(0.7) == Fraction(7, 10)
    assert as_fraction("1e18") == 10**18
    assert as_fraction("2/3") == Fraction(2, 3)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    for bad in ("not-a-number", "inf", "Infinity", "1/0", "nan", float("inf"), "1e999999999"):
        with pytest.raises(ConfigError):
            as_fraction(bad)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(min_util=-1),
        dict(min_conf="1.5"),
        dict(min_conf=-0.1),
        dict(min_bond=2),
        dict(min_lift=-2),
        dict(max_rule_side=0),
        dict(max_rule_side=1.5),
        dict(max_rule_side="2"),
        dict(max_rule_side=True),
    ],
)
def test_config_out_of_range(kwargs):
    with pytest.raises(ConfigError):
        MinerConfig(**kwargs)


@pytest.mark.parametrize("name", ["min_util", "min_conf", "min_bond", "min_lift"])
@pytest.mark.parametrize("flag", [False, True])
def test_bool_threshold_rejected(name, flag):
    # int() reads a bool as 0 or 1; a threshold flag is a caller's mistake
    with pytest.raises(ConfigError, match="a bool is no threshold"):
        MinerConfig(**{name: flag})
    with pytest.raises(ConfigError):
        as_fraction(flag)


@pytest.mark.parametrize(
    "make",
    [
        # -10**5000 has too many digits for str() of an int
        lambda: MinerConfig(max_rule_side=-10**5000),
        lambda: MinerConfig(max_rule_side="9" * 5000),
        lambda: as_fraction("x" * 5000),
    ],
    ids=["huge-negative-side", "long-side-text", "long-threshold-text"],
)
def test_long_config_value_is_quoted_as_an_excerpt(make):
    with pytest.raises(ConfigError) as raised:
        make()
    assert len(str(raised.value)) < 200


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError):
        MinerConfig.for_variant("s8")


def test_config_is_frozen_and_replace_rechecks(example_db):
    # mine() trusts the checked fields: an assignment would skip the checks
    # (min_conf 5 silently mines nothing) and the coercion (a float min_util)
    config = MinerConfig(**GOLDEN_THRESHOLDS)
    for name, value in (("min_conf", 5), ("min_util", 50.00000000000001)):
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, value)
    assert len(mine(example_db, config).rules) == 4
    with pytest.raises(ConfigError):
        replace(config, min_conf=5)
    assert replace(config, min_util=0.5).min_util == Fraction(1, 2)


# -- filter phase --------------------------------------------------------------------

def test_filter_keeps_everything_at_low_threshold(example_db):
    promising, filtered = filter_unpromising_items(example_db, 50)
    assert promising == example_db.item_universe
    assert filtered is example_db
    promising, _ = filter_unpromising_items(example_db, 0)
    assert promising == example_db.item_universe


def test_filter_drops_low_seu_items(example_db):
    # SEU(f) = 28 + 42 = 70 and SEU(c) = 34 + 42 = 76: kept at 50, dropped at 80
    promising, filtered = filter_unpromising_items(example_db, 80)
    assert promising == frozenset({A, B, D, E, G})
    for seq in filtered.sequences:
        assert not {C, F} & positions(seq).keys()
    # no sequence empties, so each keeps its place
    assert filtered.sequence_count == 5
    # dropped items shrink the rewritten sequence utilities
    assert filtered.grid_sequence_utilities[2] == 25  # S3 without f


def test_filter_can_drop_whole_sequences():
    db = with_utilities(
        parse_database("1:1 -1 -2\n2:5 -1 3:5 -1 -2\n"),
        parse_utility_table("1 1\n2 10\n3 10\n"),
    )
    promising, filtered = filter_unpromising_items(db, 10)
    assert promising == frozenset({2, 3})
    # the kept sequence is numbered again from 0
    assert filtered.sequences == (db.sequences[1],)


def test_filter_is_a_masked_copy_of_the_columns():
    # SEU 153 / 254 / 202 / 102: at 200 items 1 and 4 go, and with them
    # all of sequence 3 and the first itemset of sequence 4
    db = with_utilities(
        parse_database("1:1 2:5 -1 3:5 -1 -2\n1:2 2:5 -1 -2\n4:1 -1 -2\n"
                       "4:1 -1 2:5 -1 3:5 -1 -2\n"),
        parse_utility_table("1 1\n2 10\n3 10\n4 1\n"),
    )
    promising, filtered = filter_unpromising_items(db, 200)
    assert promising == frozenset({2, 3})
    assert filtered.sequence_count == 3
    assert list(filtered.seq_starts) == [0, 2, 3, 5]
    assert list(filtered.set_starts) == [0, 1, 2, 3, 4, 5]
    assert list(filtered.items) == [2, 3, 2, 2, 3]
    assert list(filtered.qtys) == [5, 5, 5, 5, 5]
    assert filtered.utilities is db.utilities
    # the filter builds no sequence view of either database
    assert "sequences" not in db.__dict__ and "sequences" not in filtered.__dict__


def test_filter_above_total_utility_empties_db(example_db):
    promising, filtered = filter_unpromising_items(example_db, 10**9)
    assert promising == frozenset()
    assert filtered.sequences == ()


# -- initial 1*1 rules ------------------------------------------------------------------

def initial_rules(db, min_util):
    """The 1*1 rules that survive the rule-SEU cut (strategy 2), as mine() keeps them."""
    threshold = ceil(as_fraction(min_util) * db.utilities.scale)
    return [Rule((a,), (b,)) for (a, b), seu in pair_values(scan_rule_pairs(db)).items()
            if seu >= threshold]


def test_initial_rules_seu_threshold(example_db):
    keys = initial_rules(example_db, 50)
    assert rule_of([A], [B]) in keys  # SEU 62
    keys_63 = initial_rules(example_db, 63)
    assert rule_of([A], [B]) not in keys_63


def test_initial_rules_need_two_itemsets():
    db = with_utilities(
        parse_database("1:1 2:1 3:1 -1 -2\n"), parse_utility_table("1 1\n2 1\n3 1\n")
    )
    assert initial_rules(db, 0) == []


def test_initial_rule_context_e_to_g(example_db):
    # e and g share an itemset in S2, so only S1, S4, S5 support e => g
    assert rule_of([E], [G]) in initial_rules(example_db, 50)
    bitvectors = build_item_bitvectors(example_db)
    ul = build_utility_list(E, G, SequenceTables(example_db), sids=bitvectors[E] & bitvectors[G])
    assert sids_of(sids_mask(ul)) == {1, 4, 5}
    assert ul.support == 3


# -- mining the worked example -------------------------------------------------------------

def test_mine_golden_example(example_db):
    result = mine(example_db, MinerConfig(**GOLDEN_THRESHOLDS))
    assert rule_keys(result) == [
        ((A, B, C, D), (G,)),
        ((A, B, D), (G,)),
        ((A, D), (G,)),
        ((B, D), (G,)),
    ]
    assert [m.utility for m in result.rules] == [55, 74, 54, 53]
    assert all(m.confidence == 1 for m in result.rules)
    assert all(m.lift == Fraction(5, 4) for m in result.rules)
    assert [m.support for m in result.rules] == [2, 4, 4, 4]
    assert [m.bond_antecedent for m in result.rules] == [
        Fraction(2, 5), Fraction(4, 5), Fraction(4, 5), Fraction(4, 5),
    ]
    assert all(m.bond_consequent == 1 for m in result.rules)


def test_high_utility_low_confidence_rule_is_excluded(example_db):
    # u({a,b,d} => {e,g}) = 52 >= 50 but confidence is only 0.5
    result = mine(example_db, MinerConfig(**GOLDEN_THRESHOLDS))
    assert ((A, B, D), (E, G)) not in rule_keys(result)


def test_mine_with_impossible_min_util(example_db):
    result = mine(example_db, MinerConfig(min_util=10**18))
    assert result.rules == ()


def test_mine_requires_utilities():
    db = parse_database("1:1 -1 2:1 -1 -2\n")
    with pytest.raises(ValueError):
        mine(db, MinerConfig())
    with pytest.raises(ValueError):
        scan_rule_pairs(db)


def test_loading_and_mining_leave_the_collector_alone(example_db, monkeypatch):
    # the collector is process-wide: pausing it would pause it for every thread
    config = MinerConfig(**GOLDEN_THRESHOLDS)
    expected = mine(example_db, config).rules

    def toggled():
        raise AssertionError("the cyclic garbage collector was toggled")

    monkeypatch.setattr(gc, "disable", toggled)
    monkeypatch.setattr(gc, "enable", toggled)
    db = load_database(EXAMPLE_DB, EXAMPLE_UT)
    assert mine(db, config).rules == expected != ()


def test_load_and_mine_fill_no_per_sequence_cache(monkeypatch):
    # the mine path reads the flat columns: no layer builds the Sequence
    # view of the loaded or the filtered database, so no per-sequence cache
    # can fill, and the search's row tables are its own. At min_util 50
    # every item is promising, so the filtered database is the caller's; at
    # 80 strategy 1 drops two items and the search runs on a masked copy.
    def no_view(db):
        raise AssertionError("the mine path built the Sequence view")

    def cached_properties(db):
        return db.__dict__.keys() - {f.name for f in fields(SequenceDatabase)}

    monkeypatch.setattr(SequenceDatabase, "sequences", property(no_view))
    db = load_database(EXAMPLE_DB, EXAMPLE_UT)
    assert not cached_properties(db)
    assert filter_unpromising_items(db, 50)[1] is db
    result = mine(db, MinerConfig(**GOLDEN_THRESHOLDS))
    assert len(result.rules) == 4 and result.stats.utility_lists_built > 0
    filtered = mine(db, MinerConfig(**{**GOLDEN_THRESHOLDS, "min_util": 80}))
    assert filtered.stats.pruned_s1 == 2 and filtered.stats.utility_lists_built > 0
    assert cached_properties(db) <= {"item_universe", "grid_sequence_utilities"}


def test_mine_rejects_raw_dict_config(example_db):
    with pytest.raises(ConfigError):
        mine(example_db, {"min_util": 50})


def test_emitted_rules_satisfy_all_thresholds(example_db):
    config = MinerConfig(min_util=20, min_conf="0.5", min_bond="0.4", min_lift="1.0")
    result = mine(example_db, config)
    assert result.rules
    for m in result.rules:
        assert m.utility >= 20
        assert m.confidence >= Fraction(1, 2)
        assert m.bond_antecedent >= Fraction(2, 5)
        assert m.bond_consequent >= Fraction(2, 5)
        assert m.lift >= 1


def test_canonical_output_order_and_uniqueness(example_db):
    result = mine(example_db, MinerConfig())
    keys = rule_keys(result)
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_max_rule_side_caps_expansion(example_db):
    base = MinerConfig(**GOLDEN_THRESHOLDS)
    capped1 = MinerConfig(**GOLDEN_THRESHOLDS, max_rule_side=1)
    capped2 = MinerConfig(**GOLDEN_THRESHOLDS, max_rule_side=2)
    assert mine(example_db, capped1).rules == ()
    assert rule_keys(mine(example_db, capped2)) == [((A, D), (G,)), ((B, D), (G,))]
    assert len(mine(example_db, base).rules) == 4


# -- strategy toggles ------------------------------------------------------------------------

def test_variant_map_covers_all_toggle_combinations():
    assert VARIANTS == {
        "base": (False, False),
        "s6": (True, False),
        "s7": (False, True),
        "s6s7": (True, True),
    }


def variant_rules(db, **thresholds):
    """The distinct rule tuples the four variants mine."""
    return {mine(db, MinerConfig.for_variant(v, **thresholds)).rules for v in VARIANTS}


def test_strategy_toggles_do_not_change_output(example_db):
    assert len(variant_rules(example_db, **GOLDEN_THRESHOLDS)) == 1


def test_strategy_toggles_invariant_on_random_databases():
    for seed in range(25):
        rng = random.Random(seed)
        db = random_small_database(rng)
        thresholds = dict(zip(GOLDEN_THRESHOLDS, random_thresholds(rng, db)))
        assert len(variant_rules(db, **thresholds)) == 1, f"seed {seed}"


def test_no_bond_table_at_min_bond_0(monkeypatch, example_db):
    # every candidate shares a sequence with the grown side's last item, so
    # at min_bond 0 strategy 6 would pass them all
    calls = []

    def counted(db):
        calls.append(db)
        return build_bond_matrix(db)

    monkeypatch.setattr(rulecore, "build_bond_matrix", counted)
    result = mine(example_db, MinerConfig.for_variant("s6s7", min_util=20, min_bond=0))
    assert result.rules and calls == []
    mine(example_db, MinerConfig.for_variant("s6s7", min_util=20, min_bond="1/100"))
    assert len(calls) == 1


def test_s6_at_min_bond_0_equals_base_on_random_databases():
    mined = 0
    for seed in range(40):
        rng = random.Random(seed)
        db = random_small_database(rng)
        thresholds = dict(zip(GOLDEN_THRESHOLDS, random_thresholds(rng, db)), min_bond=0)
        base, s6 = (mine(db, MinerConfig.for_variant(v, **thresholds)) for v in ("base", "s6"))
        assert (s6.rules, s6.stats) == (base.rules, base.stats), f"seed {seed}"
        mined += bool(base.rules)
    assert mined >= 10


@pytest.mark.parametrize("variant", VARIANTS)
def test_mine_builds_no_rule_record(monkeypatch, example_db, variant):
    # the search carries each rule as a utility-list's two item tuples; a
    # Rule is only for rules that come from outside it
    built = []
    check = Rule.__post_init__

    def counted(rule):
        built.append(rule)
        check(rule)

    monkeypatch.setattr(Rule, "__post_init__", counted)
    draws = (
        (example_db, GOLDEN_THRESHOLDS),
        (synthesize_database(300, 50, 6, seed=3),
         dict(min_util=300, min_conf="0.3", min_bond="0.1", min_lift="0")),
    )
    for db, thresholds in draws:
        result = mine(db, MinerConfig.for_variant(variant, **thresholds))
        assert result.rules
        assert result.stats.utility_lists_built > result.stats.initial_rules_kept
    assert built == []


def test_enabling_strategies_never_builds_more_utility_lists(example_db):
    built = {
        variant: mine(example_db, MinerConfig.for_variant(variant, min_util=20, min_bond="0.5"))
        .stats.utility_lists_built
        for variant in VARIANTS
    }
    assert built["s6s7"] <= built["s6"] <= built["base"]
    assert built["s6s7"] <= built["s7"] <= built["base"]


def test_threshold_monotonicity_on_example(example_db):
    sweeps = {
        "min_util": (0, 20, 50, 80, 200),
        "min_conf": ("0", "0.25", "0.5", "0.75", "1"),
        "min_bond": ("0", "0.3", "0.6", "1"),
        "min_lift": ("0", "1", "1.25", "2"),
    }
    for axis, values in sweeps.items():
        got = [set(rule_keys(mine(example_db, MinerConfig(**{axis: v})))) for v in values]
        assert all(later <= earlier for earlier, later in zip(got, got[1:])), axis


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_bond_passes_match_exact_bond(seed):
    rng = random.Random(seed)
    db = random_small_database(rng)
    bitvectors = build_item_bitvectors(db)
    table = build_bond_matrix(db)
    counts = pair_values(table)
    items = sorted(db.item_universe)
    pairs = [(a, b) for i, a in enumerate(items) for b in items[i + 1:]]
    for a, b in pairs:
        co = itemset_support((a, b), bitvectors)
        if co:
            assert counts[(a, b)] == co
        else:
            assert (a, b) not in counts
    assert set(counts) <= set(pairs)
    # thresholds on the boundary: the exact bonds of pairs of the database
    co_pairs = sorted(counts)
    drawn = rng.sample(co_pairs, min(3, len(co_pairs)))
    boundaries = [bond(pair, bitvectors).value for pair in drawn]
    _, rank = item_ranks(db)
    for min_bond in [Fraction(0), Fraction(1), *boundaries]:
        expected = {}
        for a, b in co_pairs:
            if bond((a, b), bitvectors).value >= min_bond:
                expected[a] = expected.get(a, 0) | 1 << rank[b]
                expected[b] = expected.get(b, 0) | 1 << rank[a]
        assert _bond_passes(table, bitvectors, min_bond, rank) == expected


# -- empty sequences (a ``-2`` line) ----------------------------------------------------------

def test_empty_sequences_reach_the_search_and_count_in_lift(monkeypatch):
    # s1, s3 and s6 are empty; at min_util 0 every item is in a kept pair,
    # so the search's row tables are built over the caller's database
    text = "-2\n1:2 -1 2:1 3:1 -1 -2\n-2\n2:1 -1 1:1 -1 3:2 -1 -2\n1:1 -1 3:1 -1 -2\n-2\n"
    db = with_utilities(parse_database(text), parse_utility_table("1 1\n2 3\n3 2\n"))
    assert [len(seq.itemsets) for seq in db.sequences] == [0, 2, 0, 3, 2, 0]
    searched = []

    def tables(filtered):
        searched.append(filtered)
        return SequenceTables(filtered)

    monkeypatch.setattr(rulecore, "SequenceTables", tables)
    config = MinerConfig()
    result = mine(db, config)
    assert len(searched) == 1 and searched[0] is db
    assert result.rules == oracle_chusrs(db, config) == reference_mine(db, config)
    # 1 => 3 holds in s2, s4 and s5, and 1 and 3 are each in those three:
    # lift = 6 * 3 / (3 * 3) over all six sequences
    one_to_three = next(m for m in result.rules if (m.antecedent, m.consequent) == ((1,), (3,)))
    assert one_to_three.support == 3 and one_to_three.lift == 2


def test_empty_sequences_mine_as_the_oracle_and_the_reference():
    rng = random.Random(60_000)
    for draw in range(60):
        drawn = random_small_database(rng)
        sequences = list(drawn.sequences)
        for _ in range(rng.randint(1, 3)):
            sequences.insert(rng.randint(0, len(sequences)), Sequence(()))
        db = SequenceDatabase.from_sequences(sequences, drawn.utilities)
        min_util, *ratios = random_thresholds(rng, db)
        for util in (0, min_util):
            config = MinerConfig(util, *ratios)
            assert mine(db, config).rules == oracle_chusrs(db, config) == reference_mine(
                db, config
            ), f"draw {draw} at min_util {util}"


# -- stats ------------------------------------------------------------------------------------

def test_stats_counters(example_db):
    result = mine(example_db, MinerConfig(min_util=80, min_conf="0.7", min_bond="0.3", min_lift="1.1"))
    stats = result.stats
    assert stats.promising_items == 5  # c (SEU 76) and f (SEU 70) drop at 80
    assert stats.pruned_s1 == 2
    assert stats.utility_lists_built >= stats.initial_rules_kept > 0
    assert stats.utility_list_rows > 0
    payload = stats.as_dict()
    assert payload["pruned_s1"] == 2
    assert all(type(value) is int for value in payload.values())  # no timings
    assert list(payload) == [
        "promising_items", "initial_rules_kept", "pruned_s1", "pruned_s2", "pruned_s3",
        "pruned_s4", "pruned_s5", "pruned_s6", "pruned_s7", "pruned_unpaired",
        "pruned_child_bound", "utility_lists_built", "utility_list_rows", "row_tables",
    ]


def search_counters(variant, max_rule_side=None):
    # the search order fixes every counter; these are the values of the
    # search over the items of the kept pairs, with the child bound
    db = synthesize_database(2000, 200, 8, seed=3)
    config = MinerConfig.for_variant(
        variant, min_util=800, min_conf="0.3", min_bond="0.1", min_lift="0",
        max_rule_side=max_rule_side,
    )
    result = mine(db, config)
    assert len(result.rules) == 26
    stats = result.stats.as_dict()
    return {key: stats[key] for key in S6S7_PINS}


S6S7_PINS = {
    "initial_rules_kept": 1822,
    "pruned_s2": 12959,
    "pruned_s3": 4627,
    "pruned_s4": 774,
    "pruned_s5": 1553,
    "pruned_s6": 83924,
    "pruned_s7": 122818,
    "pruned_unpaired": 8,
    "pruned_child_bound": 5546,
    "utility_lists_built": 3396,
    "utility_list_rows": 53583,
    "row_tables": 1972,
}


def test_search_counters_are_pinned():
    assert search_counters("s6s7") == S6S7_PINS


# every variant builds the same lists, so these per-strategy counters are
# what shows a strategy's masks keyed in the wrong direction
@pytest.mark.parametrize("variant, s3, s6, s7, child_bound", [
    ("base", 207597, 0, 0, 9318),
    ("s6", 5290, 202307, 0, 9318),
    ("s7", 88551, 0, 122818, 5546),
])
def test_search_counters_of_each_variant_are_pinned(variant, s3, s6, s7, child_bound):
    assert search_counters(variant) == {
        **S6S7_PINS, "pruned_s3": s3, "pruned_s6": s6, "pruned_s7": s7,
        "pruned_child_bound": child_bound,
    }


# the side cap comes before strategies 4 and 5: at cap 1 no root is expanded
# or counted as cut, and at cap 2 only the nodes with a side below 2 items are
@pytest.mark.parametrize("cap, s4, s5, s6, s7, child_bound, lists, rows", [
    (1, 0, 0, 0, 0, 0, 1822, 30273),
    (2, 695, 1408, 47473, 86038, 4963, 3258, 52109),
])
def test_search_counters_under_a_side_cap_are_pinned(cap, s4, s5, s6, s7, child_bound,
                                                      lists, rows):
    assert search_counters("s6s7", max_rule_side=cap) == {
        **S6S7_PINS, "pruned_s3": 0, "pruned_s4": s4, "pruned_s5": s5, "pruned_s6": s6,
        "pruned_s7": s7, "pruned_child_bound": child_bound, "utility_lists_built": lists,
        "utility_list_rows": rows,
    }


def test_pair_tables_are_freed_before_the_row_tables_are_built(monkeypatch):
    # the row-table store's columns are allocated after the bond phase's peak:
    # when it is created, both pair tables have been built and dropped
    tables = {}

    def keeping_a_weakref(build):
        def wrapped(db):
            table = build(db)
            tables[build.__name__] = weakref.ref(table)
            return table
        return wrapped

    for name in ("scan_rule_pairs", "build_bond_matrix"):
        monkeypatch.setattr(rulecore, name, keeping_a_weakref(getattr(rulecore, name)))
    freed_at_creation = []

    class Tables(SequenceTables):
        def __init__(self, db):
            freed_at_creation.append({name: ref() is None for name, ref in tables.items()})
            super().__init__(db)

    monkeypatch.setattr(rulecore, "SequenceTables", Tables)
    assert search_counters("s6s7") == S6S7_PINS
    assert freed_at_creation == [{"scan_rule_pairs": True, "build_bond_matrix": True}]


def test_row_tables_are_freed_when_mine_returns(monkeypatch, example_db):
    # no function of the search refers to itself, so mine()'s frame is no
    # reference cycle: its store goes at the return, without the collector
    stores = []

    class Tables(SequenceTables):
        def __init__(self, db):
            super().__init__(db)
            stores.append(weakref.ref(self))

    monkeypatch.setattr(rulecore, "SequenceTables", Tables)
    gc.disable()
    try:
        assert mine(example_db, MinerConfig(min_util=50)).rules
        assert [ref() for ref in stores] == [None]
    finally:
        gc.enable()


def test_rule_size_is_not_bounded_by_the_recursion_limit():
    # every item of the one rule 1 => 2..300 is one search level; the search
    # keeps them on its own stack, not as interpreter frames
    items = range(2, 301)
    text = "1:1 -1 " + " ".join(f"{item}:1" for item in items) + " -1 -2\n"
    table = "".join(f"{item} 1\n" for item in range(1, 301))
    db = with_utilities(parse_database(text), parse_utility_table(table))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        result = mine(db, MinerConfig(min_util=300))
    finally:
        sys.setrecursionlimit(limit)
    assert [(m.antecedent, m.consequent, m.utility) for m in result.rules] == [
        ((1,), tuple(items), 300)
    ]


# -- confidence is not a recursion bound ------------------------------------------------------

def test_rule_behind_low_confidence_root_is_mined():
    # conf({1}=>{2}) = 1/5, yet {1,3}=>{2,4} (right-expand 4, then left-expand
    # 3) has confidence 1: a gate on right recursion below min_conf would lose it
    lines = "\n".join(["1:1 -1 -2"] * 4 + ["1:1 3:1 -1 2:1 4:1 -1 -2"]) + "\n"
    db = with_utilities(parse_database(lines), parse_utility_table("1 1\n2 1\n3 1\n4 1\n"))
    config = MinerConfig(min_util=1, min_conf="0.5", min_bond="0.2", min_lift=1)
    result = mine(db, config)
    assert ((1, 3), (2, 4)) in rule_keys(result)
    assert result.rules == oracle_chusrs(db, config)
