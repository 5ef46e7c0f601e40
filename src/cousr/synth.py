"""Seed-deterministic synthetic sequence databases for benchmarks and fuzzing.

Item picks follow a zipf-like weighting (weight 1/rank), quantities are
uniform on 1..5 and unit utilities uniform on 1..10 unless overridden. The
same seed always produces the same database.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate
from math import inf

from .seqdb import Sequence, SequenceDatabase, UtilityTable


def _pick_distinct(rng: random.Random, population, cum_weights, count: int) -> list[int]:
    # weighted sampling without replacement by rejection; the universe is
    # always much larger than a sequence, so collisions stay cheap
    chosen: dict[int, None] = {}
    attempts = 0
    limit = max(count * 30, 60)
    while len(chosen) < count and attempts < limit:
        item = rng.choices(population, cum_weights=cum_weights)[0]
        chosen.setdefault(item, None)
        attempts += 1
    return list(chosen)


def _split_into_itemsets(rng: random.Random, items: list[int], max_itemset: int):
    rng.shuffle(items)
    itemsets = []
    index = 0
    while index < len(items):
        width = rng.randint(1, max_itemset)
        chunk = items[index:index + width]
        itemsets.append(tuple(sorted((item, rng.randint(1, 5)) for item in chunk)))
        index += width
    return tuple(itemsets)


def synthesize_database(
    n_sequences: int,
    n_items: int,
    avg_len: float,
    seed: int,
    *,
    max_itemset: int = 3,
    max_unit_utility: int = 10,
) -> SequenceDatabase:
    """A database of ``n_sequences`` sequences over ``n_items`` items."""
    if n_sequences < 1 or n_items < 1 or not 1 <= avg_len < inf:
        raise ValueError("n_sequences, n_items and avg_len must all be >= 1, avg_len finite")
    rng = random.Random(seed)
    population = list(range(1, n_items + 1))
    cum_weights = list(accumulate(1.0 / rank for rank in population))
    sequences = []
    for _ in range(n_sequences):
        length = max(1, min(n_items, round(rng.gauss(avg_len, avg_len / 3.0))))
        items = _pick_distinct(rng, population, cum_weights, length)
        sequences.append(Sequence(_split_into_itemsets(rng, items, max_itemset)))
    table = UtilityTable(
        entries={item: Fraction(rng.randint(1, max_unit_utility)) for item in population}
    )
    return SequenceDatabase.from_sequences(sequences, table)


def random_small_database(
    rng: random.Random,
    *,
    max_sequences: int = 8,
    max_items: int = 8,
) -> SequenceDatabase:
    """A tiny random database within the exhaustive oracle's comfort zone.

    One run in four uses decimal unit utilities to exercise the non-integer
    utility grid. Independently, one run in four gives each item a unit
    utility of 0 with probability one half, so that some sequences are worth
    0 and their pairs occur with a rule SEU of 0.
    """
    n_items = rng.randint(3, max_items)
    population = list(range(1, n_items + 1))
    cum_weights = list(accumulate(1.0 / rank for rank in population))
    sequences = []
    for _ in range(rng.randint(2, max_sequences)):
        length = rng.randint(1, n_items)
        items = _pick_distinct(rng, population, cum_weights, length)
        sequences.append(Sequence(_split_into_itemsets(rng, items, 3)))
    if rng.random() < 0.25:
        entries = {item: Fraction(rng.randint(1, 40), 10) for item in population}
    else:
        entries = {item: Fraction(rng.randint(1, 10)) for item in population}
    if rng.random() < 0.25:
        entries.update((item, Fraction(0)) for item in population if rng.random() < 0.5)
    return SequenceDatabase.from_sequences(sequences, UtilityTable(entries=entries))


def random_thresholds(rng: random.Random, db: SequenceDatabase):
    """Exact-rational thresholds scaled to the database's total utility.

    Coarse grids make threshold ties (inclusive boundaries) likely, which is
    exactly where the miner and the oracle are most likely to disagree.
    """
    scale = db.require_utilities().scale
    total = Fraction(sum(db.grid_sequence_utilities), scale)
    min_util = total * Fraction(rng.randint(0, 35), 100)
    min_conf = Fraction(rng.randint(0, 4), 4)
    min_bond = Fraction(rng.randint(0, 4), 4)
    min_lift = Fraction(rng.choice([0, 50, 100, 110, 125, 200]), 100)
    return min_util, min_conf, min_bond, min_lift
