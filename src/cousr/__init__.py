"""Correlated high-utility sequential rule mining.

Public surface: the sequence-database data model and parsers
(:mod:`cousr.seqdb`), bitset-backed measures (:mod:`cousr.measures`),
utility-lists and co-occurrence tables (:mod:`cousr.rulecore`), the miner
(:mod:`cousr.miner`), the exhaustive oracle (:mod:`cousr.oracle`), and
seed-deterministic synthetic data (:mod:`cousr.synth`).
"""

from .measures import MinedRule, Rule
from .miner import MinerConfig, MiningResult, MiningStats, mine
from .oracle import enumerate_all_rules, oracle_chusrs
from .seqdb import (
    ParseError,
    Sequence,
    SequenceDatabase,
    UtilityTable,
    load_database,
    parse_database,
    parse_utility_table,
    with_utilities,
)

__version__ = "0.1.0"

__all__ = [
    "MinedRule",
    "MinerConfig",
    "MiningResult",
    "MiningStats",
    "ParseError",
    "Rule",
    "Sequence",
    "SequenceDatabase",
    "UtilityTable",
    "enumerate_all_rules",
    "load_database",
    "mine",
    "oracle_chusrs",
    "parse_database",
    "parse_utility_table",
    "with_utilities",
]
