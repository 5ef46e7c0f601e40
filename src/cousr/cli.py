"""Command-line surface: ``mine``, ``verify`` (oracle equivalence), ``bench``.

A run record is the JSON that ``mine --report`` writes for one ``mine()``
run; ``bench`` writes one record per line, one line per (variant,
``min_util``) point. Outputs are machine-readable and deterministic given the
inputs and flags, except for each record's ``timing`` and ``peak_rss_bytes``.

Exit codes: 0 success, 1 verification mismatch, 2 input parse or I/O error
(such as an unwritable ``--out``), 3 configuration error (such as an output
path that names an input or another output), 4 oracle limits exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import synth
from .miner import VARIANTS, ConfigError, MinerConfig, MiningResult, as_fraction, mine
from .oracle import OracleLimitError, oracle_chusrs
from .seqdb import ParseError, SequenceDatabase, decimal_text, exact_text, load_database, quote

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_LIMITS = 4

RULES_HEADER = "antecedent;consequent;utility;support;confidence;lift;bond_x;bond_y"


def format_fraction(value: Fraction) -> str:
    """Decimal rendering rounded half-even to 6 fractional digits, trailing zeros trimmed."""
    return decimal_text(value, 6)


def rules_csv_text(result: MiningResult) -> str:
    lines = [RULES_HEADER]
    for mined in result.rules:
        lines.append(
            ";".join(
                (
                    ",".join(map(str, mined.antecedent)),
                    ",".join(map(str, mined.consequent)),
                    format_fraction(mined.utility),
                    str(mined.support),
                    format_fraction(mined.confidence),
                    format_fraction(mined.lift),
                    format_fraction(mined.bond_antecedent),
                    format_fraction(mined.bond_consequent),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary sibling, which is removed if the write fails."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _peak_rss_bytes() -> int | None:
    """High-water mark of this process's resident set.

    ``VmHWM`` belongs to the address space, which ``exec`` replaces; the
    fallback ``ru_maxrss`` survives ``exec``, so in a child of a large
    process it reports the parent's resident set instead of the child's.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # macOS reports ru_maxrss in bytes, Linux in KiB
    return peak if sys.platform == "darwin" else peak * 1024


def _mine_record(db: SequenceDatabase, config: MinerConfig, variant: str) -> tuple[MiningResult, dict]:
    """``mine(db, config)`` and its run record, timed around ``mine()``; all
    but ``timing`` and ``peak_rss_bytes`` is deterministic."""
    started = time.perf_counter()
    result = mine(db, config)
    wall_ms = (time.perf_counter() - started) * 1000.0
    return result, {
        "config": {
            "min_util": exact_text(config.min_util),
            "min_conf": exact_text(config.min_conf),
            "min_bond": exact_text(config.min_bond),
            "min_lift": exact_text(config.min_lift),
            "variant": variant,
            "max_rule_side": config.max_rule_side,
        },
        "rule_count": len(result.rules),
        "stats": result.stats.as_dict(),
        "timing": {"wall_ms": wall_ms},
        "peak_rss_bytes": _peak_rss_bytes(),
    }


def _as_int(text, flag: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{flag} must be an integer, got {quote(str(text))}") from None


def _refuse_overwrites(args, outputs: tuple[str, ...]) -> None:
    """Refuse an output flag whose path, after ``Path.resolve()``, names an
    input (``--db``, ``--utils``) or an earlier output, before anything is
    read or written."""
    seen: dict[Path, str] = {}
    for flag in ("--db", "--utils", *outputs):
        value = getattr(args, flag[2:])
        if not value:
            continue
        path = Path(value).resolve()
        if path in seen and flag in outputs:
            raise ConfigError(f"{flag} {quote(value)} names the same file as {seen[path]}")
        seen.setdefault(path, flag)


def _load(args) -> SequenceDatabase:
    if not args.db or not args.utils:
        raise ConfigError("--db and --utils are both required")
    return load_database(args.db, args.utils)


def cmd_mine(args) -> int:
    _refuse_overwrites(args, ("--out", "--report"))
    db = _load(args)
    variant = args.variant
    config = MinerConfig.for_variant(
        variant,
        min_util=args.min_util,
        min_conf=args.min_conf,
        min_bond=args.min_bond,
        min_lift=args.min_lift,
        max_rule_side=None if args.max_side is None else _as_int(args.max_side, "--max-side"),
    )
    result, record = _mine_record(db, config, variant)
    text = rules_csv_text(result)
    if args.out:
        _write_atomic(Path(args.out), text)
    else:
        sys.stdout.write(text)
    if args.report:
        _write_atomic(Path(args.report), json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(
        f"mined {len(result.rules)} rules in {record['timing']['wall_ms']:.1f} ms"
        f" (variant {variant})",
        file=sys.stderr,
    )
    return EXIT_OK


def _verify_db(db: SequenceDatabase, config: MinerConfig) -> list[str]:
    """Compare all four miner variants of ``config`` against the exhaustive oracle."""
    expected = {(r.antecedent, r.consequent): r for r in oracle_chusrs(db, config)}
    problems: list[str] = []
    for variant, (s6, s7) in VARIANTS.items():
        variant_config = replace(config, bond_matrix_prune=s6, esucs_prune=s7)
        got = {(m.antecedent, m.consequent): m for m in mine(db, variant_config).rules}
        for key in sorted(expected.keys() - got.keys()):
            problems.append(f"[{variant}] missing from miner: {key[0]} => {key[1]}")
        for key in sorted(got.keys() - expected.keys()):
            problems.append(f"[{variant}] not in oracle: {key[0]} => {key[1]}")
        for key in sorted(expected.keys() & got.keys()):
            if expected[key] != got[key]:
                problems.append(
                    f"[{variant}] measures differ for {key[0]} => {key[1]}:"
                    f" miner {got[key]} oracle {expected[key]}"
                )
    return problems


def _verify_random_seed(seed: int) -> list[str]:
    rng = random.Random(seed)
    db = synth.random_small_database(rng)
    thresholds = synth.random_thresholds(rng, db)
    # drawn after the thresholds, so each seed keeps its database and thresholds
    config = MinerConfig(*thresholds, max_rule_side=rng.choice((None, None, 1, 2)))
    problems = _verify_db(db, config)
    return [f"seed {seed}: {p}" for p in problems]


def cmd_verify(args) -> int:
    if args.random is not None:
        if args.db or args.utils:
            raise ConfigError("--random excludes --db and --utils")
        count = _as_int(args.random, "--random")
        if count < 0:
            raise ConfigError(f"--random must be >= 0, got {count}")
        base = _as_int(args.seed, "--seed")
        seeds = range(base, base + count)
        # imported here, so that mine and bench do not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        problems: list[str] = []
        with ProcessPoolExecutor(max_workers=max(1, min(count, os.cpu_count() or 1))) as pool:
            for chunk in pool.map(_verify_random_seed, seeds, chunksize=16):
                problems.extend(chunk)
        for line in problems:
            print(line, file=sys.stderr)
        print(
            f"verified {count} random databases x {len(VARIANTS)} variants:"
            f" {'OK' if not problems else f'{len(problems)} mismatches'}",
            file=sys.stderr,
        )
        return EXIT_OK if not problems else EXIT_MISMATCH

    db = _load(args)
    # built before the oracle runs, so an out-of-range threshold exits at once
    config = MinerConfig(args.min_util, args.min_conf, args.min_bond, args.min_lift)
    problems = _verify_db(db, config)
    for line in problems:
        print(line, file=sys.stderr)
    print(f"verify: {'OK' if not problems else 'MISMATCH'}", file=sys.stderr)
    return EXIT_OK if not problems else EXIT_MISMATCH


def _parse_synthetic(spec: str) -> SequenceDatabase:
    parts = spec.split(",")
    if len(parts) not in (3, 4):
        raise ConfigError("--synthetic expects n_seq,n_items,avg_len[,seed]")
    try:
        n_seq, n_items = int(parts[0]), int(parts[1])
        avg_len = float(parts[2])
        seed = int(parts[3]) if len(parts) == 4 else 0
        return synth.synthesize_database(n_seq, n_items, avg_len, seed)
    except ValueError as exc:
        raise ConfigError(f"bad --synthetic spec {spec!r}: {exc}") from None


def cmd_bench(args) -> int:
    if args.synthetic and (args.db or args.utils):
        raise ConfigError("--synthetic excludes --db and --utils")
    _refuse_overwrites(args, ("--out",))
    db = _parse_synthetic(args.synthetic) if args.synthetic else _load(args)
    variants = VARIANTS if args.variant == "all" else [v.strip() for v in args.variant.split(",")]
    min_utils = sorted(as_fraction(tok) for tok in str(args.min_util).split(","))
    fixed = {"min_conf": args.min_conf, "min_bond": args.min_bond, "min_lift": args.min_lift}
    # every point's config is built, and so checked, before the first run
    points = [
        (variant, MinerConfig.for_variant(variant, min_util=min_util, **fixed))
        for variant in variants
        for min_util in min_utils
    ]
    # each point's result is dropped before the next run
    text = "".join(
        json.dumps(_mine_record(db, config, variant)[1], sort_keys=True) + "\n"
        for variant, config in points
    )
    if args.out:
        _write_atomic(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_threshold_flags(parser: argparse.ArgumentParser, multi_util: bool = False) -> None:
    util_help = "minimum utility threshold" + (", comma-separated to sweep" if multi_util else "")
    parser.add_argument("--min-util", default="0", help=util_help)
    parser.add_argument("--min-conf", default="0", help="minimum confidence in [0,1]")
    parser.add_argument("--min-bond", default="0", help="minimum bond in [0,1]")
    parser.add_argument("--min-lift", default="0", help="minimum lift (>= 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cousr",
        description="Mine correlated high-utility sequential rules from quantitative sequence databases.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_mine = sub.add_parser("mine", help="mine rules and write them as CSV")
    p_mine.add_argument("--db", help="sequence database file")
    p_mine.add_argument("--utils", help="unit utility file")
    _add_threshold_flags(p_mine)
    p_mine.add_argument("--variant", default="s6s7", help="base, s6, s7 or s6s7")
    p_mine.add_argument("--out", help="rules CSV path (stdout if omitted)")
    p_mine.add_argument("--report", help="JSON run report path")
    p_mine.add_argument("--max-side", help="cap on antecedent/consequent size")
    p_mine.set_defaults(func=cmd_mine)

    p_verify = sub.add_parser("verify", help="check miner output against the exhaustive oracle")
    p_verify.add_argument("--db", help="sequence database file")
    p_verify.add_argument("--utils", help="unit utility file")
    _add_threshold_flags(p_verify)
    p_verify.add_argument("--random", help="verify N seeded random databases instead of --db")
    p_verify.add_argument("--seed", default="0", help="base seed for --random")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="sweep thresholds/variants, one JSON run record per line")
    p_bench.add_argument("--db", help="sequence database file")
    p_bench.add_argument("--utils", help="unit utility file")
    p_bench.add_argument("--synthetic", help="n_seq,n_items,avg_len[,seed=0] synthetic database")
    _add_threshold_flags(p_bench, multi_util=True)
    p_bench.add_argument("--variant", default="all", help="comma-separated variants or 'all'")
    p_bench.add_argument("--out", help="run records path, one JSON line each (stdout if omitted)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"cousr: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OracleLimitError as exc:
        print(f"cousr: {exc}", file=sys.stderr)
        return EXIT_LIMITS
    except ConfigError as exc:
        print(f"cousr: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cousr: i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
