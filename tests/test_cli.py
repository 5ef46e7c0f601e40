from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce
from operator import and_
from pathlib import Path
from types import SimpleNamespace

import pytest

import cousr
from cousr import MinerConfig, cli, load_database, mine
from cousr.cli import (
    EXIT_CONFIG,
    EXIT_LIMITS,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    RULES_HEADER,
    _verify_random_seed,
    format_fraction,
    main,
)
from cousr.measures import (
    MinedRule,
    bond,
    build_item_bitvectors,
    confidence,
    lift,
    rule_sids,
    rule_utility,
)
from cousr.miner import VARIANTS, as_fraction
from cousr.oracle import oracle_chusrs
from cousr.seqdb import exact_text

from conftest import EXAMPLE_DB, EXAMPLE_UT
from reference import rule_of

GOLDEN_FLAGS = ["--min-util", "50", "--min-conf", "0.7", "--min-bond", "0.3", "--min-lift", "1.1"]

GOLDEN_CSV = (
    "antecedent;consequent;utility;support;confidence;lift;bond_x;bond_y\n"
    "1,2,3,4;7;55;2;1;1.25;0.4;1\n"
    "1,2,4;7;74;4;1;1.25;0.8;1\n"
    "1,4;7;54;4;1;1.25;0.8;1\n"
    "2,4;7;53;4;1;1.25;0.8;1\n"
)


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def deterministic(record):
    """A run record without its timing and memory fields."""
    return {key: value for key, value in record.items() if key not in ("timing", "peak_rss_bytes")}


def run_mine(tmp_path, *extra, out="rules.csv"):
    out_path = tmp_path / out
    code = main(
        ["mine", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT),
         *GOLDEN_FLAGS, "--out", str(out_path), *extra]
    )
    return code, out_path


def test_format_fraction():
    assert format_fraction(Fraction(5, 4)) == "1.25"
    assert format_fraction(Fraction(1)) == "1"
    assert format_fraction(Fraction(2, 5)) == "0.4"
    assert format_fraction(Fraction(1, 3)) == "0.333333"
    assert format_fraction(Fraction(0)) == "0"
    # exact at any magnitude, half to even at the sixth fractional digit
    assert format_fraction(Fraction(3 * 10**30 + 1, 3)) == "1000000000000000000000000000000.333333"
    assert format_fraction(Fraction(123456789012345678901234567890123, 10)) == (
        "12345678901234567890123456789012.3"
    )
    assert format_fraction(Fraction(25, 10**7)) == "0.000002"
    assert format_fraction(Fraction(35, 10**7)) == "0.000004"


def test_mine_writes_golden_csv(tmp_path):
    code, out_path = run_mine(tmp_path)
    assert code == EXIT_OK
    assert out_path.read_text() == GOLDEN_CSV


def test_mine_to_stdout(tmp_path, capsys):
    code = main(["mine", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT), *GOLDEN_FLAGS])
    assert code == EXIT_OK
    assert capsys.readouterr().out == GOLDEN_CSV


def test_mine_is_deterministic_across_runs(tmp_path):
    _, first = run_mine(tmp_path, out="a.csv")
    _, second = run_mine(tmp_path, out="b.csv")
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("variant", ["base", "s6", "s7", "s6s7"])
def test_variants_produce_byte_identical_rules(tmp_path, variant):
    code, out_path = run_mine(tmp_path, "--variant", variant, out=f"{variant}.csv")
    assert code == EXIT_OK
    assert out_path.read_text() == GOLDEN_CSV


def test_mine_with_huge_min_util_yields_header_only(tmp_path):
    out_path = tmp_path / "rules.csv"
    code = main(
        ["mine", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT),
         "--min-util", "1e18", "--out", str(out_path)]
    )
    assert code == EXIT_OK
    assert out_path.read_text() == RULES_HEADER + "\n"


def test_mine_report_payload(tmp_path):
    report = tmp_path / "report.json"
    code, _ = run_mine(tmp_path, "--report", str(report))
    assert code == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["rule_count"] == 4
    assert payload["config"]["min_util"] == "50"
    assert payload["config"]["min_conf"] == "0.7"
    assert payload["config"]["variant"] == "s6s7"
    stats = payload["stats"]
    assert stats["utility_lists_built"] > 0
    assert stats["utility_list_rows"] > 0
    assert all(stats[f"pruned_s{k}"] >= 0 for k in range(1, 8))
    assert "wall_ms" not in stats
    assert payload["timing"]["wall_ms"] > 0


# accepted thresholds whose plain decimal form is longer than the digits
# int() writes as text: (flag value, its plain decimal form)
LONG_THRESHOLDS = [
    ("1e4300", "1" + "0" * 4300),
    ("1234e4298", "1234" + "0" * 4298),
    ("7" * 4400 + "e-5", "7" * 4395 + "." + "7" * 5),
]


def test_thresholds_are_echoed_exactly(tmp_path):
    # a terminating threshold is written in plain decimal, any other as p/q,
    # so each reads back as the value mined with, at any length
    report = tmp_path / "report.json"
    code, _ = run_mine(tmp_path, "--min-util", "0.0000001", "--min-conf", "2/3",
                       "--report", str(report))
    assert code == EXIT_OK
    config = json.loads(report.read_text())["config"]
    assert (config["min_util"], config["min_conf"]) == ("0.0000001", "2/3")
    assert as_fraction(config["min_conf"]) == Fraction(2, 3)
    for flag, written in LONG_THRESHOLDS:
        code, _ = run_mine(tmp_path, "--min-util", flag, "--report", str(report))
        assert code == EXIT_OK
        assert json.loads(report.read_text())["config"]["min_util"] == written
        assert as_fraction(written) == as_fraction(flag)
    out = tmp_path / "bench.jsonl"
    long_flags = [flag for flag, _ in LONG_THRESHOLDS]
    code = main(["bench", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT), "--variant", "s6s7",
                 "--min-util", ",".join(["0.0000001", "0.0000002", "1/3", *long_flags]),
                 "--out", str(out)])
    assert code == EXIT_OK
    minutils = [record["config"]["min_util"] for record in read_records(out)]
    assert minutils == ["0.0000001", "0.0000002", "1/3", *(text for _, text in LONG_THRESHOLDS)]


def test_rule_csv_writes_utilities_of_any_length(tmp_path):
    # the input accepts unit utility 9e4299, and the rule 1 => 2 sums two of
    # them: a utility of 4,301 digits, written in full
    db, ut, out = tmp_path / "long.db", tmp_path / "long.ut", tmp_path / "rules.csv"
    db.write_text("1:1 -1 2:1 -1 -2\n")
    ut.write_text("1 9e4299\n2 9e4299\n")
    code = main(["mine", "--db", str(db), "--utils", str(ut), "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_text().splitlines()[1:] == ["1;2;18" + "0" * 4299 + ";1;1;1;1;1"]


def test_report_deterministic_outside_timing(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_mine(tmp_path, "--report", str(r1), out="a.csv")
    run_mine(tmp_path, "--report", str(r2), out="b.csv")
    a, b = json.loads(r1.read_text()), json.loads(r2.read_text())
    assert "timing" in a and "peak_rss_bytes" in a
    assert deterministic(a) == deterministic(b)


def test_rule_csv_rows_reverify_against_measures(tmp_path):
    _, out_path = run_mine(tmp_path)
    db = load_database(EXAMPLE_DB, EXAMPLE_UT)
    bvs = build_item_bitvectors(db)
    n = db.sequence_count
    lines = out_path.read_text().splitlines()
    assert lines[0] == RULES_HEADER
    for line in lines[1:]:
        ant, cons, utility, support, conf, lift_text, bond_x, bond_y = line.split(";")
        rule = rule_of(map(int, ant.split(",")), map(int, cons.split(",")))
        mask = rule_sids(rule, db)
        mask_x = reduce(and_, (bvs[item] for item in rule.antecedent))
        mask_y = reduce(and_, (bvs[item] for item in rule.consequent))
        assert format_fraction(rule_utility(rule, db)) == utility
        assert mask.bit_count() == int(support)
        assert format_fraction(confidence(mask, mask_x)) == conf
        assert format_fraction(lift(mask, mask_x, mask_y, n)) == lift_text
        assert format_fraction(bond(rule.antecedent, bvs).value) == bond_x
        assert format_fraction(bond(rule.consequent, bvs).value) == bond_y


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.db"
    bad.write_text("1:1 1:2 -1 -2\n")
    code = main(["mine", "--db", str(bad), "--utils", str(EXAMPLE_UT)])
    assert code == EXIT_PARSE


@pytest.mark.parametrize("which", ["db", "ut"])
def test_non_utf8_input_is_parse_error(tmp_path, capsys, which):
    sources = {"db": EXAMPLE_DB, "ut": EXAMPLE_UT}
    bad = tmp_path / f"bad.{which}"
    # byte 0xff, which no UTF-8 text holds, is the fifth byte of line 3
    bad.write_bytes(b"# first\n# second\n# ab\xff\n" + sources[which].read_bytes())
    paths = {**sources, which: bad}
    for command in ("mine", "verify"):
        code = main([command, "--db", str(paths["db"]), "--utils", str(paths["ut"]), *GOLDEN_FLAGS])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("cousr: parse error: line 3, column 5:")
        assert str(bad) in err and "0xff" in err


def test_utility_item_id_beyond_int_conversion_exit_code(tmp_path, capsys):
    big = tmp_path / "big.ut"
    big.write_text(EXAMPLE_UT.read_text() + "9" * 5000 + " 1\n")
    code = main(["mine", "--db", str(EXAMPLE_DB), "--utils", str(big)])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("cousr: parse error: line 8, column 1:")
    assert len(err) < 200  # the token is quoted as an excerpt


@pytest.mark.parametrize("value", ["inf", "Infinity", "-inf", "1e999999999999999999"])
def test_unusable_utility_value_exit_code(tmp_path, capsys, value):
    bad = tmp_path / "bad.ut"
    bad.write_text(EXAMPLE_UT.read_text() + f"8 {value}\n")
    started = time.perf_counter()
    code = main(["mine", "--db", str(EXAMPLE_DB), "--utils", str(bad)])
    assert time.perf_counter() - started < 1.0
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.startswith("cousr: parse error: line 8, column 3:")


@pytest.mark.parametrize(
    "command, flag",
    [("mine", "--min-util"), ("verify", "--min-conf"), ("bench", "--min-lift")],
)
def test_huge_threshold_exponent_is_config_error_at_once(command, flag, capsys):
    started = time.perf_counter()
    code = main([command, "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT), flag, "1e999999999"])
    assert time.perf_counter() - started < 1.0
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("cousr: config error:")


def test_out_of_range_long_threshold_is_config_error(capsys):
    # -1e4300 is an exact decimal of 4,301 digits, too long for str() of an int
    code = main(["mine", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT), "--min-util=-1e4300"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("cousr: config error: min_util must be >= 0")
    assert all(len(line) < 200 for line in err.splitlines())


def test_conflicting_long_utility_is_parse_error(tmp_path, capsys):
    conflict = tmp_path / "conflict.ut"
    conflict.write_text("1 1e4300\n1 2\n")
    code = main(["mine", "--db", str(EXAMPLE_DB), "--utils", str(conflict)])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("cousr: parse error: line 2, column 1: item 1 already has utility")
    assert all(len(line) < 200 for line in err.splitlines())


def test_long_ratio_threshold_reads_back_unchanged():
    value = Fraction(10**4400, 3)
    written = exact_text(value)
    assert written == "1" + "0" * 4400 + "/3"
    assert as_fraction(written) == value


def test_missing_file_exit_code(tmp_path):
    code = main(["mine", "--db", str(tmp_path / "nope.db"), "--utils", str(EXAMPLE_UT)])
    assert code == EXIT_PARSE


def test_missing_utility_entry_exit_code(tmp_path):
    sparse = tmp_path / "sparse.ut"
    sparse.write_text("1 3\n")
    code = main(["mine", "--db", str(EXAMPLE_DB), "--utils", str(sparse)])
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "flags",
    [
        ["--min-conf", "1.5"],
        ["--min-bond", "-0.2"],
        ["--min-util", "abc"],
        ["--variant", "bogus"],
        ["--max-side", "zero"],
        ["--min-util", "inf"],
        ["--min-util", "Infinity"],
        ["--min-util", "1/0"],
    ],
)
def test_config_error_exit_code(flags, capsys):
    code = main(["mine", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT), *flags])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("cousr: config error:")


def test_long_max_side_is_config_error_with_a_short_message(capsys):
    code = main(["mine", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT),
                 "--max-side", "9" * 5000])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("cousr: config error: --max-side must be an integer")
    assert all(len(line) < 200 for line in err.splitlines())


def test_mine_without_inputs_is_config_error():
    assert main(["mine"]) == EXIT_CONFIG


def test_verify_example_matches_oracle():
    code = main(["verify", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT), *GOLDEN_FLAGS])
    assert code == EXIT_OK


def test_verify_random_batch(monkeypatch):
    # the worker count follows the CPU count alone: no environment setting
    monkeypatch.setenv("COUSR_THREADS", "not a number")
    assert main(["verify", "--random", "12", "--seed", "7"]) == EXIT_OK


def test_verify_random_draws_a_side_cap(monkeypatch):
    caps = []

    def oracle(db, config):
        caps.append(config.max_rule_side)
        return oracle_chusrs(db, config)

    monkeypatch.setattr("cousr.cli.oracle_chusrs", oracle)
    assert all(_verify_random_seed(seed) == [] for seed in range(12))
    assert set(caps) == {None, 1, 2}


def test_verify_negative_random_count_is_config_error(capsys):
    assert main(["verify", "--random", "-3"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("cousr: config error:") and "verified" not in err


@pytest.mark.parametrize("flags", [("--db",), ("--utils",), ("--db", "--utils")])
def test_verify_random_with_inputs_is_config_error(flags, tmp_path, monkeypatch, capsys):
    # refused before any seed runs, and before the missing inputs are read
    def no_pool(*args, **kwargs):
        raise AssertionError("a seed ran")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    inputs = [arg for flag in flags for arg in (flag, str(tmp_path / f"missing{flag}"))]
    assert main(["verify", "--random", "2", *inputs]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "cousr: config error: --random excludes --db and --utils\n"


@pytest.mark.parametrize("seed", ["99", "0"])
def test_verify_seed_without_random_is_config_error(seed, tmp_path, capsys):
    # refused before the missing inputs are read, even at the default base seed
    inputs = ["--db", str(tmp_path / "missing.db"), "--utils", str(tmp_path / "missing.ut")]
    assert main(["verify", *inputs, "--seed", seed]) == EXIT_CONFIG
    assert capsys.readouterr().err == "cousr: config error: --seed needs --random\n"


class InProcessPool:
    """A stand-in for ``concurrent.futures.ProcessPoolExecutor`` that runs
    each call in this process, in order."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


def tampered_oracle(kind, problems):
    """``oracle_chusrs`` with one rule added (``missing``), its first rule
    dropped (``extra``) or that rule's support raised by one (``differs``).
    Per call, appends the problem ``verify`` should report for each variant,
    or ``None`` when there was no rule to drop or change."""

    def oracle(db, config):
        rules = list(oracle_chusrs(db, config))
        if kind == "missing":
            rules.append(MinedRule((98,), (99,), 1, 1, 1, 1, 1, 1))
            problems.append("missing from miner: (98,) => (99,)")
        elif not rules:
            problems.append(None)
        elif kind == "extra":
            first = rules.pop(0)
            problems.append(f"not in oracle: {first.antecedent} => {first.consequent}")
        else:
            first = rules[0]
            rules[0] = changed = first._replace(support=first.support + 1)
            problems.append(f"measures differ for {first.antecedent} => {first.consequent}:"
                            f" miner {first} oracle {changed}")
        return tuple(rules)

    return oracle


@pytest.mark.parametrize("kind", ["missing", "extra", "differs"])
def test_verify_reports_each_mismatch(kind, monkeypatch, capsys):
    problems = []
    monkeypatch.setattr("cousr.cli.oracle_chusrs", tampered_oracle(kind, problems))
    code = main(["verify", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT), *GOLDEN_FLAGS])
    assert code == EXIT_MISMATCH
    [problem] = problems
    assert capsys.readouterr().err.splitlines() == [
        *(f"[{variant}] {problem}" for variant in VARIANTS), "verify: MISMATCH",
    ]


@pytest.mark.parametrize("kind", ["missing", "extra", "differs"])
def test_verify_random_reports_each_mismatch(kind, monkeypatch, capsys):
    # seeds 0 to 7 draw databases with rules and without
    problems = []
    monkeypatch.setattr("cousr.cli.oracle_chusrs", tampered_oracle(kind, problems))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    assert main(["verify", "--random", "8"]) == EXIT_MISMATCH
    assert len(problems) == 8 and any(problems)
    lines = [f"seed {seed}: [{variant}] {problem}"
             for seed, problem in enumerate(problems) if problem for variant in VARIANTS]
    assert capsys.readouterr().err.splitlines() == [
        *lines, f"verified 8 random databases x {len(VARIANTS)} variants: {len(lines)} mismatches",
    ]


def test_failed_write_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "rules.csv"
    target.mkdir()
    code, _ = run_mine(tmp_path)
    assert code == EXIT_PARSE
    assert target.is_dir()
    assert list(tmp_path.glob("*.tmp.*")) == []


@pytest.mark.parametrize("command, outputs", [
    ("mine", ["--out", "x.db"]),
    ("mine", ["--out", "sub/../x.ut"]),
    ("mine", ["--out", "rules.csv", "--report", "x.db"]),
    ("mine", ["--out", "r.json", "--report", "r.json"]),
    ("bench", ["--out", "x.ut"]),
])
def test_output_naming_an_input_or_another_output_is_config_error(
    tmp_path, monkeypatch, capsys, command, outputs
):
    monkeypatch.chdir(tmp_path)
    shutil.copy(EXAMPLE_DB, "x.db")
    shutil.copy(EXAMPLE_UT, "x.ut")
    (tmp_path / "sub").mkdir()
    inputs = {name: (tmp_path / name).read_bytes() for name in ("x.db", "x.ut")}
    code = main([command, "--db", "x.db", "--utils", "x.ut", *GOLDEN_FLAGS, *outputs])
    assert code == EXIT_CONFIG
    assert "names the same file as" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["sub", "x.db", "x.ut"]
    assert {name: (tmp_path / name).read_bytes() for name in inputs} == inputs


def test_verify_oracle_limit_exit_code(tmp_path):
    wide = tmp_path / "wide.db"
    wide.write_text(" ".join(f"{i}:1 -1" for i in range(1, 21)) + " -2\n")
    utils = tmp_path / "wide.ut"
    utils.write_text("\n".join(f"{i} 1" for i in range(1, 21)) + "\n")
    code = main(["verify", "--db", str(wide), "--utils", str(utils)])
    assert code == EXIT_LIMITS


def test_verify_checks_thresholds_before_the_oracle(tmp_path, monkeypatch, capsys):
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the thresholds were checked")

    monkeypatch.setattr("cousr.cli.oracle_chusrs", oracle)
    db = tmp_path / "twelve.db"
    db.write_text(" ".join(f"{i}:1 -1" for i in range(1, 13)) + " -2\n")
    utils = tmp_path / "twelve.ut"
    utils.write_text("".join(f"{i} 1\n" for i in range(1, 13)))
    code = main(["verify", "--db", str(db), "--utils", str(utils), "--min-conf", "1.5"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("cousr: config error:")


README_BENCH_FLAGS = [
    "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT),
    "--min-util", "0,50,80", "--min-conf", "0.7", "--min-bond", "0.3", "--min-lift", "1.1",
    "--variant", "all",
]


def test_bench_sweep_on_example(tmp_path):
    out = tmp_path / "bench.jsonl"
    code = main(["bench", *README_BENCH_FLAGS, "--out", str(out)])
    assert code == EXIT_OK
    records = read_records(out)
    assert len(records) == 4 * 3
    by_variant: dict[str, list[int]] = {}
    for record in records:
        by_variant.setdefault(record["config"]["variant"], []).append(record["rule_count"])
    assert list(by_variant) == list(VARIANTS)
    for counts in by_variant.values():
        assert counts == sorted(counts, reverse=True)  # non-increasing in min_util


def test_bench_points_are_mine_report_records(tmp_path):
    # each line is the record `mine --report` writes for its variant and cut,
    # key for key; only timing and peak_rss_bytes may differ between runs
    out = tmp_path / "bench.jsonl"
    assert main(["bench", *README_BENCH_FLAGS, "--out", str(out)]) == EXIT_OK
    records = read_records(out)
    expected = []
    report = tmp_path / "report.json"
    for variant in VARIANTS:
        for min_util in ("0", "50", "80"):
            code, _ = run_mine(tmp_path, "--min-util", min_util, "--variant", variant,
                               "--report", str(report))
            assert code == EXIT_OK
            expected.append(json.loads(report.read_text()))
    assert [sorted(record) for record in records] == [sorted(record) for record in expected]
    assert list(map(deterministic, records)) == list(map(deterministic, expected))
    assert all(record["timing"]["wall_ms"] > 0 for record in records)
    assert main(["bench", *README_BENCH_FLAGS, "--out", str(out)]) == EXIT_OK
    assert list(map(deterministic, read_records(out))) == list(map(deterministic, records))


def test_bench_single_point_synthetic(tmp_path, capsys):
    code = main(
        ["bench", "--synthetic", "60,12,5,9", "--min-util", "30",
         "--variant", "s6s7"]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    config = json.loads(lines[0])["config"]
    assert (config["variant"], config["min_util"]) == ("s6s7", "30")


@pytest.mark.parametrize(
    "files", [["--db", "x.db"], ["--utils", "x.ut"], ["--db", "x.db", "--utils", "x.ut"]]
)
def test_bench_synthetic_with_input_files_is_config_error(files, monkeypatch, capsys):
    # the files would be silently ignored; nothing is read or generated
    monkeypatch.setattr(cli, "load_database", lambda *args: pytest.fail("read the input files"))
    monkeypatch.setattr(cli.synth, "synthesize_database", lambda *args: pytest.fail("generated"))
    code = main(["bench", "--synthetic", "60,12,5,9", *files, "--min-util", "30"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("cousr: config error: --synthetic excludes")


def test_bench_seed_flag_is_gone(capsys):
    # the seed is the spec's optional fourth field
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--synthetic", "60,12,5", "--seed", "9", "--min-util", "30"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err


def test_bench_bad_synthetic_spec():
    assert main(["bench", "--synthetic", "10,5"]) == EXIT_CONFIG


@pytest.mark.parametrize("spec", ["10,0,4", "10,5,-1", "10,5,nan", "10,5,inf", "-1,5,4"])
def test_bench_synthetic_spec_out_of_range_is_config_error(spec, capsys):
    # the generator's own checks, not a traceback and the mismatch code
    assert main(["bench", f"--synthetic={spec}", "--min-util", "0"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("cousr: config error:")


def test_bench_variant_subset(tmp_path):
    out = tmp_path / "bench.jsonl"
    code = main(
        ["bench", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT),
         "--min-util", "50", "--variant", "s6,s7", "--out", str(out)]
    )
    assert code == EXIT_OK
    variants = [record["config"]["variant"] for record in read_records(out)]
    assert variants == ["s6", "s7"]


def test_bench_unknown_variant_is_config_error_before_any_run(tmp_path, monkeypatch, capsys):
    out = tmp_path / "bench.jsonl"
    monkeypatch.setattr(cli, "mine", lambda *args: pytest.fail("mined before the variants were checked"))
    code = main(
        ["bench", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT),
         "--min-util", "50", "--variant", "s6,bogus", "--out", str(out)]
    )
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "'bogus'" in err and ", ".join(VARIANTS) in err


def test_mine_max_side_flag(tmp_path):
    out = tmp_path / "rules.csv"
    code = main(
        ["mine", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT),
         *GOLDEN_FLAGS, "--max-side", "2", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert [r.split(";")[0] for r in rows] == ["1,4", "2,4"]


def run_python(*args):
    """``python ARGS`` in a subprocess that imports the same package as this
    test, installed or not."""
    package_root = str(Path(cousr.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_module(*args):
    return run_python("-m", "cousr", *args)


def test_importing_the_cli_loads_no_process_pool():
    # only verify --random needs the pool; every mine run would pay for it
    proc = run_python("-c", "import sys, cousr.cli; print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_readme_library_example_runs(monkeypatch, capsys, example_db):
    # the first python block under "## Library", run from the repository root
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    start = readme.index("```python\n", readme.index("\n## Library\n")) + len("```python\n")
    monkeypatch.chdir(root)
    exec(compile(readme[start:readme.index("```\n", start)], "README.md", "exec"), {})
    config = MinerConfig(min_util=50, min_conf="0.7", min_bond="0.3", min_lift="1.1")
    assert capsys.readouterr().out.splitlines() == [
        "(1, 2, 3, 4) (7,) 55 1 5/4",
        "(1, 2, 4) (7,) 74 1 5/4",
        "(1, 4) (7,) 54 1 5/4",
        "(2, 4) (7,) 53 1 5/4",
        str(mine(example_db, config).stats.as_dict()),
    ]


def test_module_entry_point():
    proc = run_module("mine", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT), *GOLDEN_FLAGS)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == GOLDEN_CSV


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc (VmHWM)")
def test_report_peak_rss_is_the_childs_own(tmp_path):
    # the resource high-water mark survives exec, so a child of a large
    # process would report its parent's peak; the report must not
    ballast = b"\x01" * (256 << 20)
    report = tmp_path / "report.json"
    proc = run_module("mine", "--db", str(EXAMPLE_DB), "--utils", str(EXAMPLE_UT),
                      *GOLDEN_FLAGS, "--report", str(report))
    assert len(ballast) == 256 << 20
    del ballast
    assert proc.returncode == EXIT_OK
    assert json.loads(report.read_text())["peak_rss_bytes"] < 128 << 20


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc (VmHWM)")
def test_report_peak_rss_on_a_10000_item_input(tmp_path):
    # 5,000 two-itemset sequences over 10,000 distinct items: each pair table
    # holds 5,000 pairs, where an R x R table would hold 10**8 cells
    db, ut = tmp_path / "sparse.db", tmp_path / "sparse.ut"
    db.write_text("".join(f"{i}:1 -1 {i + 1}:1 -1 -2\n" for i in range(1, 10_001, 2)))
    ut.write_text("".join(f"{i} 1\n" for i in range(1, 10_001)))
    report = tmp_path / "report.json"
    proc = run_module("mine", "--db", str(db), "--utils", str(ut), "--min-util", "0",
                      "--out", str(tmp_path / "sparse.csv"), "--report", str(report))
    assert proc.returncode == EXIT_OK, proc.stderr
    payload = json.loads(report.read_text())
    assert payload["rule_count"] == 5_000
    assert payload["peak_rss_bytes"] < 150 << 20


@pytest.mark.parametrize("platform, ru_maxrss", [("linux", 3 << 10), ("darwin", 3 << 20)])
def test_peak_rss_fallback_reads_ru_maxrss_in_the_platforms_unit(monkeypatch, platform, ru_maxrss):
    # without /proc the report falls back to ru_maxrss: KiB on Linux, bytes on macOS
    resource = pytest.importorskip("resource")

    def no_proc(*args, **kwargs):
        raise OSError("no /proc")

    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=ru_maxrss))
    assert cli._peak_rss_bytes() == 3 << 20
