"""One run of the ``cousr mine`` path, in a fresh process.

Mirrors ``cousr.cli.cmd_mine`` call for call: ``load_database``, then
``MinerConfig.for_variant``, ``mine``, ``rules_csv_text`` and the CSV file.
Prints one JSON record as its last line: wall, CPU and set-up seconds, peak
RSS, the ``MiningStats`` counters and, with ``--trace``, the per-span summary
of :mod:`tracing`.

    python3 child.py --db D --utils U --min-util 2000 --min-conf 0.3 \
        --min-bond 0.1 --min-lift 0 --variant s6s7 --out rules.csv \
        [--trace spans.json]

``cousr`` must be importable (the benchmark puts the checkout's ``src`` on
``PYTHONPATH``).
"""

import time

_WALL_START = time.perf_counter()
_CPU_START = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--db", "--utils", "--min-util", "--min-conf", "--min-bond", "--min-lift",
                 "--variant", "--out"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--trace", help="write the spans here and report per-layer data")
    return parser.parse_args(argv)


def run(args) -> dict:
    tracer = None
    import cousr  # noqa: F401  (import time belongs to set-up)

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from cousr import cli, miner, seqdb

    db = seqdb.load_database(args.db, args.utils)
    setup_s = time.perf_counter() - _WALL_START
    config = miner.MinerConfig.for_variant(
        args.variant,
        min_util=miner.as_fraction(args.min_util),
        min_conf=miner.as_fraction(args.min_conf),
        min_bond=miner.as_fraction(args.min_bond),
        min_lift=miner.as_fraction(args.min_lift),
    )
    call = tracer.call if tracer is not None else _untraced
    result = call("miner.mine", miner.mine, db, config)
    text = call("cli.csv", _write_csv, cli, result, args.out)
    e2e_s = time.perf_counter() - _WALL_START
    e2e_cpu_s = time.process_time() - _CPU_START

    from tracing import peak_rss_mib

    record = {
        "e2e_s": e2e_s,
        "e2e_cpu_s": e2e_cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mib(),
        "rules": len(result.rules),
        "csv_bytes": len(text.encode("utf-8")),
        "stats": result.stats.as_dict(),
    }
    if tracer is not None:
        tracer.uninstall()
        record.update(
            spans=tracer.summary(),
            absent=tracer.absent,
            gc_s=tracer.gc_s,
            gc_collections=tracer.gc_collections,
        )
        Path(args.trace).write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")
    return record


def _untraced(name, function, *args):
    return function(*args)


def _write_csv(cli, result, out: str) -> str:
    text = cli.rules_csv_text(result)
    Path(out).write_text(text, encoding="utf-8", newline="\n")
    return text


if __name__ == "__main__":
    print(json.dumps(run(_parse_args(sys.argv[1:])), default=repr))
