"""The ``bench`` command line.

Subcommands: ``run`` executes a benchmark config and prints one line per
cell, ``synth`` generates a synthetic dataset from a spec file, ``report``
prints the table document rendered from a run's result files alone, which
is the run's ``report.txt`` byte for byte unless ``--baseline`` moves the
relative-time anchor. Exit codes: 0 success, 1 at least one cell failed
(partial results are preserved with FAILED markers), 2 bad configuration or
arguments.

Relative output paths resolve under ``$BENCH_OUT_ROOT`` when that variable
is set.
"""

import argparse
import sys

from febench.bench.config import ConfigError
from febench.bench.report import (ReportError, emit_report, format_percent,
                                  load_results)
from febench.bench.runner import resolve_out_dir, run_benchmark
from febench.bench.synth import (SynthesisError, load_synth_spec,
                                 make_synthetic)
from febench.text import DatasetFormatError, save_dataset


def _cell_summary(record):
    if record["failed"]:
        return f"FAILED ({record['error']})"
    parts = [f"{name} {format_percent(entry['mean'], entry['std'])}"
             for name, entry in sorted(record["metrics"].items())]
    return ", ".join(parts) + f"  [{record['total_seconds']:.1f} s]"


def _cmd_run(args):
    records, out_dir = run_benchmark(args.config, seed=args.seed,
                                     repeats=args.repeats, out=args.out)
    for record in records:
        print(f"{record['cell']} ({record['preset']}/{record['mode']}): "
              f"{_cell_summary(record)}")
    print(f"results written to {out_dir}")
    failed = [r["cell"] for r in records if r["failed"]]
    if failed:
        print(f"bench: {len(failed)} cell(s) failed: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_synth(args):
    spec = load_synth_spec(args.spec, seed=args.seed)
    dataset = make_synthetic(spec)
    out_dir = resolve_out_dir(args.out if args.out is not None else spec.name)
    written = save_dataset(dataset, out_dir)
    total = len(dataset.train) + len(dataset.test)
    print(f"wrote {total} documents ({len(dataset.train)} train / "
          f"{len(dataset.test)} test, {dataset.task_kind}, "
          f"{len(dataset.label_space)} labels) to {out_dir}")
    for path in written:
        print(f"  {path}")
    return 0


def _cmd_report(args):
    records = load_results(args.results)
    sys.stdout.write(emit_report(records, baseline_cell=args.baseline))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Train and compare frozen-encoder vs fine-tuned text "
                    "classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a benchmark config")
    run.add_argument("config", help="benchmark config file (INI)")
    run.add_argument("--seed", type=int, help="override the master seed")
    run.add_argument("--repeats", type=int, help="override runs per cell")
    run.add_argument("--out", help="override the output directory")
    run.set_defaults(func=_cmd_run)

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("spec", help="synthetic spec file (INI)")
    synth.add_argument("-o", "--out", help="output directory (default: the "
                                           "spec's name)")
    synth.add_argument("--seed", type=int, help="override the spec seed")
    synth.set_defaults(func=_cmd_synth)

    report = sub.add_parser("report", help="render tables from results")
    report.add_argument("results", help="results.jsonl file or its "
                                        "directory")
    report.add_argument("--baseline",
                        help="cell id for relative times (default: the "
                             "largest FE cell)")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SynthesisError, ReportError, DatasetFormatError,
            OSError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
