"""Run one febench benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload fe-tiny --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  See ``perfbench/README.md`` for the
workloads, the metrics and the checks.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit codes: 0 all checks passed, 1 a check failed, 2 bad arguments or no
febench source tree next to this directory.
"""

import os

# One BLAS thread: on a 2-CPU machine, fe-tiny 3-epoch totals over 6
# alternating pairs took 5.58-6.86 s pinned against 5.90-8.97 s unpinned.
# Set before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
EXPECTED = HERE / "expected.json"

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("epoch_s", "s"),
              ("peak_tracked_mib", "MiB"), ("peak_rss_mib", "MiB"))
SETUP_EXTRA = 2  # set-ups timed after each repetition, for setup_s
MIN_REPS = 3     # timed repetitions per run, even past --seconds


class Rep:
    """One repetition: its timings, its outcome and, if traced, its spans."""

    def __init__(self, seed, traced):
        self.seed = seed
        self.traced = traced
        self.setup_s = self.run_s = None
        self.outcome = None
        self.tracer = None
        self.error = None
        self.checks = []

    @property
    def problems(self):
        if self.error:
            return [self.error]
        problems = self.outcome.problems + self.checks
        if sum(self.outcome.epoch_seconds) > self.run_s:
            problems.append(f"epochs sum to {sum(self.outcome.epoch_seconds)}"
                            f" s, more than run_s {self.run_s} s")
        return problems

    @property
    def epoch_s(self):
        epochs = self.outcome.epoch_seconds
        return sum(epochs) / len(epochs)


def run_rep(workload, seed, traced, work_dir):
    """Import febench afresh, then set up, run and finish the workload once."""
    rep = Rep(seed, traced)
    work_dir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        workloads.fresh_import()
        rep.tracer = tracer.Tracer() if traced else None
        with rep.tracer or contextlib.nullcontext():
            state = workload.setup(seed, work_dir)
            t1 = time.perf_counter()
            workload.run(state)
            t2 = time.perf_counter()
            rep.outcome = workload.finish(state)
        rep.setup_s, rep.run_s = t1 - t0, t2 - t1
    except Exception as exc:  # a failed repetition is counted, not fatal
        traceback.print_exc()
        rep.error = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return rep


def time_setup(workload, seed, work_dir):
    work_dir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        workloads.fresh_import()
        workload.setup(seed, work_dir)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(workload, seed, seconds, trace, expected):
    """One reference repetition, then timed repetitions.

    The reference repetition runs the seed recorded in ``expected`` and is
    checked against its recorded losses; it also warms caches.  Timed
    repetitions alternate traced and untraced when ``trace`` is set.  Extra
    set-ups follow every repetition, so set-up times sample the whole run.
    """
    work = OUT_DIR / f"work-{os.getpid()}"
    setups = []

    def rep(rep_seed, traced):
        done = run_rep(workload, rep_seed, traced, work)
        setups.extend(time_setup(workload, seed, work)
                      for _ in range(SETUP_EXTRA))
        return done

    reference = rep(expected["reference_seed"], False)
    reps = []
    started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        reps.append(rep(seed, trace and len(reps) % 2 == 0))
    return setups, reference, reps


def check(workload, reference, reps, expected):
    """Attach every failed check to the repetition it concerns."""
    if not reference.error:
        want = expected["losses"][workload.name]
        rtol = expected["loss_rtol"]
        got = reference.outcome.losses
        close = len(got) == len(want) and all(
            len(g) == len(w) and all(abs(a - b) <= rtol * abs(b)
                                     for a, b in zip(g, w))
            for g, w in zip(got, want))
        if not close:
            reference.checks.append(f"losses {got} leave rtol {rtol} around "
                                    f"the recorded {want}")
    good = [r for r in reps if not r.error]
    for r in good[1:]:
        if r.outcome.losses != good[0].outcome.losses:
            r.checks.append("losses differ from the first repetition's")
        if r.outcome.output_bytes != good[0].outcome.output_bytes:
            r.checks.append("results.jsonl bytes differ from the first "
                            "repetition's")
    traced = [r for r in good if r.traced]
    if not traced:
        return
    exact = [name for name, unit in tracer.per_layer_metrics() if unit != "s"]
    counts = [{k: r.tracer.summary()[k] for k in exact if not
               k.startswith("profiling.peak.")} for r in traced]
    for r, c in zip(traced[1:], counts[1:]):
        if c != counts[0]:
            r.checks.append("exact counts differ from the first traced "
                            "repetition's")
    for name, prediction in expected["counts"].get(workload.name, {}).items():
        if counts[0][name] != prediction["value"]:
            traced[0].checks.append(
                f"{name} = {counts[0][name]}, predicted "
                f"{prediction['value']}: {prediction['why']}")


def median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(setups, reference, reps):
    timed = [r for r in reps if not r.error and not r.traced]
    done = [r for r in [reference] + reps if not r.error]
    return {
        "setup_s": (median(setups + [r.setup_s for r in done]),
                    len(setups) + len(done)),
        "run_s": (median([r.run_s for r in timed]), len(timed)),
        "epoch_s": (median([r.epoch_s for r in timed]), len(timed)),
        "peak_tracked_mib": (median([r.outcome.peak_bytes / 2**20
                                     for r in timed]), len(timed)),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, 1),
    }


def per_layer(reps):
    traced = [r for r in reps if not r.error and r.traced]
    untraced = [r for r in reps if not r.error and not r.traced]
    summaries = [r.tracer.summary() for r in traced]
    for summary, r in zip(summaries, traced):
        for category in tracer.CATEGORIES:
            summary[f"profiling.peak.{category}"] = \
                r.outcome.category_peaks.get(category, 0)
    values = {}
    for name, unit in tracer.per_layer_metrics():
        if name == "trace.overhead_s":
            continue
        samples = [s[name] for s in summaries]
        values[name] = (median(samples) if unit == "s"
                        else samples[0] if samples else float("nan"),
                        len(samples))
    overhead = (median([r.run_s for r in traced])
                - median([r.run_s for r in untraced]))
    values["trace.overhead_s"] = (overhead, min(len(traced), len(untraced)))
    return values


def git_sha():
    """HEAD's commit id read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, expected):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    corpus_seed, model_seed = workloads.derived_seeds(args.seed)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
        "seeds": {"seed": args.seed, "corpus": corpus_seed,
                  "model": model_seed,
                  "reference": expected["reference_seed"]},
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["all"] + list(workloads.WORKLOADS),
                        help="one workload, or 'all' to run each in its "
                             "own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def run_all(args):
    """Each workload in a process of its own, so each has its own peak RSS."""
    codes = [subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace",
         str(args.trace)]).returncode for name in workloads.WORKLOADS]
    return max(codes)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "febench" / "__init__.py").is_file():
        print(f"perfbench: no febench source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    expected = json.loads(EXPECTED.read_text())
    workload = workloads.WORKLOADS[args.workload]

    setups, reference, reps = measure(workload, args.seed, args.seconds,
                                      bool(args.trace), expected)
    check(workload, reference, reps, expected)
    problems = [f"seed {r.seed}: {p}" for r in [reference] + reps
                for p in r.problems]
    if args.trace:
        values, units = per_layer(reps), dict(tracer.per_layer_metrics())
    else:
        values, units = end_to_end(setups, reference, reps), dict(END_TO_END)
    if any(v != v for v, _ in values.values()):
        problems.append("no successful repetition to measure")
    prov = provenance(args, expected)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    traced = [r for r in reps if r.traced and not r.error]
    if traced:
        traced[-1].tracer.write_spans(OUT_DIR / f"{stem}-spans.jsonl")
    detail = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in values.items()},
        "problems": problems,
        "repetitions": [{"seed": r.seed, "traced": r.traced,
                         "setup_s": r.setup_s, "run_s": r.run_s,
                         "losses": r.outcome.losses if r.outcome else None,
                         "error": r.error} for r in [reference] + reps],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1))

    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    for name, (value, n) in values.items():
        print(f"{args.workload} {name}: {value:.6g} {units[name]} "
              f"({n} samples)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    attempted = 1 + len(reps)
    failed = sum(1 for r in [reference] + reps if r.problems)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v if v == v else None, "unit": units[k]}
                    for k, (v, _) in values.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
