"""The benchmark's workloads.

A workload turns a seed into inputs and runs them once through febench in
three steps, which the harness times: ``setup`` (corpus, vocabulary, model),
``run`` (the call that trains) and ``finish`` (collect outputs and check
them).  Each step reaches febench through module attributes looked up at
call time, so a :class:`tracer.Tracer` installed after import sees every
call.  Nothing here starts a thread or a process.
"""

import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

# imported afresh for every repetition, and timed as part of its set-up
FEBENCH_IMPORTS = ("febench", "febench.bench.cli")


def fresh_import():
    """Drop every loaded febench module and import the package again."""
    for name in [n for n in sys.modules
                 if n == "febench" or n.startswith("febench.")]:
        del sys.modules[name]
    for name in FEBENCH_IMPORTS:
        importlib.import_module(name)


def _mod(name):
    return sys.modules[name]


def derived_seeds(seed):
    """(corpus seed, model seed) for a benchmark seed."""
    return seed, seed + 1


@dataclass
class Outcome:
    """What one repetition produced, plus any failed check."""

    losses: list = field(default_factory=list)   # one list per train() call
    epoch_seconds: list = field(default_factory=list)
    peak_bytes: int = 0
    category_peaks: dict = field(default_factory=dict)
    output_bytes: bytes = b""                     # CLI results.jsonl
    problems: list = field(default_factory=list)


class Observer:
    """Stands in for ``training.train``: collects results, checks the freeze.

    A run in FE mode must leave the encoder's weights bit-identical.
    """

    def __init__(self):
        self._train = _mod("febench.training").train
        self.results = []
        self.problems = []

    def train(self, config, dataset, encoder, head, vocab):
        before = encoder.weights.byte_image() if config.mode == "FE" else None
        result = self._train(config, dataset, encoder, head, vocab)
        if before is not None and encoder.weights.byte_image() != before:
            self.problems.append("FE run changed the frozen encoder's weights")
        self.results.append(result)
        return result

    def outcome(self):
        peaks = {}
        for result in self.results:
            for category, value in result.ledger.breakdown()["peak"].items():
                peaks[category] = max(peaks.get(category, 0), value)
        out = Outcome(losses=[list(r.train_losses) for r in self.results],
                      epoch_seconds=[s for r in self.results
                                     for s in r.timing.epoch_seconds],
                      peak_bytes=max(r.peak_bytes for r in self.results),
                      category_peaks=peaks, problems=list(self.problems))
        for losses in out.losses:
            if not all(math.isfinite(v) for v in losses):
                out.problems.append(f"non-finite loss in {losses}")
        return out


@dataclass(frozen=True)
class TrainWorkload:
    """``train()`` on the criterion-4 keyword corpus."""

    name: str
    preset: str
    mode: str
    batch: int
    epochs: int
    classes: int = 2
    train_docs: int = 200
    test_docs: int = 100
    doc_len: int = 12
    filler: int = 30
    max_len: int = 16
    vocab_cap: int = 100

    def setup(self, seed, work_dir):
        synth, cnn = _mod("febench.bench.synth"), _mod("febench.cnn")
        corpus_seed, model_seed = derived_seeds(seed)
        dataset = synth.make_synthetic(synth.SynthSpec(
            classes=self.classes, train_docs=self.train_docs,
            test_docs=self.test_docs, vocab=self.filler,
            doc_len=self.doc_len, seed=corpus_seed, name="kw"))
        vocab = _mod("febench.text").build_vocab(
            [ex.text for ex in dataset.train], max_size=self.vocab_cap)
        encoder = _mod("febench.encoders").Encoder.from_preset(
            self.preset, vocab.size, seed=[model_seed, 0],
            frozen=self.mode == "FE")
        head = cnn.CnnHead.build(
            cnn.CnnHeadConfig(hidden=encoder.config.hidden,
                              classes=self.classes), seed=[model_seed, 1])
        config = _mod("febench.training").RunConfig(
            mode=self.mode, epochs=self.epochs, batch_size=self.batch,
            seed=model_seed, max_len=self.max_len)
        return SimpleNamespace(args=(config, dataset, encoder, head, vocab),
                               observer=Observer())

    def run(self, state):
        state.observer.train(*state.args)

    def finish(self, state):
        return state.observer.outcome()


SPEC_INI = """[synthetic]
task = single_label
classes = {classes}
train = {train_docs}
test = {test_docs}
vocab = {filler}
doc_len = {doc_len}
seed = {corpus_seed}
name = long
"""

BENCH_INI = """[benchmark]
dataset = {data}
repeats = 1
seed = {model_seed}
out = {out}

[cell:static-fe]
preset = static
mode = FE
epochs = {epochs}
batch = {batch}
max_len = {max_len}

[cell:static-fit]
preset = static
mode = FiT
epochs = {epochs}
batch = {batch}
max_len = {max_len}
"""


def _cli(args):
    """``bench <args>`` in this process; its standard output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return _mod("febench.bench.cli").main(args)


@dataclass(frozen=True)
class CliWorkload:
    """``bench synth``, ``bench run``, ``bench report`` on long documents."""

    name: str
    classes: int = 4
    train_docs: int = 200
    test_docs: int = 100
    doc_len: int = 120
    filler: int = 2000
    max_len: int = 128
    epochs: int = 2
    batch: int = 50

    def setup(self, seed, work_dir):
        corpus_seed, model_seed = derived_seeds(seed)
        work = Path(work_dir)
        values = dict(vars(self), corpus_seed=corpus_seed,
                      model_seed=model_seed, data=work / "data",
                      out=work / "runs")
        (work / "long.ini").write_text(SPEC_INI.format(**values))
        (work / "bench.ini").write_text(BENCH_INI.format(**values))
        code = _cli(["synth", str(work / "long.ini"), "-o",
                     str(work / "data")])
        if code != 0:
            raise RuntimeError(f"bench synth exited with {code}")
        return SimpleNamespace(work=work, observer=Observer(), codes={})

    def run(self, state):
        training = _mod("febench.training")
        original, training.train = training.train, state.observer.train
        try:
            state.codes["run"] = _cli(["run", str(state.work / "bench.ini")])
        finally:
            training.train = original

    def finish(self, state):
        runs = state.work / "runs"
        state.codes["report"] = _cli(["report", str(runs)])
        out = state.observer.outcome()
        out.problems += [f"bench {cmd} exited with {code}"
                         for cmd, code in state.codes.items() if code != 0]
        out.output_bytes = (runs / "results.jsonl").read_bytes()
        records = [json.loads(line) for line in out.output_bytes.splitlines()]
        out.problems += [f"cell {r['cell']} failed: {r['error']}"
                         for r in records if r["failed"]]
        # the program's own timing file, not the observer, gives epoch times
        timing = (runs / "timing.jsonl").read_text().splitlines()
        out.epoch_seconds = [s for line in timing
                             for s in json.loads(line)["epoch_seconds"]]
        out.peak_bytes = max(int(r["peak_bytes"]) for r in records)
        return out


# why each was chosen is recorded with the workload list in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    TrainWorkload(name="fe-tiny", preset="tiny", mode="FE", batch=50,
                  epochs=2),
    TrainWorkload(name="fit-l12", preset="L-12", mode="FiT", batch=40,
                  epochs=1),
    CliWorkload(name="cli-static-long"),
)}
