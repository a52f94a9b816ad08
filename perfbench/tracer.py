"""Outside-in tracing of an imported febench.

:class:`Tracer` patches febench's public entry points from the outside,
records one span (name, start, end, parent) per wrapped call in memory, and
restores every patched attribute on :meth:`Tracer.restore`.  No file of the
program knows it is traced.

A traced function is found by object identity in every loaded ``febench``
module, so a name imported by name (``training.backward``,
``cli.load_config``) is wrapped where it is looked up.
"""

import functools
import json
import sys
import time
from collections import Counter

# span name -> (module, attribute) of the function the span times
SPANNED = {
    "tensor.backward": ("febench.tensor", "backward"),
    "encoders.forward": ("febench.encoders", "encoder_forward"),
    "cnn.forward": ("febench.cnn", "cnn_forward"),
    "training.train_step": ("febench.training", "train_step"),
    "training.evaluate": ("febench.training", "evaluate"),
    "training.adam_step": ("febench.training", "adam_step"),
    "training.encode_examples": ("febench.training", "encode_examples"),
    "text.load_dataset": ("febench.text", "load_dataset"),
    "text.build_vocab": ("febench.text", "build_vocab"),
    "text.encode": ("febench.text", "encode"),
    "bench.synth.make_synthetic": ("febench.bench.synth", "make_synthetic"),
    "bench.config.load_config": ("febench.bench.config", "load_config"),
    "bench.runner.execute": ("febench.bench.runner", "execute"),
    "bench.runner.write_outputs": ("febench.bench.runner", "write_outputs"),
    "bench.report.emit_report": ("febench.bench.report", "emit_report"),
}

# primitives reported per kind; the other four (mul, sum, tanh, sigmoid_bce)
# are wrapped too but no workload calls them
OP_KINDS = ("gelu", "layer_norm", "linear", "matmul", "scaled_dot_attention",
            "conv1d_valid", "max_over_time", "embedding_lookup", "add",
            "relu", "concat", "stack", "softmax_xent")
CATEGORIES = ("parameters", "gradients", "optimizer_state", "activations")
_TIMED_SELF = ("tensor.backward", "encoders.forward", "cnn.forward")
_TIMED_CALLS = ("training.train_step", "training.evaluate",
                "training.adam_step", "training.encode_examples")
_TIMED = ("text.load_dataset", "text.build_vocab", "text.encode",
          "bench.synth.make_synthetic", "bench.config.load_config",
          "bench.runner.execute", "bench.runner.write_outputs",
          "bench.report.emit_report")


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    metrics = []
    for kind in OP_KINDS:
        metrics += [(f"ops.{kind}.calls", "count"), (f"ops.{kind}.fwd_s", "s"),
                    (f"ops.{kind}.bwd_s", "s"), (f"ops.{kind}.out_bytes", "B")]
    metrics.append(("tensor.tape_entries_per_step", "count"))
    for name in _TIMED_SELF:
        metrics += [(f"{name}.calls", "count"), (f"{name}.s", "s"),
                    (f"{name}.self_s", "s")]
    for name in _TIMED_CALLS:
        metrics += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
    metrics += [("profiling.ledger.allocs", "count"),
                ("profiling.ledger.frees", "count")]
    metrics += [(f"profiling.peak.{c}", "B") for c in CATEGORIES]
    metrics += [(f"{name}.s", "s") for name in _TIMED]
    metrics.append(("trace.overhead_s", "s"))
    return metrics


def febench_modules():
    """Every loaded febench module."""
    return [m for name, m in sorted(sys.modules.items())
            if name == "febench" or name.startswith("febench.")]


class Tracer:
    """Span recorder over the currently imported febench."""

    def __init__(self):
        # one span: (name, start ns, end ns, parent index or -1, tape entries)
        self.spans = []
        self.tape_entries = 0
        self.out_bytes = Counter()
        self.ledger_calls = Counter()
        self._stack = []
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.restore()
        return False

    def install(self):
        ops = sys.modules["febench.ops"]
        targets = {id(fn): (f"ops.{kind}", fn)
                   for kind, fn in ops.PRIMITIVES.items()}
        for name, (module, attr) in SPANNED.items():
            fn = getattr(sys.modules[module], attr)
            targets[id(fn)] = (name, fn)
        wrappers = {}
        for module in febench_modules():
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                if id(value) not in wrappers:
                    name, fn = hit
                    wrappers[id(value)] = functools.update_wrapper(
                        self._wrap(name, fn, name.startswith("ops.")), fn)
                self._patch(module, attr, wrappers[id(value)])

        record = sys.modules["febench.tensor"].ComputationRecord
        self._patch(record, "append", self._wrap_append(record.append))
        ledger = sys.modules["febench.profiling"].MemoryLedger
        for attr, key in (("record_alloc", "allocs"),
                          ("record_free", "frees")):
            self._patch(ledger, attr, self._count(key, getattr(ledger, attr)))
        return self

    def restore(self):
        """Put back every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, counts_output):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            # a slot is taken first so that children can name their parent;
            # the finished span is a tuple, which the cyclic GC stops tracking
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            entries = self.tape_entries
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                self.tape_entries - entries)
            if counts_output:
                self.out_bytes[name] += result.data.nbytes
            return result

        return traced

    def _wrap_append(self, append):
        def traced_append(record, kind, inputs, output, backward_fn):
            self.tape_entries += 1
            if backward_fn is not None:
                backward_fn = self._wrap(f"ops.{kind}.bwd", backward_fn, False)
            return append(record, kind, inputs, output, backward_fn)

        return functools.update_wrapper(traced_append, append)

    def _count(self, key, method):
        calls = self.ledger_calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return method(*args, **kwargs)

        return functools.update_wrapper(counted, method)

    def self_times(self):
        """Per span: its duration minus its direct children's durations."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - child
                for (_, start, end, _, _), child in zip(self.spans, covered)]

    def summary(self):
        """Per-layer metrics of the spans recorded so far.

        Calls, bytes and tape entries are exact counts; ``*_s`` values are
        inclusive seconds and ``*.self_s`` exclude wrapped children.
        Ledger peaks and the tracing overhead are measured by the caller.
        """
        calls, total, own, tape = Counter(), Counter(), Counter(), Counter()
        for span, self_ns in zip(self.spans, self.self_times()):
            name, start, end, _, entries = span
            calls[name] += 1
            total[name] += end - start
            own[name] += self_ns
            tape[name] += entries
        out = {}
        for kind in OP_KINDS:
            op = f"ops.{kind}"
            out[f"{op}.calls"] = calls[op]
            out[f"{op}.fwd_s"] = total[op] / 1e9
            out[f"{op}.bwd_s"] = total[f"{op}.bwd"] / 1e9
            out[f"{op}.out_bytes"] = self.out_bytes[op]
        steps = calls["training.train_step"]
        out["tensor.tape_entries_per_step"] = (
            tape["training.train_step"] / steps if steps else 0)
        for name in _TIMED_SELF:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name] / 1e9
            out[f"{name}.self_s"] = own[name] / 1e9
        for name in _TIMED_CALLS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name] / 1e9
        out["profiling.ledger.allocs"] = self.ledger_calls["allocs"]
        out["profiling.ledger.frees"] = self.ledger_calls["frees"]
        for name in _TIMED:
            out[f"{name}.s"] = total[name] / 1e9
        return out

    def write_spans(self, path):
        """One JSON array per line: name, start ns, end ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
