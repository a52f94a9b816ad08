"""Deterministic keyword-driven synthetic corpora.

Single-label documents carry exactly one marker token (``topic<i>``) that
identifies their class; multi-label documents carry one marker per gold
label, with labels drawn independently so the mean label count lands on a
configurable density target. Everything else is filler drawn from a small
``w<j>`` vocabulary, so class evidence is a pure keyword signal.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from febench.text import Dataset, LabeledExample, save_dataset

_SPEC_KEYS = {"task", "classes", "train", "test", "vocab", "doc_len",
              "density", "seed", "name"}


class SynthesisError(ValueError):
    """The synthetic-corpus spec is infeasible or failed to parse."""


@dataclass(frozen=True)
class SynthSpec:
    task_kind: str = "single_label"
    classes: int = 2
    train_docs: int = 200
    test_docs: int = 100
    vocab: int = 50
    doc_len: int = 12
    density: Optional[float] = None
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self):
        if self.task_kind not in ("single_label", "multi_label"):
            raise SynthesisError(f"unknown task {self.task_kind!r}")
        if self.classes < 2:
            raise SynthesisError("need at least 2 classes")
        if self.train_docs < self.classes:
            raise SynthesisError("need at least one training document per "
                                 "class")
        if self.test_docs < 1:
            raise SynthesisError("need at least one test document")
        if self.vocab < 1:
            raise SynthesisError("filler vocabulary must be non-empty")
        if self.doc_len < 1:
            raise SynthesisError("doc_len must be >= 1")
        if self.task_kind == "single_label":
            if self.density is not None:
                raise SynthesisError("density only applies to multi_label")
        else:
            if self.density is None:
                raise SynthesisError("multi_label needs a density target")
            if not 1.0 < self.density <= self.classes:
                raise SynthesisError(f"density {self.density} is infeasible "
                                     f"for {self.classes} labels (need 1 < "
                                     f"density <= classes)")
            if self.doc_len < self.classes:
                raise SynthesisError("doc_len must fit one marker per label")


def _solve_marker_probability(labels, density):
    """Bernoulli probability whose conditional mean count (given >= 1 label)
    equals the density target. E[K | K>=1] = Lp / (1-(1-p)^L) rises
    monotonically from 1 to L, so bisection works."""
    lo, hi = 1e-12, 1.0
    for _ in range(80):
        p = 0.5 * (lo + hi)
        mean = labels * p / (1.0 - (1.0 - p) ** labels)
        if mean < density:
            lo = p
        else:
            hi = p
    return 0.5 * (lo + hi)


def _filler_words(rng, spec, count):
    return [f"w{j}" for j in rng.integers(0, spec.vocab, size=count)]


def _single_label_split(rng, spec, count, labels):
    assigned = np.array([i % spec.classes for i in range(count)])
    rng.shuffle(assigned)
    examples = []
    for cls in assigned:
        words = _filler_words(rng, spec, spec.doc_len)
        words[int(rng.integers(0, spec.doc_len))] = f"topic{cls}"
        examples.append(LabeledExample(" ".join(words),
                                       frozenset({labels[cls]})))
    return examples


def _multi_label_split(rng, spec, count, labels, p):
    examples = []
    for _ in range(count):
        mask = rng.random(spec.classes) < p
        while not mask.any():
            mask = rng.random(spec.classes) < p
        present = np.flatnonzero(mask)
        words = _filler_words(rng, spec, spec.doc_len)
        slots = rng.choice(spec.doc_len, size=len(present), replace=False)
        for cls, slot in zip(present, slots):
            words[int(slot)] = f"topic{cls}"
        examples.append(LabeledExample(" ".join(words),
                                       frozenset(labels[c] for c in present)))
    return examples


def _realized_density(examples):
    return sum(len(ex.labels) for ex in examples) / len(examples)


def make_synthetic(spec):
    """Generate the dataset a spec describes; deterministic in the seed."""
    labels = tuple(f"c{i}" for i in range(spec.classes))
    if spec.task_kind == "single_label":
        rng = np.random.default_rng([spec.seed, 17])
        train = _single_label_split(rng, spec, spec.train_docs, labels)
        test = _single_label_split(rng, spec, spec.test_docs, labels)
        return Dataset(name=spec.name, task_kind="single_label",
                       label_space=labels, train=tuple(train),
                       test=tuple(test))

    p = _solve_marker_probability(spec.classes, spec.density)
    # Small corpora can miss the density target by sampling noise; retry on
    # fresh deterministic substreams before giving up.
    for attempt in range(10):
        rng = np.random.default_rng([spec.seed, 17, attempt])
        train = _multi_label_split(rng, spec, spec.train_docs, labels, p)
        test = _multi_label_split(rng, spec, spec.test_docs, labels, p)
        realized = _realized_density(train + test)
        if abs(realized - spec.density) <= 0.2:
            return Dataset(name=spec.name, task_kind="multi_label",
                           label_space=labels, train=tuple(train),
                           test=tuple(test))
    raise SynthesisError(f"could not realize density {spec.density} within "
                         f"0.2 on {spec.train_docs}+{spec.test_docs} "
                         f"documents; use more documents")


def write_synthetic(spec, out_dir, fmt="jsonl"):
    """Generate and write ``train``/``test`` files; returns the paths."""
    dataset = make_synthetic(spec)
    return save_dataset(dataset, out_dir, fmt=fmt)


def load_synth_spec(path, seed=None):
    """Parse a ``[synthetic]`` INI spec file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise SynthesisError(f"cannot read spec {path}: {exc}") from None
    except configparser.Error as exc:
        raise SynthesisError(f"cannot parse spec {path}: {exc}") from None
    if "synthetic" not in parser:
        raise SynthesisError("spec is missing the [synthetic] section")
    section = parser["synthetic"]
    extra = set(section) - _SPEC_KEYS
    if extra:
        raise SynthesisError(f"[synthetic] has unknown keys: "
                             f"{', '.join(sorted(extra))}")

    def typed(key, convert, kind):
        try:
            return convert(section[key])
        except ValueError:
            raise SynthesisError(f"[synthetic] {key} = {section[key]!r} is "
                                 f"not {kind}") from None

    kwargs = {"name": Path(path).stem}
    if "task" in section:
        kwargs["task_kind"] = section["task"]
    if "classes" in section:
        kwargs["classes"] = typed("classes", int, "an integer")
    if "train" in section:
        kwargs["train_docs"] = typed("train", int, "an integer")
    if "test" in section:
        kwargs["test_docs"] = typed("test", int, "an integer")
    if "vocab" in section:
        kwargs["vocab"] = typed("vocab", int, "an integer")
    if "doc_len" in section:
        kwargs["doc_len"] = typed("doc_len", int, "an integer")
    if "density" in section:
        kwargs["density"] = typed("density", float, "a number")
    if "seed" in section:
        kwargs["seed"] = typed("seed", int, "an integer")
    if "name" in section:
        kwargs["name"] = section["name"]
    spec = SynthSpec(**kwargs)
    if seed is not None:
        spec = replace(spec, seed=seed)
    return spec
