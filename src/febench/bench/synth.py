"""Deterministic keyword-driven synthetic corpora.

Single-label documents carry exactly one marker token (``topic<i>``) that
identifies their class; multi-label documents carry one marker per gold
label, with labels drawn independently so the mean label count lands on a
configurable density target. Everything else is filler drawn from a small
``w<j>`` vocabulary, so class evidence is a pure keyword signal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from febench.bench.config import (INTEGER, NUMBER, TEXT, check_counts,
                                  read_ini, read_section)
from febench.metrics import label_density
from febench.text import Dataset, LabeledExample

_SPEC_FIELDS = {
    "task": ("task_kind", TEXT),
    "classes": ("classes", INTEGER),
    "train": ("train_docs", INTEGER),
    "test": ("test_docs", INTEGER),
    "vocab": ("vocab", INTEGER),
    "doc_len": ("doc_len", INTEGER),
    "density": ("density", NUMBER),
    "seed": ("seed", INTEGER),
    "name": ("name", TEXT),
}


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
        check_counts(self, [(name, name, least) for name, least in (
            ("classes", 2), ("train_docs", 1), ("test_docs", 1), ("vocab", 1),
            ("doc_len", 1), ("seed", 0))], SynthesisError)
        if self.train_docs < self.classes:
            raise SynthesisError("need at least one training document per "
                                 "class")
        if self.vocab > 2**63:  # numpy draws filler ids as int64
            raise SynthesisError(f"vocab {self.vocab} is above 2**63, the "
                                 f"most filler ids numpy can draw from")
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


class _Words(dict):
    """A split's filler words by id, each formatted on its first draw, so it
    holds only the ids drawn, however large ``vocab`` is."""
    def __missing__(self, j):
        word = self[j] = f"w{j}"
        return word


def _filler_words(rng, spec, names):
    """One document's filler words: one draw of ``doc_len`` ids, read as
    Python ints and named through the split's ``names``."""
    ids = rng.integers(0, spec.vocab, size=spec.doc_len).tolist()
    return list(map(names.__getitem__, ids))


def _single_label_split(rng, spec, count, labels):
    assigned = np.array([i % spec.classes for i in range(count)])
    rng.shuffle(assigned)
    names, examples = _Words(), []
    for cls in assigned:
        words = _filler_words(rng, spec, names)
        words[int(rng.integers(0, spec.doc_len))] = f"topic{cls}"
        examples.append(LabeledExample(" ".join(words),
                                       frozenset({labels[cls]})))
    return examples


def _multi_label_split(rng, spec, count, labels, p):
    names, examples = _Words(), []
    for _ in range(count):
        mask = rng.random(spec.classes) < p
        while not mask.any():
            mask = rng.random(spec.classes) < p
        present = np.flatnonzero(mask)
        words = _filler_words(rng, spec, names)
        slots = rng.choice(spec.doc_len, size=len(present), replace=False)
        for cls, slot in zip(present, slots):
            words[int(slot)] = f"topic{cls}"
        examples.append(LabeledExample(" ".join(words),
                                       frozenset(labels[c] for c in present)))
    return examples


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
        dataset = Dataset(name=spec.name, task_kind="multi_label",
                          label_space=labels, train=tuple(train),
                          test=tuple(test))
        if abs(label_density(dataset) - spec.density) <= 0.2:
            return dataset
    raise SynthesisError(f"could not realize density {spec.density} within "
                         f"0.2 on {spec.train_docs}+{spec.test_docs} "
                         f"documents; use more documents")


def load_synth_spec(path, seed=None):
    """Parse a ``[synthetic]`` INI spec file."""
    parser = read_ini(path, SynthesisError, "spec")
    if "synthetic" not in parser:
        raise SynthesisError("spec is missing the [synthetic] section")
    spec = SynthSpec(**{"name": Path(path).stem,
                        **read_section(parser["synthetic"], _SPEC_FIELDS,
                                       SynthesisError)})
    if seed is not None:
        spec = replace(spec, seed=seed)
    return spec
