"""Tokenization, vocabulary, fixed-length encoding, datasets.

Documents are lowercased and split into word and punctuation tokens, wrapped
as ``CLS ... SEP``, truncated, and right-padded to a fixed length.  Datasets
live on disk as a directory holding ``train.jsonl`` and ``test.jsonl``, one
``{"text": ..., "labels": [...]}`` object per line.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
RESERVED = ("<pad>", "<unk>", "<cls>", "<sep>")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class DatasetFormatError(ValueError):
    """A dataset file failed to parse; the message names the file and line."""


def tokenize(text):
    """Lowercase and split into word / single-punctuation tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Dense token -> id map with the four reserved ids first."""

    token_to_id: dict

    @property
    def size(self):
        return len(self.token_to_id)

    def id_of(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def tokens(self):
        """Tokens in id order."""
        inverse = {i: t for t, i in self.token_to_id.items()}
        return [inverse[i] for i in range(self.size)]


def build_vocab(corpus, max_size):
    """Keep the most frequent tokens (ties lexicographic) after the reserved four."""
    if max_size <= len(RESERVED):
        raise ValueError(f"max_size must exceed {len(RESERVED)} reserved slots")
    corpus = list(corpus)
    if not corpus:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for text in corpus:
        counts.update(tokenize(text))
    kept = sorted(counts, key=lambda tok: (-counts[tok], tok))
    kept = kept[:max_size - len(RESERVED)]
    mapping = {tok: i for i, tok in enumerate(RESERVED)}
    for offset, tok in enumerate(kept):
        mapping[tok] = len(RESERVED) + offset
    return Vocabulary(mapping)


def encode(text, vocab, max_len):
    """Token ids ``[CLS, ..., SEP, PAD...]`` of exactly ``max_len``, plus valid length.

    Content is truncated to ``max_len - 2`` tokens so the CLS/SEP wrapper
    always survives; valid_length counts the non-PAD prefix.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3 (room for CLS, SEP, content)")
    body = [vocab.id_of(tok) for tok in tokenize(text)][:max_len - 2]
    ids = [CLS_ID, *body, SEP_ID]
    valid = len(ids)
    ids.extend([PAD_ID] * (max_len - valid))
    return np.array(ids, dtype=np.int64), valid


def decode(ids, vocab):
    """Content tokens for an id sequence, skipping PAD/CLS/SEP (UNK kept)."""
    lookup = vocab.tokens()
    out = []
    for i in np.asarray(ids).tolist():
        if i in (PAD_ID, CLS_ID, SEP_ID):
            continue
        out.append(lookup[i])
    return out


@dataclass(frozen=True)
class LabeledExample:
    text: str
    labels: frozenset

    def __post_init__(self):
        if not self.labels:
            raise ValueError("an example must carry at least one label")


@dataclass(frozen=True)
class Dataset:
    name: str = field(compare=False)
    task_kind: str
    label_space: tuple
    train: tuple
    test: tuple

    def __post_init__(self):
        if self.task_kind not in ("single_label", "multi_label"):
            raise ValueError(f"unknown task_kind {self.task_kind!r}")
        space = set(self.label_space)
        for ex in (*self.train, *self.test):
            if not ex.labels <= space:
                raise ValueError(f"labels {sorted(ex.labels)} outside label space")
            if self.task_kind == "single_label" and len(ex.labels) != 1:
                raise ValueError("single-label datasets need exactly one label per example")


def _parse_jsonl(path):
    examples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})")
            examples.append(_record_to_example(record, path, lineno))
    return examples


def _record_to_example(record, path, lineno):
    text = record.get("text")
    labels = record.get("labels")
    if not isinstance(text, str) or not isinstance(labels, list):
        raise DatasetFormatError(
            f"{path}:{lineno}: record needs a text string and a labels array")
    if not labels:
        raise DatasetFormatError(f"{path}:{lineno}: empty label set")
    return LabeledExample(text=text, labels=frozenset(str(l) for l in labels))


def load_dataset(path):
    """Read ``train.jsonl`` and ``test.jsonl`` under a dataset directory.

    The dataset is named after the directory.  The label space is the sorted
    union of observed labels, and task_kind is multi_label iff any example
    carries more than one label.
    """
    root = Path(path)
    splits = {}
    for split in ("train", "test"):
        file = root / f"{split}.jsonl"
        if not file.exists():
            raise FileNotFoundError(f"missing dataset file {file}")
        splits[split] = _parse_jsonl(file)
    labels = sorted({l for exs in splits.values() for ex in exs for l in ex.labels})
    multi = any(len(ex.labels) > 1 for exs in splits.values() for ex in exs)
    return Dataset(name=root.name,
                   task_kind="multi_label" if multi else "single_label",
                   label_space=tuple(labels),
                   train=tuple(splits["train"]), test=tuple(splits["test"]))


def save_dataset(dataset, path):
    """Write ``train.jsonl`` and ``test.jsonl`` under ``path``; returns the paths."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for split, examples in (("train", dataset.train), ("test", dataset.test)):
        file = root / f"{split}.jsonl"
        with open(file, "w", encoding="utf-8") as fh:
            for ex in examples:
                fh.write(json.dumps({"text": ex.text,
                                     "labels": sorted(ex.labels)}) + "\n")
        written.append(file)
    return written
