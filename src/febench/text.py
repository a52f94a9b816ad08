"""Tokenization, vocabulary, fixed-length encoding, datasets.

Documents are lowercased and split into word and punctuation tokens, wrapped
as ``CLS ... SEP``, truncated, and right-padded to a fixed length.  Datasets
live on disk as a directory holding ``train`` and ``test`` files in either
JSONL (one ``{"text": ..., "labels": [...]}`` object per line) or CSV
(columns ``text,labels`` with ``|``-separated labels).
"""

from __future__ import annotations

import csv
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

    def __post_init__(self):
        for i, tok in enumerate(RESERVED):
            if self.token_to_id.get(tok) != i:
                raise ValueError(f"reserved token {tok!r} must have id {i}")
        ids = sorted(self.token_to_id.values())
        if ids != list(range(len(ids))):
            raise ValueError("vocabulary ids must be dense in [0, size)")

    @property
    def size(self):
        return len(self.token_to_id)

    def id_of(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def tokens(self):
        """Tokens in id order."""
        inverse = {i: t for t, i in self.token_to_id.items()}
        return [inverse[i] for i in range(self.size)]


def build_vocab(corpus, max_size, min_freq=1):
    """Keep the most frequent tokens (ties lexicographic) after the reserved four."""
    if max_size <= len(RESERVED):
        raise ValueError(f"max_size must exceed {len(RESERVED)} reserved slots")
    if min_freq < 1:
        raise ValueError("min_freq must be at least 1")
    corpus = list(corpus)
    if not corpus:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for text in corpus:
        counts.update(tokenize(text))
    kept = sorted((tok for tok, n in counts.items() if n >= min_freq),
                  key=lambda tok: (-counts[tok], tok))
    kept = kept[:max_size - len(RESERVED)]
    mapping = {tok: i for i, tok in enumerate(RESERVED)}
    for offset, tok in enumerate(kept):
        mapping[tok] = len(RESERVED) + offset
    return Vocabulary(mapping)


def encode(text, vocab, max_len=200):
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


def _parse_csv(path):
    examples = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or \
                {"text", "labels"} - set(reader.fieldnames):
            raise DatasetFormatError(f"{path}:1: header must name text,labels columns")
        for record in reader:
            lineno = reader.line_num
            labels = [p for p in (record["labels"] or "").split("|") if p]
            examples.append(_record_to_example(
                {"text": record["text"], "labels": labels}, path, lineno))
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


_PARSERS = {"jsonl": _parse_jsonl, "csv": _parse_csv}


def _split_path(root, split, fmt):
    return Path(root) / f"{split}.{fmt}"


def load_dataset(path, fmt=None, name=None, task_kind=None):
    """Read ``train.<fmt>`` and ``test.<fmt>`` under a dataset directory.

    The label space is the sorted union of observed labels.  task_kind is
    inferred (multi_label iff any example carries more than one label) unless
    passed explicitly.
    """
    root = Path(path)
    if fmt is None:
        for candidate in _PARSERS:
            if _split_path(root, "train", candidate).exists():
                fmt = candidate
                break
        else:
            raise FileNotFoundError(f"no train.jsonl or train.csv under {root}")
    if fmt not in _PARSERS:
        raise ValueError(f"unknown dataset format {fmt!r}")
    splits = {}
    for split in ("train", "test"):
        file = _split_path(root, split, fmt)
        if not file.exists():
            raise FileNotFoundError(f"missing dataset file {file}")
        splits[split] = _PARSERS[fmt](file)
    labels = sorted({l for exs in splits.values() for ex in exs for l in ex.labels})
    if task_kind is None:
        multi = any(len(ex.labels) > 1 for exs in splits.values() for ex in exs)
        task_kind = "multi_label" if multi else "single_label"
    return Dataset(name=name or root.name, task_kind=task_kind,
                   label_space=tuple(labels),
                   train=tuple(splits["train"]), test=tuple(splits["test"]))


def save_dataset(dataset, path, fmt="jsonl"):
    """Write ``train.<fmt>`` and ``test.<fmt>`` under ``path``; returns the paths."""
    if fmt not in _PARSERS:
        raise ValueError(f"unknown dataset format {fmt!r}")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for split, examples in (("train", dataset.train), ("test", dataset.test)):
        file = _split_path(root, split, fmt)
        if fmt == "jsonl":
            with open(file, "w", encoding="utf-8") as fh:
                for ex in examples:
                    fh.write(json.dumps({"text": ex.text,
                                         "labels": sorted(ex.labels)}) + "\n")
        else:
            with open(file, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["text", "labels"])
                for ex in examples:
                    writer.writerow([ex.text, "|".join(sorted(ex.labels))])
        written.append(file)
    return written

