"""Benchmark config files.

INI layout: one ``[benchmark]`` section with run-wide settings and one
``[cell:<id>]`` section per grid cell. Example::

    [benchmark]
    dataset = data/keywords
    repeats = 3
    seed = 11
    out = runs/keywords

    [cell:tiny-fe]
    preset = tiny
    mode = FE
    epochs = 12
    max_len = 32
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from febench.cnn import CnnHeadConfig, check_kernels
from febench.encoders import preset_config
from febench.tensor import check_count
from febench.training import RunConfig

_CELL_ID = re.compile(r"^[A-Za-z0-9_.-]+$")
# the smallest vocabulary a config accepts: the four reserved tokens and one
# more; a cell's checks build its preset at this size, since they read only
# the preset's kind and positions
_MIN_VOCAB = 5


class ConfigError(ValueError):
    """A benchmark config file failed to parse or validate."""


@dataclass(frozen=True)
class CellSpec:
    """One (encoder preset, training mode) cell of the benchmark grid.

    Defaults and value rules are the library's: a cell is valid when its
    :class:`RunConfig`, its preset and its head's kernels are. Only the
    rules that tie one to another are checked here.
    """

    cell_id: str
    preset: str
    mode: str
    epochs: Optional[int] = None
    batch_size: Optional[int] = None
    learning_rate: float = RunConfig.learning_rate
    threshold: float = RunConfig.threshold
    max_len: int = RunConfig.max_len
    kernel_sizes: Tuple[int, ...] = CnnHeadConfig.kernel_sizes
    filters: int = CnnHeadConfig.filters

    def __post_init__(self):
        if not _CELL_ID.match(self.cell_id):
            raise ConfigError(f"invalid cell id {self.cell_id!r}")
        try:
            self.run_config(1 if self.epochs is None else self.epochs)
            preset = preset_config(self.preset, vocab_size=_MIN_VOCAB)
            check_kernels(self.kernel_sizes, self.filters)
        except ValueError as exc:
            raise ConfigError(f"cell {self.cell_id!r}: {exc}") from None
        if self.max_len < max(self.kernel_sizes):
            raise ConfigError(f"cell {self.cell_id!r}: max_len "
                              f"{self.max_len} is shorter than the largest "
                              f"kernel {max(self.kernel_sizes)}")
        if preset.kind == "transformer" and self.max_len > preset.max_positions:
            raise ConfigError(
                f"cell {self.cell_id!r}: max_len {self.max_len} exceeds the "
                f"{self.preset} preset's {preset.max_positions} positions")

    def run_config(self, epochs):
        """The library's run config for this cell, trained for ``epochs``."""
        return RunConfig(mode=self.mode, epochs=epochs,
                         batch_size=self.batch_size,
                         learning_rate=self.learning_rate,
                         threshold=self.threshold, max_len=self.max_len)


@dataclass(frozen=True)
class BenchmarkConfig:
    dataset_path: str
    cells: Tuple[CellSpec, ...]
    repeats: int = 3
    seed: int = 0
    out_dir: str = "bench-out"
    vocab_size: int = 30000

    def __post_init__(self):
        if not self.cells:
            raise ConfigError("config defines no cells")
        ids = [c.cell_id for c in self.cells]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate cell ids")
        check_counts(self, (("repeats", "repeats", 1), ("seed", "seed", 0),
                            ("vocab_size", "vocab", _MIN_VOCAB)), ConfigError)


def read_ini(path, error, what):
    """Parse the INI file at ``path``; a file that cannot be read or parsed
    raises ``error`` naming it as the ``what`` (config, spec)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None
    except configparser.Error as exc:
        raise error(f"cannot parse {what} {path}: {exc}") from None
    return parser


def check_counts(spec, counts, error):
    """Refuse, as ``error``, each ``(field, name, least)`` of ``spec`` whose
    value :func:`~febench.tensor.check_count` refuses: a float, a bool, a
    string, or an integer below ``least``."""
    for field, name, least in counts:
        value = getattr(spec, field)
        try:
            check_count(name, value, least)
        except ValueError:
            raise error(f"{name} must be >= {least} and an integer, got "
                        f"{value!r}") from None


def _int_tuple(raw):
    return tuple(int(part) for part in raw.split(","))


TEXT = (str, "text")
INTEGER = (int, "an integer")
NUMBER = (float, "a number")
INTEGERS = (_int_tuple, "a comma-separated list of integers")


def read_section(section, fields, error, required=()):
    """Dataclass keyword arguments from one INI section.

    ``fields`` maps each allowed key to ``(field name, (convert, kind))``.
    Unknown keys, missing ``required`` keys and values that ``convert``
    rejects raise ``error``.
    """
    extra = set(section) - set(fields)
    if extra:
        raise error(f"[{section.name}] has unknown keys: "
                    f"{', '.join(sorted(extra))}")
    for key in required:
        if key not in section:
            raise error(f"[{section.name}] is missing {key!r}")
    kwargs = {}
    for key, raw in section.items():
        field, (convert, kind) = fields[key]
        try:
            kwargs[field] = convert(raw)
        except ValueError:
            raise error(f"[{section.name}] {key} = {raw!r} is not "
                        f"{kind}") from None
    return kwargs


_BENCH_FIELDS = {
    "dataset": ("dataset_path", TEXT),
    "repeats": ("repeats", INTEGER),
    "seed": ("seed", INTEGER),
    "out": ("out_dir", TEXT),
    "vocab": ("vocab_size", INTEGER),
}
_CELL_FIELDS = {
    "preset": ("preset", TEXT),
    "mode": ("mode", TEXT),
    "epochs": ("epochs", INTEGER),
    "batch": ("batch_size", INTEGER),
    "lr": ("learning_rate", NUMBER),
    "threshold": ("threshold", NUMBER),
    "max_len": ("max_len", INTEGER),
    "kernels": ("kernel_sizes", INTEGERS),
    "filters": ("filters", INTEGER),
}


def load_config(path):
    """Parse and validate a benchmark config file."""
    parser = read_ini(path, ConfigError, "config")
    if "benchmark" not in parser:
        raise ConfigError("config is missing the [benchmark] section")
    kwargs = read_section(parser["benchmark"], _BENCH_FIELDS, ConfigError,
                          required=("dataset",))
    cells = []
    for name in parser.sections():
        if name == "benchmark":
            continue
        if not name.startswith("cell:"):
            raise ConfigError(f"unexpected section [{name}] (cells are "
                              f"named [cell:<id>])")
        cells.append(CellSpec(
            cell_id=name.split(":", 1)[1],
            **read_section(parser[name], _CELL_FIELDS, ConfigError,
                           required=("preset", "mode"))))
    return BenchmarkConfig(cells=tuple(cells), **kwargs)


def apply_overrides(config, seed=None, repeats=None, out=None):
    """Return a copy of ``config`` with command-line overrides applied."""
    changes = {}
    if seed is not None:
        changes["seed"] = seed
    if repeats is not None:
        changes["repeats"] = repeats
    if out is not None:
        changes["out_dir"] = out
    return dataclasses.replace(config, **changes) if changes else config


def config_hash(config):
    """Hash of everything that shapes the results.

    The dataset counts by the SHA-256 of its ``train.jsonl`` and
    ``test.jsonl`` bytes, not by its path, and the output directory not at
    all: neither affects the numbers, and the same config and data run from
    any directory and written anywhere must produce byte-identical result
    records.
    """
    root = Path(config.dataset_path)
    payload = {
        "dataset": {split: hashlib.sha256(
            (root / f"{split}.jsonl").read_bytes()).hexdigest()
            for split in ("train", "test")},
        "repeats": config.repeats,
        "seed": config.seed,
        "vocab": config.vocab_size,
        "cells": [dataclasses.asdict(c) for c in config.cells],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
