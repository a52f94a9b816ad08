"""Desk-scale training and benchmarking for frozen vs fine-tuned text encoders."""

from .cnn import CnnHead, CnnHeadConfig
from .encoders import Encoder, EncoderConfig, preset_config
from .metrics import accuracy, label_density, mean_std, micro_prf
from .profiling import MemoryLedger, TimingTrace
from .tensor import (ComputationRecord, KernelTooLongError, NestedRecordError,
                     NonScalarLossError, NoRecordError, ShapeMismatchError,
                     StaleRecordError, Tensor, backward, grad_check)
from .text import Dataset, LabeledExample, build_vocab, encode, load_dataset, tokenize
from .training import RunConfig, RunResult, run_experiment, train

__version__ = "0.1.0"

__all__ = [
    "CnnHead",
    "CnnHeadConfig",
    "ComputationRecord",
    "Dataset",
    "Encoder",
    "EncoderConfig",
    "KernelTooLongError",
    "LabeledExample",
    "MemoryLedger",
    "NestedRecordError",
    "NoRecordError",
    "NonScalarLossError",
    "RunConfig",
    "RunResult",
    "ShapeMismatchError",
    "StaleRecordError",
    "Tensor",
    "TimingTrace",
    "accuracy",
    "backward",
    "build_vocab",
    "encode",
    "grad_check",
    "label_density",
    "load_dataset",
    "mean_std",
    "micro_prf",
    "preset_config",
    "run_experiment",
    "tokenize",
    "train",
]
