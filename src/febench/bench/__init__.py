"""Benchmark driver: config files, synthetic corpora, runner, reports, CLI."""

from febench.bench.config import (BenchmarkConfig, CellSpec, ConfigError,
                                  config_hash, load_config)
from febench.bench.report import (ReportError, default_baseline, emit_report,
                                  format_hours, format_mib, format_percent,
                                  format_ratio, load_results, render_tsv)
from febench.bench.runner import execute, run_benchmark, write_outputs
from febench.bench.synth import (SynthSpec, SynthesisError, load_synth_spec,
                                 make_synthetic)

__all__ = [
    "BenchmarkConfig",
    "CellSpec",
    "ConfigError",
    "ReportError",
    "SynthSpec",
    "SynthesisError",
    "config_hash",
    "default_baseline",
    "emit_report",
    "execute",
    "format_hours",
    "format_mib",
    "format_percent",
    "format_ratio",
    "load_config",
    "load_results",
    "load_synth_spec",
    "make_synthetic",
    "render_tsv",
    "run_benchmark",
    "write_outputs",
]
