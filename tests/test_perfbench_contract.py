"""The names the benchmark tracer patches must exist in febench.

``perfbench/tracer.py`` wraps febench functions by module and attribute name
and reports primitives by kind; a rename in the package would otherwise only
surface when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from febench import ops

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("span", sorted(TRACER.SPANNED))
def test_spanned_function_exists(span):
    module, attr = TRACER.SPANNED[span]
    assert callable(getattr(importlib.import_module(module), attr))


def test_reported_op_kinds_are_primitives():
    assert set(TRACER.OP_KINDS) <= set(ops.PRIMITIVES)
