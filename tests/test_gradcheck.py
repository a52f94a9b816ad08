"""Finite-difference verification of every primitive's backward pass.

Each case runs in float64 at ten seeded points; the maximum relative error
against central differences (step 1e-5) must stay below 1e-4.
"""

import zlib

import numpy as np
import pytest

from febench import grad_check
from helpers import (PRIMITIVE_GRAD_CASES, e2e_frozen_encoder_case,
                     e2e_transformer_case)

SEEDS = range(10)
TOLERANCE = 1e-4


@pytest.mark.parametrize("name", sorted(PRIMITIVE_GRAD_CASES))
@pytest.mark.parametrize("seed", SEEDS)
def test_primitive_gradient(name, seed):
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    fn, point = PRIMITIVE_GRAD_CASES[name](rng)
    assert grad_check(fn, point) < TOLERANCE


@pytest.mark.parametrize("seed", SEEDS)
def test_end_to_end_frozen_encoder_gradient(seed):
    """Loss through frozen transformer + CNN head, differentiated in the head."""
    fn, point = e2e_frozen_encoder_case(np.random.default_rng([seed, 1001]))
    assert grad_check(fn, point) < TOLERANCE


@pytest.mark.parametrize("seed", SEEDS)
def test_end_to_end_transformer_gradient(seed):
    """Loss differentiated through one full transformer block and the head."""
    fn, point = e2e_transformer_case(np.random.default_rng([seed, 1002]))
    assert grad_check(fn, point) < TOLERANCE


def test_gradcheck_rejects_vector_output():
    from febench import NonScalarLossError, ops
    with pytest.raises(NonScalarLossError):
        grad_check(lambda x: ops.relu(x), [np.ones(3)])
