"""Ready-made systems."""

import numpy as np
import pytest

from noisycycles import van_der_pol


def _vdp_as_written(mu, state):
    # the van der Pol drift as written with np.stack
    state = np.asarray(state, dtype=float)
    x, v = state[..., 0], state[..., 1]
    return np.stack([v, mu * (1.0 - x * x) * v - x], axis=-1)


@pytest.mark.parametrize("shape", [(2,), "list", (20, 2), (4, 20, 2)])
def test_van_der_pol_drift_is_bitwise_the_written_formula(shape):
    mu = 1.3
    rng = np.random.default_rng(31)
    if shape == "list":
        state = [0.3, -1.9]
    else:
        state = rng.normal(scale=1.5, size=shape)
        if state.ndim > 1:
            state[..., :3, :] = [[0.0, -0.0], [-0.0, 0.0], [1.0, -0.0]]  # signed zeros
    got = van_der_pol(mu).drift(state)
    assert got.shape == np.shape(state)
    assert got.tobytes() == _vdp_as_written(mu, state).tobytes()
