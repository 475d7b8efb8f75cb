"""Regression witnesses for the sampled paper checks of ``verify``."""

import numpy as np
import pytest

from crorbit.verify import _quadric_points, _uniform_draws, run_suite

# float.hex of each check's value at seed 0, as computed one sample at a time
# before the checks were batched; a batched change that moves a bit fails here
SEED0_VALUES = {
    "xhat-hamiltonian-identification": "0x1.0000000000000p-56",
    "multiplier-independence": "0x1.0000000000000p-54",
    "lemma21-lewy": "0x1.0000000000000p-53",
    "lemma21-tube3": "0x1.0000000000000p-52",
    "theta-isomorphism": "0x1.0000000000000p-1",
}


def test_sampled_check_values_at_seed_0():
    results = {r.name: r.value for suite in ("hamiltonian", "lemma21") for r in run_suite(suite, 0)}
    assert {name: float(results[name]).hex() for name in SEED0_VALUES} == SEED0_VALUES


def _quadric_point(name, rng):
    """The one-point draw the sampled checks were written with: the reference."""
    if name == "tube3":
        x, y, u1, u2 = rng.uniform(-0.7, 0.7, 4)
        return np.array([x, y, u1, x * x + y * y, u2, 0.0])
    x, y, u = rng.uniform(-0.7, 0.7, 3)
    return np.array([x, y, u, x * x + y * y if name == "lewy" else 0.0])


def test_uniform_draws_are_one_uniform_call_per_part():
    parts = ((-0.7, 0.7, 4), (-1.0, 1.0, 2), (-0.5, 0.5, 3))
    batched = _uniform_draws(np.random.default_rng(7), 300, *parts)
    rng = np.random.default_rng(7)
    loop = [[rng.uniform(low, high, size) for low, high, size in parts] for _ in range(300)]
    for k, block in enumerate(batched):
        assert block.tobytes() == np.array([draws[k] for draws in loop]).tobytes()


@pytest.mark.parametrize("name", ["lewy", "flat", "tube3"])
def test_quadric_points_are_the_one_point_draws(name):
    points, weights = _quadric_points(name, np.random.default_rng(3), 50, (-1.0, 1.0, 2))
    rng = np.random.default_rng(3)
    for z, w in zip(points, weights):
        assert z.tobytes() == _quadric_point(name, rng).tobytes()
        assert w.tobytes() == rng.uniform(-1.0, 1.0, 2).tobytes()
