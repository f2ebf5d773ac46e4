"""The package's special functions against scipy.special, bit for bit."""

import math

import numpy as np
import pytest
import scipy.special

from toydiffusion import special

FUNCTIONS = ["expit", "ndtr"]


def _around(points):
    """Each point, its negative and their neighbouring doubles."""
    points = np.asarray(points, dtype=np.float64)
    points = np.concatenate([points, -points])
    return np.concatenate([points, np.nextafter(points, np.inf),
                           np.nextafter(points, -np.inf)])


EDGES = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, 0.5],
    _around([709.78, special.MAX_EXP, 745.0, 800.0]),
    # ndtr's scaled argument a / sqrt(2) at erf's and erfc's branch points
    # 1 / sqrt(2), 1 and 8, and where erfc underflows
    _around([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.5, 37.7, 38.0]),
])


def _points(name, rng):
    """Seeded points where each function does its work."""
    return np.concatenate([rng.standard_normal(500_000) * 3.0,
                           rng.uniform(-50.0, 50.0, 400_000),
                           rng.uniform(-800.0, 800.0, 100_000)])


@pytest.mark.parametrize("name", FUNCTIONS)
def test_a_million_seeded_points_match_scipy(name):
    x = _points(name, np.random.default_rng(34))
    assert x.size >= 1_000_000
    with np.errstate(all="ignore"):
        want = getattr(scipy.special, name)(x)
    assert np.array_equal(getattr(special, name)(x), want, equal_nan=True)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_edges_match_scipy(name):
    with np.errstate(all="ignore"):
        want = getattr(scipy.special, name)(EDGES)
    got = getattr(special, name)(EDGES)
    assert np.array_equal(got, want, equal_nan=True)
    # a signed zero keeps its sign
    assert np.array_equal(np.signbit(got[got == 0.0]), np.signbit(want[want == 0.0]))


@pytest.mark.parametrize("name", FUNCTIONS)
def test_shapes_and_scalars(name):
    f = getattr(special, name)
    x = np.linspace(0.05, 0.95, 6).reshape(2, 3)
    assert f(x).shape == (2, 3)
    assert np.ndim(f(0.4)) == 0 and f(0.4) == getattr(scipy.special, name)(0.4)
