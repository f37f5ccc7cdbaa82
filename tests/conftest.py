"""Shared fixtures and random-matrix helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from minksum.geometry import EllipsoidSum
from minksum.spd import SpdMatrix

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic; scenes at high condition
# numbers take long enough that a per-example deadline would be noise.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def random_spd(rng, dim, lo=0.3, hi=3.0):
    """Random SPD matrix with spectrum drawn uniformly from [lo, hi]."""
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    lam = rng.uniform(lo, hi, size=dim)
    return q @ np.diag(lam) @ q.T


def random_rotation(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_scene(rng, dim, m):
    return EllipsoidSum.from_matrices([random_spd(rng, dim) for _ in range(m)])


@pytest.fixture
def example_pair():
    """The worked 2D pair used throughout the documentation and tests."""
    a = SpdMatrix(np.array([[5.0, 0.0], [0.0, 0.5]]))
    b = SpdMatrix(np.array([[2.0, 2.0], [2.0, 5.0]]))
    return a, b


@pytest.fixture
def example_scene(example_pair):
    a, b = example_pair
    return EllipsoidSum.from_matrices([a.entries, b.entries])
