"""Shared fixtures: default physical parameters, integration schedule, an
empty quantile seed-table cache and a count of closed-form CDF points."""

import numpy as np
import pytest

from qtraj import DoubleSlitParams, IntegrationSchedule, wavefield


@pytest.fixture(scope="session")
def params():
    return DoubleSlitParams(x_half=50.0, sigma=10.0)


@pytest.fixture(scope="session")
def schedule():
    return IntegrationSchedule()


@pytest.fixture
def seed_tables():
    """The quantile seed-table cache, empty when the test starts and emptied
    when it ends, so a test's table-build count does not depend on test order."""
    wavefield._seed_table.cache_clear()
    yield wavefield._seed_table
    wavefield._seed_table.cache_clear()


@pytest.fixture
def cdf_points(monkeypatch):
    """The number of points of each closed-form CDF evaluation the test makes,
    one list entry per ``wavefield._cumulative`` call, in call order; its
    sum is the test's closed-form work."""
    counted = []
    cumulative = wavefield._cumulative

    def counting(x, center, width, wave, norm):
        counted.append(np.broadcast(x, width, wave).size)
        return cumulative(x, center, width, wave, norm)

    monkeypatch.setattr(wavefield, "_cumulative", counting)
    return counted
