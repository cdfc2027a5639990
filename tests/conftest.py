"""Shared fixtures: default physical parameters, integration schedule and
an empty quantile seed-table cache."""

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
