"""Shared fixtures: default physical parameters and integration schedule."""

import pytest

from qtraj import DoubleSlitParams, IntegrationSchedule


@pytest.fixture(scope="session")
def params():
    return DoubleSlitParams(x_half=50.0, sigma=10.0)


@pytest.fixture(scope="session")
def schedule():
    return IntegrationSchedule()
