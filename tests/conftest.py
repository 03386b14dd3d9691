"""Shared fixtures for the test suite.

Expensive objects (the SRAM cell and its metrics) are session-scoped: they
are immutable after construction, so sharing them across tests is safe and
keeps the suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sram import SixTransistorCell
from repro.sram.metrics import (
    ReadCurrentMetric,
    ReadNoiseMarginMetric,
    WriteNoiseMarginMetric,
)
from repro.sram.problems import fragile_cell


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def cell():
    return SixTransistorCell()

@pytest.fixture(scope="session")
def skewed_cell():
    return fragile_cell()


@pytest.fixture(scope="session")
def rnm_metric(cell):
    return ReadNoiseMarginMetric(cell)


@pytest.fixture(scope="session")
def wnm_metric(cell):
    return WriteNoiseMarginMetric(cell)


@pytest.fixture(scope="session")
def iread_metric(skewed_cell):
    return ReadCurrentMetric(skewed_cell)
