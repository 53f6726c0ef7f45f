import dataclasses
from pathlib import Path

import hypothesis
import pytest
from scenarios import DIAMOND_PATH

from tramopt.network import load_scenario

hypothesis.settings.register_profile("ci", max_examples=25, deadline=None)
hypothesis.settings.load_profile("ci")

TWO_ACCESS_PATH = DIAMOND_PATH.with_name("two_access.json")


@pytest.fixture(scope="session")
def diamond_path() -> Path:
    return DIAMOND_PATH


@pytest.fixture(scope="session")
def diamond():
    return load_scenario(DIAMOND_PATH.read_text())


@pytest.fixture(scope="session")
def two_access():
    """Two access roads (an inflow series; a queue at 0.05) merging 2to1, a
    1to2 into two exits, rho_max 1.5 and 0.8, and a road with a free tail."""
    return load_scenario(TWO_ACCESS_PATH.read_text())


@pytest.fixture(scope="session")
def coarse_diamond(diamond):
    """Factory of the diamond with ``n_cells`` cells per road and ``n_time`` steps."""

    def make(n_cells: int, n_time: int):
        roads = tuple(dataclasses.replace(r, rho0=r.rho0[:1] * n_cells) for r in diamond.roads)
        return dataclasses.replace(diamond, roads=roads, n_cells=n_cells, n_time=n_time)

    return make
