"""Shared fixtures.

Expensive artefacts (the small end-to-end pipeline, a generated
topology) are session-scoped; cheap ones (RNGs, toy topologies) are
function-scoped so tests stay independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GroundTruthConfig, ScenarioConfig, small_scenario
from repro.datasets.pipeline import PipelineResult, run_pipeline
from repro.geo.coords import GeoPoint
from repro.net.elements import AutonomousSystem
from repro.net.generate import generate_ground_truth
from repro.net.topology import Topology
from repro.population.worldmodel import World, build_world


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh, fixed-seed generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def world_small() -> World:
    """A small synthetic world (shared; treat as read-only)."""
    return build_world(np.random.default_rng(77), city_scale=0.2)


@pytest.fixture(scope="session")
def generated_small(world_small: World):
    """A small generated ground truth: (topology, plan, report)."""
    config = GroundTruthConfig(
        total_routers=800, n_ases=60, tier1_count=4, tier2_count=12
    )
    return generate_ground_truth(
        world_small, config, np.random.default_rng(99)
    )


@pytest.fixture(scope="session")
def pipeline_small() -> PipelineResult:
    """The full small-scenario pipeline (shared; treat as read-only)."""
    return run_pipeline(small_scenario())


@pytest.fixture(scope="session")
def small_config() -> ScenarioConfig:
    """The scenario behind :func:`pipeline_small`."""
    return small_scenario()


def build_toy_topology() -> Topology:
    """A deterministic 6-router, 2-AS topology for exact-value tests.

    Layout (AS 100 on the west coast, AS 200 on the east coast)::

        r0 -- r1 -- r2   (AS 100, San Francisco area)
                     |
        r3 -- r4 -- r5   (AS 200, New York area; r2--r3 interdomain)

    Interface addresses are hand-assigned: loopback of router i is
    ``1000 + i``; link k uses addresses ``2000 + 2k`` and ``2001 + 2k``.
    """
    topo = Topology()
    topo.add_as(
        AutonomousSystem(
            asn=100, name="westnet", headquarters=GeoPoint(37.77, -122.42)
        )
    )
    topo.add_as(
        AutonomousSystem(
            asn=200, name="eastnet", headquarters=GeoPoint(40.71, -74.01)
        )
    )
    topo.add_routers(
        100,
        lats=np.array([37.77, 37.80, 38.58]),
        lons=np.array([-122.42, -122.27, -121.49]),
        city_code="SFO",
        loopbacks=np.array([1000, 1001, 1002]),
    )
    topo.add_routers(
        200,
        lats=np.array([40.71, 39.95, 38.90]),
        lons=np.array([-74.01, -75.17, -77.04]),
        city_code="NYC",
        loopbacks=np.array([1003, 1004, 1005]),
    )
    k = np.arange(5)
    topo.add_links(k, k + 1, 2000 + 2 * k, 2001 + 2 * k)
    for address in topo.interface_addresses().tolist():
        topo.hostnames[address] = f"0.so-1-0-0.CR1.XXX{address % 7}.example.net"
    return topo


@pytest.fixture
def toy_topology() -> Topology:
    """Fresh deterministic toy topology per test."""
    return build_toy_topology()
