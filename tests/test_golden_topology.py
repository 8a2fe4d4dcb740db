"""Golden values of ground-truth generation for ``small_scenario`` seeds 1-6.

Each seed's ``topology_digest`` (every router, link and interface
column plus the hostnames), its ``GenerationReport`` and the address
plan left behind, as the straightforward generator (one ``rng.choice``
per weighted draw, one topology append per batch) produced them.  The
generator may change how it computes, never what it computes: drift here
moves every measured dataset, table and figure downstream.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.config import small_scenario
from repro.net.generate import generate_ground_truth
from repro.net.topology import topology_digest
from repro.population.worldmodel import build_world

#: seed -> (topology digest, (n_routers, n_links, n_interfaces,
#: interdomain_fraction), SHA-256 of the report, SHA-256 of the plan).
GOLDEN_TOPOLOGIES = {
    1: (
        "0af7c1d52d0266507c71eedfdb6af15431c8c3352512993efcac62f4a34d5fa1",
        (2524, 3737, 9998, 0.15226117206315226),
        "7660a20e08c677433c1449016f78a0c02449b74a70a5c35ec3d73d610f7f6092",
        "eec68dc6082c05ed1df6e721879562cf97c03d76676a52cb8c0b197ec73c7630",
    ),
    2: (
        "619a75c27b93e0bc1ce4992c44644de46925e4b12a4a80cc4af916fcccca8db3",
        (2530, 3761, 10052, 0.1539484179739431),
        "9a7c3d0a3fd35f3994e81b5dc135770e26a25a698cb6cdad88ec3aeea6eb3fdb",
        "cdf6d59ee4c90a532b2f1cd5b3584f91773bd802845b0e0ac57a74dadd4dafed",
    ),
    3: (
        "0374bd461ef3554fad61c9586732209669f8081bc93ad7cfd1359d3e1571bfd1",
        (2535, 3744, 10023, 0.15144230769230768),
        "3606f196461c1fd748879e3dd375469cf23e36bd2ff7801e3f178870b9a614a3",
        "d60f368f6c89b4c2b808187a70a3e34cbc130b4e23b084f80c681deddf08c5eb",
    ),
    4: (
        "581c9fa810dc0c551d36489efa60e10c4b9e0fe506fe44a60987899aafb81a0e",
        (2529, 3760, 10049, 0.15611702127659574),
        "7c71408c7dd607c89799c11c454f242799009e2dec87f5a9b450c54344cd24d5",
        "a608ab93600cd34400a102317ee8701c8158aa2c771d044829736c15211139e7",
    ),
    5: (
        "d749d3aaf6a9c28990f7f4e678dba20af2bef60de7e8618c2b2dbee43f8b5f13",
        (2529, 3745, 10019, 0.15327102803738318),
        "1e8c83a7d3e55ec1ff54f76851330535089bb0f008a582b7bd65542babbeb779",
        "6df2981fb324e743ca517390757026d08aa95052a5e9c15f56a6475b519867de",
    ),
    6: (
        "9f625454c08de80814fed75a60c3eedac26cedba77b696c583d8983f93b202ab",
        (2536, 3764, 10064, 0.15249734325185973),
        "6271efed4a22c41ee22b6de5db175a7fe24febe90fee9ebbafa3854a7ebbb90c",
        "0f4763c04b3f5321c9c940ea46b2d632e83eae2d2fada2f4072ed18406e7363c",
    ),
}


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_TOPOLOGIES))
def test_generation_matches_golden(seed):
    digest, sizes, report_hash, plan_hash = GOLDEN_TOPOLOGIES[seed]
    scenario = small_scenario(seed)
    rng = np.random.default_rng(scenario.seed)
    world = build_world(rng, city_scale=scenario.city_scale)
    topology, plan, report = generate_ground_truth(world, scenario.ground_truth, rng)
    assert (
        report.n_routers, report.n_links, report.n_interfaces,
        report.interdomain_fraction,
    ) == sizes
    assert topology_digest(topology) == digest
    assert _sha256(dataclasses.asdict(report)) == report_hash
    assert _sha256(plan.to_dict()) == plan_hash
