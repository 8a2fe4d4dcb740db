"""Golden values of the mapping stages for ``small_scenario`` seeds 1-6.

The four datasets' content hashes, every ``ProcessingReport`` field and
the per-method geolocation counts of each seed, as the reference
implementation (per-address geolocation over set-based inventories)
produced them.  Measurement, cleaning and mapping may change how they
compute, never what they compute: any drift here changes published
tables.
"""

import dataclasses

import pytest

from repro.config import small_scenario
from repro.datasets.pipeline import run_pipeline
from repro.obs import MetricsRegistry, use_metrics
from repro.obs.report import dataset_digest

#: seed -> label -> (dataset digest, (n_raw_nodes, n_unmapped,
#: n_location_ties, n_as_unmapped)).
GOLDEN_DATASETS = {
    1: {
        "EdgeScape, Mercator": (
            "38667fdd96df21c5f66d252e431a0b28f5f3151b2635e37424b4dc002f245e20",
            (1950, 1, 0, 6),
        ),
        "EdgeScape, Skitter": (
            "ec7f70a97a532664161b60f26fc6f11fe35e1329bddf183f516ed29afae3a405",
            (2985, 7, 0, 7),
        ),
        "IxMapper, Mercator": (
            "6a1a190c346abe8cd3eebd109ef3ad06c84deb0e95f0409f0fde6f6e296ce9f2",
            (1950, 2, 0, 6),
        ),
        "IxMapper, Skitter": (
            "93b74dbb4b56d2ac5c868f43035c0d22a71c9a528ebcc153518567d7b80254fe",
            (2985, 45, 0, 7),
        ),
    },
    2: {
        "EdgeScape, Mercator": (
            "926efe07bca9b61db5e83b297c47c440c431feb4673013b5963b4e416565de30",
            (1968, 2, 0, 9),
        ),
        "EdgeScape, Skitter": (
            "f9e3e75d712f1e1a0deff2f34a05f1812d3df9727a9d2efd429ae6f517924157",
            (2932, 16, 0, 1),
        ),
        "IxMapper, Mercator": (
            "e6b4ea30c2e3a4a7982b66121db7df39526eca727cc8237189ff9b89b7ab6b18",
            (1968, 4, 6, 9),
        ),
        "IxMapper, Skitter": (
            "8cb2a8dddeae46c5875050bb5b54a7f0e649a072dd81e242c059515b91ad95a5",
            (2932, 39, 0, 1),
        ),
    },
    3: {
        "EdgeScape, Mercator": (
            "e0ce4e6f9a942c4607657f4e056351cb23b06f550602e79895e7d03333513c86",
            (1979, 1, 0, 14),
        ),
        "EdgeScape, Skitter": (
            "fc39140c0265121cfce3101b9ae2e16a7c07beb2b554d14fe21262e5f62e65d2",
            (2932, 15, 0, 12),
        ),
        "IxMapper, Mercator": (
            "305bd1313375d2e5a6bd686449cceddb173a5ec9e73fa47c28612d3e8e346e43",
            (1979, 1, 1, 14),
        ),
        "IxMapper, Skitter": (
            "786443b66693b2fd18f1f19ac81e527d23f1326d6b3f8a3f2c02daa28da8c270",
            (2932, 44, 0, 12),
        ),
    },
    4: {
        "EdgeScape, Mercator": (
            "c566814ebde1146f864465ff9a85a40973dfbbc9b99069aaac9048ab59ef77a2",
            (1950, 1, 0, 7),
        ),
        "EdgeScape, Skitter": (
            "dda14f8e2ec49a9063121e93d03aba337f7fa79e0009d5b01a8b43ac586434ef",
            (2891, 15, 0, 3),
        ),
        "IxMapper, Mercator": (
            "62102936ac8bc72eeee684e83d86a029b713647789aece82b8a5fa78e73d84e1",
            (1950, 4, 5, 7),
        ),
        "IxMapper, Skitter": (
            "7b73c7765ade8504bd584a7bf18fc055cb1480c2066304ab5470b7ab45840962",
            (2891, 31, 0, 3),
        ),
    },
    5: {
        "EdgeScape, Mercator": (
            "c6c0025edf5f99cb7fe6709c495a4fad3b99d4d606a00f8e366bd3f76c390cb9",
            (1972, 1, 0, 4),
        ),
        "EdgeScape, Skitter": (
            "0d7ee9736b4247a5b9dd57062b3f89911ca855f421efaf4680e42741de2bb447",
            (2889, 17, 0, 0),
        ),
        "IxMapper, Mercator": (
            "23d669729a93cd6f1ea3f5b69999bb5811d403ad2dd2bd044dc1e283f4c802ef",
            (1972, 3, 3, 4),
        ),
        "IxMapper, Skitter": (
            "3373af6b0fea2b17635b1e4d44d9a7311912831c1a4c93737cbf80d968def903",
            (2889, 35, 0, 0),
        ),
    },
    6: {
        "EdgeScape, Mercator": (
            "2eaf4753ec9e2e780a1351f22efdbb58063199fd807cb590bd827c25b2f4b92e",
            (1915, 0, 0, 109),
        ),
        "EdgeScape, Skitter": (
            "b773d48cbbb091b287f826cf3d6c7d880410c96f58727bd98e5d70ebc9a12197",
            (2819, 10, 0, 173),
        ),
        "IxMapper, Mercator": (
            "a21aed698e85e08edb14700353ed6a20ad1891323d6fcfe62dc312d924bf2b33",
            (1915, 2, 6, 109),
        ),
        "IxMapper, Skitter": (
            "084c453d9cf7d2c3827f05e3427dcdb790fcba338f640d1dfb8ac2b879129da9",
            (2819, 41, 0, 171),
        ),
    },
}

#: seed -> the run's ``geoloc.*`` counters over its four mapping passes.
GOLDEN_GEOLOC = {
    1: {
        "geoloc.addresses": 15090,
        "geoloc.batches": 4,
        "geoloc.dedup_saved": 0,
        "geoloc.method.dnsloc": 5,
        "geoloc.method.hostname": 6186,
        "geoloc.method.isp": 7328,
        "geoloc.method.unmapped": 105,
        "geoloc.method.whois": 1466,
        "geoloc.unmapped": 105,
    },
    2: {
        "geoloc.addresses": 14870,
        "geoloc.batches": 4,
        "geoloc.dedup_saved": 0,
        "geoloc.method.dnsloc": 9,
        "geoloc.method.hostname": 8004,
        "geoloc.method.isp": 5120,
        "geoloc.method.unmapped": 137,
        "geoloc.method.whois": 1600,
        "geoloc.unmapped": 137,
    },
    3: {
        "geoloc.addresses": 15156,
        "geoloc.batches": 4,
        "geoloc.dedup_saved": 0,
        "geoloc.method.dnsloc": 6,
        "geoloc.method.hostname": 8177,
        "geoloc.method.isp": 4902,
        "geoloc.method.unmapped": 128,
        "geoloc.method.whois": 1943,
        "geoloc.unmapped": 128,
    },
    4: {
        "geoloc.addresses": 14922,
        "geoloc.batches": 4,
        "geoloc.dedup_saved": 0,
        "geoloc.method.dnsloc": 8,
        "geoloc.method.hostname": 5410,
        "geoloc.method.isp": 5969,
        "geoloc.method.unmapped": 135,
        "geoloc.method.whois": 3400,
        "geoloc.unmapped": 135,
    },
    5: {
        "geoloc.addresses": 15024,
        "geoloc.batches": 4,
        "geoloc.dedup_saved": 0,
        "geoloc.method.dnsloc": 6,
        "geoloc.method.hostname": 7932,
        "geoloc.method.isp": 5259,
        "geoloc.method.unmapped": 113,
        "geoloc.method.whois": 1714,
        "geoloc.unmapped": 113,
    },
    6: {
        "geoloc.addresses": 14360,
        "geoloc.batches": 4,
        "geoloc.dedup_saved": 0,
        "geoloc.method.dnsloc": 18,
        "geoloc.method.hostname": 3799,
        "geoloc.method.isp": 6527,
        "geoloc.method.unmapped": 120,
        "geoloc.method.whois": 3896,
        "geoloc.unmapped": 120,
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_DATASETS))
def test_mapping_outputs_match_golden_values(seed):
    registry = MetricsRegistry()
    with use_metrics(registry):
        result = run_pipeline(small_scenario(seed))
    got = {
        label: (
            dataset_digest(result.datasets[label]),
            dataclasses.astuple(result.processing_reports[label])[1:],
        )
        for label in result.datasets
    }
    assert got == GOLDEN_DATASETS[seed]
    assert all(
        result.processing_reports[label].label == label for label in result.datasets
    )
    counters = {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith("geoloc.")
    }
    assert counters == GOLDEN_GEOLOC[seed]
