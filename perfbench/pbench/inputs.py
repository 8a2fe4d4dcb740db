"""Seeded inputs: snapshots, request traffic and delta streams.

Everything here is a pure function of the benchmark seed, so the same
seed gives the same inputs; the program under test only ever receives
the generated files and requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import small_scenario
from repro.datasets.mapped import MappedDataset
from repro.datasets.pipeline import run_pipeline
from repro.datasets.serialize import save_dataset

#: Traffic mix of the open-loop workloads (shares of requests).
LOCATE_SHARE = 0.90
NEAR_SHARE = 0.08
#: Zipf exponent over node addresses and over ASes.
ZIPF_S = 1.0
NEAR_K = 8
#: Coordinate jitter (degrees) of /near queries around a node.
NEAR_JITTER_DEG = 0.05


def base_dataset(seed: int) -> MappedDataset:
    """The small scenario's IxMapper/Skitter snapshot for one seed."""
    return run_pipeline(small_scenario(seed)).dataset("IxMapper", "Skitter")


def tiled(dataset: MappedDataset, copies: int) -> MappedDataset:
    """Tile a snapshot with disjoint addresses, AS numbers and slightly
    shifted coordinates (default-scenario size from the small pipeline)."""
    span = int(dataset.addresses.max()) + 1000
    n = dataset.n_nodes
    parts = range(copies)
    return MappedDataset(
        label=f"{dataset.label}-x{copies}",
        kind=dataset.kind,
        addresses=np.concatenate([dataset.addresses + i * span for i in parts]),
        lats=np.concatenate(
            [np.clip(dataset.lats + 0.01 * i, -90.0, 90.0) for i in parts]
        ),
        lons=np.concatenate(
            [np.clip(dataset.lons + 0.01 * i, -180.0, 180.0) for i in parts]
        ),
        asns=np.concatenate(
            [
                np.where(dataset.asns > 0, dataset.asns + 10_000 * i, dataset.asns)
                for i in parts
            ]
        ),
        links=np.concatenate([dataset.links + i * n for i in parts]),
    )


#: The serving and ingest workloads all use the small scenario's default
#: seed for their snapshot; the benchmark seed drives their traffic.
SNAPSHOT_SEED = small_scenario().seed


def snapshot_file(copies: int, directory: Path) -> tuple[Path, MappedDataset]:
    """The tiled small-scenario snapshot as ``.npz``; returns path and data.

    The file is written once per checkout and reused by later runs.
    """
    from repro.datasets.serialize import load_dataset

    path = directory / f"snapshot-x{copies}.npz"
    if path.is_file():
        return path, load_dataset(path)
    dataset = tiled(base_dataset(SNAPSHOT_SEED), copies)
    directory.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.stem + ".tmp.npz")
    save_dataset(dataset, tmp)
    tmp.replace(path)
    return path, dataset


def _zipf_weights(n: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    return weights / weights.sum()


@dataclass
class TrafficModel:
    """Draws request targets for one snapshot: Zipf addresses, jittered
    /near points and Zipf ASes, in the workload's fixed mix."""

    addresses: np.ndarray  # node addresses, in popularity order
    lats: np.ndarray
    lons: np.ndarray
    asns: np.ndarray  # mapped AS numbers, in popularity order
    node_weights: np.ndarray
    as_weights: np.ndarray

    @classmethod
    def for_dataset(cls, dataset: MappedDataset, rng: np.random.Generator) -> "TrafficModel":
        order = rng.permutation(dataset.n_nodes)
        asns = np.unique(dataset.asns[dataset.asns > 0])
        asns = asns[rng.permutation(len(asns))]
        return cls(
            addresses=dataset.addresses[order],
            lats=dataset.lats[order],
            lons=dataset.lons[order],
            asns=asns,
            node_weights=_zipf_weights(dataset.n_nodes, ZIPF_S),
            as_weights=_zipf_weights(len(asns), ZIPF_S),
        )

    def targets(self, n: int, rng: np.random.Generator) -> list[str]:
        kinds = rng.random(n)
        nodes = rng.choice(len(self.addresses), size=n, p=self.node_weights)
        near_nodes = rng.integers(0, len(self.addresses), size=n)
        jitter = rng.normal(0.0, NEAR_JITTER_DEG, size=(n, 2))
        as_pick = rng.choice(len(self.asns), size=n, p=self.as_weights)
        out = []
        for i in range(n):
            if kinds[i] < LOCATE_SHARE:
                out.append(f"/locate?address={int(self.addresses[nodes[i]])}")
            elif kinds[i] < LOCATE_SHARE + NEAR_SHARE:
                j = near_nodes[i]
                lat = float(np.clip(self.lats[j] + jitter[i, 0], -90.0, 90.0))
                lon = float(np.clip(self.lons[j] + jitter[i, 1], -180.0, 180.0))
                out.append(f"/near?lat={lat:.4f}&lon={lon:.4f}&k={NEAR_K}")
            else:
                out.append(f"/as/{int(self.asns[as_pick[i]])}")
        return out


def poisson_schedule(rate: float, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process over ``duration_s``."""
    n_guess = int(rate * duration_s * 1.3) + 16
    gaps = rng.exponential(1.0 / rate, size=n_guess)
    due = np.cumsum(gaps)
    while due[-1] < duration_s:
        more = np.cumsum(rng.exponential(1.0 / rate, size=n_guess)) + due[-1]
        due = np.concatenate([due, more])
    return due[due < duration_s]
