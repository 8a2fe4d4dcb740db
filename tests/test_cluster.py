"""Tests for the sharded serving cluster (repro.cluster).

The load-bearing property is *bit identity*: a coordinator fronting
partitioned shard workers must answer every endpoint with the exact
status and body a single-process SnapshotServer produces from the same
snapshot.  The differential test here drives both through real HTTP
and compares raw bytes.  The rest covers the moving parts around that
contract: partition planning, replica failover and ejection, the
generation-pinned hot snapshot swap, and the fleet metrics merge.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.datasets.mapped import UNMAPPED_ASN, MappedDataset
from repro.datasets.serialize import save_dataset
from repro.errors import ServeError
from repro.geo.regions import STUDY_REGIONS
from repro.obs import merge_expositions
from repro.serve import (
    SnapshotClient,
    SnapshotIndex,
    SnapshotServer,
)
from repro.cluster import (
    ClusterCoordinator,
    ReplicaSet,
    Routing,
    ShardClient,
    ShardRange,
    ShardServer,
    ShardUnavailable,
    build_routing,
    partition_bounds,
    range_indices,
)


@pytest.fixture(scope="module")
def dataset(pipeline_small) -> MappedDataset:
    return pipeline_small.dataset("IxMapper", "Skitter")


@pytest.fixture(scope="module")
def snapshot_path(dataset, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cluster") / "snapshot.npz"
    save_dataset(dataset, path)
    return str(path)


@pytest.fixture(scope="module")
def snapshot_b_path(dataset, tmp_path_factory) -> str:
    """A second snapshot with every latitude visibly shifted."""
    shifted = MappedDataset(
        label="shifted",
        kind=dataset.kind,
        addresses=dataset.addresses,
        lats=np.clip(dataset.lats + 1.0, -90.0, 90.0),
        lons=dataset.lons,
        asns=dataset.asns,
        links=dataset.links,
    )
    path = tmp_path_factory.mktemp("cluster-b") / "snapshot_b.npz"
    save_dataset(shifted, path)
    return str(path)


def _start_fleet(snapshot_path, ranges, replicas=1):
    shards = []
    urls_by_slot = []
    for rng in ranges:
        urls = []
        for _ in range(replicas):
            shard = ShardServer(
                snapshot_path, rng.addr_lo, rng.addr_hi, port=0
            )
            shard.start()
            shards.append(shard)
            urls.append(shard.url)
        urls_by_slot.append(urls)
    return shards, urls_by_slot


@pytest.fixture(scope="module")
def cluster(dataset, snapshot_path):
    """A 2-range x 1-replica in-process fleet behind a coordinator."""
    ranges = partition_bounds(dataset.addresses, 2)
    shards, urls_by_slot = _start_fleet(snapshot_path, ranges)
    routing = build_routing(ranges, urls_by_slot)
    coordinator = ClusterCoordinator(routing, port=0)
    coordinator.start()
    yield coordinator
    coordinator.stop()
    for shard in shards:
        shard.stop()


@pytest.fixture(scope="module")
def single(dataset):
    server = SnapshotServer(SnapshotIndex(dataset), port=0)
    server.start()
    yield server
    server.stop()


def _raw_get(base_url: str, target: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(base_url + target, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestPartitionPlan:
    def test_ranges_cover_and_do_not_overlap(self, dataset):
        ranges = partition_bounds(dataset.addresses, 4)
        assert len(ranges) == 4
        assert ranges[0].addr_lo is None
        assert ranges[-1].addr_hi is None
        for left, right in zip(ranges, ranges[1:]):
            assert left.addr_hi == right.addr_lo
        owners = range_indices(ranges, dataset.addresses)
        for owner, address in zip(owners, dataset.addresses):
            assert ranges[int(owner)].contains(int(address))

    def test_balanced_node_counts(self, dataset):
        ranges = partition_bounds(dataset.addresses, 3)
        owners = range_indices(ranges, dataset.addresses)
        counts = np.bincount(owners, minlength=3)
        assert counts.min() > 0.5 * counts.max()

    def test_single_range_is_unbounded(self, dataset):
        (only,) = partition_bounds(dataset.addresses, 1)
        assert only.addr_lo is None and only.addr_hi is None
        assert only.label() == "[*,*)"

    def test_more_ranges_than_addresses(self):
        addresses = np.array([5, 7], dtype=np.int64)
        ranges = partition_bounds(addresses, 5)
        assert len(ranges) == 5
        owners = range_indices(ranges, addresses)
        for owner, address in zip(owners, addresses):
            assert ranges[int(owner)].contains(int(address))

    def test_invalid_range_count(self):
        with pytest.raises(ServeError, match="n_ranges"):
            partition_bounds(np.array([1], dtype=np.int64), 0)

    def test_contains_half_open(self):
        rng = ShardRange(10, 20)
        assert rng.contains(10)
        assert rng.contains(19)
        assert not rng.contains(20)
        assert not rng.contains(9)
        assert rng.label() == "[10,20)"

    def test_absent_addresses_still_route(self, dataset):
        ranges = partition_bounds(dataset.addresses, 3)
        probe = np.array(
            [0, int(dataset.addresses.max()) + 10_000], dtype=np.int64
        )
        owners = range_indices(ranges, probe)
        assert int(owners[0]) == 0
        assert int(owners[1]) == 2


class TestPartitionIndex:
    def test_partition_nodes_are_the_owned_slice(
        self, dataset, snapshot_path
    ):
        ranges = partition_bounds(dataset.addresses, 2)
        total = 0
        for rng in ranges:
            index = SnapshotIndex.build_partition(
                snapshot_path, rng.addr_lo, rng.addr_hi
            )
            for address in index.dataset.addresses:
                assert rng.contains(int(address))
            total += index.dataset.n_nodes
        assert total == dataset.n_nodes

    def test_pair_count_partials_sum_to_exact(self, dataset):
        """Every partition answers each region's whole f_hat(d) table,
        equal to the single-process one, whatever the range plan."""
        single = SnapshotIndex(dataset)
        us = STUDY_REGIONS[0]
        first = int(
            np.flatnonzero(us.contains_mask(dataset.lats, dataset.lons))[0]
        )
        first_addr = int(dataset.addresses[first])
        quantile = [r.addr_lo for r in partition_bounds(dataset.addresses, 3)]
        # Cutting at the first US row's address hands that row to the
        # upper shard; one address higher keeps it in the lower one.
        plans = [
            quantile[1:],
            [first_addr],
            [first_addr + 1],
            [first_addr, first_addr + 1, quantile[2]],
        ]
        for cuts in plans:
            bounds = [None, *sorted(cuts), None]
            shards = [
                SnapshotIndex.build_partition(dataset, lo, hi)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            for region in STUDY_REGIONS:
                expected = single.distance_preference(region)
                for shard in shards:
                    got = shard.distance_preference(region)
                    assert got.n_nodes == expected.n_nodes
                    assert got.bin_miles == expected.bin_miles
                    for key in ("link_counts", "pair_counts"):
                        assert (
                            getattr(got, key).tolist()
                            == getattr(expected, key).tolist()
                        ), (cuts, region.name, key)
                    np.testing.assert_array_equal(got.f_hat, expected.f_hat)


class TestBitIdentity:
    def _targets(self, dataset):
        addrs = [int(a) for a in dataset.addresses[:4]]
        absent = int(dataset.addresses.max()) + 1
        mapped = dataset.asns[dataset.asns != UNMAPPED_ASN]
        asn = int(mapped[0]) if mapped.size else 1
        return [
            f"/locate?address={addrs[0]}",
            f"/locate?address={absent}",
            "/locate?address=xyz",
            "/locate",
            f"/locate?addresses={addrs[0]},{absent},{addrs[1]},{addrs[0]}",
            "/locate?addresses=",
            "/near?lat=40&lon=-100&k=5",
            "/near?lat=40&lon=-100&radius=500&limit=3",
            "/near?lat=40&lon=-100&radius=500&limit=-1",
            "/near?lat=40",
            "/near?lat=40&lon=-100&k=0",
            "/near?lat=abc&lon=-100&k=5",
            f"/as/{asn}",
            "/as/999999",
            "/as/xyz",
            "/distance-preference?region=USA",
            "/distance-preference?region=USA&d=100",
            "/distance-preference?region=USA&d=-1",
            "/distance-preference?region=USA&d=abc",
            "/distance-preference?region=USA&d=nan",
            "/distance-preference?region=USA&d=inf",
            "/distance-preference?region=Nowhere",
            "/distance-preference",
            "/bogus",
        ]

    def test_every_endpoint_matches_single_process(
        self, dataset, cluster, single
    ):
        for target in self._targets(dataset):
            expected = _raw_get(single.url, target)
            actual = _raw_get(cluster.url, target)
            assert actual == expected, f"diverged on {target}"

    def test_preference_reaches_exactly_one_range(
        self, dataset, snapshot_path, single
    ):
        ranges = partition_bounds(dataset.addresses, 3)
        shards, urls_by_slot = _start_fleet(snapshot_path, ranges)
        coordinator = ClusterCoordinator(
            build_routing(ranges, urls_by_slot), port=0
        )
        coordinator.start()
        targets = [
            "/distance-preference?region=Europe",
            "/distance-preference?region=Japan&d=50",
            "/distance-preference?region=Nowhere",
        ]
        try:
            for target in targets:
                expected = _raw_get(single.url, target)
                assert _raw_get(coordinator.url, target) == expected
            counts = [
                (
                    shard.metrics.counter(
                        "serve.requests.distance-preference"
                    ).value,
                    shard.metrics.counter("serve.requests.internal").value,
                )
                for shard in shards
            ]
        finally:
            coordinator.stop()
            for shard in shards:
                shard.stop()
        assert counts == [(len(targets), 0), (0, 0), (0, 0)]

    def test_near_merge_is_exhaustive(self, dataset, cluster, single):
        # k larger than any single shard's node count forces the merge
        # to interleave results from both ranges.
        target = f"/near?lat=40&lon=-100&k={dataset.n_nodes}"
        assert _raw_get(cluster.url, target) == _raw_get(single.url, target)

    def test_healthz_reports_full_snapshot_hash(
        self, dataset, cluster, single
    ):
        ours = json.loads(_raw_get(cluster.url, "/healthz")[1])
        theirs = json.loads(_raw_get(single.url, "/healthz")[1])
        assert ours["snapshot_hash"] == theirs["snapshot_hash"]
        assert ours["gen"] == 1

    def test_cluster_stats_shape(self, cluster):
        stats = json.loads(_raw_get(cluster.url, "/stats")[1])
        assert stats["cluster"]["gen"] == 1
        assert len(stats["cluster"]["ranges"]) == 2
        for slot in stats["cluster"]["ranges"]:
            assert slot["n_healthy"] == 1
            assert slot["replicas"][0]["healthy"] is True
        assert "shed_requests" in stats
        assert "queue_depth" in stats

    def test_metrics_include_shard_samples(self, cluster):
        _raw_get(cluster.url, "/locate?address=1")
        body = _raw_get(cluster.url, "/metrics")[1].decode()
        names = {
            line.split("{")[0].split()[0]
            for line in body.splitlines()
            if line and not line.startswith("#")
        }
        assert any(name.startswith("repro_coord_") for name in names)
        assert any(name.startswith("repro_serve_") for name in names)


class TestFailover:
    def test_dead_replica_fails_over_and_ejects(
        self, dataset, snapshot_path
    ):
        ranges = partition_bounds(dataset.addresses, 1)
        shards, urls_by_slot = _start_fleet(snapshot_path, ranges)
        dead_url = f"http://127.0.0.1:{_free_port()}"
        routing = Routing(
            1,
            ranges,
            [
                ReplicaSet(
                    [ShardClient(dead_url), ShardClient(urls_by_slot[0][0])]
                )
            ],
            shards[0].index.snapshot_hash,
        )
        coordinator = ClusterCoordinator(
            routing, port=0, health_interval_s=0.05
        )
        coordinator.start()
        try:
            client = SnapshotClient(coordinator.url)
            address = int(dataset.addresses[0])
            for _ in range(10):
                record = client.get("locate", address=address)
                assert record["address"] == address
            deadline = time.monotonic() + 10.0
            while routing.replica_sets[0].n_healthy != 1:
                assert time.monotonic() < deadline, "dead replica not ejected"
                time.sleep(0.05)
            snap = routing.replica_sets[0].snapshot()
            assert snap[0]["healthy"] is False
            assert snap[1]["healthy"] is True
        finally:
            coordinator.stop()
            for shard in shards:
                shard.stop()

    def test_ejected_replica_is_readmitted(self, dataset, snapshot_path):
        ranges = partition_bounds(dataset.addresses, 1)
        shards, urls_by_slot = _start_fleet(snapshot_path, ranges)
        late_port = _free_port()
        routing = Routing(
            1,
            ranges,
            [
                ReplicaSet(
                    [
                        ShardClient(f"http://127.0.0.1:{late_port}"),
                        ShardClient(urls_by_slot[0][0]),
                    ]
                )
            ],
            shards[0].index.snapshot_hash,
        )
        coordinator = ClusterCoordinator(
            routing, port=0, health_interval_s=0.05
        )
        coordinator.start()
        late = None
        try:
            deadline = time.monotonic() + 10.0
            while routing.replica_sets[0].n_healthy != 1:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            late = ShardServer(
                snapshot_path, None, None, port=late_port
            )
            late.start()
            shards.append(late)
            deadline = time.monotonic() + 10.0
            while routing.replica_sets[0].n_healthy != 2:
                assert time.monotonic() < deadline, "replica not readmitted"
                time.sleep(0.05)
        finally:
            coordinator.stop()
            for shard in shards:
                shard.stop()

    def test_all_replicas_down_is_503(self, dataset, snapshot_path):
        ranges = partition_bounds(dataset.addresses, 1)
        shard = ShardServer(snapshot_path, None, None, port=0)
        shard.start()
        routing = Routing(
            1,
            ranges,
            [ReplicaSet([ShardClient(f"http://127.0.0.1:{_free_port()}")])],
            shard.index.snapshot_hash,
        )
        coordinator = ClusterCoordinator(routing, port=0)
        coordinator.start()
        try:
            status, body = _raw_get(
                coordinator.url,
                f"/locate?address={int(dataset.addresses[0])}",
            )
            assert status == 503
            assert "retry_after_s" in json.loads(body)
        finally:
            coordinator.stop()
            shard.stop()


def _tiled(dataset: MappedDataset, copies: int) -> MappedDataset:
    """``copies`` shifted copies of a snapshot with disjoint addresses."""
    span = int(dataset.addresses.max()) + 1000
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
        asns=np.concatenate([dataset.asns for _ in parts]),
        links=np.concatenate(
            [dataset.links + i * dataset.n_nodes for i in parts]
        ),
    )


class TestPreferenceNotHedged:
    def test_one_replica_computes_the_table(self, dataset, tmp_path):
        """A first ``/distance-preference`` per region is slow at 12x
        tiling; a hedge would make both replicas compute and memoise it.
        The hedge delay here is 1 ms, far below any table's cost, so a
        hedged request would surely reach the second replica."""
        path = tmp_path / "x12.npz"
        save_dataset(_tiled(dataset, 12), path)
        ranges = partition_bounds(np.load(path)["addresses"], 1)
        shards, urls_by_slot = _start_fleet(str(path), ranges, replicas=2)
        coordinator = ClusterCoordinator(
            build_routing(ranges, urls_by_slot), port=0, hedge_delay_s=0.001
        )
        coordinator.start()
        try:
            status, _ = _raw_get(coordinator.url, "/distance-preference?region=US")
            hedges = coordinator.metrics.counter("coord.hedges").value
            tables = [
                shard.stats()["index"]["preference_tables"] for shard in shards
            ]
        finally:
            coordinator.stop()
            for shard in shards:
                shard.stop()
        assert status == 200
        assert hedges == 0
        assert sorted(tables) == [[], ["US"]]


class TestShardClient:
    def test_rejects_url_without_port(self):
        with pytest.raises(ServeError, match="host and port"):
            ShardClient("http://localhost")

    def test_unreachable_then_blackout(self):
        client = ShardClient(f"http://127.0.0.1:{_free_port()}")
        with pytest.raises(ShardUnavailable, match="cannot reach"):
            client.get("/healthz")
        # The failed dial opens a blackout window: fail fast, no dial.
        with pytest.raises(ShardUnavailable, match="blackout"):
            client.get("/healthz")
        assert client.probe(timeout_s=0.2) is None

    def test_keep_alive_reuses_connection(self, cluster):
        client = ShardClient(cluster.url)
        try:
            assert client.get("/healthz")[0] == 200
            assert len(client._idle) == 1
            assert client.get("/healthz")[0] == 200
            assert len(client._idle) == 1
        finally:
            client.close()

    def test_replica_set_requires_clients(self):
        with pytest.raises(ServeError):
            ReplicaSet([])

    def test_replica_set_ejection_and_candidates(self):
        rset = ReplicaSet(
            [
                ShardClient("http://127.0.0.1:1"),
                ShardClient("http://127.0.0.1:2"),
            ],
            eject_after=2,
        )
        rset.record_failure(0)
        assert rset.is_healthy(0)
        rset.record_failure(0)
        assert not rset.is_healthy(0)
        # Unhealthy replicas go last, not away.
        assert [idx for idx, _ in rset.candidates()] == [1, 0]
        rset.record_success(0, 5.0)
        assert rset.is_healthy(0)

    def test_probe_accounting_leaves_traffic_stats_alone(self):
        rset = ReplicaSet([ShardClient("http://127.0.0.1:1")])
        rset.record_success(0, 8.0)
        before = rset.snapshot()[0]
        rset.record_probe(0, True)
        rset.record_probe(0, False)
        after = rset.snapshot()[0]
        assert after["requests"] == before["requests"] == 1
        assert after["ewma_latency_ms"] == before["ewma_latency_ms"]


class TestHotReload:
    def test_reload_swaps_answers_without_drops(
        self, dataset, snapshot_path, snapshot_b_path
    ):
        ranges = partition_bounds(dataset.addresses, 2)
        shards, urls_by_slot = _start_fleet(snapshot_path, ranges)
        routing = build_routing(ranges, urls_by_slot)
        coordinator = ClusterCoordinator(
            routing, port=0, health_interval_s=0.1
        )
        coordinator.start()
        address = int(dataset.addresses[0])
        failures: list[str] = []
        stop = threading.Event()

        def hammer() -> None:
            client = SnapshotClient(coordinator.url)
            while not stop.is_set():
                try:
                    client.get("locate", address=address)
                except Exception as exc:  # noqa: BLE001 - recording all
                    failures.append(repr(exc))

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        try:
            before = SnapshotClient(coordinator.url).get(
                "locate", address=address
            )
            for thread in threads:
                thread.start()
            result = coordinator.reload(snapshot_b_path)
            stop.set()
            for thread in threads:
                thread.join()
            assert result["gen"] == 2
            assert result["staged_replicas"] == len(shards)
            assert failures == []
            after = SnapshotClient(coordinator.url).get(
                "locate", address=address
            )
            assert after["lat"] == pytest.approx(before["lat"] + 1.0)
            # The shards dropped the old generation entirely.
            shard_stats = shards[0].stats()["shard"]
            assert shard_stats["staged_gens"] == [2]
            assert coordinator.routing.gen == 2
        finally:
            stop.set()
            coordinator.stop()
            for shard in shards:
                shard.stop()

    def test_unknown_pinned_generation_answers_503(
        self, dataset, snapshot_path
    ):
        shard = ShardServer(snapshot_path, None, None, port=0)
        shard.start()
        try:
            status, body = _raw_get(
                shard.url, "/locate?address=1&_gen=99"
            )
            assert status == 503
            assert "generation 99" in json.loads(body)["error"]
        finally:
            shard.stop()

    def test_unpinned_request_stays_on_its_generation(
        self, dataset, snapshot_path, snapshot_b_path
    ):
        # An activate landing between reading the generation (the
        # cache key) and answering must not switch the answer's index.
        address = int(dataset.addresses[0])
        with ShardServer(snapshot_path, None, None, port=0) as shard:
            old = shard.index
            shard.handle_target(f"/admin/stage?snapshot={snapshot_b_path}&gen=2")
            shard.handle_target("/admin/activate?gen=2")
            _, record = shard._dispatch(
                "locate", "/locate", f"address={address}", old, ""
            )
            _, current = shard._dispatch(
                "locate", "/locate", f"address={address}", shard.index, ""
            )
        assert record == old.locate_many([address])[0]
        assert current["lat"] == pytest.approx(record["lat"] + 1.0)

    def test_reload_missing_snapshot_is_rejected(
        self, dataset, snapshot_path, tmp_path
    ):
        ranges = partition_bounds(dataset.addresses, 1)
        shards, urls_by_slot = _start_fleet(snapshot_path, ranges)
        routing = build_routing(ranges, urls_by_slot)
        coordinator = ClusterCoordinator(routing, port=0)
        coordinator.start()
        try:
            with pytest.raises(ServeError):
                coordinator.reload(tmp_path / "missing.npz")
            # The fleet still serves generation 1 afterwards.
            assert coordinator.routing.gen == 1
            status, _ = _raw_get(
                coordinator.url,
                f"/locate?address={int(dataset.addresses[0])}",
            )
            assert status == 200
        finally:
            coordinator.stop()
            for shard in shards:
                shard.stop()


class TestMergeExpositions:
    def test_sums_matching_series(self):
        merged = merge_expositions(
            [
                'serve_requests_total{endpoint="locate"} 3\nup 1\n',
                'serve_requests_total{endpoint="locate"} 4\nup 1\n',
            ]
        )
        assert 'serve_requests_total{endpoint="locate"} 7' in merged
        assert "up 2" in merged

    def test_disjoint_series_pass_through(self):
        merged = merge_expositions(["a_total 1\n", "b_total 2.5\n"])
        assert "a_total 1" in merged
        assert "b_total 2.5" in merged

    def test_empty_input(self):
        assert merge_expositions([]) == ""
