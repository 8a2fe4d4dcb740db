"""Tests for the snapshot query service (repro.serve).

The index is validated against brute-force scans of the same dataset;
the server tests exercise the real HTTP transport end to end, including
the cache, micro-batching, and backpressure contracts.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
from contextlib import ExitStack, contextmanager

import numpy as np
import pytest

from repro.cluster import (
    ClusterCoordinator,
    ShardRange,
    ShardServer,
    build_routing,
)
from repro.core.distance import PAPER_BIN_MILES, N_BINS, preference_function
from repro.datasets.mapped import UNMAPPED_ASN, MappedDataset
from repro.errors import AnalysisError, OverloadError, ServeError
from repro.geo.distance import haversine_miles
from repro.datasets.serialize import save_dataset
from repro.geo.regions import region_by_name
from repro.ingest import Ingester, IngestHttpServer
from repro.obs.report import validate_report
from repro.serve import (
    BackoffPolicy,
    ConnectError,
    LruCache,
    MicroBatcher,
    QueryError,
    SnapshotClient,
    SnapshotIndex,
    SnapshotServer,
    call_with_retries,
)


@pytest.fixture(scope="module")
def dataset(pipeline_small) -> MappedDataset:
    return pipeline_small.dataset("IxMapper", "Skitter")


@pytest.fixture(scope="module")
def index(dataset) -> SnapshotIndex:
    return SnapshotIndex(dataset)


@pytest.fixture()
def server(index):
    with SnapshotServer(index, port=0) as srv:
        yield srv


@pytest.fixture()
def client(server) -> SnapshotClient:
    return SnapshotClient(server.url)


def _tiny_dataset() -> MappedDataset:
    return MappedDataset(
        label="tiny",
        kind="skitter",
        addresses=np.array([10, 20, 30], dtype=np.int64),
        lats=np.array([40.0, 41.0, 50.0]),
        lons=np.array([-100.0, -100.5, 10.0]),
        asns=np.array([1, 1, UNMAPPED_ASN], dtype=np.int64),
        links=np.array([[0, 1]], dtype=np.intp),
    )


class TestSnapshotIndex:
    def test_locate_matches_dataset(self, index, dataset):
        for row in (0, dataset.n_nodes // 2, dataset.n_nodes - 1):
            record = index.locate(int(dataset.addresses[row]))
            assert record is not None
            assert record["lat"] == pytest.approx(float(dataset.lats[row]))
            assert record["lon"] == pytest.approx(float(dataset.lons[row]))

    def test_locate_unknown_address(self, index, dataset):
        absent = int(dataset.addresses.max()) + 1
        assert index.locate(absent) is None

    def test_locate_many_matches_scalar(self, index, dataset):
        addresses = [int(a) for a in dataset.addresses[:50]]
        addresses.append(int(dataset.addresses.max()) + 7)  # unknown
        addresses.append(addresses[0])  # duplicate
        batch = index.locate_many(addresses)
        assert batch == [index.locate(a) for a in addresses]
        assert batch[-2] is None
        assert batch[-1] == batch[0]

    def test_degree_matches_link_table(self, index, dataset):
        row = int(dataset.links[0, 0])
        expected = int(np.count_nonzero(dataset.links == row))
        record = index.locate(int(dataset.addresses[row]))
        assert record["degree"] == expected

    def test_unmapped_asn_is_null(self):
        index = SnapshotIndex(_tiny_dataset())
        assert index.locate(30)["asn"] is None
        assert index.locate(10)["asn"] == 1

    def test_nearest_matches_brute_force(self, index, dataset):
        for lat, lon in ((40.0, -95.0), (51.0, 0.5), (35.7, 139.7)):
            got = index.nearest(lat, lon, k=5)
            dists = np.asarray(
                haversine_miles(lat, lon, dataset.lats, dataset.lons)
            )
            want = np.sort(dists)[:5]
            assert [r["miles"] for r in got] == pytest.approx(want.tolist())

    def test_within_radius_matches_brute_force(self, index, dataset):
        lat, lon, radius = 40.0, -95.0, 500.0
        got = index.within_radius(lat, lon, radius)
        dists = np.asarray(
            haversine_miles(lat, lon, dataset.lats, dataset.lons)
        )
        assert len(got) == int(np.count_nonzero(dists <= radius))
        assert all(r["miles"] <= radius for r in got)
        miles = [r["miles"] for r in got]
        assert miles == sorted(miles)

    def test_invalid_queries_rejected(self, index):
        with pytest.raises(ServeError):
            index.nearest(91.0, 0.0)
        with pytest.raises(ServeError):
            index.nearest(0.0, 181.0)
        with pytest.raises(ServeError):
            index.nearest(0.0, 0.0, k=0)
        with pytest.raises(ServeError):
            index.within_radius(0.0, 0.0, -5.0)

    def test_as_record_matches_dataset(self, index, dataset):
        mapped = dataset.asns[dataset.asns != UNMAPPED_ASN]
        asns, counts = np.unique(mapped, return_counts=True)
        assert index.n_ases == asns.size
        asn = int(asns[np.argmax(counts)])
        record = index.as_record(asn)
        nodes = np.flatnonzero(dataset.asns == asn)
        assert record["n_nodes"] == nodes.size
        # Distinct interdomain AS pairs, counted apart from the table.
        pairs = {
            (min(a, b), max(a, b))
            for a, b in dataset.asns[dataset.links].tolist()
            if a != b and UNMAPPED_ASN not in (a, b)
        }
        assert record["degree"] == sum(asn in pair for pair in pairs)
        assert record["centroid_lat"] == pytest.approx(
            float(np.mean(dataset.lats[nodes]))
        )
        assert record["sample_addresses"] == dataset.addresses[nodes[:5]].tolist()

    def test_unknown_as(self, index):
        assert index.as_record(999_999_999) is None
        assert index.as_table().find(999_999_999) == -1

    def test_distance_preference_matches_core(self, index, dataset):
        region = region_by_name("US")
        pref = index.distance_preference(region)
        direct = preference_function(
            dataset, region, PAPER_BIN_MILES["US"], n_bins=N_BINS
        )
        assert np.array_equal(pref.link_counts, direct.link_counts)
        assert np.array_equal(pref.pair_counts, direct.pair_counts)
        # Memoised: the second call returns the same object.
        assert index.distance_preference(region) is pref

    def test_distance_preference_failure_memoised(self):
        index = SnapshotIndex(_tiny_dataset())
        region = region_by_name("Japan")
        with pytest.raises(AnalysisError):
            index.distance_preference(region)
        with pytest.raises(AnalysisError):  # memoised failure, same type
            index.distance_preference(region)

    def test_concurrent_first_reads_agree(self, dataset):
        # Eight threads make the first reads of a fresh index at once:
        # each memo may be built more than once, but every reader gets
        # the answers of an index read from one thread.
        probes = np.append(dataset.addresses[::3], [-1, dataset.addresses.max() + 1])
        points = [(40.0, -95.0), (51.0, 0.5), (35.7, 139.7), (-33.9, 151.2)]

        def answers(index):
            return (
                index.rows_of(probes).tolist(),
                [index.nearest(lat, lon, k=5) for lat, lon in points],
            )

        expected = answers(SnapshotIndex(dataset))
        index = SnapshotIndex(dataset)
        start = threading.Barrier(8, timeout=30)
        results = [None] * 8

        def read(i):
            start.wait()
            results[i] = answers(index)

        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert results == [expected] * 8

    def test_stats_shape(self, index, dataset):
        stats = index.stats()
        assert stats["n_nodes"] == dataset.n_nodes
        assert stats["n_links"] == dataset.n_links
        assert stats["snapshot_hash"] == index.snapshot_hash
        assert stats["build_seconds"] >= 0


class TestLruCache:
    def test_hit_miss_and_eviction(self):
        cache = LruCache(2)
        hit, _ = cache.get("a")
        assert not hit
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (True, 1)  # refreshes recency of "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        assert cache.get("c") == (True, 3)
        assert len(cache) == 2

    def test_stats(self):
        cache = LruCache(4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("absent")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_ratio"] == pytest.approx(0.5)

    def test_invalid_capacity(self):
        with pytest.raises(ServeError):
            LruCache(0)


class TestMicroBatcher:
    def test_concurrent_submissions_all_resolve(self):
        def compute(keys):
            return [k * 10 for k in keys]

        batcher = MicroBatcher(compute, max_wait_s=0.005)
        try:
            futures = {}
            threads = []

            def submit(k):
                futures[k] = batcher.submit(k)

            for k in range(32):
                t = threading.Thread(target=submit, args=(k,))
                threads.append(t)
                t.start()
            for t in threads:
                t.join()
            for k, future in futures.items():
                assert future.result(timeout=5.0) == k * 10
        finally:
            batcher.close()

    def test_flush_deduplicates(self):
        calls: list[list[int]] = []
        release = threading.Event()

        def compute(keys):
            release.wait(timeout=5.0)
            calls.append(list(keys))
            return [k + 1 for k in keys]

        # A long window so all submissions land in one flush.
        batcher = MicroBatcher(compute, max_wait_s=0.2)
        try:
            futures = [batcher.submit(k) for k in (5, 5, 8, 5)]
            release.set()
            assert [f.result(timeout=5.0) for f in futures] == [6, 6, 9, 6]
            flat = [k for call in calls for k in call]
            assert sorted(set(flat)) == [5, 8]
            assert len(flat) == len(set(flat))  # no key computed twice
            stats = batcher.stats()
            assert stats["requests"] == 4
            assert stats["dedup_saved"] == 2
        finally:
            batcher.close()

    def test_overflow_sheds(self):
        blocker = threading.Event()

        def compute(keys):
            blocker.wait(timeout=5.0)
            return [0 for _ in keys]

        batcher = MicroBatcher(compute, max_pending=2, max_wait_s=0.0)
        try:
            # Fill the queue while the flusher is blocked in compute.
            batcher.submit(1)
            time.sleep(0.05)  # let the flusher take the first batch
            batcher.submit(2)
            batcher.submit(3)
            with pytest.raises(OverloadError):
                batcher.submit(4)
        finally:
            blocker.set()
            batcher.close()

    def test_compute_failure_propagates(self):
        def compute(keys):
            raise RuntimeError("boom")

        batcher = MicroBatcher(compute, max_wait_s=0.0)
        try:
            future = batcher.submit(1)
            with pytest.raises(RuntimeError):
                future.result(timeout=5.0)
        finally:
            batcher.close()

    def test_closed_batcher_rejects(self):
        batcher = MicroBatcher(lambda keys: [0 for _ in keys])
        batcher.close()
        with pytest.raises(ServeError):
            batcher.submit(1)

    def test_invalid_configuration(self):
        with pytest.raises(ServeError):
            MicroBatcher(lambda keys: [], max_batch=0)


class TestServerEndToEnd:
    def test_healthz(self, client, index):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["snapshot_hash"] == index.snapshot_hash

    def test_locate_and_cache_hit(self, server, client, dataset):
        address = int(dataset.addresses[0])
        first = client.locate(address)
        second = client.locate(address)
        assert first == second
        assert first["lat"] == pytest.approx(float(dataset.lats[0]))
        assert server.cache.hits >= 1

    def test_locate_many_endpoint(self, client, index, dataset):
        addresses = [int(a) for a in dataset.addresses[:5]]
        addresses.append(int(dataset.addresses.max()) + 1)
        results = client.locate_many(addresses)
        assert results == index.locate_many(addresses)
        assert results[-1] is None

    def test_locate_unknown_is_404(self, client, dataset):
        with pytest.raises(QueryError) as err:
            client.locate(int(dataset.addresses.max()) + 123)
        assert err.value.status == 404

    def test_as_endpoint(self, client, index, dataset):
        asn = int(index.as_table().asns.max())
        payload = client.as_info(asn)
        assert payload == index.as_record(asn)
        assert len(payload["sample_addresses"]) >= 1

    def test_near_endpoint(self, client, index):
        payload = client.near(40.0, -95.0, k=3)
        assert payload["results"] == index.nearest(40.0, -95.0, k=3)

    def test_radius_endpoint(self, client, index):
        payload = client.within_radius(40.0, -95.0, 300.0)
        assert payload["results"] == index.within_radius(40.0, -95.0, 300.0)

    def test_preference_endpoint(self, client, index):
        payload = client.distance_preference("US")
        pref = index.distance_preference(region_by_name("US"))
        assert payload["bin_miles"] == pref.bin_miles
        assert payload["link_counts"] == pref.link_counts.tolist()
        single = client.distance_preference("US", d=10.0)
        assert single["f_hat"] == index.f_of_d(region_by_name("US"), 10.0)

    def test_bad_params_are_400(self, client):
        with pytest.raises(QueryError) as err:
            client.get("locate", address="not-a-number")
        assert err.value.status == 400
        with pytest.raises(QueryError) as err:
            client.get("near", lat="91", lon="0")
        assert err.value.status == 400
        with pytest.raises(QueryError) as err:
            client.get("distance-preference")
        assert err.value.status == 400

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(QueryError) as err:
            client.get("no-such-endpoint")
        assert err.value.status == 404

    def test_stats_endpoint(self, client, dataset):
        payload = client.stats()
        assert payload["index"]["n_nodes"] == dataset.n_nodes
        assert "cache" in payload and "batcher" in payload
        # Request counters are recorded after the payload is rendered,
        # so the first call's counter shows up in the second call.
        payload = client.stats()
        assert payload["metrics"]["counters"]["serve.requests.stats"] >= 1

    def test_stats_report_is_schema_valid(self, server, client):
        client.healthz()
        report = server.stats_report()
        assert validate_report(report.to_dict()) == []
        assert report.config["service"] == "snapshot-query"


@pytest.fixture(params=["snapshot", "coordinator", "ingest"])
def front_end(request, index, dataset, tmp_path):
    """A started front end admitting one request at a time.

    Yields ``(server, target)``: every subclass of the shared front end
    (the snapshot server, an in-process 1x1 cluster coordinator, and
    the ingest endpoint) with one of its shed-able targets.
    """
    locate = f"/locate?address={int(dataset.addresses[0])}"
    with ExitStack() as stack:
        if request.param == "snapshot":
            server = SnapshotServer(index, port=0, max_inflight=1)
            target = locate
        elif request.param == "coordinator":
            snapshot = tmp_path / "snapshot.npz"
            save_dataset(dataset, snapshot)
            shard = stack.enter_context(
                ShardServer(str(snapshot), None, None, port=0)
            )
            routing = build_routing([ShardRange(None, None)], [[shard.url]])
            server = ClusterCoordinator(routing, port=0, max_inflight=1)
            target = locate
        else:
            ingester = stack.enter_context(
                Ingester(dataset, tmp_path / "ingest")
            )
            server = IngestHttpServer(ingester, port=0)
            server._max_inflight = 1  # the endpoint has no option for it
            target = "/status"
        yield stack.enter_context(server), target


def _http(server, method: str, target: str) -> tuple[int, dict, bytes]:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(method, target)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


@contextmanager
def _slot_held(server, target: str):
    """Park one request to ``target`` inside dispatch until exit.

    With ``max_inflight=1`` the parked request owns the only admission
    slot, so every other shed-able request is rejected meanwhile.
    """
    release = threading.Event()
    dispatch = server._dispatch

    def parked(*args):
        release.wait(timeout=10.0)
        return dispatch(*args)

    server._dispatch = parked
    answers: list[int] = []
    worker = threading.Thread(
        target=lambda: answers.append(_http(server, "GET", target)[0])
    )
    worker.start()
    try:
        deadline = time.monotonic() + 10.0
        while server.inflight < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        yield
    finally:
        release.set()
        worker.join(timeout=10.0)
        del server._dispatch
    assert answers == [200]


class TestBackpressure:
    def test_burst_sheds_while_healthz_answers(self, front_end):
        # Every front end shares one contract: while saturated, a
        # concurrent burst sheds with the 503 envelope + Retry-After
        # and the control plane keeps answering.
        server, target = front_end
        outcomes: list[tuple[int, dict, bytes]] = []
        lock = threading.Lock()

        def fire():
            outcome = _http(server, "GET", target)
            with lock:
                outcomes.append(outcome)

        with _slot_held(server, target):
            threads = [threading.Thread(target=fire) for _ in range(8)]
            for t in threads:
                t.start()
            for path in ("/healthz", "/metrics", "/stats"):
                assert _http(server, "GET", path)[0] == 200, path
            for t in threads:
                t.join()
        assert len(outcomes) == 8
        for status, headers, body in outcomes:
            assert status == 503
            assert headers["Retry-After"] == "1"
            assert headers["Content-Type"] == "application/json"
            assert json.loads(body) == {
                "error": "over capacity",
                "retry_after_s": 1,
            }
        # The slot is free again: the service did real work.
        assert _http(server, "GET", target)[0] == 200
        stats = json.loads(_http(server, "GET", "/stats")[2])
        assert stats["shed_requests"] >= 8

        assert _http(server, "POST", target)[0] == 405
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            assert sock.recv(64).startswith(b"HTTP/1.1 400 ")
        status, headers, body = _http(server, "GET", "/bogus")
        assert status == 404
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == {"error": "unknown endpoint '/bogus'"}

    def test_clean_shutdown_and_restartable_port(self, index):
        server = SnapshotServer(index, port=0)
        server.start()
        port = server.port
        SnapshotClient(server.url).healthz()
        server.stop()
        # The port is released: a new server can bind it immediately.
        again = SnapshotServer(index, port=port)
        with again:
            assert SnapshotClient(again.url).healthz()["status"] == "ok"

    def test_invalid_configuration(self, index):
        with pytest.raises(ServeError):
            SnapshotServer(index, max_inflight=0)


class TestRingSearchEdges:
    """Grid ring search at the coordinate seams, against brute force."""

    def _seam_dataset(self) -> MappedDataset:
        rng = np.random.default_rng(7)
        n = 120
        lats = np.concatenate(
            [
                rng.uniform(-10.0, 10.0, n),  # antimeridian band
                rng.uniform(85.0, 89.9, n),  # arctic cap
                np.array([-89.9, -89.5, 89.9, 89.5]),  # at the poles
            ]
        )
        lons = np.concatenate(
            [
                # Cluster tightly around the +-180 seam.
                np.where(
                    rng.random(n) < 0.5,
                    rng.uniform(178.0, 180.0, n),
                    rng.uniform(-180.0, -178.0, n),
                ),
                rng.uniform(-180.0, 180.0, n),
                np.array([0.0, 90.0, -120.0, 45.0]),
            ]
        )
        count = lats.shape[0]
        return MappedDataset(
            label="seam",
            kind="skitter",
            addresses=np.arange(1, count + 1, dtype=np.int64),
            lats=lats,
            lons=lons,
            asns=np.full(count, UNMAPPED_ASN, dtype=np.int64),
            links=np.zeros((0, 2), dtype=np.intp),
        )

    def _assert_matches_brute_force(self, index, dataset, lat, lon, k):
        got = index.nearest(lat, lon, k=k)
        dists = np.asarray(
            haversine_miles(lat, lon, dataset.lats, dataset.lons)
        )
        order = np.lexsort((dataset.addresses, dists))[:k]
        assert [r["address"] for r in got] == [
            int(dataset.addresses[i]) for i in order
        ]
        assert [r["miles"] for r in got] == pytest.approx(
            dists[order].tolist()
        )

    def test_nearest_across_antimeridian(self):
        dataset = self._seam_dataset()
        index = SnapshotIndex(dataset)
        for lon in (179.9, -179.9, 178.5, -178.5):
            self._assert_matches_brute_force(index, dataset, 0.0, lon, 10)

    def test_nearest_at_poles(self):
        dataset = self._seam_dataset()
        index = SnapshotIndex(dataset)
        for lat, lon in ((89.99, 0.0), (89.99, 179.0), (-89.99, -45.0)):
            self._assert_matches_brute_force(index, dataset, lat, lon, 8)

    def test_radius_across_antimeridian(self):
        dataset = self._seam_dataset()
        index = SnapshotIndex(dataset)
        lat, lon, radius = 0.0, 179.95, 400.0
        got = index.within_radius(lat, lon, radius)
        dists = np.asarray(
            haversine_miles(lat, lon, dataset.lats, dataset.lons)
        )
        assert len(got) == int(np.count_nonzero(dists <= radius))
        # Nodes on *both* sides of the seam are inside this disc.
        lons = [r["lon"] for r in got]
        assert any(value > 0 for value in lons)
        assert any(value < 0 for value in lons)


class TestBatcherShutdownFlush:
    def test_queued_submissions_resolve_through_close(self):
        release = threading.Event()
        entered = threading.Event()

        def compute(keys):
            entered.set()
            release.wait(timeout=5.0)
            return [k * 2 for k in keys]

        batcher = MicroBatcher(compute, max_batch=1, max_wait_s=0.0)
        first = batcher.submit(1)
        assert entered.wait(timeout=5.0)  # flusher is busy with key 1
        queued = [batcher.submit(k) for k in (2, 3, 4)]
        closer = threading.Thread(target=batcher.close)
        closer.start()
        release.set()
        # close() drains: everything submitted before it resolves.
        assert first.result(timeout=5.0) == 2
        assert [f.result(timeout=5.0) for f in queued] == [4, 6, 8]
        closer.join(timeout=5.0)
        assert not closer.is_alive()
        with pytest.raises(ServeError):
            batcher.submit(5)

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(lambda keys: [0 for _ in keys])
        batcher.close()
        batcher.close()


class TestStatsGauges:
    def test_shed_and_queue_depth_reported(self, client):
        stats = client.stats()
        assert stats["shed_requests"] == 0
        assert stats["queue_depth"] == 0

    def test_shed_requests_counts_rejections(self, index, dataset):
        server = SnapshotServer(index, port=0, max_inflight=1, cache_size=1)
        blocker = threading.Event()
        original = index.locate_many

        def slow_locate(addresses):
            blocker.wait(timeout=5.0)
            return original(addresses)

        server.batcher._compute = slow_locate
        address = int(dataset.addresses[0])
        with server:
            client = SnapshotClient(server.url, max_retries=0)
            worker = threading.Thread(
                target=lambda: SnapshotClient(server.url).locate(address)
            )
            worker.start()
            try:
                # Wait until the blocked request owns the only slot, so
                # the next query is deterministically shed.
                deadline = time.monotonic() + 5.0
                while server.inflight < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                with pytest.raises(OverloadError):
                    client.locate(address)
            finally:
                blocker.set()
                worker.join(timeout=5.0)
            assert client.stats()["shed_requests"] >= 1


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = BackoffPolicy(
            retries=6, base_delay_s=0.1, max_delay_s=0.5, jitter=0.0
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]

    def test_jitter_bounds(self):
        policy = BackoffPolicy(
            retries=1, base_delay_s=1.0, max_delay_s=8.0, jitter=0.25, seed=3
        )
        for attempt in range(50):
            delay = policy.delay_s(0)
            assert 0.75 <= delay <= 1.25

    def test_invalid_policies_rejected(self):
        with pytest.raises(ServeError):
            BackoffPolicy(retries=-1)
        with pytest.raises(ServeError):
            BackoffPolicy(jitter=1.5)

    def test_call_with_retries_eventual_success(self):
        attempts = []
        slept = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectError("nope")
            return "ok"

        policy = BackoffPolicy(retries=3, base_delay_s=0.01, jitter=0.0)
        result = call_with_retries(
            flaky, policy, retry_on=(ConnectError,), sleep=slept.append
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert len(slept) == 2

    def test_non_retryable_errors_propagate_immediately(self):
        def boom():
            raise ValueError("not transient")

        policy = BackoffPolicy(retries=5, base_delay_s=0.01, jitter=0.0)
        with pytest.raises(ValueError):
            call_with_retries(
                boom, policy, retry_on=(ConnectError,), sleep=lambda _: None
            )

    def test_budget_exhaustion_reraises_last(self):
        def always():
            raise ConnectError("still down")

        policy = BackoffPolicy(retries=2, base_delay_s=0.01, jitter=0.0)
        with pytest.raises(ConnectError, match="still down"):
            call_with_retries(
                always, policy, retry_on=(ConnectError,), sleep=lambda _: None
            )


class TestClientConnectRetry:
    def test_unreachable_server_is_connect_error(self):
        import socket as socket_mod

        with socket_mod.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client = SnapshotClient(
            f"http://127.0.0.1:{port}",
            timeout_s=0.5,
            connect_backoff=BackoffPolicy(
                retries=2, base_delay_s=0.01, jitter=0.0
            ),
        )
        with pytest.raises(ConnectError, match="cannot reach"):
            client.healthz()

    def test_refused_then_up_succeeds(self, index, monkeypatch):
        # A server that starts binding only after the first attempt:
        # the client's connection backoff should absorb the gap.
        import urllib.request as request_mod

        real_urlopen = request_mod.urlopen
        server = SnapshotServer(index, port=0)
        server.start()
        try:
            calls = []

            def flaky_urlopen(url, timeout=None):
                calls.append(url)
                if len(calls) < 3:
                    raise urllib.error.URLError(OSError(111, "refused"))
                return real_urlopen(url, timeout=timeout)

            monkeypatch.setattr(request_mod, "urlopen", flaky_urlopen)
            client = SnapshotClient(
                server.url,
                connect_backoff=BackoffPolicy(
                    retries=3, base_delay_s=0.01, jitter=0.0
                ),
            )
            assert client.healthz()["status"] == "ok"
            assert len(calls) == 3
        finally:
            server.stop()
