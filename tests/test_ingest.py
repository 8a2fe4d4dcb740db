"""Tests for streaming ingestion (repro.ingest).

The load-bearing property is *bit identity*: a snapshot index patched
incrementally through a stream of delta batches must be
indistinguishable — internal arrays, content hash, and raw HTTP bytes
alike — from one built from scratch over the final dataset.  Around
that sit the durability contracts: WAL round-trips and torn-tail
recovery, exactly-once re-application after a crash mid-apply, and the
publish/checkpoint cycle.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import urllib.request

import numpy as np
import pytest

from repro.datasets.mapped import UNMAPPED_ASN, MappedDataset
from repro.errors import IngestError, ServeError
from repro.ingest import (
    DeltaBatch,
    Ingester,
    IngestHttpServer,
    WriteAheadLog,
    delta_digest,
    delta_from_bytes,
    delta_to_bytes,
    load_delta,
    patch_dataset,
    save_delta,
)
from repro.measure.stream import DeltaStream
from repro.obs.report import dataset_digest
from repro.serve import SnapshotIndex, SnapshotServer


@pytest.fixture(scope="module")
def dataset(pipeline_small) -> MappedDataset:
    return pipeline_small.dataset("IxMapper", "Skitter")


def _tiny_dataset() -> MappedDataset:
    return MappedDataset(
        label="tiny",
        kind="skitter",
        addresses=np.array([10, 20, 30, 40, 50, 60], dtype=np.int64),
        lats=np.array([40.0, 41.0, 50.0, 35.0, 36.0, 51.5]),
        lons=np.array([-100.0, -100.5, 10.0, -90.0, -91.0, -0.1]),
        asns=np.array([1, 1, 2, 2, UNMAPPED_ASN, 3], dtype=np.int64),
        links=np.array([[0, 1], [1, 2], [3, 4]], dtype=np.intp),
    )


def _batch(**kw) -> DeltaBatch:
    return DeltaBatch(**kw)


def _fetch(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


# -- delta batches -----------------------------------------------------------


class TestDeltaBatch:
    def test_round_trip_bytes(self):
        batch = _batch(
            add_addresses=[100, 101],
            add_lats=[10.0, 11.0],
            add_lons=[20.0, 21.0],
            add_asns=[7, UNMAPPED_ASN],
            add_links=[[100, 101], [100, 10]],
            move_addresses=[10],
            move_lats=[40.5],
            move_lons=[-99.5],
            remap_addresses=[20],
            remap_asns=[9],
            created_unix=123.5,
        )
        again = delta_from_bytes(delta_to_bytes(batch))
        assert delta_digest(again) == delta_digest(batch)
        assert again.created_unix == batch.created_unix
        np.testing.assert_array_equal(again.add_links, batch.add_links)

    def test_compressed_records_still_read(self, tmp_path):
        """Records from the earlier ``savez_compressed`` writer load
        through delta_from_bytes and replay from a WAL."""
        import io

        batch = DeltaStream(
            _tiny_dataset(), np.random.default_rng(3)
        ).next_batch(n_adds=3, n_links=4, n_moves=2, n_remaps=1)
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            format_version=np.int64(1),
            created_unix=np.float64(batch.created_unix),
            **{
                field.name: getattr(batch, field.name)
                for field in dataclasses.fields(batch)
                if field.name != "created_unix"
            },
        )
        legacy = buffer.getvalue()
        assert legacy != delta_to_bytes(batch)
        again = delta_from_bytes(legacy)
        assert delta_digest(again) == delta_digest(batch)
        assert again.created_unix == batch.created_unix
        with WriteAheadLog(tmp_path / "legacy.wal") as wal:
            wal.append(legacy)
        with WriteAheadLog(tmp_path / "legacy.wal") as wal:
            ((seq, replayed),) = list(wal.replay_deltas(0))
        assert seq == 1
        assert delta_digest(replayed) == delta_digest(batch)

    def test_digest_ignores_created_unix(self):
        batch = _batch(add_addresses=[1], add_lats=[0.0],
                       add_lons=[0.0], add_asns=[5])
        assert delta_digest(batch) == delta_digest(batch.stamped(99.0))

    def test_digest_distinguishes_content(self):
        a = _batch(add_addresses=[1], add_lats=[0.0],
                   add_lons=[0.0], add_asns=[5])
        b = _batch(add_addresses=[2], add_lats=[0.0],
                   add_lons=[0.0], add_asns=[5])
        assert delta_digest(a) != delta_digest(b)

    def test_save_load_file(self, tmp_path):
        batch = _batch(move_addresses=[10], move_lats=[1.0],
                       move_lons=[2.0])
        path = tmp_path / "delta.npz"
        save_delta(batch, path)
        assert delta_digest(load_delta(path)) == delta_digest(batch)

    def test_rejects_non_parallel_adds(self):
        with pytest.raises(IngestError, match="parallel"):
            _batch(add_addresses=[1, 2], add_lats=[0.0],
                   add_lons=[0.0, 0.0], add_asns=[1, 1])

    def test_rejects_duplicate_adds(self):
        with pytest.raises(IngestError, match="duplicates"):
            _batch(add_addresses=[1, 1], add_lats=[0.0, 0.0],
                   add_lons=[0.0, 0.0], add_asns=[1, 1])

    def test_rejects_self_loop_links(self):
        with pytest.raises(IngestError):
            _batch(add_links=[[10, 10]])

    def test_rejects_bad_coordinates(self):
        with pytest.raises(IngestError):
            _batch(move_addresses=[10], move_lats=[float("nan")],
                   move_lons=[0.0])
        with pytest.raises(IngestError):
            _batch(move_addresses=[10], move_lats=[95.0], move_lons=[0.0])


# -- dataset patching --------------------------------------------------------


class TestPatchDataset:
    def test_adds_links_moves_remaps(self):
        base = _tiny_dataset()
        batch = _batch(
            add_addresses=[70, 80],
            add_lats=[42.0, 43.0],
            add_lons=[-80.0, -81.0],
            add_asns=[4, UNMAPPED_ASN],
            add_links=[[70, 80], [70, 10]],
            move_addresses=[20],
            move_lats=[41.5],
            move_lons=[-101.0],
            remap_addresses=[30],
            remap_asns=[9],
        )
        new, info = patch_dataset(base, batch)
        assert new.n_nodes == base.n_nodes + 2
        assert new.n_links == base.n_links + 2
        assert info.n_old_nodes == base.n_nodes
        row20 = int(np.flatnonzero(new.addresses == 20)[0])
        assert new.lats[row20] == 41.5
        row30 = int(np.flatnonzero(new.addresses == 30)[0])
        assert new.asns[row30] == 9
        # The base dataset is untouched (immutability).
        assert base.n_nodes == 6
        assert base.lats[1] == 41.0

    def test_rejects_unknown_move_address(self):
        with pytest.raises(IngestError, match="unknown"):
            patch_dataset(
                _tiny_dataset(),
                _batch(move_addresses=[999], move_lats=[0.0],
                       move_lons=[0.0]),
            )

    def test_rejects_re_adding_existing_address(self):
        with pytest.raises(IngestError, match="already"):
            patch_dataset(
                _tiny_dataset(),
                _batch(add_addresses=[10], add_lats=[0.0],
                       add_lons=[0.0], add_asns=[1]),
            )

    def test_rejects_duplicate_adjacency(self):
        with pytest.raises(IngestError, match="already exists"):
            patch_dataset(_tiny_dataset(), _batch(add_links=[[20, 10]]))

    def test_link_may_reference_same_batch_add(self):
        new, _ = patch_dataset(
            _tiny_dataset(),
            _batch(add_addresses=[70], add_lats=[0.0], add_lons=[0.0],
                   add_asns=[1], add_links=[[70, 60]]),
        )
        assert new.n_links == 4


# -- write-ahead log ---------------------------------------------------------


class TestDeltaStream:
    def test_nodes_stay_on_the_base_point_set(self, dataset):
        """Added and moved nodes land only where mapped nodes already are."""
        points = set(zip(dataset.lats.tolist(), dataset.lons.tolist()))
        stream = DeltaStream(dataset, np.random.default_rng(5))
        shapes = [
            dict(n_adds=8, n_links=6, n_moves=4, n_remaps=2),
            dict(n_adds=0, n_links=2, n_moves=20, n_remaps=0),
            dict(n_adds=20, n_links=25, n_moves=0, n_remaps=5),
        ]
        current = dataset
        for k in range(200):
            current, _ = patch_dataset(
                current, stream.next_batch(**shapes[k % len(shapes)])
            )
        assert current.n_nodes > dataset.n_nodes
        assert set(zip(current.lats.tolist(), current.lons.tolist())) <= points


class TestWriteAheadLog:
    def test_append_and_replay(self, tmp_path):
        path = tmp_path / "test.wal"
        batches = [
            _batch(add_addresses=[100 + i], add_lats=[float(i)],
                   add_lons=[float(i)], add_asns=[1], created_unix=1.0 + i)
            for i in range(4)
        ]
        with WriteAheadLog(path) as wal:
            for i, batch in enumerate(batches):
                assert wal.append_delta(batch) == i + 1
        with WriteAheadLog(path) as wal:
            assert wal.last_seq == 4
            replayed = list(wal.replay_deltas(0))
        assert [seq for seq, _ in replayed] == [1, 2, 3, 4]
        for (_, got), want in zip(replayed, batches):
            assert delta_digest(got) == delta_digest(want)

    def test_replay_after_seq(self, tmp_path):
        path = tmp_path / "test.wal"
        with WriteAheadLog(path) as wal:
            for i in range(5):
                wal.append(f"payload-{i}".encode())
            tail = list(wal.entries(after_seq=3))
        assert [seq for seq, _ in tail] == [4, 5]
        assert tail[0][1] == b"payload-3"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_property_round_trip_to_identical_hash(self, tmp_path, seed):
        """Arbitrary batch streams replay to the identical dataset hash."""
        base = _tiny_dataset()
        stream = DeltaStream(base, np.random.default_rng(seed))
        batches = [
            stream.next_batch(n_adds=3, n_links=4, n_moves=2, n_remaps=1)
            for _ in range(5)
        ]
        direct = base
        with WriteAheadLog(tmp_path / "p.wal") as wal:
            for batch in batches:
                wal.append_delta(batch)
                direct, _ = patch_dataset(direct, batch)
        replayed = base
        with WriteAheadLog(tmp_path / "p.wal") as wal:
            for _, batch in wal.replay_deltas(0):
                replayed, _ = patch_dataset(replayed, batch)
        assert dataset_digest(replayed) == dataset_digest(direct)

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "torn.wal"
        with WriteAheadLog(path) as wal:
            for i in range(3):
                wal.append(f"record-{i}".encode())
        intact = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(intact - 5)  # tear the last record
        with WriteAheadLog(path) as wal:
            assert wal.last_seq == 2
            assert wal.stats()["truncated_bytes"] > 0
            # Appends continue from the surviving sequence.
            assert wal.append(b"after-recovery") == 3
            payloads = [payload for _, payload in wal.entries(0)]
        assert payloads == [b"record-0", b"record-1", b"after-recovery"]

    def test_corrupt_record_hash_truncates(self, tmp_path):
        path = tmp_path / "flip.wal"
        with WriteAheadLog(path) as wal:
            wal.append(b"good")
            second_at = path.stat().st_size
            wal.append(b"bad-to-be")
        with open(path, "r+b") as handle:
            handle.seek(second_at + struct.calcsize("<4sQQ32s"))
            handle.write(b"X")  # flip a payload byte under its hash
        with WriteAheadLog(path) as wal:
            assert wal.last_seq == 1
            assert [p for _, p in wal.entries(0)] == [b"good"]

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not-a.wal"
        path.write_bytes(b"definitely not a WAL header")
        with pytest.raises(IngestError):
            WriteAheadLog(path)


# -- incremental index: the bit-identity contract ----------------------------


class TestIncrementalIndex:
    @pytest.fixture(scope="class")
    def pair(self, dataset):
        """(incrementally patched index, from-scratch index) over the
        same final dataset, three delta batches downstream of base."""
        stream = DeltaStream(dataset, np.random.default_rng(42))
        incremental = SnapshotIndex(dataset)
        current = dataset
        for _ in range(3):
            batch = stream.next_batch(
                n_adds=6, n_links=8, n_moves=3, n_remaps=2
            )
            incremental = incremental.apply_delta(batch)
            current, _ = patch_dataset(current, batch)
        fresh = SnapshotIndex(current)
        return incremental, fresh

    def test_snapshot_hash_identical(self, pair):
        incremental, fresh = pair
        assert incremental.snapshot_hash == fresh.snapshot_hash

    def test_generation_advances(self, pair, dataset):
        incremental, fresh = pair
        assert incremental.gen == 4  # base gen 1 + three deltas
        assert fresh.gen == 1
        assert incremental.built_unix >= fresh.built_unix - 3600

    def test_internal_tables_identical(self, pair):
        incremental, fresh = pair
        for name in ("_addr_order", "_degrees", "_cells", "_cell_order"):
            np.testing.assert_array_equal(
                getattr(incremental, name), getattr(fresh, name), err_msg=name
            )
        assert incremental._cell_slices == fresh._cell_slices
        patched, rebuilt = incremental.as_table(), fresh.as_table()
        for column in dataclasses.fields(patched):
            np.testing.assert_array_equal(
                getattr(patched, column.name),
                getattr(rebuilt, column.name),
                err_msg=column.name,
            )

    def test_http_responses_bit_identical(self, pair, dataset):
        """/locate, /near, /as/<asn>, /distance-preference answer with
        byte-identical bodies from both indexes, over real HTTP."""
        incremental, fresh = pair
        final = incremental.dataset
        added = np.setdiff1d(final.addresses, dataset.addresses)
        probes = [
            f"locate?address={int(final.addresses[0])}",
            f"locate?address={int(added[0])}",
            f"locate?address={int(final.addresses.max()) + 1}",  # miss
            "near?lat=40.0&lon=-95.0&k=7",
            "near?lat=51.0&lon=0.5&radius=300",
            "distance-preference?region=US",
            "distance-preference?region=Europe",
        ]
        asns = np.unique(final.asns[final.asns > 0])
        probes += [f"as/{int(a)}" for a in asns[:5]]
        probes.append(f"as/{int(asns.max()) + 1000}")  # miss
        with SnapshotServer(incremental, port=0) as a, SnapshotServer(
            fresh, port=0
        ) as b:
            for probe in probes:
                status_a, body_a = _fetch(f"{a.url}/{probe}")
                status_b, body_b = _fetch(f"{b.url}/{probe}")
                assert (status_a, body_a) == (status_b, body_b), probe

    def test_empty_batch_bumps_gen_only(self, dataset):
        index = SnapshotIndex(dataset)
        bumped = index.apply_delta(DeltaBatch())
        assert bumped.gen == index.gen + 1
        assert bumped.snapshot_hash == index.snapshot_hash

    def test_partition_refuses_deltas(self, dataset):
        part = SnapshotIndex.build_partition(
            dataset, None, int(dataset.addresses[10]), 75.0
        )
        with pytest.raises(ServeError):
            part.apply_delta(DeltaBatch())


# -- health endpoints report generation metadata -----------------------------


class TestGenerationMetadata:
    def test_server_healthz_reports_gen(self):
        index = SnapshotIndex(_tiny_dataset())
        with SnapshotServer(index, port=0) as server:
            status, body = _fetch(f"{server.url}/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["gen"] == 1
        assert payload["built_unix"] > 0

    def test_server_stats_reports_gen(self):
        index = SnapshotIndex(_tiny_dataset())
        with SnapshotServer(index, port=0) as server:
            _, body = _fetch(f"{server.url}/stats")
        facts = json.loads(body)["index"]
        assert facts["gen"] == 1
        assert facts["built_unix"] > 0


# -- the ingester ------------------------------------------------------------


class TestIngester:
    def _stream(self, base, seed=7):
        return DeltaStream(base, np.random.default_rng(seed))

    def test_publish_at_batch_threshold(self, tmp_path):
        base = _tiny_dataset()
        stream = self._stream(base)
        with Ingester(base, tmp_path / "ing", publish_batches=2) as ing:
            first = ing.submit(stream.next_batch(2, 2, 1, 1))
            assert first["status"] == "applied" and not first["published"]
            assert ing.pending_batches == 1
            second = ing.submit(stream.next_batch(2, 2, 1, 1))
            assert second["published"]
            assert ing.pending_batches == 0
            assert ing.published_seq == 2
            gen_files = sorted(ing.out_dir.glob("gen-*.npz"))
            assert len(gen_files) == 1
            checkpoint = json.loads(
                (ing.out_dir / "checkpoint.json").read_text()
            )
            assert checkpoint["seq"] == 2
            assert checkpoint["snapshot_hash"] == ing.index.snapshot_hash

    def test_endpoint_healthz_reports_published_generation(self, tmp_path):
        base = _tiny_dataset()
        stream = self._stream(base)
        with Ingester(base, tmp_path / "ing", publish_batches=2) as ing:
            with IngestHttpServer(ing, port=0) as server:
                _, body = _fetch(f"{server.url}/healthz")
                assert json.loads(body)["snapshot_hash"] is None
                ing.submit(stream.next_batch(2, 2, 1, 1))
                ing.submit(stream.next_batch(2, 2, 1, 1))
                published = ing.index.snapshot_hash
                ing.submit(stream.next_batch(2, 2, 1, 1))  # not published
                status, body = _fetch(f"{server.url}/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["snapshot_hash"] == published
        assert health["gen"] == ing.checkpoint["gen"] == ing.index.gen - 1

    def test_duplicate_batch_dropped(self, tmp_path):
        base = _tiny_dataset()
        batch = self._stream(base).next_batch(2, 2, 1, 1)
        with Ingester(base, tmp_path / "ing", publish_batches=10) as ing:
            assert ing.submit(batch)["status"] == "applied"
            assert ing.submit(batch)["status"] == "duplicate"
            assert ing.applied_seq == 1

    def test_invalid_batch_never_journaled(self, tmp_path):
        base = _tiny_dataset()
        bad = _batch(move_addresses=[424242], move_lats=[0.0],
                     move_lons=[0.0])
        with Ingester(base, tmp_path / "ing", publish_batches=10) as ing:
            with pytest.raises(IngestError):
                ing.submit(bad)
            assert ing.wal.last_seq == 0
            assert ing.applied_seq == 0

    def test_crash_mid_apply_replays_exactly_once(self, tmp_path):
        """Journaled-but-unpublished batches are re-applied exactly once
        and resubmitting any of them is a duplicate."""
        base = _tiny_dataset()
        stream = self._stream(base)
        batches = [stream.next_batch(2, 2, 1, 1) for _ in range(3)]
        out = tmp_path / "ing"
        with Ingester(base, out, publish_batches=10) as ing:
            for batch in batches:
                ing.submit(batch)
            interrupted_hash = ing.index.snapshot_hash
            # Simulated crash: no publish, no checkpoint, WAL has 3.
            assert not (out / "checkpoint.json").exists()
        with Ingester(base, out, publish_batches=10) as revived:
            assert revived.replayed_batches == 3
            assert revived.applied_seq == 3
            assert revived.index.snapshot_hash == interrupted_hash
            assert revived.submit(batches[1])["status"] == "duplicate"
            assert revived.applied_seq == 3

    def test_resume_from_checkpoint_replays_suffix(self, tmp_path):
        base = _tiny_dataset()
        stream = self._stream(base)
        out = tmp_path / "ing"
        with Ingester(base, out, publish_batches=2) as ing:
            for _ in range(2):
                ing.submit(stream.next_batch(2, 2, 1, 1))  # publishes
            ing.submit(stream.next_batch(2, 2, 1, 1))  # pending
            live_hash = ing.index.snapshot_hash
            live_gen = ing.index.gen
        with Ingester(base, out, publish_batches=2) as revived:
            # Only the post-checkpoint suffix is replayed...
            assert revived.replayed_batches == 1
            assert revived.published_seq == 2
            assert revived.applied_seq == 3
            # ... onto the checkpointed generation, reproducing state.
            assert revived.index.snapshot_hash == live_hash
            # Generations stay monotonic across the restart.
            assert revived.index.gen >= live_gen - 1

    def test_corrupt_checkpoint_snapshot_refuses_resume(self, tmp_path):
        base = _tiny_dataset()
        stream = self._stream(base)
        out = tmp_path / "ing"
        with Ingester(base, out, publish_batches=1) as ing:
            ing.submit(stream.next_batch(2, 2, 1, 1))
            snapshot = json.loads(
                (out / "checkpoint.json").read_text()
            )["snapshot"]
        # Swap the published generation for a different dataset.
        from repro.datasets.serialize import save_dataset_npz

        save_dataset_npz(base, out / snapshot)
        with pytest.raises(IngestError, match="recorded hash.*ingest replay"):
            Ingester(base, out, publish_batches=1)

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_generation_never_becomes_active(
        self, tmp_path, monkeypatch, damage
    ):
        """A torn or bit-flipped write fails verification: no generation
        file, an unchanged checkpoint, and the next submit publishes."""
        from repro.datasets.serialize import load_dataset_npz
        from repro.ingest import publisher

        real_save = publisher.save_dataset_npz

        def damaged_save(dataset, path):
            real_save(dataset, path)
            raw = bytearray(path.read_bytes())
            if damage == "truncate":
                raw = raw[: len(raw) // 2]
            else:
                lats = np.ascontiguousarray(dataset.lats, "<f8").tobytes()
                at = raw.find(lats)
                assert at > 0
                raw[at + 3] ^= 0x01  # inside the lats payload
            path.write_bytes(bytes(raw))

        base = _tiny_dataset()
        stream = self._stream(base)
        out = tmp_path / "ing"
        with Ingester(base, out, publish_batches=1) as ing:
            ing.submit(stream.next_batch(2, 2, 1, 1))
            checkpoint = (out / "checkpoint.json").read_bytes()
            monkeypatch.setattr(publisher, "save_dataset_npz", damaged_save)
            with pytest.raises(IngestError, match="verification failed"):
                ing.submit(stream.next_batch(2, 2, 1, 1))
            assert not ing.publisher.generation_path(2).exists()
            assert not list(out.glob("*.tmp"))
            assert (out / "checkpoint.json").read_bytes() == checkpoint
            monkeypatch.setattr(publisher, "save_dataset_npz", real_save)
            assert ing.submit(stream.next_batch(2, 2, 1, 1))["published"]
            assert ing.checkpoint["seq"] == 3
            published = load_dataset_npz(ing.publisher.generation_path(3))
            assert dataset_digest(published) == ing.index.snapshot_hash
            assert ing.checkpoint["snapshot_hash"] == ing.index.snapshot_hash

    @pytest.mark.parametrize("site", ["publish", "cache", "wal"])
    def test_durable_writes_survive_power_loss(
        self, tmp_path, monkeypatch, site
    ):
        """Generation file, checkpoint and cache entry each go: file fsync, rename, directory fsync.  A new WAL fsyncs
        the file, then its directory."""
        import os
        import stat

        from repro.runtime.cache import ArtifactCache

        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            kind = "fsync-dir" if stat.S_ISDIR(info.st_mode) else "fsync"
            calls.append((kind, info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            inode = os.stat(src).st_ino
            real_replace(src, dst)
            calls.append(("replace", inode, os.path.basename(dst)))

        base = _tiny_dataset()
        out = tmp_path / "out"
        out.mkdir()
        if site == "publish":
            ing = Ingester(base, out, publish_batches=1, sync=False)
            batch = self._stream(base).next_batch(2, 2, 1, 1)
            write = lambda: ing.submit(batch)  # noqa: E731
            renamed = ["gen-00000001.npz", "checkpoint.json"]
        elif site == "cache":
            cache = ArtifactCache(out)
            write = lambda: cache.store("key", {"value": 1})  # noqa: E731
            renamed = ["key.pkl"]
        else:
            write = lambda: WriteAheadLog(out / "ingest.wal").close()  # noqa: E731
            renamed = []
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        write()
        if site == "publish":
            ing.close()
        if site == "wal":
            assert calls == [
                ("fsync", os.stat(out / "ingest.wal").st_ino),
                ("fsync-dir", os.stat(out).st_ino),
            ]
        renames = [i for i, call in enumerate(calls) if call[0] == "replace"]
        assert [calls[i][2] for i in renames] == renamed
        for i in renames:
            assert calls[i - 1] == ("fsync", calls[i][1])
            assert calls[i + 1] == ("fsync-dir", os.stat(out).st_ino)

    def test_status_facts(self, tmp_path):
        base = _tiny_dataset()
        with Ingester(base, tmp_path / "ing") as ing:
            facts = ing.status()
        assert facts["applied_seq"] == 0
        assert facts["n_nodes"] == base.n_nodes
        assert facts["wal"]["last_seq"] == 0

    def test_publish_by_age(self, tmp_path):
        base = _tiny_dataset()
        stream = self._stream(base)
        with Ingester(
            base, tmp_path / "ing", publish_batches=100,
            publish_age_s=0.05,
        ) as ing:
            batch = stream.next_batch(2, 2, 1, 1).stamped(1.0)  # ancient
            facts = ing.submit(batch)
            # The age threshold trips inside submit itself.
            assert facts["published"]
            assert ing.published_seq == 1
            assert ing.maybe_publish() is None  # nothing left pending
