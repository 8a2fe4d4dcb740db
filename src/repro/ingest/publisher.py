"""Publishing generation snapshots and driving cluster hot reloads.

The bridge from ingestion to serving: a :class:`SnapshotPublisher`
writes each accumulated snapshot state as a generation ``.npz``
(atomically — temp file, read-back digest verification, then a
fsynced rename), and optionally drives the cluster coordinator's
existing stage→verify→activate hot-reload flow so live answers flip to
the new generation with zero dropped requests.  Old generation files
are pruned once the fleet no longer needs them.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.datasets.mapped import MappedDataset
from repro.datasets.serialize import load_dataset_npz, save_dataset_npz
from repro.durable import durable_replace
from repro.errors import DatasetError, IngestError, ReproError
from repro.obs.bus import publish as bus_publish
from repro.obs.metrics import incr, set_gauge
from repro.obs.report import dataset_digest

#: Generation files an ingester keeps on disk (older ones are pruned;
#: shards hold their staged snapshots in memory, so history is only for
#: operators and late joiners).
DEFAULT_KEEP_GENERATIONS = 3


class SnapshotPublisher:
    """Cuts verified generation snapshots; optionally reloads a cluster.

    Attributes:
        out_dir: directory generation files land in.
        coordinator_url: cluster coordinator base URL (None = no
            cluster; files are still cut and verified).
    """

    def __init__(
        self,
        out_dir: str | Path,
        *,
        coordinator_url: str | None = None,
        keep_generations: int = DEFAULT_KEEP_GENERATIONS,
        reload_timeout_s: float = 120.0,
    ) -> None:
        if keep_generations < 1:
            raise IngestError("keep_generations must be >= 1")
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.coordinator_url = coordinator_url
        self.keep_generations = keep_generations
        self.reload_timeout_s = reload_timeout_s

    def generation_path(self, seq: int) -> Path:
        """Where the generation cut at WAL sequence ``seq`` lives."""
        return self.out_dir / f"gen-{seq:08d}.npz"

    def publish(self, dataset: MappedDataset, seq: int) -> dict:
        """Write, verify, and (when clustered) activate one generation.

        The snapshot is written to a temp file, read back, and its
        digest compared against the in-memory dataset's before the
        durable rename — a torn or bit-flipped write can never become
        the active generation.  Returns JSON-ready publish facts
        (path, hash, and the coordinator's post-reload generation when
        a cluster was driven).

        Raises:
            IngestError: when the written snapshot does not verify or
                the coordinator reload fails.
        """
        expected = dataset_digest(dataset)
        path = self.generation_path(seq)
        tmp = path.with_name(path.name + ".tmp")
        save_dataset_npz(dataset, tmp)
        try:
            written = dataset_digest(load_dataset_npz(tmp))
            problem = f"wrote {written[:16]}, expected {expected[:16]}"
        except DatasetError as exc:
            written, problem = None, str(exc)
        if written != expected:
            tmp.unlink(missing_ok=True)
            raise IngestError(
                f"snapshot verification failed for seq {seq}: {problem}"
            )
        durable_replace(tmp, path)
        facts = {
            "seq": seq,
            "snapshot": str(path),
            "snapshot_hash": expected,
            "published_unix": round(time.time(), 3),
        }
        incr("ingest.generations_published")
        if self.coordinator_url is not None:
            facts["coordinator"] = self._reload_cluster(path, expected)
        self._prune(keep_path=path)
        bus_publish("ingest.publish", **facts)
        return facts

    def _reload_cluster(self, path: Path, expected_hash: str) -> dict:
        """Drive the coordinator's stage→verify→activate flow."""
        from repro.serve.client import SnapshotClient

        client = SnapshotClient(
            self.coordinator_url, timeout_s=self.reload_timeout_s
        )
        try:
            result = client.get(
                "admin/reload", snapshot=str(path.resolve())
            )
        except ReproError as exc:
            raise IngestError(
                f"cluster reload of {path.name} failed: {exc}"
            ) from exc
        got = result.get("snapshot_hash")
        if got != expected_hash:
            raise IngestError(
                f"cluster activated hash {str(got)[:16]} but "
                f"{expected_hash[:16]} was published"
            )
        set_gauge("ingest.cluster_gen", float(result.get("gen", 0)))
        return result

    def _prune(self, keep_path: Path) -> None:
        """Delete all but the newest ``keep_generations`` files."""
        gens = sorted(self.out_dir.glob("gen-*.npz"))
        for old in gens[: max(0, len(gens) - self.keep_generations)]:
            if old != keep_path:
                old.unlink(missing_ok=True)
