"""Online query service over built snapshots.

The paper's processed datasets were shareable artefacts queried
repeatedly for per-address geolocation, origin-AS, and link-distance
questions; this package turns a serialized
:class:`~repro.datasets.mapped.MappedDataset` into a live, concurrent
query service:

- :mod:`repro.serve.index` — :class:`SnapshotIndex`: O(1)/O(log n)
  lookup structures built once per snapshot;
- :mod:`repro.serve.cache` — :class:`LruCache`: the response cache;
- :mod:`repro.serve.batcher` — :class:`MicroBatcher`: coalesces
  concurrent point lookups into vectorised batches;
- :mod:`repro.serve.server` — ``FrontEnd``, the package's one HTTP
  front end (backpressure, cache, metrics, access events), and
  :class:`SnapshotServer`, the query endpoint built on it;
- :mod:`repro.serve.client` — :class:`SnapshotClient`: a small stdlib
  client honouring the 503/Retry-After contract.

``repro serve`` / ``repro query`` are the CLI entry points;
``benchmarks/bench_serve.py`` is the load generator.
"""

from repro.errors import OverloadError, ServeError
from repro.lazy import lazy_exports
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import LruCache
from repro.serve.index import PartitionData, SnapshotIndex
from repro.serve.server import SnapshotServer

__all__ = [
    "BackoffPolicy",
    "ConnectError",
    "LruCache",
    "MicroBatcher",
    "OverloadError",
    "PartitionData",
    "QueryError",
    "ServeError",
    "SnapshotClient",
    "SnapshotIndex",
    "SnapshotServer",
    "call_with_retries",
]

# The client side (``urllib.request``, ``http.client``, ``email``) loads on
# first use: servers, shards and the ingest writer never call out over HTTP.
__getattr__ = lazy_exports(
    __name__,
    {
        "BackoffPolicy": "repro.serve.retry",
        "call_with_retries": "repro.serve.retry",
        "ConnectError": "repro.serve.client",
        "QueryError": "repro.serve.client",
        "SnapshotClient": "repro.serve.client",
    },
)
