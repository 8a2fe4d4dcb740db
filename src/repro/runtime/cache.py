"""Content-addressed on-disk artifact cache for pipeline stages.

Every cache entry is keyed by a SHA-256 over (source digest of the
``repro`` package, scenario-config digest, stage name, upstream entry
keys), so a key names *exactly one* artifact value: change any source
file, configuration field, the stage, or anything upstream and the key
changes with it.  Entries therefore never need invalidation — stale keys
are simply never asked for again.

Artifacts are serialised by named codecs.  The default codec pickles;
the dataset-producing stages register a JSON codec built on
:mod:`repro.datasets.serialize` (see ``repro/datasets/pipeline.py``) so
the shareable artefacts stay in the library's interchange format.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import threading
from pathlib import Path
from typing import Any, Callable

from repro.durable import durable_replace
from repro.errors import CacheError

_DumpFn = Callable[[Any, Path], None]
_LoadFn = Callable[[Path], Any]

_CODECS: dict[str, tuple[str, _DumpFn, _LoadFn]] = {}


def register_codec(
    name: str, suffix: str, dump: _DumpFn, load: _LoadFn
) -> None:
    """Register (or replace) an artifact codec.

    Args:
        name: codec identifier stages declare (``Stage.codec``).
        suffix: file suffix for entries, e.g. ``".json"``.
        dump: writes a value to a path.
        load: reads a value back from a path.
    """
    _CODECS[name] = (suffix, dump, load)


def _pickle_dump(value: Any, path: Path) -> None:
    with path.open("wb") as handle:
        pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)


def _pickle_load(path: Path) -> Any:
    with path.open("rb") as handle:
        return pickle.load(handle)


register_codec("pickle", ".pkl", _pickle_dump, _pickle_load)


def _jsonify(value: Any) -> Any:
    """Reduce a config object to JSON-stable primitives for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_digest(config: Any) -> str:
    """A stable hex digest of a (dataclass) configuration object."""
    payload = json.dumps(_jsonify(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@functools.cache
def code_digest() -> str:
    """SHA-256 over the ``repro`` package's ``*.py`` files: each file's
    relative path and bytes, in sorted path order.

    Computed once per process, on the first stage key, so runs without
    an artifact cache never read the sources.
    """
    root = Path(__file__).resolve().parents[1]
    files = sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    )
    h = hashlib.sha256()
    for name, path in files:
        data = path.read_bytes()
        h.update(f"{name}\x00{len(data)}\x00".encode("utf-8"))
        h.update(data)
    return h.hexdigest()


def stage_key(
    config_hash: str, stage_name: str, upstream_keys: tuple[str, ...]
) -> str:
    """Derive one stage's content key from the code, its identity and
    lineage."""
    material = "|".join((code_digest(), config_hash, stage_name, *upstream_keys))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ArtifactCache:
    """A directory of content-addressed stage artifacts.

    Thread-safe: concurrent stores of the same key are resolved by an
    atomic rename, and hit/miss counters are lock-protected.

    Attributes:
        root: the cache directory (created on first use).
        hits: keys served from disk so far.
        misses: keys not found (or unreadable) so far.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheError(f"cannot create cache directory {self.root}: {exc}")
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def _codec(self, codec: str) -> tuple[str, _DumpFn, _LoadFn]:
        try:
            return _CODECS[codec]
        except KeyError:
            raise CacheError(
                f"unknown cache codec {codec!r}; have {sorted(_CODECS)}"
            ) from None

    def _path(self, key: str, codec: str) -> Path:
        suffix, _, _ = self._codec(codec)
        return self.root / f"{key}{suffix}"

    def load(self, key: str, codec: str = "pickle") -> tuple[bool, Any]:
        """Look a key up; returns ``(hit, value)``.

        An unreadable or corrupt entry counts as a miss (and is removed
        best-effort) rather than failing the run.
        """
        _, _, load = self._codec(codec)
        path = self._path(key, codec)
        if path.exists():
            try:
                value = load(path)
            except Exception:
                path.unlink(missing_ok=True)
            else:
                with self._lock:
                    self.hits += 1
                return True, value
        with self._lock:
            self.misses += 1
        return False, None

    def store(self, key: str, value: Any, codec: str = "pickle") -> None:
        """Write an artifact under a key (temp file + durable rename)."""
        _, dump, _ = self._codec(codec)
        path = self._path(key, codec)
        tmp = path.with_name(
            f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
        )
        try:
            dump(value, tmp)
            durable_replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CacheError(f"cannot write cache entry {path}: {exc}")
        except Exception:
            # Unserialisable artifact: skip caching, never fail the run.
            tmp.unlink(missing_ok=True)
