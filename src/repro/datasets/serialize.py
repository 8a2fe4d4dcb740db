"""Serialisation of processed datasets.

Processed snapshots are the shareable artefact of a measurement study
(the paper's datasets were passed between institutions); we support a
self-describing JSON format, a compact CSV pair (nodes + links) for
interoperability with external tooling, and an uncompressed binary
``.npz`` format whose arrays round-trip losslessly without
``tolist()``/JSON costs — the cold-start path of the snapshot query
service (:mod:`repro.serve`).

:func:`save_dataset` / :func:`load_dataset` dispatch between the three
formats by file extension (a directory selects the CSV pair).
"""

from __future__ import annotations

import csv
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.datasets.mapped import MappedDataset
from repro.errors import DatasetError

_FORMAT_VERSION = 1


def dataset_to_dict(dataset: MappedDataset) -> dict:
    """A JSON-serialisable dict capturing the full dataset."""
    return {
        "format_version": _FORMAT_VERSION,
        "label": dataset.label,
        "kind": dataset.kind,
        "addresses": dataset.addresses.tolist(),
        "lats": dataset.lats.tolist(),
        "lons": dataset.lons.tolist(),
        "asns": dataset.asns.tolist(),
        "links": dataset.links.tolist(),
    }


def dataset_from_dict(payload: dict) -> MappedDataset:
    """Rebuild a dataset from :func:`dataset_to_dict` output.

    Raises:
        DatasetError: on version mismatch or missing fields.
    """
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise DatasetError(f"unsupported dataset format version {version!r}")
    try:
        links = payload["links"]
        return MappedDataset(
            label=payload["label"],
            kind=payload["kind"],
            addresses=np.asarray(payload["addresses"], dtype=np.int64),
            lats=np.asarray(payload["lats"], dtype=float),
            lons=np.asarray(payload["lons"], dtype=float),
            asns=np.asarray(payload["asns"], dtype=np.int64),
            links=(
                np.asarray(links, dtype=np.intp)
                if links
                else np.empty((0, 2), dtype=np.intp)
            ),
        )
    except KeyError as exc:
        raise DatasetError(f"dataset payload missing field {exc}") from exc


def save_dataset_json(dataset: MappedDataset, path: str | Path) -> None:
    """Write a dataset to a JSON file."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(dataset_to_dict(dataset), handle)


def load_dataset_json(path: str | Path) -> MappedDataset:
    """Read a dataset from a JSON file.

    Raises:
        DatasetError: when the file is not valid dataset JSON.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"cannot read dataset from {path}: {exc}") from exc
    return dataset_from_dict(payload)


#: Array columns with their canonical dtypes (npz layout, digest order).
CANONICAL_COLUMNS = (
    ("addresses", np.int64),
    ("lats", np.float64),
    ("lons", np.float64),
    ("asns", np.int64),
    ("links", np.int64),
)


def save_dataset_npz(dataset: MappedDataset, path: str | Path) -> None:
    """Write a dataset to an uncompressed binary ``.npz`` file.

    Arrays are stored verbatim (no ``tolist()`` round-trip through JSON
    floats, no deflate), so saving and loading are lossless and fast —
    the format the query server cold-starts from.
    """
    # Write through an open handle: ``savez`` appends ``.npz`` to bare
    # path names, which would break explicit-format saves to arbitrary
    # extensions.
    with Path(path).open("wb") as handle:
        np.savez(
            handle,
            format_version=np.int64(_FORMAT_VERSION),
            label=np.asarray(dataset.label),
            kind=np.asarray(dataset.kind),
            addresses=dataset.addresses.astype(np.int64),
            lats=dataset.lats.astype(np.float64),
            lons=dataset.lons.astype(np.float64),
            asns=dataset.asns.astype(np.int64),
            links=dataset.links.astype(np.int64).reshape(-1, 2),
        )


def load_dataset_npz(path: str | Path) -> MappedDataset:
    """Read a dataset written by :func:`save_dataset_npz`.

    Raises:
        DatasetError: when the file is missing, not an npz archive, or
            has a version/field mismatch.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as payload:
            version = int(payload["format_version"])
            if version != _FORMAT_VERSION:
                raise DatasetError(
                    f"unsupported dataset format version {version!r}"
                )
            arrays = {
                name: payload[name].astype(dtype)
                for name, dtype in CANONICAL_COLUMNS
            }
            label = str(payload["label"][()])
            kind = str(payload["kind"][()])
    except OSError as exc:
        raise DatasetError(f"cannot read dataset from {path}: {exc}") from exc
    except KeyError as exc:
        raise DatasetError(f"npz dataset missing field {exc}") from exc
    except (ValueError, zipfile.BadZipFile) as exc:
        raise DatasetError(f"{path} is not a dataset npz archive: {exc}") from exc
    links = arrays.pop("links").astype(np.intp)
    return MappedDataset(
        label=label,
        kind=kind,
        links=links if links.size else np.empty((0, 2), dtype=np.intp),
        **arrays,
    )


def save_dataset(
    dataset: MappedDataset, path: str | Path, format: str = "auto"
) -> None:
    """Write a dataset in the format named or implied by ``path``.

    ``format`` may be ``"json"``, ``"npz"``, ``"csv"``, or ``"auto"``
    (dispatch on the extension; anything that is not ``.json``/``.npz``
    is treated as a CSV-pair directory).

    Raises:
        DatasetError: on an unknown format name.
    """
    resolved = _resolve_format(path, format)
    if resolved == "json":
        save_dataset_json(dataset, path)
    elif resolved == "npz":
        save_dataset_npz(dataset, path)
    else:
        save_dataset_csv(dataset, path)


def load_dataset(
    path: str | Path,
    format: str = "auto",
    label: str = "csv import",
    kind: str = "skitter",
) -> MappedDataset:
    """Read a dataset in the format named or implied by ``path``.

    ``label``/``kind`` apply only to the CSV pair, which does not store
    them.

    Raises:
        DatasetError: on an unknown format or an unreadable file.
    """
    resolved = _resolve_format(path, format)
    if resolved == "json":
        return load_dataset_json(path)
    if resolved == "npz":
        return load_dataset_npz(path)
    return load_dataset_csv(path, label=label, kind=kind)


def _resolve_format(path: str | Path, format: str) -> str:
    if format == "auto":
        suffix = Path(path).suffix.lower()
        if suffix == ".json":
            return "json"
        if suffix == ".npz":
            return "npz"
        return "csv"
    if format not in ("json", "npz", "csv"):
        raise DatasetError(f"unknown dataset format {format!r}")
    return format


def save_dataset_csv(dataset: MappedDataset, directory: str | Path) -> None:
    """Write ``nodes.csv`` and ``links.csv`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "nodes.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["address", "lat", "lon", "asn"])
        for i in range(dataset.n_nodes):
            writer.writerow(
                [
                    int(dataset.addresses[i]),
                    float(dataset.lats[i]),
                    float(dataset.lons[i]),
                    int(dataset.asns[i]),
                ]
            )
    with (directory / "links.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node_a", "node_b"])
        for a, b in dataset.links:
            writer.writerow([int(a), int(b)])


def load_dataset_csv(
    directory: str | Path, label: str = "csv import", kind: str = "skitter"
) -> MappedDataset:
    """Read a dataset written by :func:`save_dataset_csv`.

    Raises:
        DatasetError: when either file is missing or malformed.
    """
    directory = Path(directory)
    nodes_path = directory / "nodes.csv"
    links_path = directory / "links.csv"
    if not nodes_path.exists() or not links_path.exists():
        raise DatasetError(f"{directory} does not contain nodes.csv and links.csv")
    addresses: list[int] = []
    lats: list[float] = []
    lons: list[float] = []
    asns: list[int] = []
    try:
        with nodes_path.open("r", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                addresses.append(int(row["address"]))
                lats.append(float(row["lat"]))
                lons.append(float(row["lon"]))
                asns.append(int(row["asn"]))
        links: list[tuple[int, int]] = []
        with links_path.open("r", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                links.append((int(row["node_a"]), int(row["node_b"])))
    except (KeyError, ValueError) as exc:
        raise DatasetError(f"malformed CSV dataset in {directory}: {exc}") from exc
    return MappedDataset(
        label=label,
        kind=kind,
        addresses=np.asarray(addresses, dtype=np.int64),
        lats=np.asarray(lats, dtype=float),
        lons=np.asarray(lons, dtype=float),
        asns=np.asarray(asns, dtype=np.int64),
        links=(
            np.asarray(links, dtype=np.intp)
            if links
            else np.empty((0, 2), dtype=np.intp)
        ),
    )
