"""Processed datasets and the end-to-end reproduction pipeline."""

from repro.datasets.mapped import LOCATION_DECIMALS, MappedDataset
from repro.datasets.serialize import (
    dataset_from_dict,
    dataset_to_dict,
    load_dataset_csv,
    load_dataset_json,
    save_dataset_csv,
    save_dataset_json,
)
from repro.lazy import lazy_exports

__all__ = [
    "LOCATION_DECIMALS",
    "MappedDataset",
    "PipelineResult",
    "ProcessingReport",
    "build_snapshot",
    "run_pipeline",
    "dataset_from_dict",
    "dataset_to_dict",
    "load_dataset_csv",
    "load_dataset_json",
    "save_dataset_csv",
    "save_dataset_json",
]

# The pipeline runs generation and measurement (and loads scipy); loading,
# saving and serving a dataset must not import it.
__getattr__ = lazy_exports(
    __name__,
    {
        name: "repro.datasets.pipeline"
        for name in ("PipelineResult", "ProcessingReport", "build_snapshot", "run_pipeline")
    },
)
