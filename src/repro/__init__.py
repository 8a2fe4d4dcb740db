"""repro: reproduction of "On the Geographic Location of Internet Resources".

Lakhina, Byers, Crovella, Matta (IMC 2002).  The package synthesises a
geographically realistic Internet, measures it the way Skitter and
Mercator did, geolocates and AS-maps the observations the way IxMapper /
EdgeScape and RouteViews-based longest-prefix matching did, and then
runs the paper's analyses — recovering the planted geographic laws.

Quickstart::

    from repro import small_scenario, run_pipeline
    result = run_pipeline(small_scenario())
    dataset = result.dataset("IxMapper", "Skitter")
    print(dataset.n_nodes, dataset.n_links, dataset.n_locations)
"""

from repro.config import (
    BgpConfig,
    GeolocConfig,
    GroundTruthConfig,
    MercatorConfig,
    ScenarioConfig,
    SkitterConfig,
    default_scenario,
    small_scenario,
)
from repro.errors import ReproError
from repro.lazy import lazy_exports
from repro.runtime import ArtifactCache, Telemetry

__version__ = "1.0.0"

# Datasets and the pipeline that builds them resolve on first use:
# importing ``repro``, as each of its subpackages does, must not load the
# stage modules or scipy.
__getattr__ = lazy_exports(
    __name__,
    {
        "MappedDataset": "repro.datasets.mapped",
        "PipelineResult": "repro.datasets.pipeline",
        "run_pipeline": "repro.datasets.pipeline",
    },
)

__all__ = [
    "BgpConfig",
    "GeolocConfig",
    "GroundTruthConfig",
    "MercatorConfig",
    "ScenarioConfig",
    "SkitterConfig",
    "default_scenario",
    "small_scenario",
    "MappedDataset",
    "PipelineResult",
    "run_pipeline",
    "ReproError",
    "ArtifactCache",
    "Telemetry",
    "__version__",
]
