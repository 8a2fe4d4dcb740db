"""Planted-vs-recovered validation.

The reproduction's central claim is a closed loop: the generator plants
geographic laws, the measurement/mapping pipeline distorts them, and the
paper's analyses recover them.  :func:`validate_recovery` runs that loop
for one pipeline result and reports, per law, the planted value, the
recovered value, and whether the recovery is within its expected band.
Benchmarks and notebooks can treat this as a one-call health check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.asgeo import as_size_measures, hull_areas, size_correlations
from repro.core.density import patch_regression, region_density_table
from repro.core.distance import (
    PAPER_BIN_MILES,
    preference_function,
    sensitivity_limit,
)
from repro.errors import AnalysisError
from repro.geo.regions import STUDY_REGIONS

if TYPE_CHECKING:
    from repro.datasets.pipeline import PipelineResult


@dataclass(frozen=True, slots=True)
class RecoveryCheck:
    """One planted-vs-recovered comparison.

    Attributes:
        law: short name of the planted property.
        planted: the generator's value (NaN when qualitative).
        recovered: the analysis estimate.
        ok: whether recovery lies within the expected band.
        note: what the band is / why it holds or fails.
    """

    law: str
    planted: float
    recovered: float
    ok: bool
    note: str


@dataclass(frozen=True)
class RecoveryReport:
    """All checks for one pipeline run."""

    checks: list[RecoveryCheck]

    def render(self) -> str:
        """Human-readable table."""
        lines = ["PLANTED vs RECOVERED", "-" * 78]
        lines.append(
            f"{'law':34s} {'planted':>9s} {'recovered':>10s} {'ok':>4s}  note"
        )
        for check in self.checks:
            planted = "-" if np.isnan(check.planted) else f"{check.planted:.3g}"
            lines.append(
                f"{check.law:34s} {planted:>9s} {check.recovered:>10.3g} "
                f"{'yes' if check.ok else 'NO':>4s}  {check.note}"
            )
        return "\n".join(lines)


def validate_recovery(
    result: PipelineResult, mapper: str = "IxMapper"
) -> RecoveryReport:
    """Run the full planted-vs-recovered comparison for one result."""
    dataset = result.dataset(mapper, "Skitter")
    planted_alpha = result.generation_report.planted_alpha
    planted_l = result.generation_report.planted_waxman_l
    checks: list[RecoveryCheck] = []

    # Density superlinearity per study region.
    region_to_zone = {"US": "USA", "Europe": "W. Europe", "Japan": "Japan"}
    for region in STUDY_REGIONS:
        zone = region_to_zone[region.name]
        try:
            slope = patch_regression(dataset, result.world.field, region).fit.slope
        except AnalysisError:
            continue
        checks.append(
            RecoveryCheck(
                law=f"density exponent ({region.name})",
                planted=planted_alpha[zone],
                recovered=slope,
                ok=slope > 1.0,
                note="superlinear (>1); sampling damps toward 1",
            )
        )

    # Waxman scale and sensitive fraction per region.
    for region in STUDY_REGIONS:
        zone = region_to_zone[region.name]
        try:
            pref = preference_function(
                dataset, region, PAPER_BIN_MILES[region.name]
            )
            limit = sensitivity_limit(pref)
        except AnalysisError:
            continue
        planted = planted_l[zone]
        recovered = limit.waxman.l_miles
        checks.append(
            RecoveryCheck(
                law=f"Waxman L miles ({region.name})",
                planted=planted,
                recovered=recovered,
                ok=planted / 3.0 < recovered < planted * 3.0,
                note="within x3 of plant",
            )
        )
        checks.append(
            RecoveryCheck(
                law=f"distance-sensitive share ({region.name})",
                planted=float("nan"),
                recovered=limit.fraction_below,
                ok=limit.fraction_below > 0.6,
                note="paper band 0.75-0.95",
            )
        )

    # Interdomain structure.
    inter = dataset.interdomain_mask()
    intra = dataset.intradomain_mask()
    if inter.any() and intra.any():
        lengths = dataset.link_lengths()
        share = intra.sum() / (inter.sum() + intra.sum())
        ratio = float(lengths[inter].mean() / lengths[intra].mean())
        checks.append(
            RecoveryCheck(
                law="intradomain link share",
                planted=1.0 - result.config.ground_truth.interdomain_link_fraction,
                recovered=float(share),
                ok=share > 0.7,
                note="paper: >= 0.83",
            )
        )
        checks.append(
            RecoveryCheck(
                law="inter/intra length ratio",
                planted=float("nan"),
                recovered=ratio,
                ok=ratio > 1.2,
                note="paper: ~2",
            )
        )

    # AS geography.
    try:
        table = as_size_measures(dataset)
        corr = size_correlations(table)
        hulls = hull_areas(dataset)
        checks.append(
            RecoveryCheck(
                law="corr(nodes, locations)",
                planted=float("nan"),
                recovered=corr.pearson_nodes_locations,
                ok=corr.pearson_nodes_locations > 0.5,
                note="strongest pair in the paper",
            )
        )
        checks.append(
            RecoveryCheck(
                law="zero-extent AS fraction",
                planted=float("nan"),
                recovered=hulls.zero_fraction,
                ok=0.4 < hulls.zero_fraction < 0.95,
                note="paper: ~0.8",
            )
        )
    except AnalysisError:
        pass

    # Table III contrast.
    rows = region_density_table(dataset, result.world.field)
    named = [r for r in rows if r.region != "World"]
    if len(named) >= 3:
        people = np.array([r.people_per_node for r in named])
        online = np.array([r.online_per_node for r in named])
        contrast = float(
            (people.max() / people.min()) / (online.max() / online.min())
        )
        checks.append(
            RecoveryCheck(
                law="people vs online variation ratio",
                planted=float("nan"),
                recovered=contrast,
                ok=contrast > 3.0,
                note="people/node varies far more than online/node",
            )
        )

    if not checks:
        raise AnalysisError("no recovery check could be computed")
    return RecoveryReport(checks=checks)
