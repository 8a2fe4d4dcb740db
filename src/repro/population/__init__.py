"""Synthetic population substrate (CIESIN + Nua stand-in).

Builds a world of economic zones with Zipf city systems and a weighted
population point field carrying both residents and online users.  The
analyses tally that field into :class:`~repro.geo.grid.PatchGrid` cells.
"""

from repro.population.cities import (
    City,
    seed_cities,
    seed_zone_names,
    synthesize_cities,
    zipf_populations,
)
from repro.population.worldmodel import (
    EconomicZone,
    PopulationField,
    World,
    build_world,
    default_zones,
)

__all__ = [
    "City",
    "seed_cities",
    "seed_zone_names",
    "synthesize_cities",
    "zipf_populations",
    "EconomicZone",
    "PopulationField",
    "World",
    "build_world",
    "default_zones",
]
