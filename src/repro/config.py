"""Scenario configuration.

One :class:`ScenarioConfig` object fully determines a reproduction run:
the synthetic world, the planted ground-truth Internet, the measurement
campaigns, and the geolocation error models.  All randomness flows from
its single ``seed`` — the pipeline spawns one child RNG stream per
stage from it (:mod:`repro.runtime`), so every table and figure is
reproducible bit-for-bit regardless of execution schedule.

The *planted* parameters here (per-zone superlinearity ``alpha``, Waxman
scale ``L``, long-range link fraction, AS dispersal thresholds) are
exactly the quantities the paper's analyses estimate; the end-to-end
pipeline's job is to recover them through the measurement and mapping
noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError

#: Planted router-density superlinearity exponent per zone (Section IV:
#: the paper reports fitted slopes of 1.2-1.75 across US/Europe/Japan).
DEFAULT_ALPHA = {
    "USA": 1.25,
    "W. Europe": 1.6,
    "Japan": 1.7,
    "Africa": 1.3,
    "South America": 1.3,
    "Mexico": 1.3,
    "Australia": 1.4,
}

#: Planted Waxman decay scale in miles per zone (Section V: the paper
#: estimates L ~ 140 mi for the US and Japan, ~80 mi for Europe).
DEFAULT_WAXMAN_L = {
    "USA": 140.0,
    "W. Europe": 80.0,
    "Japan": 140.0,
    "Africa": 180.0,
    "South America": 180.0,
    "Mexico": 150.0,
    "Australia": 160.0,
}


@dataclass(frozen=True, slots=True)
class GroundTruthConfig:
    """Parameters of the planted Internet.

    Attributes:
        total_routers: router count worldwide.
        n_ases: number of autonomous systems.
        mean_links_per_router: target link density (links / routers).
        long_range_fraction: fraction of extra intra-AS links drawn
            distance-independently (the flat large-d regime of Figure 6).
        interdomain_link_fraction: target fraction of links that cross AS
            boundaries (the paper observes < 20%).
        as_size_exponent: Zipf exponent of AS router-share by rank.
        tier1_count: number of globally meshed backbone ASes.
        tier2_count: number of regional ASes.
        max_pops_fraction: cap on an AS's PoP count as a fraction of its
            router count.
        global_dispersal_threshold: router count beyond which every AS is
            maximally (globally) dispersed — the Section VI cutoff.
        small_global_probability: chance that a *small* AS nevertheless
            disperses globally (the paper sees worldwide 3-location ASes).
        rural_router_fraction: routers placed at rural population points
            rather than city PoPs.
        pop_jitter_deg: std-dev of router placement around a city centre.
        alpha: per-zone superlinearity exponents.
        waxman_l_miles: per-zone Waxman decay scales.
    """

    total_routers: int = 30_000
    n_ases: int = 600
    mean_links_per_router: float = 1.5
    long_range_fraction: float = 0.10
    interdomain_link_fraction: float = 0.16
    as_size_exponent: float = 1.0
    tier1_count: int = 12
    tier2_count: int = 90
    max_pops_fraction: float = 0.5
    global_dispersal_threshold: int = 400
    small_global_probability: float = 0.12
    rural_router_fraction: float = 0.04
    pop_jitter_deg: float = 0.05
    alpha: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_ALPHA))
    waxman_l_miles: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_WAXMAN_L)
    )

    def __post_init__(self) -> None:
        if self.total_routers < 10:
            raise ConfigError("total_routers must be at least 10")
        if self.n_ases < 3 or self.n_ases > self.total_routers:
            raise ConfigError("n_ases must be in [3, total_routers]")
        if self.mean_links_per_router < 1.0:
            raise ConfigError("mean_links_per_router must be >= 1.0 for connectivity")
        for name, value in (
            ("long_range_fraction", self.long_range_fraction),
            ("interdomain_link_fraction", self.interdomain_link_fraction),
            ("small_global_probability", self.small_global_probability),
            ("rural_router_fraction", self.rural_router_fraction),
        ):
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.tier1_count < 1:
            # Tier-2 ASes take their providers from tier 1.
            raise ConfigError("tier1_count must be at least 1")
        if self.tier1_count + self.tier2_count >= self.n_ases:
            raise ConfigError("tier1_count + tier2_count must be < n_ases")


@dataclass(frozen=True, slots=True)
class SkitterConfig:
    """Parameters of the Skitter-style measurement campaign.

    Attributes:
        n_monitors: probing vantage points (the paper's dataset unions 19).
        destinations_per_monitor: destination list size per monitor.
        response_rate: probability a router answers TTL-expired probes.
        max_hops: probe TTL ceiling.
    """

    n_monitors: int = 19
    destinations_per_monitor: int = 4_000
    response_rate: float = 0.97
    max_hops: int = 40

    def __post_init__(self) -> None:
        if self.n_monitors < 1:
            raise ConfigError("need at least one monitor")
        if self.destinations_per_monitor < 1:
            raise ConfigError("need at least one destination per monitor")
        if not (0.0 < self.response_rate <= 1.0):
            raise ConfigError("response_rate must be in (0, 1]")
        if self.max_hops < 2:
            raise ConfigError("max_hops must be at least 2")


@dataclass(frozen=True, slots=True)
class MercatorConfig:
    """Parameters of the Mercator-style measurement campaign.

    Attributes:
        n_targets: heuristically probed destination count.
        n_source_routed: lateral probes via random intermediate routers.
        response_rate: probability a router answers probes.
        alias_resolution_rate: probability a router answers the UDP alias
            probe correctly (failures leave its interfaces unmerged).
        max_hops: probe TTL ceiling.
    """

    n_targets: int = 6_000
    n_source_routed: int = 3_000
    response_rate: float = 0.97
    alias_resolution_rate: float = 0.93
    max_hops: int = 40

    def __post_init__(self) -> None:
        if self.n_targets < 1 or self.n_source_routed < 0:
            raise ConfigError("invalid Mercator probe counts")
        for name, value in (
            ("response_rate", self.response_rate),
            ("alias_resolution_rate", self.alias_resolution_rate),
        ):
            if not (0.0 < value <= 1.0):
                raise ConfigError(f"{name} must be in (0, 1]")
        if self.max_hops < 2:
            raise ConfigError("max_hops must be at least 2")


@dataclass(frozen=True, slots=True)
class GeolocConfig:
    """Error-model parameters of the two geolocation simulators.

    Attributes:
        ixmapper_dnsloc_rate: fraction of interfaces with a DNS LOC record.
        ixmapper_unmapped_rate: fraction IxMapper cannot locate at all.
        edgescape_unmapped_rate: fraction EdgeScape cannot locate.
        edgescape_isp_coverage: fraction of ASes for which EdgeScape has
            internal ISP location feeds (true-city accuracy).
        city_snap_jitter_deg: residual error when snapping to a city.
    """

    ixmapper_dnsloc_rate: float = 0.004
    ixmapper_unmapped_rate: float = 0.012
    edgescape_unmapped_rate: float = 0.004
    edgescape_isp_coverage: float = 0.85
    city_snap_jitter_deg: float = 0.01

    def __post_init__(self) -> None:
        for name in (
            "ixmapper_dnsloc_rate",
            "ixmapper_unmapped_rate",
            "edgescape_unmapped_rate",
            "edgescape_isp_coverage",
            "city_snap_jitter_deg",
        ):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True, slots=True)
class BgpConfig:
    """Parameters of the RouteViews-style BGP snapshot.

    Attributes:
        unannounced_rate: fraction of allocated prefixes missing from the
            RIB (the paper finds 1.5-2.8% of addresses unmapped).
        deaggregation_rate: fraction of announced prefixes additionally
            announced as two more-specific halves (exercises true
            longest-prefix matching).
    """

    unannounced_rate: float = 0.02
    deaggregation_rate: float = 0.15

    def __post_init__(self) -> None:
        for name in ("unannounced_rate", "deaggregation_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Everything needed to reproduce the paper end to end.

    Attributes:
        seed: master RNG seed.
        city_scale: scales synthetic city counts (and with them run time).
        ground_truth: planted-Internet parameters.
        skitter: Skitter campaign parameters.
        mercator: Mercator campaign parameters.
        geoloc: geolocation error models.
        bgp: BGP snapshot parameters.
    """

    seed: int = 20020103
    city_scale: float = 1.0
    ground_truth: GroundTruthConfig = field(default_factory=GroundTruthConfig)
    skitter: SkitterConfig = field(default_factory=SkitterConfig)
    mercator: MercatorConfig = field(default_factory=MercatorConfig)
    geoloc: GeolocConfig = field(default_factory=GeolocConfig)
    bgp: BgpConfig = field(default_factory=BgpConfig)

    def __post_init__(self) -> None:
        if self.city_scale <= 0:
            raise ConfigError("city_scale must be positive")

    def rng(self) -> np.random.Generator:
        """A fresh generator seeded from this scenario's seed."""
        return np.random.default_rng(self.seed)


def small_scenario(seed: int = 12) -> ScenarioConfig:
    """A fast scenario for tests: ~2.5k routers, seconds of wall time."""
    return ScenarioConfig(
        seed=seed,
        city_scale=0.25,
        ground_truth=GroundTruthConfig(total_routers=2_500, n_ases=120,
                                       tier1_count=6, tier2_count=24),
        skitter=SkitterConfig(n_monitors=8, destinations_per_monitor=600),
        mercator=MercatorConfig(n_targets=900, n_source_routed=400),
    )


def tiny_scenario(seed: int = 12) -> ScenarioConfig:
    """A minimal scenario for sweep campaigns: ~700 routers, sub-second.

    Small enough that a campaign of dozens of trials stays interactive,
    yet every Section IV-VI analysis still produces a finite estimate.
    """
    return ScenarioConfig(
        seed=seed,
        city_scale=0.12,
        ground_truth=GroundTruthConfig(total_routers=700, n_ases=50,
                                       tier1_count=4, tier2_count=10),
        skitter=SkitterConfig(n_monitors=4, destinations_per_monitor=250),
        mercator=MercatorConfig(n_targets=350, n_source_routed=150),
    )


def default_scenario(seed: int = 20020103) -> ScenarioConfig:
    """The benchmark scenario: ~30k routers, minutes of wall time."""
    return ScenarioConfig(seed=seed)


def large_scenario(seed: int = 20020103) -> ScenarioConfig:
    """A production-scale scenario: ~100k routers.

    Approaches the paper's real input sizes (704k Skitter interfaces,
    228k Mercator routers were the originals) while staying tractable on
    one machine with the array-native topology core.  Measurement
    campaign sizes grow sub-linearly so the scenario stays CI-friendly.
    """
    return ScenarioConfig(
        seed=seed,
        city_scale=1.5,
        ground_truth=GroundTruthConfig(
            total_routers=100_000,
            n_ases=1_200,
            tier1_count=16,
            tier2_count=140,
        ),
        skitter=SkitterConfig(n_monitors=24, destinations_per_monitor=8_000),
        mercator=MercatorConfig(n_targets=20_000, n_source_routed=4_000),
    )
