"""Tests for repro.geoloc (whois, DNS LOC, IxMapper, EdgeScape)."""

import numpy as np
import pytest

from repro.config import GeolocConfig
from repro.errors import AddressError, GeolocationError
from repro.geo.coords import GeoPoint
from repro.geoloc.base import (
    METHOD_DNSLOC,
    METHOD_HOSTNAME,
    METHOD_ISP,
    METHOD_UNMAPPED,
    METHOD_WHOIS,
    GeoContext,
    MappingResult,
    build_context,
)
from repro.geoloc.dnsloc import build_loc_records
from repro.geoloc.edgescape import EdgeScape
from repro.geoloc.ixmapper import IxMapper
from repro.geoloc.whois import WhoisRegistry
from repro.net.addressing import AddressPlan
from repro.net.ip import ADDRESS_SPACE
from repro.obs import MetricsRegistry, use_metrics


def _toy_context(toy_topology, hostnames=None, loc_records=None) -> GeoContext:
    """A context for the toy topology with hand-built knowledge: its own
    hostnames unless ``hostnames`` overrides some, and no LOC records
    unless given."""
    # Toy addresses are small integers (1000-1005, 2000-2009); grant AS
    # 100 a block covering all of them so whois lookups resolve.
    from repro.net.ip import Prefix

    plan = AddressPlan(pool=Prefix.parse("0.0.0.0/8"), block_length=16)
    plan.grant_block(100)
    return GeoContext.build(
        toy_topology,
        {"SFO": GeoPoint(37.77, -122.42), "NYC": GeoPoint(40.71, -74.01)},
        {**toy_topology.hostnames, **(hostnames or {})},
        WhoisRegistry.from_plan(plan, toy_topology.asns),
        loc_records or {},
    )


@pytest.fixture
def toy_context(toy_topology) -> GeoContext:
    """A context for the toy topology with hand-built knowledge."""
    return _toy_context(toy_topology)


class TestWhoisRegistry:
    def test_lookup_resolves_owner(self, toy_topology):
        plan = AddressPlan()
        prefix = plan.grant_block(100)
        registry = WhoisRegistry.from_plan(plan, toy_topology.asns)
        (record,) = registry.lookup_many([prefix.base + 5])
        assert record is not None
        assert record.asn == 100
        assert record.headquarters == toy_topology.asns[100].headquarters

    def test_lookup_miss_returns_none(self, toy_topology):
        registry = WhoisRegistry.from_plan(AddressPlan(), toy_topology.asns)
        assert registry.lookup_many([123456]) == [None]

    def test_n_orgs(self, toy_topology):
        registry = WhoisRegistry.from_plan(AddressPlan(), toy_topology.asns)
        assert registry.n_orgs == 2

    def test_lookup_many_matches_naive_scan(self, toy_topology):
        plan = AddressPlan()
        # AS 300 holds a grant but has no organisation record.
        for asn in (100, 200, 100, 300, 200):
            plan.grant_block(asn)
        registry = WhoisRegistry.from_plan(plan, toy_topology.asns)
        grants = plan.prefix_origin_pairs()
        edges = [
            address
            for prefix, _ in grants
            for address in (prefix.base - 1, prefix.base, prefix.base + prefix.size - 1)
        ]
        rng = np.random.default_rng(3)
        pool = plan.pool
        drawn = rng.integers(pool.base, pool.base + pool.size, 500).tolist()
        addresses = edges + drawn + [0, ADDRESS_SPACE - 1]

        def naive(address):
            for prefix, asn in grants:
                if prefix.base <= address < prefix.base + prefix.size:
                    return asn if asn in toy_topology.asns else None
            return None

        records = registry.lookup_many(addresses)
        assert [r and r.asn for r in records] == [naive(a) for a in addresses]
        assert any(r is None for r in records)
        assert {r.asn for r in records if r is not None} == {100, 200}
        for bad in (-1, ADDRESS_SPACE):
            with pytest.raises(AddressError):
                registry.lookup_many([pool.base, bad])

    def test_whois_lookups_are_not_rib_lookups(self, toy_context, toy_topology):
        registry = MetricsRegistry()
        mapper = IxMapper(toy_context, np.random.default_rng(2), failure_rate=0.0)
        addresses = sorted(toy_topology.interface_addresses().tolist())
        with use_metrics(registry):
            results = mapper.locate_many(addresses).results()
        assert any(r.method == METHOD_WHOIS for r in results)
        assert registry.counter_value("bgp.lookups") == 0
        assert registry.counter_value("bgp.misses") == 0


class TestDnsLoc:
    def test_rate_zero_gives_no_records(self, toy_topology):
        records = build_loc_records(toy_topology, 0.0, np.random.default_rng(0))
        assert records == {}

    def test_rate_one_covers_all_interfaces(self, toy_topology):
        records = build_loc_records(toy_topology, 1.0, np.random.default_rng(0))
        assert set(records) == set(toy_topology.interface_addresses().tolist())

    def test_records_carry_true_location(self, toy_topology):
        records = build_loc_records(toy_topology, 1.0, np.random.default_rng(0))
        lats, lons = toy_topology.router_coordinates()
        owners = toy_topology.interface_routers()
        for address, location in records.items():
            (position,) = toy_topology.interface_positions(np.array([address]))
            router = owners[position]
            assert location == GeoPoint(float(lats[router]), float(lons[router]))


class TestIxMapper:
    def test_hostname_mapping_hits_city(self, toy_topology):
        # Hostname embeds "XXX<digit>" which is unknown; rewrite one to a
        # known code to exercise the hostname path.
        address = int(toy_topology.router_loopbacks()[0])
        context = _toy_context(
            toy_topology, hostnames={address: "0.so-1-0-0.CR1.SFO1.westnet.net"}
        )
        mapper = IxMapper(context, np.random.default_rng(0), failure_rate=0.0)
        result = mapper.locate(address)
        assert result.method == METHOD_HOSTNAME
        assert result.location == GeoPoint(37.77, -122.42)

    def test_unknown_code_falls_back_to_whois(self, toy_context, toy_topology):
        address = int(toy_topology.router_loopbacks()[0])
        mapper = IxMapper(toy_context, np.random.default_rng(0), failure_rate=0.0)
        result = mapper.locate(address)
        # Toy hostnames carry the unknown code "XXX<n>" -> whois HQ.
        assert result.method == METHOD_WHOIS
        assert result.location == toy_topology.asns[100].headquarters

    def test_loc_record_preferred_over_whois(self, toy_topology):
        address = int(toy_topology.router_loopbacks()[0])
        lats, lons = toy_topology.router_coordinates()
        true_location = GeoPoint(float(lats[0]), float(lons[0]))
        context = _toy_context(toy_topology, loc_records={address: true_location})
        mapper = IxMapper(context, np.random.default_rng(0), failure_rate=0.0)
        result = mapper.locate(address)
        assert result.method == METHOD_DNSLOC
        assert result.location == true_location

    def test_failure_rate_one_never_maps(self, toy_context, toy_topology):
        mapper = IxMapper(toy_context, np.random.default_rng(0), failure_rate=1.0)
        result = mapper.locate(int(toy_topology.router_loopbacks()[0]))
        assert result.method == METHOD_UNMAPPED
        assert not result.mapped

    def test_unknown_address_unmapped(self, toy_context):
        mapper = IxMapper(toy_context, np.random.default_rng(0), failure_rate=0.0)
        # Address outside both whois blocks with no hostname.
        result = mapper.locate(0x7F000001)
        assert result.method == METHOD_UNMAPPED

    def test_bad_failure_rate_rejected(self, toy_context):
        with pytest.raises(GeolocationError):
            IxMapper(toy_context, np.random.default_rng(0), failure_rate=1.5)

    def test_name(self, toy_context):
        assert IxMapper(toy_context, np.random.default_rng(0)).name == "IxMapper"


class TestEdgeScape:
    def test_isp_feed_gives_city_location(self, toy_context, toy_topology):
        mapper = EdgeScape(
            toy_context, toy_topology, np.random.default_rng(0),
            isp_coverage=1.0, failure_rate=0.0,
        )
        address = int(toy_topology.router_loopbacks()[0])
        result = mapper.locate(address)
        assert result.method == METHOD_ISP
        assert result.location == GeoPoint(37.77, -122.42)  # SFO centre

    def test_no_coverage_falls_back(self, toy_context, toy_topology):
        mapper = EdgeScape(
            toy_context, toy_topology, np.random.default_rng(0),
            isp_coverage=0.0, failure_rate=0.0,
        )
        result = mapper.locate(int(toy_topology.router_loopbacks()[0]))
        assert result.method in (METHOD_HOSTNAME, METHOD_WHOIS)

    def test_coverage_is_per_as(self, toy_context, toy_topology):
        mapper = EdgeScape(
            toy_context, toy_topology, np.random.default_rng(3),
            isp_coverage=0.5, failure_rate=0.0,
        )
        covered = mapper.covered_asns
        assert covered <= {100, 200}

    def test_failure_rate_one_never_maps(self, toy_context, toy_topology):
        mapper = EdgeScape(
            toy_context, toy_topology, np.random.default_rng(0),
            isp_coverage=1.0, failure_rate=1.0,
        )
        result = mapper.locate(int(toy_topology.router_loopbacks()[0]))
        assert not result.mapped

    def test_invalid_parameters_rejected(self, toy_context, toy_topology):
        with pytest.raises(GeolocationError):
            EdgeScape(
                toy_context, toy_topology, np.random.default_rng(0),
                isp_coverage=2.0,
            )


class TestLocateMany:
    """The batch API must be bit-identical to sequential locate calls."""

    def _toy_addresses(self, toy_topology):
        return sorted(toy_topology.interface_addresses().tolist())

    def test_ixmapper_batch_matches_sequential(self, toy_context, toy_topology):
        addresses = self._toy_addresses(toy_topology)
        batched = IxMapper(
            toy_context, np.random.default_rng(11), failure_rate=0.3
        ).locate_many(addresses).results()
        scalar_mapper = IxMapper(
            toy_context, np.random.default_rng(11), failure_rate=0.3
        )
        sequential = [scalar_mapper.locate(a) for a in addresses]
        assert batched == sequential

    def test_edgescape_batch_matches_sequential(self, toy_context, toy_topology):
        make = lambda seed: EdgeScape(  # noqa: E731
            toy_context, toy_topology, np.random.default_rng(seed),
            isp_coverage=0.5, failure_rate=0.3,
        )
        addresses = self._toy_addresses(toy_topology)
        batched = make(7).locate_many(addresses).results()
        scalar_mapper = make(7)
        sequential = [scalar_mapper.locate(a) for a in addresses]
        assert batched == sequential

    def test_locate_delegates_to_locate_many(self, toy_context, toy_topology):
        a = IxMapper(toy_context, np.random.default_rng(5), failure_rate=0.0)
        b = IxMapper(toy_context, np.random.default_rng(5), failure_rate=0.0)
        address = int(toy_topology.router_loopbacks()[0])
        assert a.locate(address) == b.locate_many([address]).results()[0]

    def test_empty_batch(self, toy_context):
        mapper = IxMapper(toy_context, np.random.default_rng(5))
        assert len(mapper.locate_many([])) == 0


class TestLocateBatchDedup:
    """Duplicate addresses within one batch hit the tool only once."""

    class Recording:
        """Scripted locator counting how often each address is resolved."""

        name = "Recording"

        def __init__(self):
            self.calls: list[int] = []

        def locate_many(self, addresses):
            from repro.geo.coords import GeoPoint
            from repro.geoloc.base import Locations, MappingResult

            self.calls.extend(addresses.tolist())
            return Locations.from_results(
                [
                    MappingResult(
                        location=GeoPoint(float(a % 90), float(a % 180)),
                        method=METHOD_HOSTNAME,
                    )
                    for a in addresses.tolist()
                ]
            )

    def test_duplicates_resolved_once(self):
        from repro.geoloc.base import locate_batch

        tool = self.Recording()
        batch = [7, 3, 7, 7, 9, 3]
        results = locate_batch(tool, batch).results()
        # The tool saw each distinct address once, first-occurrence order.
        assert tool.calls == [7, 3, 9]
        assert len(results) == len(batch)
        # Every duplicate receives the single computed result.
        assert results[0] == results[2] == results[3]
        assert results[1] == results[5]
        assert results[0].location.lat == 7.0
        assert results[4].location.lat == 9.0

    def test_no_duplicates_passes_through_unchanged(self):
        from repro.geoloc.base import locate_batch

        tool = self.Recording()
        batch = [1, 2, 3]
        results = locate_batch(tool, batch).results()
        assert tool.calls == batch
        assert [r.location.lat for r in results] == [1.0, 2.0, 3.0]

    def test_batch_semantics_unchanged_for_real_tool(
        self, toy_context, toy_topology
    ):
        """Dedup must not perturb results for duplicate-free batches."""
        from repro.geoloc.base import locate_batch

        addresses = sorted(toy_topology.interface_addresses().tolist())
        via_wrapper = locate_batch(
            IxMapper(toy_context, np.random.default_rng(11), failure_rate=0.3),
            addresses,
        ).results()
        direct = IxMapper(
            toy_context, np.random.default_rng(11), failure_rate=0.3
        ).locate_many(addresses).results()
        assert via_wrapper == direct

    def test_result_count_mismatch_rejected(self):
        from repro.errors import GeolocationError
        from repro.geoloc.base import locate_batch

        class Broken:
            name = "Broken"

            def locate_many(self, addresses):
                return []

        with pytest.raises(GeolocationError):
            locate_batch(Broken(), [1, 2])


class TestBuildContext:
    def test_context_from_ground_truth(self, world_small, generated_small):
        topology, plan, _ = generated_small
        context = build_context(
            world_small, topology, plan, GeolocConfig(),
            np.random.default_rng(0),
        )
        assert sorted(context.addresses.tolist()) == sorted(
            topology.interface_addresses().tolist()
        )
        assert context.whois.n_orgs == len(topology.asns)
        # Most hostnames name a known city; the feed knows every router.
        hostname, dnsloc, whois, isp = (~np.isnan(context.lats[:-1])).T
        assert hostname.mean() > 0.5
        assert isp.all() and whois.any()
        # DNS LOC records exist at roughly the configured (rare) rate.
        assert 0.0 < dnsloc.mean() < 0.02

    def test_mappers_achieve_high_coverage(self, world_small, generated_small):
        topology, plan, _ = generated_small
        rng = np.random.default_rng(1)
        context = build_context(world_small, topology, plan, GeolocConfig(), rng)
        ix = IxMapper(context, rng, failure_rate=0.012)
        es = EdgeScape(context, topology, rng, failure_rate=0.004)
        from repro.net.ip import is_private

        addresses = [
            a
            for a in topology.interface_addresses()[:800].tolist()
            if not is_private(a)
        ]
        ix_mapped = sum(ix.locate(a).mapped for a in addresses)
        es_mapped = sum(es.locate(a).mapped for a in addresses)
        # The paper: IxMapper misses 1-1.5%, EdgeScape 0.3-0.6%.
        assert ix_mapped / len(addresses) > 0.95
        assert es_mapped / len(addresses) > 0.97


class TestChainReference:
    """The tools' table lookups equal their fallback chains walked one
    address at a time over the ground-truth knowledge."""

    def test_ixmapper_and_edgescape_match_per_address_chains(
        self, world_small, generated_small
    ):
        from repro.geo.distance import haversine_miles
        from repro.net.hostnames import extract_city_code

        topology, plan, _ = generated_small
        config = GeolocConfig(ixmapper_dnsloc_rate=0.05)
        context = build_context(
            world_small, topology, plan, config, np.random.default_rng(4)
        )
        loc_records = build_loc_records(
            topology, config.ixmapper_dnsloc_rate, np.random.default_rng(4)
        )
        cities = {city.code: city.location for city in world_small.cities}
        whois = WhoisRegistry.from_plan(plan, topology.asns)
        lats, lons = topology.router_coordinates()
        codes = topology.router_city_codes()

        def hostname_city(address):
            try:
                code = extract_city_code(topology.hostnames[address])
            except GeolocationError:
                return None
            return cities.get(code) if code else None

        def feed(router):
            if codes[router] and codes[router] in cities:
                return cities[codes[router]]
            points = list(cities.values())
            distances = [
                float(haversine_miles(lats[router], lons[router], p.lat, p.lon))
                for p in points
            ]
            return points[int(np.argmin(distances))]

        addresses = topology.interface_addresses()[::3].tolist() + [0x7F000001]
        owners = dict(
            zip(
                topology.interface_addresses().tolist(),
                topology.interface_routers().tolist(),
            )
        )
        edgescape = EdgeScape(
            context, topology, np.random.default_rng(5),
            isp_coverage=0.5, failure_rate=0.0,
        )
        covered = edgescape.covered_asns
        asns = topology.router_asns()
        ixmapper = IxMapper(context, np.random.default_rng(5), failure_rate=0.0)
        ix = ixmapper.locate_many(addresses).results()
        es = edgescape.locate_many(addresses).results()
        for address, org, ix_result, es_result in zip(
            addresses, whois.lookup_many(addresses), ix, es
        ):
            hq = org.headquarters if org else None
            city = hostname_city(address) if address in owners else None
            loc = loc_records.get(address)
            ix_chain = [
                (city, METHOD_HOSTNAME), (loc, METHOD_DNSLOC), (hq, METHOD_WHOIS)
            ]
            router = owners.get(address)
            isp = (
                feed(router)
                if router is not None and int(asns[router]) in covered
                else None
            )
            es_chain = [
                (isp, METHOD_ISP), (city, METHOD_HOSTNAME), (hq, METHOD_WHOIS)
            ]
            for result, chain in ((ix_result, ix_chain), (es_result, es_chain)):
                want = next(
                    (MappingResult(p, m) for p, m in chain if p is not None),
                    MappingResult(None, METHOD_UNMAPPED),
                )
                assert result == want
