"""Tests for NetGeo, the BRITE generator, and recovery validation."""

import numpy as np
import pytest

from repro.core.validation import validate_recovery
from repro.errors import ConfigError, GeolocationError
from repro.generators.brite import (
    MODE_HYBRID,
    MODE_PREFERENTIAL,
    MODE_WAXMAN,
    brite_graph,
)
from repro.geoloc.base import METHOD_UNMAPPED, METHOD_WHOIS
from repro.geoloc.netgeo import NetGeo


class TestNetGeo:
    def test_maps_to_hq_via_whois(self, toy_topology):
        from repro.geoloc.whois import WhoisRegistry
        from repro.geoloc.base import GeoContext
        from repro.net.addressing import AddressPlan
        from repro.net.ip import Prefix

        plan = AddressPlan(pool=Prefix.parse("0.0.0.0/8"), block_length=16)
        plan.grant_block(100)
        context = GeoContext.build(
            toy_topology, {}, {}, WhoisRegistry.from_plan(plan, toy_topology.asns), {}
        )
        mapper = NetGeo(context, np.random.default_rng(0), failure_rate=0.0)
        result = mapper.locate(int(toy_topology.router_loopbacks()[0]))
        assert result.method == METHOD_WHOIS
        assert result.location == toy_topology.asns[100].headquarters

    def test_unregistered_address_unmapped(self, toy_topology):
        from repro.geoloc.whois import WhoisRegistry
        from repro.geoloc.base import GeoContext
        from repro.net.addressing import AddressPlan

        context = GeoContext.build(
            toy_topology, {}, {}, WhoisRegistry.from_plan(AddressPlan(), toy_topology.asns), {}
        )
        mapper = NetGeo(context, np.random.default_rng(0), failure_rate=0.0)
        assert mapper.locate(12345).method == METHOD_UNMAPPED

    def test_bad_failure_rate_rejected(self, toy_topology):
        from repro.geoloc.whois import WhoisRegistry
        from repro.geoloc.base import GeoContext
        from repro.net.addressing import AddressPlan

        context = GeoContext.build(
            toy_topology, {}, {}, WhoisRegistry.from_plan(AddressPlan(), toy_topology.asns), {}
        )
        with pytest.raises(GeolocationError):
            NetGeo(context, np.random.default_rng(0), failure_rate=1.2)

    def test_piles_dispersed_as_onto_one_location(self, world_small,
                                                  generated_small):
        """NetGeo's known failure mode: one location per organisation."""
        from repro.config import GeolocConfig
        from repro.geoloc.base import build_context

        topology, plan, _ = generated_small
        rng = np.random.default_rng(1)
        context = build_context(world_small, topology, plan, GeolocConfig(), rng)
        mapper = NetGeo(context, rng, failure_rate=0.0)
        # Pick the largest AS; all its interfaces must land on one point.
        from collections import Counter

        router_asns = topology.router_asns()
        sizes = Counter(router_asns.tolist())
        asn, _count = sizes.most_common(1)[0]
        locations = set()
        from repro.net.ip import is_private

        owner_asns = router_asns[topology.interface_routers()]
        for address in topology.interface_addresses()[owner_asns == asn].tolist():
            if is_private(address):
                continue
            result = mapper.locate(address)
            if result.mapped:
                locations.add((result.location.lat, result.location.lon))
        assert len(locations) == 1


class TestBriteGenerator:
    @pytest.mark.parametrize("mode", [MODE_WAXMAN, MODE_PREFERENTIAL, MODE_HYBRID])
    def test_modes_generate(self, mode):
        graph = brite_graph(400, m=2, rng=np.random.default_rng(3), mode=mode)
        assert graph.n_nodes == 400
        assert graph.name == f"brite-{mode}"
        # Incremental growth with m=2: roughly 2 edges per node.
        assert graph.n_edges == pytest.approx(2 * 400, rel=0.1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            brite_graph(100, m=2, rng=np.random.default_rng(0), mode="magic")

    def test_structural_validation(self):
        with pytest.raises(ConfigError):
            brite_graph(3, m=3, rng=np.random.default_rng(0))

    def test_connected(self):
        graph = brite_graph(300, m=1, rng=np.random.default_rng(4))
        from scipy import sparse
        from scipy.sparse.csgraph import connected_components

        m = sparse.csr_matrix(
            (np.ones(graph.n_edges), (graph.edges[:, 0], graph.edges[:, 1])),
            shape=(graph.n_nodes, graph.n_nodes),
        )
        n_comp, _ = connected_components(m, directed=False)
        assert n_comp == 1

    def test_waxman_mode_shorter_edges_than_preferential(self):
        wax = brite_graph(
            600, m=2, rng=np.random.default_rng(5), mode=MODE_WAXMAN,
            waxman_alpha=0.05,
        )
        pref = brite_graph(
            600, m=2, rng=np.random.default_rng(5), mode=MODE_PREFERENTIAL
        )
        assert wax.edge_lengths_miles().mean() < pref.edge_lengths_miles().mean()

    def test_preferential_mode_heavier_degree_tail(self):
        wax = brite_graph(
            1200, m=2, rng=np.random.default_rng(6), mode=MODE_WAXMAN,
            waxman_alpha=0.05,
        )
        pref = brite_graph(
            1200, m=2, rng=np.random.default_rng(6), mode=MODE_PREFERENTIAL
        )
        assert pref.degrees().max() > wax.degrees().max()


class TestValidateRecovery:
    def test_report_on_pipeline(self, pipeline_small):
        report = validate_recovery(pipeline_small)
        assert len(report.checks) >= 6
        rendered = report.render()
        assert "PLANTED vs RECOVERED" in rendered
        # Most checks pass even at test scale.
        passed = sum(1 for c in report.checks if c.ok)
        assert passed >= len(report.checks) - 2

    def test_check_fields(self, pipeline_small):
        report = validate_recovery(pipeline_small)
        laws = {c.law for c in report.checks}
        assert any("Waxman L" in law for law in laws)
        assert any("density exponent" in law for law in laws)
        assert any("intradomain" in law for law in laws)

    def test_edgescape_variant(self, pipeline_small):
        report = validate_recovery(pipeline_small, mapper="EdgeScape")
        assert report.checks
