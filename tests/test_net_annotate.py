"""Tests for repro.net.annotate (latency/bandwidth labelling)."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.net.annotate import (
    BANDWIDTH_CLASSES_MBPS,
    PER_HOP_MS,
    PROPAGATION_MS_PER_MILE,
    annotate_links,
    latency_matrix_sample,
    path_latency_ms,
)
from repro.net.topology import Topology


class TestAnnotateLinks:
    def test_latency_follows_length(self, toy_topology):
        annotations = annotate_links(toy_topology)
        lengths = toy_topology.link_lengths()
        expected = lengths * PROPAGATION_MS_PER_MILE + PER_HOP_MS
        assert np.allclose(annotations.latencies_ms, expected)

    def test_bandwidths_from_known_classes(self, toy_topology):
        annotations = annotate_links(toy_topology)
        assert set(np.unique(annotations.bandwidths_mbps)) <= set(
            BANDWIDTH_CLASSES_MBPS
        )

    def test_long_links_get_backbone_class(self, toy_topology):
        annotations = annotate_links(toy_topology)
        lengths = toy_topology.link_lengths()
        long = lengths > 500.0
        if long.any():
            assert np.all(
                annotations.bandwidths_mbps[long] == BANDWIDTH_CLASSES_MBPS[0]
            )

    def test_empty_topology_rejected(self):
        with pytest.raises(TopologyError):
            annotate_links(Topology())

    def test_generated_topology_annotates(self, generated_small):
        topology, _, _ = generated_small
        annotations = annotate_links(topology)
        assert annotations.latencies_ms.shape == (topology.n_links,)
        assert np.all(annotations.latencies_ms > 0)
        # Backbone classes exist in a realistic topology.
        assert BANDWIDTH_CLASSES_MBPS[0] in annotations.bandwidths_mbps


class TestPathLatency:
    def test_additive_along_path(self, toy_topology):
        annotations = annotate_links(toy_topology)
        one = path_latency_ms(toy_topology, annotations, [0, 1])
        two = path_latency_ms(toy_topology, annotations, [0, 1, 2])
        assert two > one

    def test_matches_link_sum(self, toy_topology):
        annotations = annotate_links(toy_topology)
        path = [0, 1, 2, 3]
        total = path_latency_ms(toy_topology, annotations, path)
        manual = sum(
            float(
                annotations.latencies_ms[toy_topology.link_id(a, b)]
            )
            for a, b in zip(path, path[1:])
        )
        assert total == pytest.approx(manual)

    def test_non_adjacent_raises(self, toy_topology):
        annotations = annotate_links(toy_topology)
        with pytest.raises(TopologyError):
            path_latency_ms(toy_topology, annotations, [0, 5])


class TestLatencyMatrix:
    def test_matrix_shape_and_diagonal(self, toy_topology):
        annotations = annotate_links(toy_topology)
        matrix = latency_matrix_sample(
            toy_topology, annotations, sources=[0, 3], targets=[0, 3, 5]
        )
        assert matrix.shape == (2, 3)
        assert matrix[0, 0] == 0.0
        assert matrix[1, 1] == 0.0

    def test_triangle_inequality_on_chain(self, toy_topology):
        annotations = annotate_links(toy_topology)
        matrix = latency_matrix_sample(
            toy_topology, annotations, sources=[0], targets=[2, 5]
        )
        assert matrix[0, 1] > matrix[0, 0]

    def test_coast_to_coast_latency_plausible(self, toy_topology):
        # SF to DC-area router over ~2,500 miles of fibre: tens of ms.
        annotations = annotate_links(toy_topology)
        matrix = latency_matrix_sample(
            toy_topology, annotations, sources=[0], targets=[5]
        )
        assert 10.0 < matrix[0, 0] < 60.0
