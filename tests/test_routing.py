"""Tests for repro.routing (shortest paths and forwarding semantics)."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import RoutingError
from scipy.sparse.csgraph import dijkstra

from repro.routing.forwarding import source_routed_path, source_routed_paths
from repro.routing.shortest_path import (
    largest_component,
    routing_graph,
    shortest_path_tree,
    shortest_path_trees,
)


def _chain_graph(n: int) -> sparse.csr_matrix:
    rows = list(range(n - 1)) + list(range(1, n))
    cols = list(range(1, n)) + list(range(n - 1))
    data = [1.0] * (2 * (n - 1))
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


class TestShortestPathTree:
    def test_chain_path(self):
        tree = shortest_path_tree(_chain_graph(5), 0)
        assert tree.path_to(4) == [0, 1, 2, 3, 4]

    def test_path_to_source_is_singleton(self):
        tree = shortest_path_tree(_chain_graph(5), 2)
        assert tree.path_to(2) == [2]

    def test_distances_monotone_along_chain(self):
        tree = shortest_path_tree(_chain_graph(6), 0)
        assert np.all(np.diff(tree.distances) > 0)

    def test_unreachable_raises(self):
        graph = sparse.csr_matrix((4, 4))
        tree = shortest_path_tree(graph, 0)
        assert not tree.reachable(3)
        with pytest.raises(RoutingError):
            tree.path_to(3)

    def test_out_of_range_source_raises(self):
        with pytest.raises(RoutingError):
            shortest_path_tree(_chain_graph(3), 7)

    def test_out_of_range_target_raises(self):
        tree = shortest_path_tree(_chain_graph(3), 0)
        with pytest.raises(RoutingError):
            tree.path_to(9)

    def test_weighted_shortcut_preferred(self):
        # 0-1-2 with weight 1 each, plus direct 0-2 with weight 5: the
        # two-hop route (total 2) wins.
        rows = [0, 1, 1, 2, 0, 2]
        cols = [1, 0, 2, 1, 2, 0]
        data = [1.0, 1.0, 1.0, 1.0, 5.0, 5.0]
        graph = sparse.csr_matrix((data, (rows, cols)), shape=(3, 3))
        tree = shortest_path_tree(graph, 0)
        assert tree.path_to(2) == [0, 1, 2]

    def test_batch_matches_single(self):
        graph = _chain_graph(7)
        batch = shortest_path_trees(graph, [0, 3])
        single = shortest_path_tree(graph, 3)
        assert batch[1].path_to(6) == single.path_to(6)

    def test_empty_batch(self):
        assert shortest_path_trees(_chain_graph(3), []) == []


def _random_symmetric_graph(rng, n):
    """A symmetric graph with small integer weights (many equal-cost
    paths) and repeated links."""
    m = int(rng.integers(1, 4 * n))
    a, b = rng.integers(0, n, m), rng.integers(0, n, m)
    a, b = a[a != b], b[a != b]
    w = rng.integers(1, 4, a.size).astype(float)
    return sparse.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([a, b]), np.concatenate([b, a]))),
        shape=(n, n),
    )


class TestSymmetricScan:
    def test_trees_equal_undirected_dijkstra(self):
        rng = np.random.default_rng(8)
        for _ in range(150):
            n = int(rng.integers(2, 50))
            graph = _random_symmetric_graph(rng, n)
            sources = rng.choice(n, size=min(n, 4), replace=False).tolist()
            distances, predecessors = dijkstra(
                graph, directed=False, indices=sources, return_predecessors=True
            )
            for i, tree in enumerate(shortest_path_trees(graph, sources)):
                assert np.array_equal(tree.predecessors, predecessors[i])
                assert np.array_equal(tree.distances, distances[i])


class TestLargestComponent:
    def test_connected_graph_returns_all(self):
        comp = largest_component(_chain_graph(5))
        assert comp.tolist() == [0, 1, 2, 3, 4]

    def test_disconnected_graph_returns_biggest(self):
        # Components {0,1,2} and {3,4}.
        rows = [0, 1, 1, 2, 3, 4]
        cols = [1, 0, 2, 1, 4, 3]
        graph = sparse.csr_matrix(
            ([1.0] * 6, (rows, cols)), shape=(5, 5)
        )
        comp = largest_component(graph)
        assert comp.tolist() == [0, 1, 2]


class TestSourceRoutedPath:
    def test_concatenates_legs(self, toy_topology):
        graph = routing_graph(toy_topology)
        source_tree = shortest_path_tree(graph, 0)
        via_tree = shortest_path_tree(graph, 3)
        path = source_routed_path(via_tree, source_tree, 3, 5)
        assert path[0] == 0
        assert 3 in path
        assert path[-1] == 5

    def test_loop_trimmed(self, toy_topology):
        # source->via and via->target legs overlap on a chain topology;
        # the combined path must not revisit any router.
        graph = routing_graph(toy_topology)
        source_tree = shortest_path_tree(graph, 0)
        via_tree = shortest_path_tree(graph, 4)
        path = source_routed_path(via_tree, source_tree, 4, 1)
        assert len(path) == len(set(path))
        assert path[0] == 0 and path[-1] == 1

    def test_wrong_via_tree_raises(self, toy_topology):
        graph = routing_graph(toy_topology)
        source_tree = shortest_path_tree(graph, 0)
        via_tree = shortest_path_tree(graph, 3)
        with pytest.raises(RoutingError):
            source_routed_path(via_tree, source_tree, 2, 5)

    def test_consecutive_hops_are_adjacent(self, toy_topology):
        graph = routing_graph(toy_topology)
        source_tree = shortest_path_tree(graph, 0)
        via_tree = shortest_path_tree(graph, 5)
        path = source_routed_path(via_tree, source_tree, 5, 2)
        for a, b in zip(path, path[1:]):
            assert toy_topology.has_link(a, b)


def _reference_source_routed_path(via_tree, source_tree, via, target):
    """Concatenate both legs, then cut back to the first occurrence of
    every revisited router while walking the combined path."""
    combined = source_tree.path_to(via) + via_tree.path_to(target)[1:]
    position, path = {}, []
    for router in combined:
        if router in position:
            cut = position[router]
            for dropped in path[cut + 1 :]:
                del position[dropped]
            path = path[: cut + 1]
        else:
            position[router] = len(path)
            path.append(router)
    return path


class TestSourceRoutedPathsBatch:
    def test_batch_equals_reference_loop_trimming(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(3, 40))
            graph = _random_symmetric_graph(rng, n)
            source = int(rng.integers(n))
            source_tree = shortest_path_tree(graph, source)
            vias = [
                v for v in rng.choice(n, size=min(n, 5), replace=False).tolist()
                if source_tree.reachable(v)
            ]
            via_trees = {t.source: t for t in shortest_path_trees(graph, vias)}
            probes = [
                (via, target)
                for via in vias
                for target in rng.integers(0, n, 6).tolist()
                if via_trees[via].reachable(target)
            ]
            want = [
                _reference_source_routed_path(via_trees[v], source_tree, v, t)
                for v, t in probes
            ]
            assert source_routed_paths(source_tree, via_trees, probes) == want

    def test_unreachable_leg_raises(self):
        graph = sparse.csr_matrix((4, 4))
        tree = shortest_path_tree(graph, 0)
        with pytest.raises(RoutingError):
            source_routed_paths(tree, {2: shortest_path_tree(graph, 2)}, [(2, 3)])
