"""Forwarding substrate: shortest-path trees and traceroute semantics."""

from repro.routing.forwarding import source_routed_path, source_routed_paths
from repro.routing.shortest_path import (
    HOP_COST_MILES,
    PredecessorTree,
    largest_component,
    routing_graph,
    shortest_path_tree,
    shortest_path_trees,
)

__all__ = [
    "source_routed_path",
    "source_routed_paths",
    "HOP_COST_MILES",
    "PredecessorTree",
    "largest_component",
    "routing_graph",
    "shortest_path_tree",
    "shortest_path_trees",
]
