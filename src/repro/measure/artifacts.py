"""Anomaly filtering over raw inventories.

The paper, following Broido and claffy's processing of Skitter data,
discards self-loops and other anomalies, and removes every interface
that appears on a destination list (destinations are mostly end hosts,
and the study concerns routers).  These filters transform a
:class:`~repro.measure.inventory.RawInventory` into a cleaned one,
reporting what was dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.measure.inventory import RawInventory, contains, set_order
from repro.net.ip import is_private_many


@dataclass(frozen=True, slots=True)
class FilterReport:
    """What a cleaning pass removed.

    Attributes:
        dropped_destination_nodes: nodes removed for being on destination
            lists.
        dropped_private_nodes: nodes removed for having private addresses.
        dropped_links: links removed because an endpoint was dropped.
    """

    dropped_destination_nodes: int
    dropped_private_nodes: int
    dropped_links: int


def drop_nodes(inventory: RawInventory, to_drop) -> RawInventory:
    """A new inventory without the ``to_drop`` nodes and their links (the
    survivors in the :func:`set_order` of their previous order)."""
    drop = np.sort(np.asarray(to_drop, dtype=np.int64))
    keep_members = ~contains(drop, inventory.member_nodes)
    links = inventory.links
    kept = links[~(contains(drop, links[:, 0]) | contains(drop, links[:, 1]))]
    return replace(
        inventory,
        nodes=inventory.nodes[~contains(drop, inventory.nodes)],
        links=set_order(kept[:, 0], kept[:, 1]),
        members=inventory.members[keep_members],
        member_nodes=inventory.member_nodes[keep_members],
    )


def discard_destinations(
    inventory: RawInventory,
) -> tuple[RawInventory, int]:
    """Remove nodes probed as destinations (Skitter's end-host discard)."""
    to_drop = inventory.nodes[contains(inventory.destinations, inventory.nodes)]
    return drop_nodes(inventory, to_drop), int(to_drop.size)


def discard_private(inventory: RawInventory) -> tuple[RawInventory, int]:
    """Remove nodes with RFC 1918 addresses (misconfigured routers)."""
    to_drop = inventory.nodes[is_private_many(inventory.nodes)]
    return drop_nodes(inventory, to_drop), int(to_drop.size)


def clean_inventory(inventory: RawInventory) -> tuple[RawInventory, FilterReport]:
    """Full cleaning pass: destination discard, then private discard.

    Destination discard only applies to interface-granularity inventories
    (Mercator has no destination-list semantics).
    """
    links_before = inventory.n_links
    dropped_dest = 0
    if inventory.kind == "skitter":
        inventory, dropped_dest = discard_destinations(inventory)
    inventory, dropped_private = discard_private(inventory)
    report = FilterReport(
        dropped_destination_nodes=dropped_dest,
        dropped_private_nodes=dropped_private,
        dropped_links=links_before - inventory.n_links,
    )
    inventory.validate()
    return inventory, report
