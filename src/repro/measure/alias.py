"""Alias resolution: collapsing interfaces onto canonical router addresses.

Mercator sends a UDP probe to an unknown port on every discovered
interface; a router that answers does so with ICMP Port Unreachable
messages carrying a single source address, revealing which interfaces
share a router.  The technique fails for routers that do not respond
correctly (firewalling, intrusion-detection suppression) — those
routers' interfaces remain distinct, inflating the router count, which
is exactly the known inaccuracy of interface-level maps the paper
discusses.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import distinct
from repro.errors import MeasurementError
from repro.measure.inventory import contains
from repro.net.topology import Topology


def resolve_aliases(
    topology: Topology,
    interface_addresses,
    rng: np.random.Generator,
    success_rate: float,
) -> np.ndarray:
    """The canonical node address of each observed interface address.

    For routers answering the alias probe (an independent draw per
    router), every one of their observed interfaces maps to the router's
    loopback; for silent routers, each interface maps to itself.

    Returns:
        An int64 array parallel to ``interface_addresses``.

    Raises:
        MeasurementError: if an address is unknown to the topology or the
            success rate is out of range.
    """
    if not (0.0 < success_rate <= 1.0):
        raise MeasurementError("success_rate must be in (0, 1]")
    answers = rng.random(topology.n_routers) < success_rate
    addresses = np.asarray(interface_addresses, dtype=np.int64)
    positions = topology.interface_positions(addresses)
    unknown = positions < 0
    if np.any(unknown):
        raise MeasurementError(
            f"unknown interface address {int(addresses[unknown][0])}"
        )
    routers = topology.interface_routers()[positions]
    return np.where(answers[routers], topology.router_loopbacks()[routers], addresses)


def merge_members(
    interfaces: np.ndarray, canonical: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Invert an alias mapping into node membership.

    Every canonical address becomes a node whose members are the
    interfaces mapped onto it plus, when it is not one of them, its own
    address.

    Returns:
        ``(members, member_nodes)``: parallel arrays, grouped by node in
        ascending order and ascending within each node.
    """
    interfaces = np.asarray(interfaces, dtype=np.int64)
    canonical = np.asarray(canonical, dtype=np.int64)
    own = distinct(canonical)
    own = own[~contains(distinct(interfaces[canonical == interfaces]), own)]
    members = np.concatenate([interfaces, own])
    member_nodes = np.concatenate([canonical, own])
    order = np.lexsort((members, member_nodes))
    return members[order], member_nodes[order]
