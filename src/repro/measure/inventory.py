"""Raw measurement inventories.

Both measurement simulators produce a :class:`RawInventory`: the
observed node addresses, the observed adjacencies between them, and the
bookkeeping needed by later pipeline stages (alias membership for
Mercator's router-level view, destination lists for Skitter's discard
step).  Node keys are interface addresses for Skitter and canonical
router addresses for Mercator — the paper's interface/router distinction
made explicit in the type.  All of it is held in int64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.arrays import distinct
from repro.errors import MeasurementError
from repro.net.ip import ADDRESS_SPACE


def positions(sorted_values: np.ndarray, queries) -> np.ndarray:
    """Index of each query in a sorted array, -1 where it is absent."""
    queries = np.asarray(queries, dtype=np.int64)
    slots = np.searchsorted(sorted_values, queries)
    found = slots < sorted_values.size
    found[found] = sorted_values[slots[found]] == queries[found]
    return np.where(found, slots, -1)


def contains(sorted_values: np.ndarray, queries) -> np.ndarray:
    """Membership of each query in a sorted array."""
    return positions(sorted_values, queries) >= 0


def set_order(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The distinct ``(low, high)`` pairs as an ``(m, 2)`` array, in the
    iteration order of a Python set they were inserted into in sequence:
    the link order of every mapped dataset, and so of its content hash.
    """
    pairs = set(zip(np.asarray(low).tolist(), np.asarray(high).tolist()))
    flat = np.fromiter(
        chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs)
    )
    return flat.reshape(-1, 2)


@dataclass
class RawInventory:
    """The output of one measurement campaign.

    Attributes:
        kind: ``"skitter"`` (interface granularity) or ``"mercator"``
            (router granularity after alias resolution).
        nodes: observed node addresses, sorted and distinct.
        links: ``(m, 2)`` distinct ``(low, high)`` pairs of adjacent
            nodes, in :func:`set_order`.
        members, member_nodes: every interface merged into a node, and
            that node, grouped by node in ascending order.
        destinations: the destination-list addresses, sorted, distinct.
    """

    kind: str
    nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    links: np.ndarray = field(default_factory=lambda: np.empty((0, 2), np.int64))
    members: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    member_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    destinations: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @classmethod
    def from_members(cls, kind: str, members, member_nodes) -> "RawInventory":
        """An inventory of the nodes in ``member_nodes``, each holding the
        ``members`` assigned to it in their given order (no links yet)."""
        members = np.asarray(members, dtype=np.int64)
        member_nodes = np.asarray(member_nodes, dtype=np.int64)
        order = np.argsort(member_nodes, kind="stable")
        return cls(
            kind=kind,
            nodes=distinct(member_nodes),
            members=members[order],
            member_nodes=member_nodes[order],
        )

    def add_nodes(self, addresses) -> None:
        """Record observed nodes, each its own single member (idempotent)."""
        addresses = distinct(np.asarray(addresses, dtype=np.int64))
        fresh = addresses[~contains(self.nodes, addresses)]
        if fresh.size == 0:
            return
        self.nodes = distinct(np.concatenate([self.nodes, fresh]))
        member_nodes = np.concatenate([self.member_nodes, fresh])
        order = np.argsort(member_nodes, kind="stable")
        self.members = np.concatenate([self.members, fresh])[order]
        self.member_nodes = member_nodes[order]

    def add_link_pairs(self, a, b) -> None:
        """Record observed adjacencies between already-seen nodes; the
        rows take the :func:`set_order` of the current rows, then the new.

        Raises:
            MeasurementError: on self-links or unknown endpoints.
        """
        a = np.asarray(a, dtype=np.int64).reshape(-1)
        b = np.asarray(b, dtype=np.int64).reshape(-1)
        if a.size == 0:
            return
        selfish = a == b
        if np.any(selfish):
            raise MeasurementError(f"self-link on address {int(a[selfish][0])}")
        ends = np.concatenate([a, b])
        missing = ends[~contains(self.nodes, ends)]
        if missing.size:
            raise MeasurementError(
                f"link endpoint {int(missing.min())} was never recorded as a node"
            )
        self.links = set_order(
            np.concatenate([self.links[:, 0], np.minimum(a, b)]),
            np.concatenate([self.links[:, 1], np.maximum(a, b)]),
        )

    def add_node(self, address: int) -> None:
        """Record one observed node (idempotent)."""
        self.add_nodes([address])

    def add_link(self, a: int, b: int) -> None:
        """Record one observed adjacency; see :meth:`add_link_pairs`."""
        self.add_link_pairs([a], [b])

    @property
    def n_nodes(self) -> int:
        """Observed node count."""
        return int(self.nodes.size)

    @property
    def n_links(self) -> int:
        """Observed link count."""
        return int(self.links.shape[0])

    def interfaces_of(self, node: int) -> list[int]:
        """All interface addresses merged into a node.

        Raises:
            MeasurementError: for an unknown node.
        """
        lo = int(np.searchsorted(self.member_nodes, node, side="left"))
        hi = int(np.searchsorted(self.member_nodes, node, side="right"))
        if lo == hi:
            raise MeasurementError(f"unknown node {node}")
        return self.members[lo:hi].tolist()

    def validate(self) -> None:
        """Consistency check over nodes, links and members.

        Raises:
            MeasurementError: on the first violation found.
        """
        def check(ok, problem: str) -> None:
            if not ok:
                raise MeasurementError(problem)

        nodes, links, owners = self.nodes, self.links, self.member_nodes
        check(np.all(nodes[1:] > nodes[:-1]), "nodes are not sorted and distinct")
        check(
            not nodes.size or (nodes[0] >= 0 and nodes[-1] < ADDRESS_SPACE),
            "node addresses must be IPv4 addresses",
        )
        check(links.ndim == 2 and links.shape[1] == 2, "links must be (m, 2)")
        check(np.all(links[:, 0] < links[:, 1]), "a link pair is not normalised")
        check(
            np.all(contains(nodes, np.sort(links, axis=None))),
            "a link endpoint is not a node",
        )
        # Endpoints are IPv4 nodes, so one 64-bit key identifies a pair.
        low, high = links.astype(np.uint64).T
        keys = np.sort(low << np.uint64(32) | high)
        check(np.all(keys[1:] != keys[:-1]), "a link is recorded more than once")
        check(
            owners.shape == self.members.shape and np.all(owners[1:] >= owners[:-1]),
            "members are not grouped by node",
        )
        check(np.array_equal(distinct(owners), nodes), "member nodes are not the nodes")
        check(
            np.all(contains(owners[owners == self.members], nodes)),
            "a node is missing from its own members",
        )
