"""The ground-truth topology container, stored as structure-of-arrays.

A :class:`Topology` holds the planted Internet — ASes, routers, links,
interfaces, hostnames — with consistency checks on every mutation and
array views for the routing and measurement stages.  It deliberately
knows nothing about how it was generated or how it will be measured
(the routing graph is built from its columns by
:func:`repro.routing.shortest_path.routing_graph`).

Storage is column-oriented: router latitude/longitude/ASN/loopback
arrays, link endpoint/interface arrays, and interface address/owner
arrays, all growable numpy columns.  The columns are the interface:
mutators take whole batches, and every reader gets read-only column
views (``router_asns()``, ``link_endpoints()``,
``interface_addresses()``, ...) and indexes them directly.  Derived
structures — link lengths, interdomain flags, the sorted-address
lookup, and the directed-edge inbound-interface table — are built
lazily, cached until the next mutation, and shared by routing,
measurement, and alias resolution.
"""

from __future__ import annotations

import hashlib
import numpy as np

from repro.arrays import distinct
from repro.errors import TopologyError
from repro.geo.coords import GeoPoint
from repro.geo.distance import link_lengths_miles
from repro.net.elements import AutonomousSystem
from repro.obs.report import hash_column

#: Initial capacity of a growable column.
_MIN_CAPACITY = 16


def _grown(array: np.ndarray, size: int, extra: int) -> np.ndarray:
    """Return ``array`` with capacity for ``size + extra`` elements."""
    need = size + extra
    capacity = array.shape[0]
    if need <= capacity:
        return array
    new_capacity = max(need, 2 * capacity, _MIN_CAPACITY)
    out = np.empty(new_capacity, dtype=array.dtype)
    out[:size] = array[:size]
    return out


def _readonly(array: np.ndarray, size: int) -> np.ndarray:
    """A read-only view of the first ``size`` elements of a column."""
    view = array[:size]
    view.setflags(write=False)
    return view


def link_key(router_a: int, router_b: int) -> int:
    """The int keying the link between two routers, in either order.

    ``low << 32 | high`` for router ids below ``2**32``: unlike a pair
    tuple, an int is not tracked by the garbage collector, and a
    topology keeps one key per link.
    """
    if router_a < router_b:
        return router_a << 32 | router_b
    return router_b << 32 | router_a


def _raise_link_exists(key: int) -> None:
    raise TopologyError(
        f"link between routers {key >> 32} and {key & 0xFFFFFFFF} already exists"
    )


class Topology:
    """Mutable ground-truth topology: column storage plus lazy derivations.

    Routers and links are dense ids (row ``i`` of their columns);
    interfaces are keyed by address.

    Attributes:
        asns: AS number -> :class:`AutonomousSystem` (insertion-ordered).
        hostnames: interface address -> DNS hostname.
    """

    def __init__(self) -> None:
        self.asns: dict[int, AutonomousSystem] = {}
        self.hostnames: dict[int, str] = {}
        # Router columns.
        self._n_routers = 0
        self._r_lat = np.empty(0, dtype=np.float64)
        self._r_lon = np.empty(0, dtype=np.float64)
        self._r_asn = np.empty(0, dtype=np.int64)
        self._r_loopback = np.empty(0, dtype=np.int64)
        self._r_city: list[str] = []
        # Link columns.
        self._n_links = 0
        self._l_a = np.empty(0, dtype=np.intp)
        self._l_b = np.empty(0, dtype=np.intp)
        self._l_ia = np.empty(0, dtype=np.int64)
        self._l_ib = np.empty(0, dtype=np.int64)
        # Interface columns, in insertion order.
        self._n_interfaces = 0
        self._i_addr = np.empty(0, dtype=np.int64)
        self._i_router = np.empty(0, dtype=np.intp)
        self._i_link = np.empty(0, dtype=np.int64)
        # Constant-time membership/pair indices maintained eagerly.
        self._addr_set: set[int] = set()
        # link_key(a, b) -> link id.
        self._pair_to_link: dict[int, int] = {}
        # Lazily-built derived structures, cleared on mutation.
        self._derived: dict[str, object] = {}

    # ---- pickling --------------------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "asns": self.asns,
            "hostnames": self.hostnames,
            "r_lat": self._r_lat[: self._n_routers].copy(),
            "r_lon": self._r_lon[: self._n_routers].copy(),
            "r_asn": self._r_asn[: self._n_routers].copy(),
            "r_loopback": self._r_loopback[: self._n_routers].copy(),
            "r_city": list(self._r_city),
            "l_a": self._l_a[: self._n_links].copy(),
            "l_b": self._l_b[: self._n_links].copy(),
            "l_ia": self._l_ia[: self._n_links].copy(),
            "l_ib": self._l_ib[: self._n_links].copy(),
            "i_addr": self._i_addr[: self._n_interfaces].copy(),
            "i_router": self._i_router[: self._n_interfaces].copy(),
            "i_link": self._i_link[: self._n_interfaces].copy(),
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self.asns = state["asns"]
        self.hostnames = state["hostnames"]
        self._set_columns(
            state["r_lat"], state["r_lon"], state["r_asn"],
            state["r_loopback"], state["r_city"],
            state["l_a"], state["l_b"], state["l_ia"], state["l_ib"],
            state["i_addr"], state["i_router"], state["i_link"],
        )

    def _set_columns(
        self, r_lat, r_lon, r_asn, r_loopback, r_city,
        l_a, l_b, l_ia, l_ib, i_addr, i_router, i_link,
    ) -> None:
        """Adopt whole columns at once (deserialisation fast path)."""
        self._n_routers = int(r_lat.shape[0])
        self._r_lat = np.ascontiguousarray(r_lat, dtype=np.float64)
        self._r_lon = np.ascontiguousarray(r_lon, dtype=np.float64)
        self._r_asn = np.ascontiguousarray(r_asn, dtype=np.int64)
        self._r_loopback = np.ascontiguousarray(r_loopback, dtype=np.int64)
        self._r_city = list(r_city)
        self._n_links = int(l_a.shape[0])
        self._l_a = np.ascontiguousarray(l_a, dtype=np.intp)
        self._l_b = np.ascontiguousarray(l_b, dtype=np.intp)
        self._l_ia = np.ascontiguousarray(l_ia, dtype=np.int64)
        self._l_ib = np.ascontiguousarray(l_ib, dtype=np.int64)
        self._n_interfaces = int(i_addr.shape[0])
        self._i_addr = np.ascontiguousarray(i_addr, dtype=np.int64)
        self._i_router = np.ascontiguousarray(i_router, dtype=np.intp)
        self._i_link = np.ascontiguousarray(i_link, dtype=np.int64)
        self._addr_set = set(self._i_addr.tolist())
        keys = (self._l_a.astype(np.int64) << 32) | self._l_b
        self._pair_to_link = dict(zip(keys.tolist(), range(self._n_links)))
        self._derived = {}

    # ---- serialisation ---------------------------------------------------

    def to_npz(self, path, extra: dict[str, str] | None = None) -> None:
        """Write the topology to an ``.npz`` archive.

        ``extra`` attaches additional JSON strings (stored as 0-d arrays);
        the runtime cache uses this to bundle the address plan and the
        generation report with the topology in a single artifact.
        """
        hostname_addrs = np.fromiter(
            self.hostnames.keys(), dtype=np.int64, count=len(self.hostnames)
        )
        hostname_values = np.array(list(self.hostnames.values()), dtype=np.str_)
        as_list = list(self.asns.values())
        payload = {
            "r_lat": self._r_lat[: self._n_routers],
            "r_lon": self._r_lon[: self._n_routers],
            "r_asn": self._r_asn[: self._n_routers],
            "r_loopback": self._r_loopback[: self._n_routers],
            "r_city": np.array(self._r_city, dtype=np.str_),
            "l_a": self._l_a[: self._n_links],
            "l_b": self._l_b[: self._n_links],
            "l_ia": self._l_ia[: self._n_links],
            "l_ib": self._l_ib[: self._n_links],
            "i_addr": self._i_addr[: self._n_interfaces],
            "i_router": self._i_router[: self._n_interfaces],
            "i_link": self._i_link[: self._n_interfaces],
            "hostname_addrs": hostname_addrs,
            "hostname_values": hostname_values,
            "as_asn": np.array([a.asn for a in as_list], dtype=np.int64),
            "as_name": np.array([a.name for a in as_list], dtype=np.str_),
            "as_lat": np.array([a.headquarters.lat for a in as_list], dtype=np.float64),
            "as_lon": np.array([a.headquarters.lon for a in as_list], dtype=np.float64),
            "as_adherence": np.array(
                [a.hostname_adherence for a in as_list], dtype=np.float64
            ),
            "as_tier": np.array([a.tier for a in as_list], dtype=np.int64),
        }
        for key, text in (extra or {}).items():
            if key in payload:
                raise TopologyError(f"extra key {key!r} collides with a column")
            payload[key] = np.array(text, dtype=np.str_)
        # Write through a handle so the exact filename is kept (np.savez
        # appends ".npz" to bare paths, breaking atomic temp-file renames).
        with open(path, "wb") as handle:
            np.savez(handle, **payload)

    @classmethod
    def from_npz(cls, path) -> "Topology":
        """Rebuild a topology written by :meth:`to_npz`."""
        with np.load(path, allow_pickle=False) as data:
            topology = cls()
            for asn, name, lat, lon, adherence, tier in zip(
                data["as_asn"].tolist(), data["as_name"].tolist(),
                data["as_lat"].tolist(), data["as_lon"].tolist(),
                data["as_adherence"].tolist(), data["as_tier"].tolist(),
            ):
                topology.asns[asn] = AutonomousSystem(
                    asn=asn, name=name, headquarters=GeoPoint(lat, lon),
                    hostname_adherence=adherence, tier=tier,
                )
            topology._set_columns(
                data["r_lat"], data["r_lon"], data["r_asn"],
                data["r_loopback"], data["r_city"].tolist(),
                data["l_a"], data["l_b"], data["l_ia"], data["l_ib"],
                data["i_addr"], data["i_router"], data["i_link"],
            )
            topology.hostnames = dict(
                zip(data["hostname_addrs"].tolist(),
                    data["hostname_values"].tolist())
            )
        return topology

    # ---- construction ----------------------------------------------------

    def _invalidate(self) -> None:
        self._derived.clear()

    def add_as(self, asys: AutonomousSystem) -> None:
        """Register an AS.

        Raises:
            TopologyError: on duplicate ASN.
        """
        if asys.asn in self.asns:
            raise TopologyError(f"duplicate ASN {asys.asn}")
        self.asns[asys.asn] = asys

    def add_routers(
        self,
        asn: int | np.ndarray,
        lats: np.ndarray,
        lons: np.ndarray,
        city_code: str | list[str],
        loopbacks: np.ndarray,
    ) -> np.ndarray:
        """Register a batch of routers.

        ``asn`` and ``city_code`` are either one value for the whole
        batch or one value per router.  Returns the assigned router ids
        (consecutive).  Loopback interfaces are registered in router
        order.

        Raises:
            TopologyError: if an AS is unknown or any loopback address is
                already taken (or repeated within the batch).
        """
        lats = np.asarray(lats, dtype=np.float64)
        lons = np.asarray(lons, dtype=np.float64)
        loopbacks = np.asarray(loopbacks, dtype=np.int64)
        count = lats.shape[0]
        asns = np.asarray(asn, dtype=np.int64)
        codes = [city_code] * count if isinstance(city_code, str) else city_code
        if asns.ndim == 0:
            asns = np.full(count, asns)
        if (lons.shape[0] != count or loopbacks.shape[0] != count
                or asns.shape[0] != count or len(codes) != count):
            raise TopologyError("router batch columns must have equal length")
        for number in distinct(asns).tolist():
            if number not in self.asns:
                raise TopologyError(f"unknown ASN {number}")
        batch = loopbacks.tolist()
        batch_set = set(batch)
        if len(batch_set) != count:
            seen: set[int] = set()
            for addr in batch:
                if addr in seen:
                    raise TopologyError(f"duplicate interface address {addr}")
                seen.add(addr)
        clash = batch_set & self._addr_set
        if clash:
            raise TopologyError(f"duplicate interface address {min(clash)}")
        start = self._n_routers
        self._r_lat = _grown(self._r_lat, start, count)
        self._r_lon = _grown(self._r_lon, start, count)
        self._r_asn = _grown(self._r_asn, start, count)
        self._r_loopback = _grown(self._r_loopback, start, count)
        end = start + count
        self._r_lat[start:end] = lats
        self._r_lon[start:end] = lons
        self._r_asn[start:end] = asns
        self._r_loopback[start:end] = loopbacks
        self._r_city.extend(codes)
        self._n_routers = end
        ids = np.arange(start, end, dtype=np.intp)
        ni = self._n_interfaces
        self._i_addr = _grown(self._i_addr, ni, count)
        self._i_router = _grown(self._i_router, ni, count)
        self._i_link = _grown(self._i_link, ni, count)
        self._i_addr[ni:ni + count] = loopbacks
        self._i_router[ni:ni + count] = ids
        self._i_link[ni:ni + count] = -1
        self._n_interfaces = ni + count
        self._addr_set |= batch_set
        self._invalidate()
        return ids

    def add_links(
        self,
        router_a: np.ndarray,
        router_b: np.ndarray,
        interface_a: np.ndarray,
        interface_b: np.ndarray,
    ) -> np.ndarray:
        """Register a batch of links; returns the assigned link ids.

        Endpoints are normalised per link so ``router_a < router_b``.
        Interfaces are registered in ``(a, b)`` order per link, in batch
        order.

        Raises:
            TopologyError: on self-loops, unknown routers, duplicate
                pairs (within the batch or against existing links), or
                duplicate interface addresses.
        """
        a = np.asarray(router_a, dtype=np.intp).copy()
        b = np.asarray(router_b, dtype=np.intp).copy()
        ia = np.asarray(interface_a, dtype=np.int64).copy()
        ib = np.asarray(interface_b, dtype=np.int64).copy()
        count = a.shape[0]
        if b.shape[0] != count or ia.shape[0] != count or ib.shape[0] != count:
            raise TopologyError("link batch columns must have equal length")
        if count == 0:
            return np.empty(0, dtype=np.intp)
        if np.any(a == b):
            raise TopologyError("refusing to add a self-loop")
        bad = (a < 0) | (a >= self._n_routers) | (b < 0) | (b >= self._n_routers)
        if np.any(bad):
            which = a[bad][0] if a[bad][0] < 0 or a[bad][0] >= self._n_routers else b[bad][0]
            raise TopologyError(f"unknown router {int(which)}")
        flip = a > b
        a[flip], b[flip] = b[flip], a[flip]
        ia[flip], ib[flip] = ib[flip], ia[flip]
        keys = ((a.astype(np.int64) << 32) | b).tolist()
        if len(set(keys)) != count:
            seen_keys: set[int] = set()
            for key in keys:
                if key in seen_keys:
                    _raise_link_exists(key)
                seen_keys.add(key)
        if not self._pair_to_link.keys().isdisjoint(keys):
            _raise_link_exists(next(k for k in keys if k in self._pair_to_link))
        addrs = np.empty(2 * count, dtype=np.int64)
        addrs[0::2] = ia
        addrs[1::2] = ib
        addr_list = addrs.tolist()
        addr_batch = set(addr_list)
        if len(addr_batch) != 2 * count:
            seen_addrs: set[int] = set()
            for addr in addr_list:
                if addr in seen_addrs:
                    raise TopologyError(f"duplicate interface address {addr}")
                seen_addrs.add(addr)
        clash = addr_batch & self._addr_set
        if clash:
            raise TopologyError(f"duplicate interface address {min(clash)}")
        start = self._n_links
        self._l_a = _grown(self._l_a, start, count)
        self._l_b = _grown(self._l_b, start, count)
        self._l_ia = _grown(self._l_ia, start, count)
        self._l_ib = _grown(self._l_ib, start, count)
        end = start + count
        self._l_a[start:end] = a
        self._l_b[start:end] = b
        self._l_ia[start:end] = ia
        self._l_ib[start:end] = ib
        self._n_links = end
        ids = np.arange(start, end, dtype=np.intp)
        ni = self._n_interfaces
        self._i_addr = _grown(self._i_addr, ni, 2 * count)
        self._i_router = _grown(self._i_router, ni, 2 * count)
        self._i_link = _grown(self._i_link, ni, 2 * count)
        self._i_addr[ni:ni + 2 * count] = addrs
        owners = np.empty(2 * count, dtype=np.intp)
        owners[0::2] = a
        owners[1::2] = b
        self._i_router[ni:ni + 2 * count] = owners
        link_of = np.repeat(ids, 2)
        self._i_link[ni:ni + 2 * count] = link_of
        self._n_interfaces = ni + 2 * count
        self._addr_set |= addr_batch
        self._pair_to_link.update(zip(keys, ids.tolist()))
        self._invalidate()
        return ids

    # ---- derived structures ---------------------------------------------

    def _derive(self, key: str, build):
        value = self._derived.get(key)
        if value is None:
            value = build()
            self._derived[key] = value
        return value

    def _build_lengths(self) -> np.ndarray:
        lengths = link_lengths_miles(
            self._r_lat[: self._n_routers],
            self._r_lon[: self._n_routers],
            self._l_a[: self._n_links],
            self._l_b[: self._n_links],
        )
        lengths.setflags(write=False)
        return lengths

    def _build_interdomain(self) -> np.ndarray:
        asn = self._r_asn[: self._n_routers]
        flags = asn[self._l_a[: self._n_links]] != asn[self._l_b[: self._n_links]]
        flags.setflags(write=False)
        return flags

    def _build_address_index(self) -> tuple[np.ndarray, np.ndarray]:
        addrs = self._i_addr[: self._n_interfaces]
        order = np.argsort(addrs)
        return addrs[order], order

    def _build_edge_table(self) -> tuple[np.ndarray, np.ndarray]:
        a = self._l_a[: self._n_links].astype(np.int64)
        b = self._l_b[: self._n_links].astype(np.int64)
        origin = np.concatenate([a, b])
        target = np.concatenate([b, a])
        inbound = np.concatenate(
            [self._l_ib[: self._n_links], self._l_ia[: self._n_links]]
        )
        keys = origin * np.int64(self._n_routers) + target
        order = np.argsort(keys)
        return keys[order], inbound[order]

    def interface_positions(self, addresses: np.ndarray) -> np.ndarray:
        """Column indices of interface addresses; -1 where unknown."""
        addresses = np.asarray(addresses, dtype=np.int64)
        sorted_addrs, order = self._derive("addr", self._build_address_index)
        if sorted_addrs.shape[0] == 0:
            return np.full(addresses.shape, -1, dtype=np.intp)
        pos = np.searchsorted(sorted_addrs, addresses)
        pos = np.minimum(pos, sorted_addrs.shape[0] - 1)
        found = sorted_addrs[pos] == addresses
        return np.where(found, order[pos], -1)

    # ---- queries ---------------------------------------------------------

    @property
    def n_routers(self) -> int:
        """Number of routers."""
        return self._n_routers

    @property
    def n_links(self) -> int:
        """Number of links."""
        return self._n_links

    @property
    def n_interfaces(self) -> int:
        """Number of interfaces, loopbacks included."""
        return self._n_interfaces

    def has_link(self, router_a: int, router_b: int) -> bool:
        """True when the two routers are directly connected."""
        return link_key(router_a, router_b) in self._pair_to_link

    def degrees(self) -> np.ndarray:
        """Link count per router, indexed by router id."""
        counts = np.bincount(
            self._l_a[: self._n_links], minlength=self._n_routers
        )
        counts += np.bincount(
            self._l_b[: self._n_links], minlength=self._n_routers
        )
        return counts

    def router_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lats, lons)`` read-only arrays indexed by router id."""
        return (
            _readonly(self._r_lat, self._n_routers),
            _readonly(self._r_lon, self._n_routers),
        )

    def router_asns(self) -> np.ndarray:
        """ASN per router, indexed by router id (read-only)."""
        return _readonly(self._r_asn, self._n_routers)

    def router_loopbacks(self) -> np.ndarray:
        """Loopback interface address per router (read-only)."""
        return _readonly(self._r_loopback, self._n_routers)

    def router_city_codes(self) -> list[str]:
        """Airport-style city code per router ('' for rural routers)."""
        return list(self._r_city)

    def link_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Parallel read-only arrays of router-id endpoints per link."""
        return (
            _readonly(self._l_a, self._n_links),
            _readonly(self._l_b, self._n_links),
        )

    def link_interfaces(self) -> tuple[np.ndarray, np.ndarray]:
        """Parallel read-only arrays of interface addresses per link."""
        return (
            _readonly(self._l_ia, self._n_links),
            _readonly(self._l_ib, self._n_links),
        )

    def link_lengths(self) -> np.ndarray:
        """Length in miles per link (read-only, computed lazily)."""
        return self._derive("lengths", self._build_lengths)

    def link_interdomain(self) -> np.ndarray:
        """Boolean interdomain flag per link (read-only, lazily derived)."""
        return self._derive("interdomain", self._build_interdomain)

    def interface_addresses(self) -> np.ndarray:
        """Interface addresses in insertion order (read-only)."""
        return _readonly(self._i_addr, self._n_interfaces)

    def interface_routers(self) -> np.ndarray:
        """Owning router id per interface, insertion order (read-only)."""
        return _readonly(self._i_router, self._n_interfaces)

    def interface_links(self) -> np.ndarray:
        """Link id per interface (-1 for loopbacks), insertion order."""
        return _readonly(self._i_link, self._n_interfaces)

    def link_id(self, router_a: int, router_b: int) -> int:
        """Id of the link joining two routers, in either order.

        Raises:
            TopologyError: when they are not directly connected.
        """
        link_id = self._pair_to_link.get(link_key(router_a, router_b))
        if link_id is None:
            raise TopologyError(
                f"no link between routers {router_a} and {router_b}"
            )
        return link_id

    def link_interface_toward(self, from_router: int, to_router: int) -> int:
        """Interface address on ``to_router``'s side of the shared link.

        This is what a traceroute hop reports: the inbound interface of
        the next router on the path.

        Raises:
            TopologyError: when the routers are not adjacent.
        """
        link_id = self.link_id(from_router, to_router)
        if self._l_a[link_id] == to_router:
            return int(self._l_ia[link_id])
        return int(self._l_ib[link_id])

    def link_interfaces_toward(
        self, from_routers: np.ndarray, to_routers: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`link_interface_toward` over router-id arrays.

        Raises:
            TopologyError: when any pair is not adjacent.
        """
        from_routers = np.asarray(from_routers, dtype=np.int64)
        to_routers = np.asarray(to_routers, dtype=np.int64)
        if from_routers.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        keys, inbound = self._derive("edges", self._build_edge_table)
        wanted = from_routers * np.int64(self._n_routers) + to_routers
        pos = np.searchsorted(keys, wanted)
        pos_c = np.minimum(pos, keys.shape[0] - 1)
        found = (keys.shape[0] > 0) & (keys[pos_c] == wanted)
        if not np.all(found):
            i = int(np.flatnonzero(~found)[0])
            raise TopologyError(
                f"no link between routers {int(from_routers[i])} "
                f"and {int(to_routers[i])}"
            )
        return inbound[pos_c]

    # ---- validation ------------------------------------------------------

    def validate(self) -> None:
        """Full consistency check; raises on the first violation.

        Raises:
            TopologyError: describing the inconsistency found.
        """
        n = self._n_routers
        r_asn = self._r_asn[:n]
        if n:
            known = np.fromiter(self.asns.keys(), dtype=np.int64, count=len(self.asns))
            ok = np.isin(r_asn, known) if known.shape[0] else np.zeros(n, dtype=bool)
            if not np.all(ok):
                i = int(np.flatnonzero(~ok)[0])
                raise TopologyError(
                    f"router {i} references unknown AS {int(r_asn[i])}"
                )
            pos = self.interface_positions(self._r_loopback[:n])
            if np.any(pos < 0):
                i = int(np.flatnonzero(pos < 0)[0])
                raise TopologyError(f"router {i} loopback missing from interfaces")
        m = self._n_links
        if m:
            link_ids = np.arange(m, dtype=np.int64)
            i_link = self._i_link[: self._n_interfaces]
            for side in (self._l_ia[:m], self._l_ib[:m]):
                pos = self.interface_positions(side)
                ok = (pos >= 0) & (i_link[np.maximum(pos, 0)] == link_ids)
                if not np.all(ok):
                    i = int(np.flatnonzero(~ok)[0])
                    raise TopologyError(
                        f"link {i} interface {int(side[i])} inconsistent"
                    )
        owners = self._i_router[: self._n_interfaces]
        ok = (owners >= 0) & (owners < n)
        if not np.all(ok):
            i = int(np.flatnonzero(~ok)[0])
            raise TopologyError(
                f"interface {int(self._i_addr[i])} references unknown router"
            )
        refs = self._i_link[: self._n_interfaces]
        ok = (refs >= -1) & (refs < m)
        if not np.all(ok):
            i = int(np.flatnonzero(~ok)[0])
            raise TopologyError(
                f"interface {int(self._i_addr[i])} references unknown link"
            )


def topology_digest(topology: Topology) -> str:
    """SHA-256 over a topology's full logical state.

    Covers every SoA column (routers, links, interfaces), city codes,
    hostnames, and the registered AS inventory — two topologies with
    equal digests answer every structural query identically.  The
    generator's determinism tests and the topology-scale bench compare
    it.
    """
    h = hashlib.sha256()
    lats, lons = topology.router_coordinates()
    hash_column(h, "router_lats", lats)
    hash_column(h, "router_lons", lons)
    hash_column(h, "router_asns", topology.router_asns())
    hash_column(h, "router_loopbacks", topology.router_loopbacks())
    h.update("\x00".join(topology.router_city_codes()).encode("utf-8"))
    end_a, end_b = topology.link_endpoints()
    hash_column(h, "link_end_a", end_a)
    hash_column(h, "link_end_b", end_b)
    ifc_a, ifc_b = topology.link_interfaces()
    hash_column(h, "link_ifc_a", ifc_a)
    hash_column(h, "link_ifc_b", ifc_b)
    hash_column(h, "interface_addresses", topology.interface_addresses())
    hash_column(h, "interface_routers", topology.interface_routers())
    hash_column(h, "interface_links", topology.interface_links())
    for address in sorted(topology.hostnames):
        h.update(f"{address}={topology.hostnames[address]}\x00".encode())
    for asn in sorted(topology.asns):
        asys = topology.asns[asn]
        h.update(
            f"{asn}:{asys.name}:{asys.headquarters.lat!r}:"
            f"{asys.headquarters.lon!r}:{asys.tier}\x00".encode()
        )
    return h.hexdigest()
