"""ISP router-naming conventions.

The primary technique of IxMapper-style geolocation is *hostname based
mapping*: ISPs name routers with embedded city or airport codes, e.g.
``0.so-5-2-0.XL1.NYC8.ALTER.NET`` maps to New York City.  This module
generates such hostnames for ground-truth routers (respecting each AS's
naming discipline) and parses codes back out of them — the other half of
the geolocator.
"""

from __future__ import annotations

import re

import numpy as np

from repro.errors import GeolocationError

#: Interface-type tokens that appear in real ISP hostnames.
_IFACE_TOKENS = ("so", "ge", "fe", "pos", "atm", "srp", "xe")
#: Role tokens for the router tier inside a PoP.
_ROLE_TOKENS = ("cr", "br", "ar", "xl", "gw")

#: The hostname grammar, port.iface.role.loc.domain, capturing ``loc``.
_GRAMMAR = (
    r"[0-9]+\.[a-z]+-[0-9]+-[0-9]+-[0-9]+\."
    r"[A-Z]+[0-9]+\.(?P<loc>[A-Z0-9]*)\.?[A-Za-z0-9.-]+"
)
_HOSTNAME_RE = re.compile(f"^{_GRAMMAR}$")
#: The grammar applied line by line; a line it rejects yields an empty loc.
_HOSTNAME_LINES_RE = re.compile(rf"^(?:{_GRAMMAR}|[^\n]*)$", re.MULTILINE)


def make_hostname(
    router_id: int,
    city_code: str,
    domain: str,
    rng: np.random.Generator,
    embed_location: bool,
) -> str:
    """Generate a realistic router hostname.

    Args:
        router_id: used to derive stable role/unit numbers.
        city_code: the city code to embed (may be empty).
        domain: the AS's DNS domain.
        rng: randomness for port/slot numbers.
        embed_location: when False (ISP without a naming convention, or a
            lapse in discipline), the location token is omitted.

    Returns:
        A hostname like ``0.so-5-2-0.CR1.NYC3.example.net``; without a
        location token the ``loc`` field is empty
        (``0.so-5-2-0.CR1..example.net``).
    """
    port = int(rng.integers(0, 4))
    iface = _IFACE_TOKENS[int(rng.integers(len(_IFACE_TOKENS)))]
    slot = f"{iface}-{int(rng.integers(0, 8))}-{int(rng.integers(0, 4))}-{int(rng.integers(0, 4))}"
    role = _ROLE_TOKENS[router_id % len(_ROLE_TOKENS)].upper()
    unit = 1 + router_id % 9
    loc = f"{city_code}{1 + (router_id // 7) % 9}" if (embed_location and city_code) else ""
    return f"{port}.{slot}.{role}{unit}.{loc}.{domain}"


def make_hostname_batch(
    interface_routers: np.ndarray,
    city_codes: list[str],
    domains: list[str],
    rng: np.random.Generator,
    embed_location: np.ndarray,
) -> list[str]:
    """Generate hostnames for many interfaces at once.

    Follows the same grammar as :func:`make_hostname` but draws all
    port/slot numbers as arrays up front, which is what makes hostname
    assignment tractable at 10^5-router scale.  The part after the
    port/slot token depends only on the router, so it is built once per
    router.

    Args:
        interface_routers: owning router id per interface; router ids
            index the three per-router arguments.
        city_codes: city code per router (empty string to omit).
        domains: AS domain per router.
        rng: randomness for port/slot numbers.
        embed_location: boolean per router; when False the location
            token is omitted.
    """
    interface_routers = np.asarray(interface_routers, dtype=np.int64)
    n = int(interface_routers.shape[0])
    if n == 0:
        return []
    ports = rng.integers(0, 4, size=n)
    iface_idx = rng.integers(0, len(_IFACE_TOKENS), size=n)
    slot_a = rng.integers(0, 8, size=n)
    slot_b = rng.integers(0, 4, size=n)
    slot_c = rng.integers(0, 4, size=n)
    # "port.iface-a-b-c." has 4 * 7 * 8 * 4 * 4 spellings: "port.iface-"
    # times "a-b-c.", each spelled once and looked up per interface.
    heads = [
        port_iface + slots
        for port_iface in [f"{p}.{token}-" for p in range(4) for token in _IFACE_TOKENS]
        for slots in [f"{a}-{b}-{c}." for a in range(8) for b in range(4) for c in range(4)]
    ]
    head = (
        (((ports * len(_IFACE_TOKENS) + iface_idx) * 8 + slot_a) * 4 + slot_b) * 4
        + slot_c
    )
    # "ROLEunit.loc.domain" per router.
    roles = [f"{role.upper()}{unit}." for role in _ROLE_TOKENS for unit in range(1, 10)]
    loc_num = [str(1 + k) for k in range(9)]
    router_ids = np.arange(len(city_codes))
    role = (router_ids % len(_ROLE_TOKENS)) * 9 + router_ids % 9
    tails = [
        roles[r] + (code + loc_num[ln] if (e and code) else "") + "." + dom
        for r, ln, code, dom, e in zip(
            role.tolist(), ((router_ids // 7) % 9).tolist(), city_codes, domains,
            np.asarray(embed_location, dtype=bool).tolist(),
        )
    ]
    return [
        heads[h] + tails[r]
        for h, r in zip(head.tolist(), interface_routers.tolist())
    ]


def extract_city_code(hostname: str) -> str | None:
    """Extract the embedded city code from a hostname, if any.

    Returns:
        The alphabetic city code (e.g. ``"NYC"``), or None when the
        hostname carries no location token.

    Raises:
        GeolocationError: if the hostname does not follow the recognised
            grammar at all.
    """
    match = _HOSTNAME_RE.match(hostname)
    if match is None:
        raise GeolocationError(f"unparseable hostname {hostname!r}")
    loc = match.group("loc")
    if not loc:
        return None
    code = loc.rstrip("0123456789")
    return code or None


def extract_city_codes(hostnames: list[str]) -> list[str]:
    """:func:`extract_city_code` over many hostnames in one regex pass.

    Returns:
        The city code per hostname, ``""`` where it carries none or does
        not follow the grammar.
    """
    locs = _HOSTNAME_LINES_RE.findall("\n".join(hostnames))
    if len(locs) != len(hostnames):  # no hostnames, or one holds a line break
        locs = [_loc_or_empty(hostname) for hostname in hostnames]
    codes = {loc: loc.rstrip("0123456789") for loc in set(locs)}
    return list(map(codes.__getitem__, locs))


def _loc_or_empty(hostname: str) -> str:
    match = _HOSTNAME_RE.match(hostname)
    return match.group("loc") if match else ""
