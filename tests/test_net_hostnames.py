"""Tests for repro.net.hostnames (ISP naming conventions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeolocationError
from repro.net.hostnames import (
    _IFACE_TOKENS,
    _ROLE_TOKENS,
    extract_city_code,
    extract_city_codes,
    make_hostname,
    make_hostname_batch,
)

codes = st.from_regex(r"[A-Z]{3}", fullmatch=True)
router_ids = st.integers(min_value=0, max_value=10_000)


class TestMakeHostname:
    def test_embedded_code_round_trips(self):
        rng = np.random.default_rng(0)
        hostname = make_hostname(7, "NYC", "alter.net", rng, embed_location=True)
        assert extract_city_code(hostname) == "NYC"

    def test_without_embedding_no_code(self):
        rng = np.random.default_rng(0)
        hostname = make_hostname(7, "NYC", "alter.net", rng, embed_location=False)
        assert extract_city_code(hostname) is None

    def test_empty_city_code_means_no_location(self):
        rng = np.random.default_rng(0)
        hostname = make_hostname(7, "", "alter.net", rng, embed_location=True)
        assert extract_city_code(hostname) is None

    def test_hostname_ends_with_domain(self):
        rng = np.random.default_rng(0)
        hostname = make_hostname(3, "LAX", "example.net", rng, embed_location=True)
        assert hostname.endswith(".example.net")

    def test_paper_example_shape(self):
        # The paper's example: 0.so-5-2-0.XL1.NYC8.ALTER.NET
        rng = np.random.default_rng(1)
        hostname = make_hostname(3, "NYC", "alter.net", rng, embed_location=True)
        parts = hostname.split(".")
        assert parts[0].isdigit()
        assert "-" in parts[1]

    @settings(max_examples=60)
    @given(router_ids, codes)
    def test_round_trip_property(self, router_id, code):
        rng = np.random.default_rng(router_id)
        hostname = make_hostname(
            router_id, code, "testnet.net", rng, embed_location=True
        )
        assert extract_city_code(hostname) == code

    def test_digit_tagged_synthetic_codes_round_trip(self):
        rng = np.random.default_rng(2)
        hostname = make_hostname(11, "3QF", "zone.net", rng, embed_location=True)
        assert extract_city_code(hostname) == "3QF"


class TestExtractCityCode:
    def test_unparseable_hostname_raises(self):
        with pytest.raises(GeolocationError):
            extract_city_code("www.example.com")

    def test_garbage_raises(self):
        with pytest.raises(GeolocationError):
            extract_city_code("!!!")

    def test_unit_digits_stripped(self):
        rng = np.random.default_rng(3)
        hostname = make_hostname(8, "SEA", "x.net", rng, embed_location=True)
        # Router 8 gets a unit number appended to the code; the parser
        # must strip it.
        assert extract_city_code(hostname) == "SEA"


def _code_or_empty(hostname: str) -> str:
    try:
        return extract_city_code(hostname) or ""
    except GeolocationError:
        return ""


class TestExtractCityCodes:
    """The one-pass bulk parser equals the per-hostname parser."""

    hostnames = st.one_of(
        st.builds(
            lambda rid, code, embed: make_hostname(
                rid, code, "a-b.net", np.random.default_rng(rid), embed
            ),
            router_ids,
            st.from_regex(r"[A-Z0-9]{0,4}", fullmatch=True),
            st.booleans(),
        ),
        st.text(alphabet="0123456789.-abcSFO\n ", max_size=30),
    )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(hostnames, max_size=12))
    def test_matches_per_hostname_parse(self, names):
        assert extract_city_codes(names) == [_code_or_empty(n) for n in names]

    def test_empty_and_line_breaks(self):
        assert extract_city_codes([]) == []
        good = "0.so-1-0-0.CR1.SFO1.westnet.net"
        assert extract_city_codes([good + "\n", "x\ny", good]) == [
            _code_or_empty(good + "\n"), "", "SFO"
        ]


def _reference_batch(interface_routers, city_codes, domains, rng, embed_location):
    """make_hostname_batch with one f-string per interface."""
    n = len(interface_routers)
    ports = rng.integers(0, 4, size=n)
    iface_idx = rng.integers(0, len(_IFACE_TOKENS), size=n)
    slot_a = rng.integers(0, 8, size=n)
    slot_b = rng.integers(0, 4, size=n)
    slot_c = rng.integers(0, 4, size=n)
    names = []
    for i, rid in enumerate(interface_routers):
        role = _ROLE_TOKENS[rid % len(_ROLE_TOKENS)].upper()
        code = city_codes[rid]
        loc = f"{code}{1 + (rid // 7) % 9}" if (embed_location[rid] and code) else ""
        names.append(
            f"{ports[i]}.{_IFACE_TOKENS[iface_idx[i]]}-{slot_a[i]}-{slot_b[i]}-"
            f"{slot_c[i]}.{role}{1 + rid % 9}.{loc}.{domains[rid]}"
        )
    return names


class TestMakeHostnameBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["", "NYC", "3QF"]), st.booleans()),
            min_size=1, max_size=80,
        ),
        st.lists(st.integers(0, 10_000), max_size=40),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_interface_format(self, routers, picks, seed):
        codes = [code for code, _ in routers]
        embed = [flag for _, flag in routers]
        domains = [f"as{rid % 7}.net" for rid in range(len(routers))]
        owners = [pick % len(routers) for pick in picks]
        rng = np.random.default_rng(seed)
        got = make_hostname_batch(
            np.array(owners, dtype=np.int64), codes, domains, rng, np.array(embed)
        )
        reference_rng = np.random.default_rng(seed)
        assert got == _reference_batch(owners, codes, domains, reference_rng, embed)
        assert rng.random() == reference_rng.random()
