"""Tests for repro.net.addressing (per-AS allocation)."""

import numpy as np
import pytest

from repro.errors import AllocationError
from repro.net.addressing import AddressPlan, AsBlock
from repro.net.ip import Prefix, format_address


class TestAsBlock:
    def test_take_skips_network_address(self):
        block = AsBlock(Prefix.parse("20.0.0.0/24"))
        first = block.take()
        assert format_address(first) == "20.0.0.1"

    def test_remaining_reserves_broadcast(self):
        block = AsBlock(Prefix.parse("20.0.0.0/30"))  # 4 addresses
        assert block.remaining() == 2  # .1 and .2 only
        block.take()
        block.take()
        with pytest.raises(AllocationError):
            block.take()


class TestAddressPlan:
    @pytest.mark.parametrize("counts", [[0], [1], [3, 0, 2], [7], [2, 5, 1, 4]])
    def test_allocate_many_equals_repeated_allocate(self, counts):
        # Blocks of 4 addresses (2 hosts) make every batch span blocks,
        # with a second AS's grants interleaved.
        batched = AddressPlan(block_length=30)
        single = AddressPlan(block_length=30)
        for count in counts:
            got = batched.allocate_many(100, count)
            batched.allocate(200)
            assert got.dtype == np.int64
            assert got.tolist() == [single.allocate(100) for _ in range(count)]
            single.allocate(200)
        assert batched.to_dict() == single.to_dict()

    def test_sequential_allocation_within_block(self):
        plan = AddressPlan()
        a1 = plan.allocate(100)
        a2 = plan.allocate(100)
        assert a2 == a1 + 1

    def test_different_ases_get_disjoint_blocks(self):
        plan = AddressPlan()
        a = plan.allocate(100)
        b = plan.allocate(200)
        pa = plan.prefixes_of(100)[0]
        pb = plan.prefixes_of(200)[0]
        assert pa != pb
        assert pa.contains(a) and pb.contains(b)
        assert not pa.contains(b)

    def test_block_exhaustion_grants_new_block(self):
        plan = AddressPlan(pool=Prefix.parse("16.0.0.0/8"), block_length=30)
        seen = {plan.allocate(7) for _ in range(5)}
        assert len(seen) == 5
        assert len(plan.prefixes_of(7)) == 3  # 2 usable hosts per /30

    def test_pool_exhaustion_raises(self):
        plan = AddressPlan(pool=Prefix.parse("16.0.0.0/28"), block_length=30)
        for asn in range(4):
            plan.grant_block(asn)
        with pytest.raises(AllocationError):
            plan.grant_block(99)

    def test_block_length_validation(self):
        with pytest.raises(AllocationError):
            AddressPlan(pool=Prefix.parse("16.0.0.0/16"), block_length=16)
        with pytest.raises(AllocationError):
            AddressPlan(pool=Prefix.parse("16.0.0.0/16"), block_length=31)

    def test_prefix_origin_pairs_cover_all_grants(self):
        plan = AddressPlan()
        plan.allocate(1)
        plan.allocate(2)
        plan.allocate(2)
        pairs = plan.prefix_origin_pairs()
        asns = sorted(asn for _, asn in pairs)
        assert asns == [1, 2]

    def test_allocations_never_collide(self):
        plan = AddressPlan(pool=Prefix.parse("16.0.0.0/12"), block_length=24)
        out = [plan.allocate(asn) for asn in (1, 2, 3) for _ in range(300)]
        assert len(out) == len(set(out))

    def test_default_pool_avoids_private_space(self):
        plan = AddressPlan()
        address = plan.allocate(55)
        from repro.net.ip import is_private

        assert not is_private(address)
