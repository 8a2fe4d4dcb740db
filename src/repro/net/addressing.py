"""Per-AS address allocation.

Each AS receives one or more CIDR blocks from a registry-style allocator
carving the public unicast space; router loopbacks and link interfaces
draw sequential host addresses from their AS's blocks.  The resulting
prefix-to-AS map is what the RouteViews snapshot builder later announces,
closing the loop for longest-prefix-match AS mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AllocationError
from repro.net.ip import ADDRESS_BITS, Prefix

#: First base handed out: 16.0.0.0, safely past 10/8 private space.
_DEFAULT_POOL = Prefix.parse("16.0.0.0/4")


@dataclass
class AsBlock:
    """One CIDR block owned by an AS, with a sequential host cursor."""

    prefix: Prefix
    next_offset: int = 1  # skip the network address
    #: The broadcast address's offset, which is never handed out.
    end: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.end = self.prefix.size - 1

    def remaining(self) -> int:
        """Host addresses still available (one is reserved for broadcast)."""
        return max(0, self.end - self.next_offset)

    def take(self) -> int:
        """Allocate the next host address.

        Raises:
            AllocationError: when the block is exhausted.
        """
        offset = self.next_offset
        if offset >= self.end:
            raise AllocationError(f"block {self.prefix} exhausted")
        self.next_offset = offset + 1
        return self.prefix.base + offset


@dataclass
class AddressPlan:
    """Registry + per-AS allocator over a top-level address pool.

    Attributes:
        pool: the address space carved into AS blocks.
        block_length: prefix length of each block handed to an AS.
    """

    pool: Prefix = _DEFAULT_POOL
    block_length: int = 16
    _next_block: int = 0
    _blocks: dict[int, list[AsBlock]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.block_length <= self.pool.length or self.block_length > ADDRESS_BITS - 2:
            raise AllocationError(
                f"block_length {self.block_length} incompatible with pool {self.pool}"
            )

    @property
    def block_count(self) -> int:
        """Number of blocks the pool can supply in total."""
        return 1 << (self.block_length - self.pool.length)

    def grant_block(self, asn: int) -> Prefix:
        """Grant the AS a fresh block from the pool.

        Raises:
            AllocationError: when the pool is exhausted.
        """
        if self._next_block >= self.block_count:
            raise AllocationError("address pool exhausted")
        step = 1 << (ADDRESS_BITS - self.block_length)
        prefix = Prefix(self.pool.base + self._next_block * step, self.block_length)
        self._next_block += 1
        self._blocks.setdefault(asn, []).append(AsBlock(prefix))
        return prefix

    def allocate(self, asn: int) -> int:
        """Allocate one host address for the AS, granting blocks as needed."""
        blocks = self._blocks.setdefault(asn, [])
        for block in blocks:
            if block.remaining() > 0:
                return block.take()
        self.grant_block(asn)
        return blocks[-1].take()

    def allocate_many(self, asn: int, count: int) -> np.ndarray:
        """Allocate ``count`` host addresses for the AS, in order.

        Equivalent to ``count`` calls to :meth:`allocate` (same addresses,
        same block grants) but filled a contiguous run at a time.
        """
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        runs: list[np.ndarray] = []
        blocks = self._blocks.setdefault(asn, [])
        cursor = 0
        while count:
            if cursor == len(blocks):
                self.grant_block(asn)
            block = blocks[cursor]
            cursor += 1
            take = min(block.remaining(), count)
            if take <= 0:
                continue
            start = block.prefix.base + block.next_offset
            runs.append(np.arange(start, start + take, dtype=np.int64))
            block.next_offset += take
            count -= take
        return runs[0] if len(runs) == 1 else np.concatenate(runs)

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot of the allocator state."""
        return {
            "pool": [self.pool.base, self.pool.length],
            "block_length": self.block_length,
            "next_block": self._next_block,
            "blocks": {
                str(asn): [
                    [b.prefix.base, b.prefix.length, b.next_offset]
                    for b in blocks
                ]
                for asn, blocks in self._blocks.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AddressPlan":
        """Rebuild an allocator from :meth:`to_dict` output."""
        plan = cls(
            pool=Prefix(int(payload["pool"][0]), int(payload["pool"][1])),
            block_length=int(payload["block_length"]),
        )
        plan._next_block = int(payload["next_block"])
        plan._blocks = {
            int(asn): [
                AsBlock(Prefix(int(base), int(length)), int(offset))
                for base, length, offset in blocks
            ]
            for asn, blocks in payload["blocks"].items()
        }
        return plan

    def prefixes_of(self, asn: int) -> list[Prefix]:
        """All blocks granted to the AS so far."""
        return [b.prefix for b in self._blocks.get(asn, [])]

    def prefix_origin_pairs(self) -> list[tuple[Prefix, int]]:
        """Every ``(prefix, origin ASN)`` pair — the registry's view."""
        pairs: list[tuple[Prefix, int]] = []
        for asn, blocks in self._blocks.items():
            pairs.extend((b.prefix, asn) for b in blocks)
        return pairs
