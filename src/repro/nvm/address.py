"""Physical address layout of the encrypted NVMM.

The separate data-and-counter design (paper Figure 5(c)) stores counters
in their own region of the same NVM.  We reserve the top 1/9 of the
device for counters — each 64 B data line needs 8 B of counter storage —
and hand out the rest as the data region.

The map also provides the line/bank arithmetic the controller needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..config import CACHE_LINE_SIZE, COUNTERS_PER_LINE
from ..errors import AddressError
from ..utils.bitops import align_down, is_power_of_two

_LINE_MASK = ~(CACHE_LINE_SIZE - 1)
_LINE_SHIFT = CACHE_LINE_SIZE.bit_length() - 1


@dataclass(frozen=True)
class AddressMap:
    """Partition of the physical address space into data + counters."""

    memory_size_bytes: int
    num_banks: int = 8

    def __post_init__(self) -> None:
        if self.memory_size_bytes % CACHE_LINE_SIZE != 0:
            raise AddressError(
                "memory size must be a multiple of the %d B line size" % CACHE_LINE_SIZE
            )
        if self.memory_size_bytes < CACHE_LINE_SIZE * (COUNTERS_PER_LINE + 1):
            raise AddressError("memory too small to host data and counter regions")
        if not is_power_of_two(self.num_banks):
            raise AddressError("bank count must be a power of two")

    @cached_property
    def counter_region_base(self) -> int:
        """First byte of the counter region (data region ends here).

        Each 64 B data line needs 8 B of counter storage, so data gets
        8/9 of the device (rounded down to a line boundary); the rest
        always suffices to hold every data line's counter.
        """
        data_bytes = self.memory_size_bytes * COUNTERS_PER_LINE // (COUNTERS_PER_LINE + 1)
        return align_down(data_bytes, CACHE_LINE_SIZE)

    @property
    def data_region_bytes(self) -> int:
        return self.counter_region_base

    @property
    def counter_region_bytes(self) -> int:
        return self.memory_size_bytes - self.counter_region_base

    # -- classification -----------------------------------------------------

    def is_data_address(self, address: int) -> bool:
        return 0 <= address < self.counter_region_base

    def is_counter_address(self, address: int) -> bool:
        return self.counter_region_base <= address < self.memory_size_bytes

    def check_data_address(self, address: int) -> None:
        if not self.is_data_address(address):
            raise AddressError("0x%x is not a data address" % address)

    # -- line arithmetic ------------------------------------------------------

    @staticmethod
    def line_base(address: int) -> int:
        """Base address of the 64 B line containing ``address``."""
        return address & _LINE_MASK

    @staticmethod
    def line_index(address: int) -> int:
        return address >> _LINE_SHIFT

    def bank_of(self, address: int) -> int:
        """Bank servicing this line (line-interleaved across banks)."""
        return (address >> _LINE_SHIFT) & (self.num_banks - 1)

    def row_of(self, address: int, lines_per_row: int = 64) -> int:
        """Row-buffer row of this line within its bank.

        With line-interleaving, consecutive lines stripe across banks
        and land in the same per-bank row, so streaming accesses enjoy
        row-buffer hits.
        """
        return ((address >> _LINE_SHIFT) // self.num_banks) // lines_per_row

    # -- data <-> counter mapping -----------------------------------------------

    def counter_address_of(self, data_address: int) -> int:
        """NVM address of the 8 B counter for the data line at ``data_address``."""
        self.check_data_address(data_address)
        return self.counter_region_base + self.line_index(data_address) * 8

    def counter_line_address_of(self, data_address: int) -> int:
        """NVM address of the 64 B counter line covering ``data_address``."""
        return align_down(self.counter_address_of(data_address), CACHE_LINE_SIZE)

    def data_group_base(self, data_address: int) -> int:
        """Base data address of the 8-line group sharing one counter line."""
        self.check_data_address(data_address)
        return align_down(data_address, CACHE_LINE_SIZE * COUNTERS_PER_LINE)


#: Interleave granule of the sharded address space: one counter group
#: (eight 64 B data lines sharing one counter line).  Interleaving at
#: group granularity keeps a counter line — and therefore a counter
#: cache entry, a BMT leaf, and a ready-bit pair — wholly inside one
#: shard, so no security-metadata structure ever spans controllers.
SHARD_GRANULE = CACHE_LINE_SIZE * COUNTERS_PER_LINE


@dataclass(frozen=True)
class ShardMap:
    """Round-robin interleave of the global data space across N shards.

    Global counter group ``g`` (one :data:`SHARD_GRANULE` of data) lives
    on shard ``g % shards`` at local group ``g // shards``.  Each shard
    then runs a completely ordinary :class:`AddressMap` over
    ``memory_size_bytes // shards`` of private NVM: local data addresses
    are dense from 0, and the shard's counter region covers exactly its
    own groups.

    The translation is a bijection between the global groups each shard
    owns and the shard's local group space; ``to_local``/``to_global``
    are exact inverses (property-tested in
    ``tests/test_property_sharding.py``).
    """

    memory_size_bytes: int
    shards: int
    num_banks: int = 8

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise AddressError("need at least one shard")
        if self.memory_size_bytes % (self.shards * CACHE_LINE_SIZE) != 0:
            raise AddressError("memory size must divide evenly across shards")
        # Validates per-shard geometry (line alignment, minimum size).
        AddressMap(self.shard_memory_bytes, self.num_banks)

    @property
    def shard_memory_bytes(self) -> int:
        """Private NVM capacity of one shard."""
        return self.memory_size_bytes // self.shards

    @cached_property
    def data_capacity_bytes(self) -> int:
        """Global data bytes addressable through the interleave.

        Each shard accepts only *full* groups its local data region can
        host, so the sharded capacity can trail the unsharded
        ``AddressMap.counter_region_base`` by up to one granule per
        shard — workload arenas are carved well below either bound.
        """
        per_shard_groups = (
            AddressMap(self.shard_memory_bytes, self.num_banks).counter_region_base
            // SHARD_GRANULE
        )
        return per_shard_groups * self.shards * SHARD_GRANULE

    def check_address(self, address: int) -> None:
        if not 0 <= address < self.data_capacity_bytes:
            raise AddressError(
                "0x%x outside the sharded data space (capacity 0x%x)"
                % (address, self.data_capacity_bytes)
            )

    def shard_of(self, address: int) -> int:
        """Owning shard of the data line at ``address``."""
        self.check_address(address)
        return (address // SHARD_GRANULE) % self.shards

    def to_local(self, address: int) -> "tuple[int, int]":
        """Translate a global data address to ``(shard, local_address)``."""
        self.check_address(address)
        group, offset = divmod(address, SHARD_GRANULE)
        shard, local_group = group % self.shards, group // self.shards
        return shard, local_group * SHARD_GRANULE + offset

    def to_global(self, shard: int, local_address: int) -> int:
        """Translate a shard-local data address back to the global space."""
        if not 0 <= shard < self.shards:
            raise AddressError("shard %d out of range" % shard)
        local_group, offset = divmod(local_address, SHARD_GRANULE)
        address = (local_group * self.shards + shard) * SHARD_GRANULE + offset
        self.check_address(address)
        return address

