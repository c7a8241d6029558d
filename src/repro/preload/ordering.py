"""BTB2 search steering: the tagged ordering table (section 3.7).

"Given a 128 byte sector size, there are 32 sectors within a 4 KB block.
The 4 KB block is divided into four 1 KB quartiles.  Each quartile contains
eight 1-bit sector markings and three markings to denote a reference to the
other quartiles within the block. ... The table contains 512 entries and is
2-way set associative.  Each entry represents a 4 KB block; therefore the
table covers a 2 MB instruction footprint."

Runtime tracking (:class:`OrderingTracker`): as instructions complete, the
sector they fall in gets its bit set; entering a different quartile from
within the block sets the corresponding reference marking in the *demand*
quartile (the quartile through which the block was entered).  When control
leaves for a different block the accumulated entry is stored back into the
tagged array, merged with any previous knowledge of the block.

Steering (:func:`order_sectors`): on a BTB2 block search, a table hit orders
the 32 sectors as (1) active sectors in the demand quartile, (2) active
sectors in quartiles referenced from the demand quartile, (3) remaining
active sectors, then (4-6) the same priorities over inactive sectors.  A
table miss returns plain sequential order beginning with the demand
quartile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.address import (
    QUARTILES_PER_BLOCK,
    SECTOR_BYTES,
    SECTORS_PER_BLOCK,
    block_address,
    quartile_in_block,
    sector_in_block,
    sector_quartile,
)

ORDERING_TABLE_ENTRIES = 512
ORDERING_TABLE_WAYS = 2

#: ``address >> SECTOR_SHIFT`` numbers the 128-byte sector of ``address``.
SECTOR_SHIFT = SECTOR_BYTES.bit_length() - 1


@dataclass
class OrderingEntry:
    """Per-4KB-block path knowledge: sector bits + quartile references."""

    block: int
    sector_bits: int = 0
    #: quartile_refs[q] is a 4-bit mask of quartiles referenced from q.
    quartile_refs: list[int] = field(default_factory=lambda: [0] * QUARTILES_PER_BLOCK)

    def mark_sector(self, sector: int) -> None:
        """Set the 1-bit marking for ``sector`` (0..31)."""
        self.sector_bits |= 1 << sector

    def sector_active(self, sector: int) -> bool:
        """True when ``sector`` has been seen to complete an instruction."""
        return bool(self.sector_bits & (1 << sector))

    def mark_reference(self, from_quartile: int, to_quartile: int) -> None:
        """Record that ``to_quartile`` was entered from ``from_quartile``."""
        if from_quartile != to_quartile:
            self.quartile_refs[from_quartile] |= 1 << to_quartile

    def referenced_from(self, quartile: int) -> set[int]:
        """Quartiles marked as referenced from ``quartile``."""
        mask = self.quartile_refs[quartile]
        return {q for q in range(QUARTILES_PER_BLOCK) if mask & (1 << q)}

    def merge(self, other: "OrderingEntry") -> None:
        """Fold another visit's knowledge into this entry (bitwise OR)."""
        self.sector_bits |= other.sector_bits
        for quartile in range(QUARTILES_PER_BLOCK):
            self.quartile_refs[quartile] |= other.quartile_refs[quartile]

    def copy(self) -> "OrderingEntry":
        """Independent copy of this entry."""
        return OrderingEntry(
            block=self.block,
            sector_bits=self.sector_bits,
            quartile_refs=list(self.quartile_refs),
        )

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of this entry."""
        return {
            "block": self.block,
            "sector_bits": self.sector_bits,
            "quartile_refs": list(self.quartile_refs),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "OrderingEntry":
        """Reconstruct an entry snapshotted by :meth:`state_dict`."""
        return cls(
            block=state["block"],
            sector_bits=state["sector_bits"],
            quartile_refs=list(state["quartile_refs"]),
        )


class OrderingTable:
    """512-entry, 2-way set associative, tagged by 4 KB block address."""

    def __init__(
        self,
        sets: int = ORDERING_TABLE_ENTRIES // ORDERING_TABLE_WAYS,
        ways: int = ORDERING_TABLE_WAYS,
    ) -> None:
        if sets <= 0 or sets & (sets - 1):
            raise ValueError("sets must be a positive power of two")
        self.sets = sets
        self.ways = ways
        # Per set: list of entries, MRU first.
        self._sets: list[list[OrderingEntry]] = [[] for _ in range(sets)]
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        """Total block entries (512 architected: 2 MB of code)."""
        return self.sets * self.ways

    def _index(self, block: int) -> int:
        return (block >> 12) % self.sets

    def lookup(self, address: int) -> OrderingEntry | None:
        """Tagged lookup by any address inside the block; refreshes MRU."""
        block = block_address(address)
        ways = self._sets[self._index(block)]
        for entry in ways:
            if entry.block == block:
                if ways[0] is not entry:
                    ways.remove(entry)
                    ways.insert(0, entry)
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def store(self, entry: OrderingEntry) -> None:
        """Install or merge ``entry``; LRU replacement within the set."""
        ways = self._sets[self._index(entry.block)]
        for existing in ways:
            if existing.block == entry.block:
                existing.merge(entry)
                if ways[0] is not existing:
                    ways.remove(existing)
                    ways.insert(0, existing)
                return
        ways.insert(0, entry.copy())
        if len(ways) > self.ways:
            ways.pop()

    def state_dict(self) -> dict:
        """Sparse snapshot: occupied sets as ``[index, [entries MRU-first]]``."""
        return {
            "sets": [
                [index, [entry.state_dict() for entry in ways]]
                for index, ways in enumerate(self._sets)
                if ways
            ],
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        for ways in self._sets:
            ways.clear()
        for index, ways in state["sets"]:
            self._sets[index] = [
                OrderingEntry.from_state_dict(entry) for entry in ways
            ]
        self.hits = state["hits"]
        self.misses = state["misses"]


class OrderingTracker:
    """Runtime sector/quartile tracking as a function of completing instructions."""

    def __init__(self, table: OrderingTable) -> None:
        self.table = table
        self._block: int | None = None
        self._demand_quartile = 0
        self._current_quartile = 0
        self._pending: OrderingEntry | None = None
        #: Sector (``address >> SECTOR_SHIFT``) of the last observed address.
        #: Derived from the state above, so not snapshot state; ``None``
        #: whenever that state was replaced (flush, restore).
        #:
        #: The same-sector rule: :meth:`observe` changes nothing for an
        #: address in this sector (same block, same quartile, its sector
        #: bit already set).  ``Simulator.step``, which completes an
        #: instruction per record, tests it itself and skips the call;
        #: most completing instructions follow one in the same 128 bytes.
        self.last_sector: int | None = None

    def observe(self, address: int) -> None:
        """Fold one completing instruction's address into the tracking state.

        Returns at once under the same-sector rule (:attr:`last_sector`).
        """
        sector = address >> SECTOR_SHIFT
        if sector == self.last_sector:
            return
        self.last_sector = sector
        block = block_address(address)
        quartile = quartile_in_block(address)
        if block != self._block:
            self._commit()
            self._block = block
            self._demand_quartile = quartile
            self._current_quartile = quartile
            self._pending = OrderingEntry(block=block)
        assert self._pending is not None
        self._pending.mark_sector(sector_in_block(address))
        if quartile != self._current_quartile:
            self._pending.mark_reference(self._demand_quartile, quartile)
            self._current_quartile = quartile

    def _commit(self) -> None:
        if self._pending is not None:
            self.table.store(self._pending)
            self._pending = None

    def flush(self) -> None:
        """Commit the in-flight block entry (end of simulation)."""
        self._commit()
        self._block = None
        self.last_sector = None

    def state_dict(self) -> dict:
        """Snapshot of the in-flight tracking state (table held separately)."""
        return {
            "block": self._block,
            "demand_quartile": self._demand_quartile,
            "current_quartile": self._current_quartile,
            "pending": (
                self._pending.state_dict() if self._pending is not None else None
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self._block = state["block"]
        self._demand_quartile = state["demand_quartile"]
        self._current_quartile = state["current_quartile"]
        self._pending = (
            OrderingEntry.from_state_dict(state["pending"])
            if state["pending"] is not None
            else None
        )
        self.last_sector = None


def classify_sectors(
    entry: OrderingEntry | None, demand_address: int
) -> list[tuple[int, int]]:
    """``(sector, priority_class)`` pairs in transfer order.

    Implements the 3-then-3 priority scheme of section 3.7: class 0 = active
    sectors in the demand quartile, 1 = active sectors in quartiles
    referenced from the demand quartile, 2 = remaining active sectors, and
    3-5 the same split over inactive sectors.  Within each class, sectors
    come in ascending order starting from the demand sector, wrapping around
    the block.  Without table knowledge (``entry is None``) every sector is
    class 0 and the order is plain sequential from the demand sector.
    """
    demand_sector = sector_in_block(demand_address)
    rotation = [
        (demand_sector + step) % SECTORS_PER_BLOCK
        for step in range(SECTORS_PER_BLOCK)
    ]
    if entry is None:
        return [(sector, 0) for sector in rotation]

    demand_quartile = sector_quartile(demand_sector)
    referenced = entry.referenced_from(demand_quartile)

    def priority_class(sector: int, active: bool) -> int:
        quartile = sector_quartile(sector)
        if quartile == demand_quartile:
            base = 0
        elif quartile in referenced:
            base = 1
        else:
            base = 2
        return base if active else base + 3

    classified = [
        (sector, priority_class(sector, entry.sector_active(sector)))
        for sector in rotation
    ]
    classified.sort(key=lambda pair: pair[1])
    return classified


def order_sectors(entry: OrderingEntry | None, demand_address: int) -> list[int]:
    """Transfer order of the 32 sectors of the block of ``demand_address``."""
    return [sector for sector, _ in classify_sectors(entry, demand_address)]
