"""Row-organized branch target buffer storage.

All three BTB levels share the same organization: a set-associative array
indexed by instruction-address bits ending at bit 58, so that "each row
covers 32 bytes of instruction space" (paper, 3.1).  A row can hold entries
for several *different* branches inside the same (or an aliasing) 32-byte
granule; full branch addresses serve as tags.

The index is computed as ``(address >> 5) % rows``, which is identical to the
paper's bit-range extraction (bits 49:58 / 52:58 / 47:58) for the architected
row counts and generalizes to the sizes swept in Figure 5.  Tests assert the
equivalence against :mod:`repro.isa.address`'s bit fields.

Ways are kept in MRU-first order; true LRU everywhere ("the LRU can be a
separate, smaller structure than the BTB2 array itself", 3.3 — we model the
ordering, not the encoding).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator

from repro.btb.entry import KINDS, STATE_FIELDS, BTBEntry, check_indices
from repro.isa.address import ROW_BYTES, row_address


class BranchTargetBuffer:
    """Set-associative, full-tagged branch target buffer."""

    def __init__(self, rows: int, ways: int, name: str = "btb") -> None:
        if rows <= 0 or rows & (rows - 1):
            raise ValueError(f"rows must be a positive power of two, got {rows}")
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.rows = rows
        self.ways = ways
        self.name = name
        self._rows: list[list[BTBEntry]] = [[] for _ in range(rows)]
        self.installs = 0
        self.evictions = 0
        #: Optional :class:`repro.audit.Auditor`; ``None`` keeps every write
        #: path on the fast branch (one attribute test per mutation).
        self.audit = None
        #: Optional :class:`repro.telemetry.Telemetry`; ``None`` = no tracing.
        self.telemetry = None

    # -- geometry ---------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Total branch entries the structure can hold."""
        return self.rows * self.ways

    def row_index(self, address: int) -> int:
        """Row selected by ``address`` (32-byte granules, modulo rows)."""
        return (address >> 5) % self.rows

    # -- read paths -------------------------------------------------------

    def search_row(self, address: int) -> list[BTBEntry]:
        """All entries for branches in the 32-byte row holding ``address``.

        This is the per-cycle search primitive: entries are tag-matched to
        the row (aliasing rows in the same congruence class do not match)
        and returned in ascending branch-address order, the order in which
        the search pipeline would encounter them.
        """
        row_start = address & ~(ROW_BYTES - 1)
        entries = [
            entry
            for entry in self._rows[(address >> 5) % self.rows]
            if entry.address & ~(ROW_BYTES - 1) == row_start
        ]
        entries.sort(key=lambda entry: entry.address)
        return entries

    def lookup(self, branch_address: int) -> BTBEntry | None:
        """Exact-address probe, without touching LRU state."""
        for entry in self._rows[(branch_address >> 5) % self.rows]:
            if entry.address == branch_address:
                return entry
        return None

    def is_mru(self, entry: BTBEntry) -> bool:
        """True when ``entry`` occupies the most recently used way."""
        ways = self._rows[(entry.address >> 5) % self.rows]
        return bool(ways) and ways[0] is entry

    def row_ways(self, address: int) -> list[BTBEntry]:
        """Entries of the row indexed by ``address``, MRU-first.

        A read-only copy of the way list in replacement order — the
        differential oracle diffs this against its reference model to
        localize LRU/victim divergences to a single row.
        """
        return list(self._rows[(address >> 5) % self.rows])

    # -- write paths ------------------------------------------------------

    def install(self, entry: BTBEntry, *, make_mru: bool = True) -> BTBEntry | None:
        """Insert ``entry``; return the evicted victim, if any.

        An existing entry for the same branch address is replaced in place
        (no victim).  Otherwise the LRU way is evicted when the row is full.
        """
        ways = self._rows[(entry.address >> 5) % self.rows]
        for position, existing in enumerate(ways):
            if existing.address == entry.address:
                ways.pop(position)
                ways.insert(0 if make_mru else len(ways), entry)
                if self.audit is not None:
                    self.audit.on_btb_write(self, "install", ways)
                return None
        self.installs += 1
        victim = None
        if len(ways) >= self.ways:
            victim = ways.pop()
            self.evictions += 1
        ways.insert(0 if make_mru else len(ways), entry)
        if self.audit is not None:
            self.audit.on_btb_write(self, "install", ways)
        if self.telemetry is not None:
            self.telemetry.on_install(self.name, entry.address)
            if victim is not None:
                self.telemetry.on_evict(self.name, victim.address)
        return victim

    def install_lru(self, entry: BTBEntry) -> BTBEntry | None:
        """Insert ``entry`` into the LRU way *then* make it MRU.

        This is the BTB2 victim-install protocol of section 3.3: "the content
        that is evicted from the BTB1 is written into the LRU column in the
        BTB2 and made MRU" — the previous LRU occupant is displaced even if
        empty ways notionally exist elsewhere; with full-tag matching this is
        equivalent to a plain MRU install, kept separate for clarity and for
        the inclusive-design ablation.
        """
        return self.install(entry, make_mru=True)

    def touch(self, entry: BTBEntry) -> None:
        """Promote ``entry`` to MRU in its row.

        Matches by *identity*, consistent with :meth:`is_mru`: entries
        migrate between levels as clones that compare equal to their
        originals, and an equality match here could promote — or worse,
        replace — a resident entry with a distinct stale object.  An entry
        no longer resident (by identity) is a no-op.
        """
        ways = self._rows[(entry.address >> 5) % self.rows]
        for position, existing in enumerate(ways):
            if existing is entry:
                if position:
                    ways.pop(position)
                    ways.insert(0, entry)
                    if self.audit is not None:
                        self.audit.on_btb_write(self, "touch", ways)
                return

    def demote(self, entry: BTBEntry) -> None:
        """Demote ``entry`` to LRU in its row (BTB2 hit handling, 3.3).

        Identity-matched for the same reason as :meth:`touch`.
        """
        ways = self._rows[(entry.address >> 5) % self.rows]
        for position, existing in enumerate(ways):
            if existing is entry:
                if position != len(ways) - 1:
                    ways.pop(position)
                    ways.append(entry)
                    if self.audit is not None:
                        self.audit.on_btb_write(self, "demote", ways)
                return

    def remove(self, branch_address: int) -> BTBEntry | None:
        """Invalidate and return the entry for ``branch_address``, if present."""
        ways = self._rows[self.row_index(branch_address)]
        for position, existing in enumerate(ways):
            if existing.address == branch_address:
                victim = ways.pop(position)
                if self.audit is not None:
                    self.audit.on_btb_write(self, "remove", ways)
                return victim
        return None

    def clear(self) -> None:
        """Drop all entries (counters preserved)."""
        for ways in self._rows:
            ways.clear()

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot: occupied rows, entry columns, counters.

        ``rows`` lists the occupied row indices in ascending order and
        ``ways`` how many entries each holds.  ``entries`` maps every
        :data:`~repro.btb.entry.STATE_FIELDS` name to one list over all
        entries, row after row, each row MRU-first: way order is the LRU
        order, so a restore reproduces replacement behavior exactly.
        Kinds are stored by name.  Subclasses extend this with their own
        counters.
        """
        rows = self._rows
        occupied = [index for index, ways in enumerate(rows) if ways]
        entries = [entry for index in occupied for entry in rows[index]]
        columns = {name: list(map(attrgetter(name), entries))
                   for name in STATE_FIELDS}
        columns["kind"] = [kind._name_ for kind in columns["kind"]]
        return {
            "rows": occupied,
            "ways": [len(rows[index]) for index in occupied],
            "entries": columns,
            "installs": self.installs,
            "evictions": self.evictions,
        }

    def check_state(self, state: dict) -> None:
        """Raise ``ValueError`` unless the snapshot would restore as stored.

        Its columns must agree with the entries its rows hold, every row
        index must lie in the table and every kind name must be known.
        :meth:`load_state_dict` runs this first; a caller that restores
        several tables runs it for each before loading any
        (:meth:`repro.engine.simulator.Simulator.load_state_dict`).
        """
        columns = state["entries"]
        total = sum(state["ways"])
        if len(state["rows"]) != len(state["ways"]) or any(
                len(columns[name]) != total for name in STATE_FIELDS):
            raise ValueError(
                f"{self.name} snapshot: entry columns disagree with the "
                f"{total} entries its rows hold")
        check_indices(self.name, state["rows"], self.rows)
        unknown = set(columns["kind"]).difference(KINDS)
        if unknown:
            raise ValueError(
                f"{self.name} snapshot: unknown branch kind(s) "
                f"{sorted(map(repr, unknown))}")

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        Builds every entry in one pass over the columns.  Entries are fresh
        objects, preserving the level object-exclusivity invariant (no
        object shared across structures).  Raises ``ValueError``, and
        changes nothing, when :meth:`check_state` refuses the snapshot.
        """
        self.check_state(state)
        columns = state["entries"]
        entries = list(map(BTBEntry, *(
            map(KINDS.__getitem__, columns[name]) if name == "kind"
            else columns[name] for name in STATE_FIELDS)))
        rows = self._rows
        for ways in rows:
            ways.clear()
        start = 0
        for index, count in zip(state["rows"], state["ways"]):
            rows[index] = entries[start:start + count]
            start += count
        self.installs = state["installs"]
        self.evictions = state["evictions"]

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(ways) for ways in self._rows)

    def __iter__(self) -> Iterator[BTBEntry]:
        for ways in self._rows:
            yield from ways

    def __contains__(self, branch_address: int) -> bool:
        return self.lookup(branch_address) is not None

    def occupancy(self) -> float:
        """Fraction of ways currently valid."""
        return len(self) / self.capacity

    def covered_rows(self, start: int, count: int) -> Iterator[int]:
        """Row start addresses for ``count`` sequential rows from ``start``."""
        base = row_address(start)
        for step in range(count):
            yield base + step * ROW_BYTES
