"""Dynamic trace records.

A trace is a sequence of :class:`TraceRecord` objects, one per executed
instruction, in program order.  This mirrors the instruction traces the paper
feeds to IBM's C++ model: each record carries the instruction address and
length, and for branches, the resolved direction and target.

Records are deliberately small and immutable: traces run to millions of
records and are the inner-loop data structure of the whole simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import BranchKind


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One executed instruction.

    ``taken``/``target`` are meaningful only when ``kind`` is not ``None``;
    ``target`` is the resolved target of a taken branch (``None`` when
    not taken).
    """

    address: int
    length: int
    kind: BranchKind | None = None
    taken: bool = False
    target: int | None = None

    @property
    def is_branch(self) -> bool:
        """True when this record is a branch execution."""
        return self.kind is not None

    @property
    def next_sequential(self) -> int:
        """Address of the sequentially following instruction."""
        return self.address + self.length

    @property
    def next_address(self) -> int:
        """Address control flow actually went to after this instruction."""
        if self.taken and self.kind is not None:
            if self.target is None:
                raise ValueError(f"taken branch at {self.address:#x} has no target")
            return self.target
        return self.next_sequential

    def validate(self) -> None:
        """Raise ``ValueError`` if the record is internally inconsistent."""
        if self.length not in (2, 4, 6):
            raise ValueError(f"illegal length {self.length} at {self.address:#x}")
        if self.taken and not self.is_branch:
            raise ValueError(f"non-branch marked taken at {self.address:#x}")
        if self.taken and self.target is None:
            raise ValueError(f"taken branch without target at {self.address:#x}")
        if self.is_branch and self.kind.always_taken and not self.taken:
            raise ValueError(
                f"{self.kind} branch at {self.address:#x} cannot fall through"
            )
