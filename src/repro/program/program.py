"""The program container: blocks, entry point and the data segment."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..isa.ops import NodeKind
from .block import BasicBlock

#: Base address of the global data segment in simulated memory.  The page
#: at address zero is left unmapped so that null-pointer dereferences in
#: simulated programs fail loudly.
GLOBAL_BASE = 0x1000


class ProgramError(Exception):
    """Raised for structurally invalid programs."""


class Program:
    """A complete translated program.

    Attributes:
        blocks: label -> :class:`BasicBlock`, in layout order.
        entry: label of the first block executed.
        data: initialised bytes of the global segment (loaded at
            :data:`GLOBAL_BASE`).
        data_size: total global-segment size in bytes (>= ``len(data)``;
            the tail is zero-initialised).
        symbols: global symbol name -> absolute address, for debugging.
    """

    def __init__(
        self,
        blocks: Iterable[BasicBlock],
        entry: str,
        data: bytes = b"",
        data_size: Optional[int] = None,
        symbols: Optional[Dict[str, int]] = None,
    ):
        self.blocks: Dict[str, BasicBlock] = {}
        for block in blocks:
            if block.label in self.blocks:
                raise ProgramError(f"duplicate block label {block.label!r}")
            self.blocks[block.label] = block
        self.entry = entry
        self.data = data
        self.data_size = len(data) if data_size is None else data_size
        if self.data_size < len(data):
            raise ProgramError("data_size smaller than initialised data")
        self.symbols = dict(symbols or {})
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`ProgramError`."""
        if self.entry not in self.blocks:
            raise ProgramError(f"entry label {self.entry!r} not defined")
        for block in self.blocks.values():
            for label in block.successor_labels():
                if label not in self.blocks:
                    raise ProgramError(
                        f"block {block.label!r} targets undefined label {label!r}"
                    )

    # ------------------------------------------------------------------
    def block(self, label: str) -> BasicBlock:
        """Look up a block by label."""
        return self.blocks[label]

    def __contains__(self, label: str) -> bool:
        return label in self.blocks

    def __iter__(self):
        return iter(self.blocks.values())

    def __len__(self) -> int:
        return len(self.blocks)

    # ------------------------------------------------------------------
    def static_node_counts(self) -> Tuple[int, int]:
        """Total static ``(alu, mem)`` node counts over all blocks.

        The paper reports a static ALU:memory ratio of about 2.5:1 for its
        benchmarks; ``benchmarks/test_static_node_ratio.py`` checks ours.
        """
        total_alu = 0
        total_mem = 0
        for block in self.blocks.values():
            n_alu, n_mem = block.count_by_class()
            total_alu += n_alu
            total_mem += n_mem
        return total_alu, total_mem

    def conditional_branch_labels(self) -> List[str]:
        """Labels of blocks ending in a two-way conditional branch."""
        return [
            b.label
            for b in self.blocks.values()
            if b.terminator.kind is NodeKind.BRANCH
        ]

    def replace_blocks(self, replacements: Dict[str, BasicBlock]) -> "Program":
        """New program with some blocks replaced (same entry/data)."""
        new_blocks = [replacements.get(label, blk) for label, blk in self.blocks.items()]
        return Program(
            new_blocks,
            self.entry,
            data=self.data,
            data_size=self.data_size,
            symbols=self.symbols,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Program entry={self.entry!r} blocks={len(self.blocks)}>"
