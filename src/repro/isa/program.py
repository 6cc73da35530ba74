"""Linked program image produced by the assembler.

The paper compiles applications baremetal to a flat address space (no OS, no
output stream, >=64 KB ROM/RAM).  We mirror that: ``text`` at ``text_base``,
``data`` at ``data_base``, a symbol table, and an entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_TEXT_BASE = 0x0000_0000
DEFAULT_DATA_BASE = 0x0001_0000
DEFAULT_MEM_SIZE = 0x0002_0000  # 128 KB flat memory


@dataclass
class Program:
    """An assembled, fully linked flat binary image."""

    text_words: list[int]
    data_bytes: bytearray
    symbols: dict[str, int]
    text_base: int
    data_base: int
    entry: int

    @property
    def code_size_bytes(self) -> int:
        """Static codesize in bytes — the Figure 5 y-axis."""
        return 4 * len(self.text_words)

    @property
    def static_instruction_count(self) -> int:
        """Total number of static instructions (paper §4.1 averages)."""
        return len(self.text_words)

    def text_bytes(self) -> bytes:
        """The text section as little-endian bytes."""
        out = bytearray()
        for word in self.text_words:
            out += word.to_bytes(4, "little")
        return bytes(out)

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError(f"undefined symbol {name!r}") from None
