"""Flat little-endian byte-addressable memory for the simulators.

Extreme-edge systems in the paper are baremetal with >=64 KB ROM/RAM; we
model a single flat space holding both text and data (Harvard separation is
enforced at the core's interface level, not here).
"""

from __future__ import annotations

import struct
import sys

from ..isa.bits import sign_extend, to_u32
from ..isa.program import DEFAULT_MEM_SIZE, Program


class MemoryError_(Exception):
    """Out-of-range or misaligned access (suffixed to avoid the builtin)."""


class _LittleEndianWords:
    """Read-only little-endian 32-bit word view of a bytearray, for hosts
    whose native ``I`` is not a 4-byte little-endian word."""

    __slots__ = ("_raw",)

    def __init__(self, raw: bytearray):
        self._raw = raw

    def __getitem__(self, index: int) -> int:
        base = index << 2
        return int.from_bytes(self._raw[base:base + 4], "little")

    def release(self) -> None:
        """Nothing to release: the shim holds no buffer export."""


_NATIVE_WORDS = sys.byteorder == "little" and struct.calcsize("I") == 4


def word_view(raw: bytearray):
    """Aligned 32-bit little-endian words of ``raw``: ``view[i]`` is the
    word at byte address ``4 * i``.

    The fused RTL loops fetch and load through this view.  On a
    little-endian host with a 4-byte ``I`` it is ``memoryview(raw)
    .cast("I")``, a C-level index; elsewhere a shim that decodes each
    indexed word with ``int.from_bytes``.  ``raw``'s length must be a
    multiple of 4 (every :class:`Memory` size is).  Same-length writes
    into ``raw`` show through the view; a resize while the memoryview is
    alive raises ``BufferError``, so a caller releases the view when done.
    """
    if _NATIVE_WORDS:
        return memoryview(raw).cast("I")
    return _LittleEndianWords(raw)


class Memory:
    """Flat memory with load/store of 1/2/4 bytes, little endian."""

    def __init__(self, size: int = DEFAULT_MEM_SIZE):
        if size <= 0 or size % 4:
            raise ValueError("memory size must be a positive multiple of 4")
        self.size = size
        self._bytes = bytearray(size)

    @classmethod
    def from_program(cls, program: Program,
                     size: int = DEFAULT_MEM_SIZE) -> "Memory":
        """Load a linked program image (text + data) into a fresh memory."""
        mem = cls(size)
        mem.write_blob(program.text_base, program.text_bytes())
        if program.data_bytes:
            mem.write_blob(program.data_base, bytes(program.data_bytes))
        return mem

    @property
    def raw(self) -> bytearray:
        """The backing byte store.

        The fused RTL backend reads/writes this directly for accesses it
        has already bounds- and alignment-checked; everything else goes
        through :meth:`load`/:meth:`store`.
        """
        return self._bytes

    @property
    def direct_size(self) -> int:
        """Bytes addressable through :attr:`raw` without device routing
        (the whole space for flat RAM; the RAM window for an MMIO bus)."""
        return self.size

    def _check(self, addr: int, width: int) -> int:
        addr = to_u32(addr)
        if addr + width > self.size:
            raise MemoryError_(f"access {addr:#x}+{width} beyond {self.size:#x}")
        if addr % width:
            raise MemoryError_(f"misaligned {width}-byte access at {addr:#x}")
        return addr

    def load(self, addr: int, width: int, signed: bool) -> int:
        """Read ``width`` bytes; sign- or zero-extend to 32 bits."""
        addr = self._check(addr, width)
        raw = int.from_bytes(self._bytes[addr:addr + width], "little")
        if signed:
            return to_u32(sign_extend(raw, 8 * width))
        return raw

    def store(self, addr: int, value: int, width: int) -> None:
        """Write the low ``width`` bytes of ``value``."""
        addr = self._check(addr, width)
        self._bytes[addr:addr + width] = (to_u32(value)
                                          & ((1 << (8 * width)) - 1)
                                          ).to_bytes(width, "little")

    def fetch(self, addr: int) -> int:
        """Instruction fetch: aligned 32-bit read."""
        addr = self._check(addr, 4)
        return int.from_bytes(self._bytes[addr:addr + 4], "little")

    def write_blob(self, addr: int, blob: bytes) -> None:
        addr = to_u32(addr)
        if addr + len(blob) > self.size:
            raise MemoryError_(f"blob of {len(blob)} bytes at {addr:#x} "
                               f"exceeds memory")
        self._bytes[addr:addr + len(blob)] = blob

    def read_blob(self, addr: int, length: int) -> bytes:
        addr = to_u32(addr)
        if addr + length > self.size:
            raise MemoryError_(f"read of {length} bytes at {addr:#x} "
                               f"exceeds memory")
        return bytes(self._bytes[addr:addr + length])
