"""Bit-manipulation helpers shared across the ISA model, simulators and RTL.

All architectural values are carried as Python ints constrained to 32 bits.
Helpers here are the single source of truth for masking, sign extension and
field extraction so that the spec, the ISS and the RTL evaluator cannot
drift apart on corner cases.
"""

from __future__ import annotations

MASK32 = 0xFFFF_FFFF
SIGN32 = 0x8000_0000


def to_u32(value: int) -> int:
    """Truncate an arbitrary Python int to an unsigned 32-bit value."""
    return value & MASK32


def to_s32(value: int) -> int:
    """Interpret the low 32 bits of ``value`` as a signed two's-complement int."""
    value &= MASK32
    return value - 0x1_0000_0000 if value & SIGN32 else value


def sign_extend(value: int, bits: int) -> int:
    """Sign-extend the low ``bits`` bits of ``value`` to a signed Python int."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def bit(value: int, index: int) -> int:
    """Return bit ``index`` of ``value`` (0 or 1)."""
    return (value >> index) & 1


def bits(value: int, hi: int, lo: int) -> int:
    """Return the inclusive bit-field ``value[hi:lo]`` as an unsigned int."""
    if hi < lo:
        raise ValueError(f"invalid bit range [{hi}:{lo}]")
    return (value >> lo) & ((1 << (hi - lo + 1)) - 1)


def fits_signed(value: int, nbits: int) -> bool:
    """True if ``value`` is representable as an ``nbits``-bit signed immediate."""
    lo = -(1 << (nbits - 1))
    hi = (1 << (nbits - 1)) - 1
    return lo <= value <= hi
