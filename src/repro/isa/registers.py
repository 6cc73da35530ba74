"""RISC-V integer register file naming for RV32I (x0-x31) and RV32E (x0-x15).

The RISSP methodology targets RV32E (16 registers); the full-register RV32I
namespace is retained because the assembler accepts both and the subset
analyser must reject RV32I-only register usage when targeting RV32E.
"""

from __future__ import annotations

RV32I_NUM_REGS = 32
RV32E_NUM_REGS = 16

#: ABI register names indexed by register number (RV32I namespace).
ABI_NAMES = (
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
)

_NAME_TO_NUM = {name: idx for idx, name in enumerate(ABI_NAMES)}
_NAME_TO_NUM.update({f"x{i}": i for i in range(RV32I_NUM_REGS)})
_NAME_TO_NUM["fp"] = 8  # frame-pointer alias for s0


class RegisterError(ValueError):
    """Raised for unknown register names or registers outside the target ISA."""


def parse_register(name: str, num_regs: int) -> int:
    """Resolve a register name (ABI or ``xN``) to its number.

    Raises :class:`RegisterError` if the name is unknown or the register is
    not architecturally present in a machine with ``num_regs`` registers
    (e.g. ``a6`` on RV32E).
    """
    key = name.strip().lower()
    if key not in _NAME_TO_NUM:
        raise RegisterError(f"unknown register {name!r}")
    num = _NAME_TO_NUM[key]
    if num >= num_regs:
        raise RegisterError(
            f"register {name!r} (x{num}) not available with {num_regs} registers"
        )
    return num


def register_name(num: int) -> str:
    """Return the canonical ABI name for register number ``num``."""
    if not 0 <= num < RV32I_NUM_REGS:
        raise RegisterError(f"register number {num} out of range")
    return ABI_NAMES[num]
