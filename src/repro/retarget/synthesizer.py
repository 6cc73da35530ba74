"""Generative macro synthesis with the Figure 11 verify/retry loop.

For each instruction outside the target subset the synthesizer asks the
candidate generator (:mod:`repro.retarget.templates` — the LLM stand-in)
for an expansion, verifies it against the instruction's ISA semantics on
corner operands by *executing* it on the golden ISS, rejects failures and
retries with the next candidate, exactly as the paper's loop does ("a valid
macro can be generated in less than 10 attempts").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.assembler import assemble
from ..isa.instructions import BRANCHES, BY_MNEMONIC, Format, LOADS, STORES
from ..sim.golden import GoldenSim
from .templates import CANDIDATES, MINIMAL_SUBSET, Template

MAX_ATTEMPTS = 10

_CORNERS = (0, 1, 5, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 31, 0xA5A5A5A5)
_IMM_CORNERS = (0, 1, -1, 7, 100, 2047, -2048)
_SHAMT_CORNERS = (0, 1, 7, 31)


class RetargetError(ValueError):
    pass


@dataclass
class VerifiedMacro:
    mnemonic: str
    template: Template
    attempts: int
    cases_checked: int


@dataclass
class SynthesisReport:
    subset: tuple[str, ...]
    macros: dict[str, VerifiedMacro]
    total_attempts: int


def _run(asm: str) -> GoldenSim:
    program = assemble(asm)
    sim = GoldenSim(program)
    sim.run(20_000)
    return sim


def _s32(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v & 0x80000000 else v


def _expected(mnemonic: str, a: int, b: int) -> int:
    from ..isa.encoding import Instruction
    from ..isa.spec import step
    instr = Instruction(mnemonic, rd=5, rs1=3, rs2=4,
                        imm=_s32(b) if _uses_imm(mnemonic) else 0)
    effects = step(instr, 0x1000, a, 0 if _uses_imm(mnemonic) else b)
    return effects.rd_data or 0


def _uses_imm(mnemonic: str) -> bool:
    d = BY_MNEMONIC[mnemonic]
    return d.fmt is Format.I or d.fmt is Format.U


def _label_factory():
    count = [0]

    def fresh() -> str:
        count[0] += 1
        return f".Lvf{count[0]}"
    return fresh


def _verify_alu(mnemonic: str, template: Template) -> int:
    """Returns number of cases checked; raises on mismatch."""
    cases = 0
    imm_form = _uses_imm(mnemonic)
    d = BY_MNEMONIC[mnemonic]
    if d.mnemonic == "lui":
        for imm20 in (0, 1, 0x12345, 0xFFFFF, 0x80000):
            lines = template("a0", str(imm20), _label_factory())
            asm = ".text\nmain:\n" + "\n".join(
                f"    {line}" for line in lines) + "\n    ret\n"
            sim = _run(asm)
            want = (imm20 << 12) & 0xFFFFFFFF
            if sim.read_reg(10) != want:
                raise RetargetError(f"lui {imm20:#x}: got "
                                    f"{sim.read_reg(10):#x} want {want:#x}")
            cases += 1
        return cases
    if d.mnemonic == "auipc":
        for imm20 in (0, 1, 0x00010):
            lines = template("a0", str(imm20), _label_factory())
            asm = (".text\nmain:\n    nop\nanchor:\n"
                   + "\n".join(f"    {line}" for line in lines)
                   + "\n    ret\n")
            program = assemble(asm)
            sim = GoldenSim(program)
            sim.run(20_000)
            want = (program.symbol("anchor") + (imm20 << 12)) & 0xFFFFFFFF
            if sim.read_reg(10) != want:
                raise RetargetError(f"auipc {imm20:#x} mismatch")
            cases += 1
        return cases
    if imm_form:
        b_space = _SHAMT_CORNERS if d.is_shift_imm else _IMM_CORNERS
    else:
        b_space = _CORNERS
    for a in _CORNERS:
        for b in b_space:
            lines = template("a0", "a1", str(_s32(b)) if imm_form else "a2",
                             _label_factory())
            body = [f"    li a1, {_s32(a)}"]
            if not imm_form:
                body.append(f"    li a2, {_s32(b)}")
            body += [f"    {line}" if not line.endswith(":") else line
                     for line in lines]
            asm = ".text\nmain:\n" + "\n".join(body) + "\n    ret\n"
            sim = _run(asm)
            want = _expected(mnemonic, a, b)
            if sim.read_reg(10) != want:
                raise RetargetError(
                    f"{mnemonic} a={a:#x} b={b:#x}: got "
                    f"{sim.read_reg(10):#x} want {want:#x}")
            cases += 1
    return cases


def _verify_branch(mnemonic: str, template: Template) -> int:
    from ..isa.spec import _BRANCH_TAKEN
    taken_fn = _BRANCH_TAKEN[mnemonic]
    cases = 0
    for a in _CORNERS:
        for b in (0, 1, 0xFFFFFFFF, 0x80000000, a):
            lines = template("a1", "a2", "taken", _label_factory())
            body = [f"    li a1, {_s32(a)}", f"    li a2, {_s32(b)}"]
            body += [f"    {line}" if not line.endswith(":") else line
                     for line in lines]
            body += ["    li a0, 0", "    ret", "taken:",
                     "    li a0, 1", "    ret"]
            sim = _run(".text\nmain:\n" + "\n".join(body) + "\n")
            want = 1 if taken_fn(a, b) else 0
            if sim.read_reg(10) != want:
                raise RetargetError(f"{mnemonic} a={a:#x} b={b:#x} "
                                    f"polarity wrong")
            cases += 1
    return cases


def _verify_load(mnemonic: str, template: Template) -> int:
    width = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2}[mnemonic]
    signed = mnemonic in ("lb", "lh")
    cases = 0
    for word in (0x8899AA7F, 0x01FF80E2, 0x7FFF8000):
        for offset in range(0, 4, width):
            lines = template("a0", str(offset), "a1", _label_factory())
            asm = (".data\nbuf: .word {w}\n.text\nmain:\n"
                   "    la a1, buf\n".format(w=word)
                   + "\n".join(f"    {line}" if not line.endswith(":")
                               else line for line in lines)
                   + "\n    ret\n")
            sim = _run(asm)
            raw = (word >> (8 * offset)) & ((1 << (8 * width)) - 1)
            if signed and raw & (1 << (8 * width - 1)):
                raw |= (0xFFFFFFFF << (8 * width)) & 0xFFFFFFFF
            if sim.read_reg(10) != raw & 0xFFFFFFFF:
                raise RetargetError(
                    f"{mnemonic} off={offset}: got "
                    f"{sim.read_reg(10):#x} want {raw:#x}")
            cases += 1
    return cases


def _verify_store(mnemonic: str, template: Template) -> int:
    width = {"sb": 1, "sh": 2}[mnemonic]
    cases = 0
    for value in (0xAB, 0x12345678, 0xFFFFFFFF):
        for offset in range(0, 4, width):
            lines = template("a2", str(offset), "a1", _label_factory())
            asm = (".data\nbuf: .word 0x55AA33CC\n.text\nmain:\n"
                   "    la a1, buf\n"
                   f"    li a2, {_s32(value)}\n"
                   + "\n".join(f"    {line}" if not line.endswith(":")
                               else line for line in lines)
                   + "\n    ret\n")
            program = assemble(asm)
            sim = GoldenSim(program)
            sim.run(20_000)
            got = sim.memory.load(program.symbol("buf"), 4, False)
            mask = ((1 << (8 * width)) - 1) << (8 * offset)
            want = (0x55AA33CC & ~mask) | ((value << (8 * offset)) & mask)
            if got != want & 0xFFFFFFFF:
                raise RetargetError(
                    f"{mnemonic} off={offset} val={value:#x}: memory "
                    f"{got:#x} want {want:#x}")
            cases += 1
    return cases


def synthesize_macro(mnemonic: str) -> VerifiedMacro:
    """Propose/verify/retry loop for one instruction."""
    candidates = CANDIDATES.get(mnemonic)
    if not candidates:
        raise RetargetError(f"no candidate generator for {mnemonic!r}")
    last_error: Exception | None = None
    for attempt, template in enumerate(candidates[:MAX_ATTEMPTS], start=1):
        try:
            if mnemonic in BRANCHES:
                cases = _verify_branch(mnemonic, template)
            elif mnemonic in LOADS and mnemonic != "lw":
                cases = _verify_load(mnemonic, template)
            elif mnemonic in STORES and mnemonic != "sw":
                cases = _verify_store(mnemonic, template)
            else:
                cases = _verify_alu(mnemonic, template)
            return VerifiedMacro(mnemonic, template, attempt, cases)
        except (RetargetError, Exception) as exc:   # reject + retry
            last_error = exc
    raise RetargetError(f"no valid macro for {mnemonic!r} within "
                        f"{MAX_ATTEMPTS} attempts: {last_error}")


def synthesize_macros(mnemonics: list[str]) -> SynthesisReport:
    """Verified macros for every instruction :data:`MINIMAL_SUBSET`
    lacks."""
    macros = {mnemonic: synthesize_macro(mnemonic)
              for mnemonic in sorted(set(mnemonics) - set(MINIMAL_SUBSET))
              if mnemonic not in ("ecall", "ebreak", "fence")}
    return SynthesisReport(
        subset=MINIMAL_SUBSET, macros=macros,
        total_attempts=sum(macro.attempts for macro in macros.values()))
