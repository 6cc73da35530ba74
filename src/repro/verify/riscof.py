"""RISCOF-analog architectural compliance flow (§3.4.2).

RISCOF runs a suite of architectural test programs on the DUT, which dumps
a *signature* (a designated memory region of results) that is compared
against a reference model (Spike).  Here:

  * the DUT is the generated RISSP executed by the RTL evaluator,
  * the reference is the golden ISS,
  * the test programs are generated per instruction group: each applies the
    instruction to corner operands and stores every result to the signature
    region.

``run_compliance`` returns a report listing any signature divergence.
Each golden signature is computed once per process and kept in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..isa.assembler import assemble
from ..isa.bits import to_s32
from ..obs import telemetry as _obs
from ..isa.instructions import BRANCHES, BY_MNEMONIC, Format, LOADS, STORES
from ..isa.program import Program
from ..rtl.core_sim import RisspSim
from ..rtl.ir import Module
from ..sim.golden import GoldenSim

SIGNATURE_WORDS = 64

#: Operand pairs exercised by generated compliance tests.
_PAIRS = ((0, 0), (1, 2), (0xFFFFFFFF, 1), (0x7FFFFFFF, 1),
          (0x80000000, 0xFFFFFFFF), (0x55555555, 0xAAAAAAAA),
          (123456789, 987654321), (31, 3))


def _li(reg: str, value: int) -> str:
    return f"    li {reg}, {to_s32(value)}"


def compliance_program(mnemonic: str) -> str:
    """Generate an assembly compliance test for one instruction.

    The program computes a series of results with the instruction under
    test and stores each to the signature region; control instructions are
    tested through observable side effects (link values, taken/not-taken
    paths writing distinct markers).
    """
    d = BY_MNEMONIC[mnemonic]
    lines = [".data", "signature:", f"    .space {4 * SIGNATURE_WORDS}",
             "testdata:", "    .word 0x89ABCDEF, 0x01234567, "
             "0x80000001, 0xFF7F80FF",
             ".text", "main:", "    la a5, signature"]
    slot = 0

    def store_result(reg: str = "a0") -> None:
        nonlocal slot
        lines.append(f"    sw {reg}, {4 * slot}(a5)")
        slot += 1

    if d.fmt is Format.R:
        for a, b in _PAIRS:
            lines.append(_li("a1", a))
            lines.append(_li("a2", b))
            lines.append(f"    {mnemonic} a0, a1, a2")
            store_result()
    elif d.is_shift_imm:
        for a, _ in _PAIRS:
            for shamt in (0, 1, 15, 31):
                lines.append(_li("a1", a))
                lines.append(f"    {mnemonic} a0, a1, {shamt}")
                store_result()
    elif mnemonic in LOADS:
        lines.append("    la a1, testdata")
        width = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}[mnemonic]
        for offset in range(0, 16, width):
            lines.append(f"    {mnemonic} a0, {offset}(a1)")
            store_result()
    elif mnemonic in STORES:
        width = {"sb": 1, "sh": 2, "sw": 4}[mnemonic]
        for index, (value, _) in enumerate(_PAIRS[:4]):
            lines.append(_li("a0", value))
            offset = 16 + index * 4
            for lane in range(0, 4, width):
                lines.append(f"    {mnemonic} a0, {offset + lane}(a5)")
        slot = SIGNATURE_WORDS  # stores fill the signature directly
    elif mnemonic in BRANCHES:
        for index, (a, b) in enumerate(_PAIRS):
            taken = f"tk{index}"
            done = f"dn{index}"
            lines.append(_li("a1", a))
            lines.append(_li("a2", b))
            lines.append(f"    {mnemonic} a1, a2, {taken}")
            lines.append(_li("a0", 0x0BAD))
            lines.append(f"    j {done}")
            lines.append(f"{taken}:")
            lines.append(_li("a0", 0x0600D))
            lines.append(f"{done}:")
            store_result()
    elif mnemonic == "jal":
        lines += ["    jal a0, jt0", "jt0:"]
        store_result()
        lines += ["    jal a1, jt1", "jt1:"]
        store_result("a1")
    elif mnemonic == "jalr":
        lines += ["    la a1, jr0", "    jalr a0, a1, 0", "jr0:"]
        store_result()
        lines += ["    la a1, jr1", "    jalr a2, a1, 5", "jr1:",
                  "    nop", "    nop"]
        store_result("a2")
    elif d.fmt is Format.I:
        for a, _ in _PAIRS:
            for imm in (0, 1, -1, 2047, -2048):
                lines.append(_li("a1", a))
                lines.append(f"    {mnemonic} a0, a1, {imm}")
                store_result()
    elif d.fmt is Format.U:
        for field20 in (0, 1, 0x80000, 0xFFFFF, 0x12345):
            lines.append(f"    {mnemonic} a0, {field20}")
            store_result()
    else:
        lines.append(f"    {mnemonic}" if mnemonic == "fence" else "    nop")
        lines.append(_li("a0", 0x1))
        store_result()
    lines.append("    ret")
    return "\n".join(lines) + "\n"


@dataclass
class ComplianceReport:
    mnemonics: list[str]
    mismatches: list[str] = field(default_factory=list)
    tests_run: int = 0

    @property
    def compliant(self) -> bool:
        return self.tests_run > 0 and not self.mismatches


@lru_cache(maxsize=None)
def _compliance_binary(mnemonic: str) -> Program:
    """Assemble the compliance test for ``mnemonic`` once per process.

    The generated source is deterministic and no simulator mutates a
    :class:`Program` (memories copy the image at construction), so the
    linked binary is shared across every core that tests ``mnemonic``.
    """
    return assemble(compliance_program(mnemonic))


#: mnemonic -> golden-reference signature, one golden run per process.
_REFERENCE_SIGNATURES: dict[str, bytes] = {}


def _reference_signature(mnemonic: str) -> bytes:
    """Golden-reference signature for one compliance program, memoized.

    The reference depends only on the (deterministic) program, never on
    the core under test, so the golden run happens once per process — the
    same sharing the compliance binaries have.

    Telemetry (when a :mod:`repro.obs` session is active) counts every
    lookup and whether the memo answered it or a golden run recomputed
    it, so memo hits + recomputes == lookups.
    """
    signature = _REFERENCE_SIGNATURES.get(mnemonic)
    active = _obs._ACTIVE
    if active is not None:
        active.counters["riscof.sig_lookup"] += 1
        if signature is None:
            active.counters["riscof.sig_recompute"] += 1
        else:
            active.counters["riscof.sig_memo_hit"] += 1
    if signature is None:
        program = _compliance_binary(mnemonic)
        ref = GoldenSim(program)
        ref.run(max_instructions=100_000)
        signature = _REFERENCE_SIGNATURES[mnemonic] = _signature(
            ref.memory, program)
    return signature


def _signature(memory, program: Program) -> bytes:
    base = program.symbol("signature")
    return memory.read_blob(base, 4 * SIGNATURE_WORDS)


def compliance_targets(subset: list[str]) -> list[str]:
    """The mnemonics :func:`run_compliance` will actually test — a pure
    function of the subset.

    Filters out system instructions (no self-contained signature test:
    the trap path is covered by cosimulation and the RVFI checker) and
    targets whose test scaffolding the subset cannot execute.  The
    scaffolding set is what the generated programs rely on (li/la/j/ret
    expansions plus the signature stores); note ``beq`` is NOT in it: no
    generated program branches as scaffolding, and all-C firmware subsets
    (PR 5) legitimately arrive without it.
    """
    scaffolding = {"lw", "sw", "jal", "jalr", "addi", "lui"}
    available = set(subset) | {"ecall"}
    targets = []
    for mnemonic in subset:
        if mnemonic in ("ecall", "ebreak", "mret", "wfi") \
                or mnemonic.startswith("csrr"):
            continue
        if not (scaffolding | {mnemonic}).issubset(available):
            continue
        targets.append(mnemonic)
    return targets


def check_compliance_mnemonic(core: Module, mnemonic: str) -> list[str]:
    """Signature-compare one compliance program on one core.

    Returns the mismatch strings for this mnemonic (at most one — the
    first diverging signature word, same convention as always).  It
    touches no state beyond the per-process memos of binaries and
    reference signatures.
    """
    program = _compliance_binary(mnemonic)
    dut = RisspSim(core, program)
    dut.run(max_instructions=100_000)
    dut_sig = _signature(dut.memory, program)
    ref_sig = _reference_signature(mnemonic)
    if dut_sig == ref_sig:
        return []
    for index in range(SIGNATURE_WORDS):
        a = dut_sig[4 * index:4 * index + 4]
        b = ref_sig[4 * index:4 * index + 4]
        if a != b:
            return [f"{mnemonic}: signature[{index}] dut="
                    f"{int.from_bytes(a, 'little'):#x} ref="
                    f"{int.from_bytes(b, 'little'):#x}"]
    return []  # pragma: no cover - unequal blobs differ at some word


def run_compliance(core: Module) -> ComplianceReport:
    """Run generated compliance tests for every instruction in the subset
    that has a self-contained test (needs lw/sw/jal/addi/lui in the subset
    for scaffolding — always true for real applications).

    Targets are walked in-process on ``core`` itself at any farm worker
    count.  On the full RV32E core the whole walk (38 programs) costs
    less than one worker's rebuild of the core and recompile of its
    fused loop: a median 36 ms serial against 166 ms on 2 workers
    (5 interleaved pairs, 2-CPU container).
    """
    subset = list(core.meta.get("mnemonics", []))
    report = ComplianceReport(mnemonics=subset)
    for mnemonic in compliance_targets(subset):
        report.tests_run += 1
        report.mismatches.extend(check_compliance_mnemonic(core, mnemonic))
    return report
