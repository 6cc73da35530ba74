"""Randomized differential-fuzz program generators and chunk seeding.

PR 4 introduced the randomized program generators inside
``tests/test_rtl_fused_diff.py``; PR 6 promotes them here so the
multi-process simulation farm can regenerate the *same* program from a
seed on the worker side of a process boundary (a seed is a far smaller
task description than a linked binary, and it doubles as provenance:
every farm failure reports its ``(task-id, seed)`` pair).

Chunk seeding contract: a campaign is parameterized by one *base seed*
and a chunk count; chunk ``i`` fuzzes :func:`derive_seed`\\ ``(base, i)``.
The derivation is a fixed integer mix (splitmix64 — no Python ``hash``,
which is salted per process), so a sharded run across any number of
workers reproduces the serial run bit-for-bit, and re-running any single
chunk in isolation reproduces exactly that chunk.
"""

from __future__ import annotations

import random

from ..isa import INSTRUCTIONS
from ..isa.encoding import EncodingError, Instruction, encode

_MASK64 = (1 << 64) - 1

#: Default base seed of the differential fuzz campaigns (tests and the
#: ``repro`` CLI share it, so a CLI repro of a test failure fuzzes the
#: very same programs).
FUZZ_BASE_SEED = 0x5EED_C0DE


def derive_seed(base_seed: int, index: int) -> int:
    """Per-chunk seed ``index`` of the campaign seeded ``base_seed``.

    splitmix64 of ``base_seed + index`` — deterministic across processes
    and Python versions, well-mixed so neighbouring chunks share no
    low-bit structure.
    """
    z = (base_seed + index * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def fuzz_chunk_seeds(base_seed: int = FUZZ_BASE_SEED,
                     count: int = 8) -> tuple[int, ...]:
    """The per-chunk seed stream of one campaign, in chunk order."""
    return tuple(derive_seed(base_seed, index) for index in range(count))


def seeded_rng(seed: int) -> random.Random:
    """A ``random.Random`` whose stream is a pure function of ``seed``.

    The one sanctioned way generators (fuzz programs, scenario
    descriptions) draw randomness: always from an explicit splitmix64-
    derived seed, never from global ``random`` state — so any artifact
    regenerates bit-identically from its reported seed on any worker.
    """
    return random.Random(seed)


# ------------------------------------------------------------ generators

_OPS_RRR = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra",
            "slt", "sltu"]
_OPS_RRI = ["addi", "andi", "ori", "xori", "slti", "sltiu"]
_OPS_SHI = ["slli", "srli", "srai"]
_LOADS = ["lw", "lh", "lhu", "lb", "lbu"]
_STORES = {"sw": 4, "sh": 2, "sb": 1}
_REGS = ["t0", "t1", "t2", "a2", "a3", "a4", "a5", "s0", "s1"]


def random_program(seed: int) -> str:
    """A random halting program: ALU soup + memory round-trips + a
    counted loop, accumulating a checksum into a0."""
    rng = random.Random(seed)
    lines = [".text", "main:", "    li a0, 0", "    li a1, 0",
             "    li gp, 0x8000"]
    for reg in _REGS:
        lines.append(f"    li {reg}, {rng.randrange(-2048, 2048)}")
    lines.append(f"    li tp, {rng.randrange(3, 7)}")   # loop counter
    lines.append("loop:")
    for index in range(rng.randrange(10, 25)):
        roll = rng.randrange(10)
        rd = rng.choice(_REGS)
        rs1 = rng.choice(_REGS)
        rs2 = rng.choice(_REGS)
        if roll < 4:
            lines.append(f"    {rng.choice(_OPS_RRR)} {rd}, {rs1}, {rs2}")
        elif roll < 6:
            lines.append(f"    {rng.choice(_OPS_RRI)} {rd}, {rs1}, "
                         f"{rng.randrange(-2048, 2048)}")
        elif roll < 7:
            lines.append(f"    {rng.choice(_OPS_SHI)} {rd}, {rs1}, "
                         f"{rng.randrange(32)}")
        elif roll < 8:
            offset = 4 * rng.randrange(8)
            mnemonic = rng.choice(list(_STORES))
            lines.append(f"    {mnemonic} {rs1}, {offset}(gp)")
        else:
            offset = 4 * rng.randrange(8)
            lines.append(f"    {rng.choice(_LOADS)} {rd}, {offset}(gp)")
        lines.append(f"    add a0, a0, {rd}")
        if roll == 9 and index % 3 == 0:
            lines.append(f"    beq {rs1}, {rs2}, skip{seed}_{index}")
            lines.append("    addi a0, a0, 1")
            lines.append(f"skip{seed}_{index}:")
    lines += ["    addi tp, tp, -1", "    bne tp, zero, loop", "    ret"]
    return "\n".join(lines) + "\n"


def random_trap_program(seed: int) -> str:
    """Random compute burst wrapped in trap plumbing: install a handler,
    bounce through ecall a few times, read CSRs back, then halt."""
    rng = random.Random(seed)
    body = []
    for _ in range(rng.randrange(4, 10)):
        body.append(f"    {rng.choice(_OPS_RRI)} "
                    f"{rng.choice(_REGS)}, {rng.choice(_REGS)}, "
                    f"{rng.randrange(-512, 512)}")
    bounces = rng.randrange(2, 5)
    return "\n".join([
        ".text", "main:",
        "    la t0, handler",
        "    csrw mtvec, t0",
        "    li a0, 0",
        f"    li tp, {bounces}",
        "again:"] + body + [
        "    ecall",                      # hardware trap entry
        "    csrr a2, mepc",
        "    add a0, a0, a2",
        "    csrr a3, mcause",
        "    add a0, a0, a3",
        "    addi tp, tp, -1",
        "    bne tp, zero, again",
        "    csrw mtvec, x0",             # restore halt convention
        "    ret",
        "handler:",
        "    csrr a4, mepc",
        "    addi a4, a4, 4",
        "    csrw mepc, a4",
        "    addi a0, a0, 100",
        "    mret",
    ]) + "\n"


def random_words(seed: int, count: int) -> list[int]:
    """``count`` random encodable RV32E instruction words (any mnemonic,
    registers below x16, even immediates): per-cycle RTL stimulus."""
    rng = random.Random(seed)
    mnemonics = [d.mnemonic for d in INSTRUCTIONS]
    words: list[int] = []
    while len(words) < count:
        try:
            words.append(encode(Instruction(
                rng.choice(mnemonics), rd=rng.randrange(16),
                rs1=rng.randrange(16), rs2=rng.randrange(16),
                imm=rng.randrange(-2048, 2048) & ~1), num_regs=16))
        except (EncodingError, ValueError):
            continue
    return words
