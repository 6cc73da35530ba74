"""Timing model of Serv, the bit-serial RISC-V core used as baseline.

Serv processes one *bit* of the datapath per clock, so a 32-bit operation
takes ~32 clocks; the paper uses an average CPI of 32 for the Figure 9
energy-per-instruction comparison.  Functionally Serv retires the same
architectural effects as any RV32E core, so this model wraps the golden ISS
and layers the bit-serial cycle accounting on top.

Cycle accounting rides the shared decoded-op cache
(:mod:`repro.sim.decoded`): the memory/branch/jump classification that
determines an instruction's cost is computed once per static instruction at
decode time (the seed decoded every retired word a *second* time just for
cycle counting), so the Serv model now runs at golden-ISS fast-path speed.

Machine-mode traps and the SoC come from the wrapped golden ISS, whose one
slow path, :meth:`~repro.sim.golden.GoldenSim.retire_one`, retires every
row the compiled executors cannot; Serv charges such a row from the RVFI
row it records.  A trap entry costs one full serial word pass, and a
redirect pays the ``_BRANCH_EXTRA`` term when the next pc diverges from
pc+4.  A Serv with a SoC attached runs the same fast loop as a plain one.

The *structural* model of Serv (gates, flip-flop fraction) used by the
synthesis and physical-implementation experiments lives in
:mod:`repro.synth.serv_model`.
"""

from __future__ import annotations

from dataclasses import replace

from ..isa.program import DEFAULT_MEM_SIZE, Program
from ..soc.bus import MmioDeferred
from .decoded import SimulationError
from .golden import GoldenSim, RunResult
from .tracing import RvfiTrace

#: Datapath width — one cycle per bit.
_WORD_BITS = 32

#: Extra state-machine cycles for the two-phase memory handshake.
_MEM_EXTRA = 2

#: Extra cycles to redirect the serial PC on a taken control transfer.
_BRANCH_EXTRA = 1

_M32 = 0xFFFFFFFF


class ServSim:
    """Bit-serial execution: golden semantics + serial cycle accounting
    (the module constants above reproduce the paper's CPI ≈ 32)."""

    def __init__(self, program: Program, mem_size: int = DEFAULT_MEM_SIZE,
                 trace: bool = False, soc: "object | None" = None):
        self._golden = GoldenSim(program, mem_size=mem_size, trace=trace,
                                 soc=soc)

    @property
    def soc(self):
        return self._golden.soc

    def _op_cycles(self, op, redirected: bool) -> int:
        """Serial cycles for one retirement of decoded ``op``.

        ``redirected`` is True when the next pc differs from pc+4 (the only
        case where a *branch* pays the redirect penalty; jal/jalr always do).
        """
        cycles = _WORD_BITS
        if op.is_mem:
            cycles += _MEM_EXTRA
        if op.is_jump or (op.is_branch and redirected):
            cycles += _BRANCH_EXTRA
        return cycles

    def run(self, max_instructions: int = 20_000_000) -> RunResult:
        """Run to halt; ``cycles`` reflects bit-serial execution.

        The loop is :meth:`GoldenSim.run`'s, with or without a SoC: below
        the fire index a cached or freshly compiled executor retires the
        instruction, charged by its decoded-op class; every other
        retirement goes to ``retire_one`` and is charged from the row it
        records.  A traced run sends every row to ``retire_one``.
        """
        golden = self._golden
        traced = golden._trace_enabled
        trace = RvfiTrace() if traced else RvfiTrace(capacity=1)
        op_cycles = self._op_cycles
        regs = golden.regs
        memory = golden._fast_memory
        get_op = golden.image.get
        retire = golden.retire_one
        # A fire index of 0 sends every row of a traced run to retire_one.
        fire_at = 0 if traced else golden._fire_index()
        pc = golden.pc
        cycles = count = 0
        halted_by = "limit"
        try:
            while count < max_instructions:
                if count < fire_at:
                    try:
                        op = get_op(pc)
                        next_pc = op.execute(regs, memory, pc)
                    except (SimulationError, MmioDeferred):
                        next_pc = -1
                    if next_pc >= 0:
                        cycles += op_cycles(op, next_pc != pc + 4)
                        pc = next_pc
                        count += 1
                        continue
                golden.pc = pc
                try:
                    halted, reason = retire(count, trace)
                finally:
                    pc = golden.pc
                row = trace.row(-1)
                pc_rdata, pc_wdata, trapped = row[2], row[3], row[15]
                cycles += _WORD_BITS if trapped else op_cycles(
                    get_op(pc_rdata), pc_wdata != (pc_rdata + 4) & _M32)
                count += 1
                if halted:
                    halted_by = reason
                    break
                if not traced:
                    fire_at = golden._fire_index()
        finally:
            golden.pc = pc
        result = golden._result(count, halted_by, trace if traced else [])
        return replace(result, cycles=cycles)


def run_program_serv(program: Program,
                     max_instructions: int = 20_000_000,
                     soc: "object | None" = None) -> RunResult:
    """Convenience wrapper mirroring :func:`repro.sim.golden.run_program`."""
    return ServSim(program, soc=soc).run(max_instructions)
