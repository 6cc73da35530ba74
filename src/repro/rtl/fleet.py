"""Batched fleet simulation: step thousands of cores per fused pass.

The paper's deployment story is a *fleet* of tiny cores — many independent
core+firmware instances, each doing a short burst of work.  The fused loop
from PR 4 executes one instance per ``run_cycles`` call, so a fleet
campaign pays the per-instance fixed costs N times: building a
:class:`~repro.rtl.core_sim.RisspSim` (memory image, environment and
register-file setup) and, per scheduling quantum, entering and leaving
the fused loop (register reload and flush).  :class:`FleetSim` amortizes
both: instance state lives in flat per-lane arrays (RAM bytearray,
register-file list, module-register bank, retirement counter) cloned from
a prebuilt template, and one generated ``run_fleet`` pass
(:func:`repro.rtl.compiled.compile_fleet`) advances every live lane by a
quantum of retirements with zero per-lane Python dispatch beyond the lane
loop itself.  All lanes share one per-word decode cache — the same
``_DCACHE`` dict the single-instance fused loop uses.

**Determinism contract**: each lane's trajectory is a pure function of its
own program, pokes and retirement budget.  Batch size, lane order, the
stepping quantum and how lanes are sharded across processes never change
any lane's results — the batched loop keeps every lane's state in its own
arrays and the divergence rule below hands a lane over *before* an
instruction the batch cannot complete bit-identically applies any state.

**Divergence fallback**: the batched loop runs the single-instance fused
retirement body against flat RAM.  Where that loop would call back into
the harness — a misaligned or out-of-RAM fetch, an RV32E register-bound
word, emulated Zicsr/``wfi``, an illegal instruction, an out-of-RAM load
or store, a malformed store strobe, a trapping ecall/ebreak (mtvec
installed), ``mret`` — a batched lane leaves the batch with that
instruction *unexecuted*, and the loop reports the event as the lane's
divergence cause (the ``fleet.diverge.*`` counters).  A real
:class:`~repro.rtl.core_sim.RisspSim` built around the lane's exact state
adopts it; from then on the lane advances on the single-instance fused
path (which owns all those events), so its results — including error
surfaces like ``SimulationError`` refusals — are bit-identical to running
it alone.  On a core without the trap slice, a Zicsr or ``mret`` word is
an illegal instruction to both loops.

``FleetSim`` drives flat-memory instances only (the fleet story); attach
a SoC via :class:`~repro.rtl.core_sim.RisspSim` per instance instead.
"""

from __future__ import annotations

from ..isa.bits import to_u32
from ..isa.encoding import Instruction, encode
from ..isa.program import DEFAULT_MEM_SIZE, Program
from ..sim.golden import _HALT_SENTINEL, RunResult, abi_initial_regs
from ..obs import telemetry as _obs
from ..sim.memory import Memory
from ..sim.tracing import RvfiTrace
from .compiled import compile_fleet
from .core_sim import (
    RisspSim,
    _classify_word,
    _halt_reason,
    _trace_load_fields,
    _WORD_CLASS,
)
from .ir import Module
from .sim import resolve_backend

#: Default retirements per batched pass: long enough to amortize the
#: per-pass lane setup, short enough that freshly-halted lanes stop
#: consuming passes quickly.
DEFAULT_QUANTUM = 256

_BATCHED, _FALLBACK, _HALTED = 0, 1, 2
_STATE_NAMES = {_BATCHED: "batched", _FALLBACK: "fallback",
                _HALTED: "halted"}


class FleetSim:
    """Run N independent core+firmware instances, batched per fused pass.

    Construct with one shared ``program`` and an ``instances`` count (the
    common fleet shape — clone templates, then differentiate lanes with
    :meth:`poke_regfile` / :meth:`poke_memory_word`), or with a
    ``programs`` sequence giving each lane its own firmware image.
    """

    def __init__(self, core: Module, program: Program | None = None,
                 instances: int | None = None, *,
                 programs=None, mem_size: int = DEFAULT_MEM_SIZE,
                 backend: str | None = None,
                 trace_lanes=(), trace_capacity: int | None = None):
        if programs is None:
            if program is None:
                raise ValueError("FleetSim needs a program (or programs)")
            programs = [program] * (1 if instances is None else instances)
        else:
            programs = list(programs)
            if instances is not None and instances != len(programs):
                raise ValueError(
                    f"instances={instances} != len(programs)="
                    f"{len(programs)}")
        if not programs:
            raise ValueError("FleetSim needs at least one instance")
        self.core = core
        self.mem_size = mem_size
        self.instances = len(programs)
        self._programs = programs
        self._backend = resolve_backend(backend)
        # compile_fleet refuses a core without the fused harness interface.
        self._fleet = compile_fleet(core) if self._backend == "fused" else None
        self._register_names = tuple(core.registers)
        self._reg_index = {name: index for index, name
                           in enumerate(self._register_names)}
        spec = core.regfile
        self._rf_mask = (1 << spec.width) - 1 if spec is not None else 0

        # Template-cloned per-lane state: one Memory build per unique
        # program object, then a bytes copy per lane — the whole point of
        # the fleet path is never paying RisspSim construction per lane.
        templates: dict[int, tuple[bytes, int]] = {}
        ecall_word = encode(Instruction("ecall"))
        self._mems: list[bytearray] = []
        self._regfiles: list[list[int]] = []
        self._regs: list[list[int]] = []
        self._counts: list[int] = []
        self._sinks: list = []
        abi_regs = abi_initial_regs(mem_size)
        resets = [reg.reset_value & ((1 << reg.width) - 1)
                  for reg in core.registers.values()]
        pc_slot = self._reg_index["pc"]
        for prog in programs:
            cached = templates.get(id(prog))
            if cached is None:
                memory = Memory.from_program(prog, mem_size)
                # ABI setup mirrors RisspSim: ecall stub at the halt
                # sentinel, sp at top of RAM, ra at the stub.
                memory.store(_HALT_SENTINEL, ecall_word, 4)
                cached = (bytes(memory.raw), to_u32(prog.entry))
                templates[id(prog)] = cached
            template, entry = cached
            self._mems.append(bytearray(template))
            regfile = [0] * (spec.num_regs if spec is not None else 0)
            for index, value in abi_regs.items():
                regfile[index] = value
            self._regfiles.append(regfile)
            bank = list(resets)
            bank[pc_slot] = entry
            self._regs.append(bank)
            self._counts.append(0)
            self._sinks.append(None)
        self._status = [_BATCHED] * self.instances
        self._reasons = [""] * self.instances
        self._sims: dict[int, RisspSim] = {}
        self._traces: dict[int, RvfiTrace] = {}
        for lane in trace_lanes:
            self.trace(lane, capacity=trace_capacity)
        self._ctx = {
            "mems": self._mems, "regfiles": self._regfiles,
            "regs": self._regs, "counts": self._counts,
            "sinks": self._sinks, "ram_size": mem_size,
            "halt_reason": _halt_reason, "trace_load": _trace_load_fields,
            "wclass": _WORD_CLASS, "classify": _classify_word,
        }

    # ------------------------------------------------------------ tracing

    def trace(self, lane: int, capacity: int | None = None) -> RvfiTrace:
        """Attach (or fetch) the RVFI trace of one lane; rows follow the
        same row-major convention as every other harness; the batched
        loop records through the trace's ``row_sink``."""
        trace = self._traces.get(lane)
        if trace is None:
            trace = self._traces[lane] = RvfiTrace(capacity=capacity)
            self._sinks[lane] = trace.row_sink()
        return trace

    # ----------------------------------------------------------- stepping

    def step(self, cycles: int) -> None:
        """Advance every live lane by up to ``cycles`` retirements.

        Batched lanes go through one ``run_fleet`` pass; lanes it reports
        diverged (each with its cause, counted as ``fleet.diverge.<cause>``)
        are adopted by a per-instance :class:`RisspSim` and finish this
        step's remaining budget on the fused path, so a ``step`` means the
        same thing for every lane regardless of which path executes it.
        """
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        lanes = range(self.instances)
        fallback = [l for l in lanes if self._status[l] == _FALLBACK]
        batch = [l for l in lanes if self._status[l] == _BATCHED]
        if batch and self._fleet is None:
            # Interpreter backend (oracle run): every lane is per-instance.
            for lane in batch:
                self._materialize(lane)
            fallback += batch
            batch = []
        if batch:
            targets = {lane: self._counts[lane] + cycles for lane in batch}
            halted, diverged = self._fleet.run_fleet(
                self._ctx, batch, cycles)
            active = _obs._ACTIVE
            if active is not None:
                active.counters["fleet.passes"] += 1
                active.counters["fleet.lane_halt"] += len(halted)
            for lane, reason in halted:
                self._status[lane] = _HALTED
                self._reasons[lane] = reason or "ecall"
            for lane, cause in diverged:
                self._materialize(lane)
                if active is not None:
                    active.counters[f"fleet.diverge.{cause}"] += 1
                self._advance_single(lane, targets[lane])
        for lane in fallback:
            self._advance_single(lane, self._counts[lane] + cycles)

    def run(self, max_instructions: int = 2_000_000,
            quantum: int = DEFAULT_QUANTUM) -> list[RunResult]:
        """Round-robin all lanes to halt (or the retirement budget).

        The quantum only schedules; per the determinism contract it never
        changes any lane's results.
        """
        while True:
            live = [l for l in range(self.instances)
                    if self._status[l] != _HALTED
                    and self._counts[l] < max_instructions]
            if not live:
                break
            budget = min(max_instructions - self._counts[l] for l in live)
            self.step(min(quantum, budget))
        return [self.result(lane) for lane in range(self.instances)]

    def _materialize(self, lane: int) -> None:
        """Adopt one lane's exact state into a per-instance RisspSim.

        The sim's memory and register file become views of the lane's
        arrays (contents copied in place, the array objects swapped to the
        sim's own), so the peek/poke accessors below stay authoritative on
        both paths; module registers move to ``rtl.env``.  Harness-side
        CSR shadow state (mstatus/mie/...) is still at reset because any
        CSR-touching word diverges *before* executing.
        """
        sim = RisspSim(self.core, self._programs[lane],
                       mem_size=self.mem_size, backend=self._backend)
        sim.memory.raw[:] = self._mems[lane]
        self._mems[lane] = sim.memory.raw
        if sim.rtl.regfile_data is not None:
            sim.rtl.regfile_data[:] = self._regfiles[lane]
            self._regfiles[lane] = sim.rtl.regfile_data
        for name, value in zip(self._register_names, self._regs[lane]):
            sim.rtl.env[name] = value
        self._sims[lane] = sim
        self._status[lane] = _FALLBACK

    def _advance_single(self, lane: int, target: int) -> None:
        sim = self._sims[lane]
        count = self._counts[lane]
        if count >= target:
            return
        halted, reason, count = sim._advance(count, target,
                                             self._traces.get(lane))
        self._counts[lane] = count
        if halted:
            self._status[lane] = _HALTED
            self._reasons[lane] = reason or "ecall"

    # ------------------------------------------------------------ results

    def lane_state(self, lane: int) -> str:
        """``"batched"`` | ``"fallback"`` | ``"halted"`` — which path the
        lane is on (diverged lanes report ``"fallback"`` forever)."""
        return _STATE_NAMES[self._status[lane]]

    def halted(self, lane: int) -> bool:
        return self._status[lane] == _HALTED

    def result(self, lane: int) -> RunResult:
        """RunResult snapshot of one lane (same fields as RisspSim.run)."""
        reason = self._reasons[lane] if self._status[lane] == _HALTED \
            else "limit"
        trace = self._traces.get(lane)
        return RunResult(exit_code=self.peek_regfile(lane, 10),
                         instructions=self._counts[lane],
                         cycles=self._counts[lane], halted_by=reason,
                         trace=trace if trace is not None else [])

    def instructions(self, lane: int) -> int:
        return self._counts[lane]

    # --------------------------------------------------------- peek/poke

    def peek_regfile(self, lane: int, index: int) -> int:
        return self._regfiles[lane][index] if index else 0

    def poke_regfile(self, lane: int, index: int, value: int) -> None:
        if index:
            self._regfiles[lane][index] = value & self._rf_mask

    def peek_register(self, lane: int, name: str) -> int:
        sim = self._sims.get(lane)
        if sim is not None:
            return sim.rtl.env[name]
        return self._regs[lane][self._reg_index[name]]

    def poke_register(self, lane: int, name: str, value: int) -> None:
        mask = (1 << self.core.registers[name].width) - 1
        sim = self._sims.get(lane)
        if sim is not None:
            sim.rtl.env[name] = value & mask
        else:
            self._regs[lane][self._reg_index[name]] = value & mask

    def peek_memory_word(self, lane: int, addr: int) -> int:
        return int.from_bytes(self._mems[lane][addr:addr + 4], "little")

    def poke_memory_word(self, lane: int, addr: int, value: int) -> None:
        self._mems[lane][addr:addr + 4] = (value & 0xFFFFFFFF).to_bytes(
            4, "little")
