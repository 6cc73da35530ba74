"""Scenario DSL: pure picklable descriptions of generated SoC environments.

A *scenario* is everything the three fixed SoC workloads hard-code, made
parametric and derived from a splitmix64 seed
(:func:`repro.verify.fuzz.derive_seed`):

* a **waveform model** (:class:`Waveform`) the SensorPort replays —
  ECG-like periodic, LCG noise, burst, flatline or ramp;
* a **device event schedule** — sensor sampling cadence, timer arming
  and re-arm period, and the platform clock's starting offset
  (``SocSpec.mtime_offset``), which together produce isolated
  interrupts, same-window races and back-to-back storms;
* a **firmware template** rendered from the scenario parameters
  (interrupt-driven, wfi-polled, or busy-spin main loops; in-order /
  skipping / draining sensor ACK policies; optional synchronous
  ecall/ebreak/illegal trap ops; optional UART telemetry);
* a **fault-injection schedule** (:class:`FaultEvent`) applied through
  the oracle-identical peek/poke surface between resumable ``run()``
  segments — identical on the golden ISS and every RTL backend.

Everything here is a frozen dataclass of ints/strs/tuples: scenarios
pickle across the farm's process boundary, compare by value, and —
because every random draw comes from :func:`repro.verify.fuzz.seeded_rng`
on the scenario's own seed — regenerate bit-identically from a reported
``(scenario-id, seed, budget)`` triple via :func:`replay_scenario`.

The second scenario kind (:class:`FleetScenario`) targets the batched
fleet simulator instead of the SoC: stunt lanes whose first batched
instruction forces a classified lane divergence, driving the
``fleet.diverge.*`` coverage bins.  The
``rv32e_bound`` stunt (`add x16`, an encoding outside the valid-RV32E
surface random generation draws from) is deliberately *excluded* from
the random lane pool — it is reachable only through directed mutation,
which is what the coverage-guided loop is for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..soc import SocSpec
from ..verify.fuzz import seeded_rng

#: Default per-scenario retirement budget (both backends count trap and
#: interrupt-entry retirements identically, so segment boundaries align).
DEFAULT_BUDGET = 20_000

#: Retirement budget of every fleet scenario: a lane is a stunt plus a
#: halt, so the budget bounds only a lane that loops (``mret`` with mepc
#: 0 jumps back to itself).
FLEET_BUDGET = 96

#: RAM word the sensor ISR / poll block accumulates into, and the target
#: window of memory fault injection — read back into the exit checksum by
#: every firmware's ``finish`` block so memory pokes are trace-visible.
SCRATCH_BASE = 0x8000
_SCRATCH_SPAN = 0x80

#: Registers fault injection may poke: the exit checksum (s1) and the
#: spin-loop increment (a4).  Never an address register (t0-t2) — a poked
#: address could turn a firmware load into an out-of-RAM refusal.
POKE_REGS = (9, 14)

WAVEFORM_KINDS = ("ecg", "noise", "burst", "flatline", "ramp")
MODES = ("irq_wfi", "irq_spin", "polled")
TRAP_OPS = ("", "ecall", "ebreak", "illegal")
#: Sensor ACK policies, encoded as the ACK-register update rule:
#: ``k >= 1`` writes ``INDEX + k`` (1 = in order, >1 = deliberate skip),
#: ``DRAIN`` writes COUNT (consume everything), ``OVERACK`` writes
#: COUNT + 5 (acknowledge past the end — the no-pending edge case).
ACK_DRAIN = -1
ACK_OVERACK = -2

FLEET_STUNTS = ("none", "emulated", "mret", "trap", "rv32e_bound",
                "illegal")
#: Stunts random generation draws from; ``rv32e_bound`` is directed-only
#: (see the module docstring).
RANDOM_FLEET_STUNTS = ("none", "emulated", "mret", "trap", "illegal")
FLEET_ENDS = ("ecall", "ebreak")


# ------------------------------------------------------------- waveforms

@dataclass(frozen=True)
class Waveform:
    """Parameterized sensor waveform model; ``samples()`` is pure."""

    kind: str
    count: int
    period: int = 24
    amplitude: int = 90
    seed: int = 0

    def samples(self) -> tuple[int, ...]:
        if self.kind not in WAVEFORM_KINDS:
            raise ValueError(f"unknown waveform kind {self.kind!r}")
        count = max(1, self.count)
        period = max(2, self.period)
        out = []
        state = self.seed & 0xFFFFFFFF
        for index in range(count):
            state = (state * 1664525 + 1013904223) & 0xFFFFFFFF
            if self.kind == "ecg":
                value = ((index * 5) % 11) - 5
                if index % period == 0:
                    value += self.amplitude
                elif index % period == 1:
                    value -= self.amplitude // 3
            elif self.kind == "noise":
                value = state % (2 * self.amplitude + 1) - self.amplitude
            elif self.kind == "burst":
                value = self.amplitude + (state & 0xF) \
                    if (index // period) % 2 else 0
            elif self.kind == "flatline":
                value = self.amplitude
            else:  # ramp
                value = (index * max(1, self.amplitude // 8)) & 0xFFFF
            out.append(value & 0xFFFFFFFF)
        return tuple(out)


# -------------------------------------------------------- fault injection

@dataclass(frozen=True)
class FaultEvent:
    """One mid-run poke, applied between run segments at retirement
    ``at`` — ``kind`` is ``"reg"`` (architectural register ``target``)
    or ``"mem"`` (RAM word at byte address ``target``)."""

    at: int
    kind: str
    target: int
    value: int


# ---------------------------------------------------------- SoC scenario

@dataclass(frozen=True)
class SocScenario:
    """One generated SoC environment + firmware, fully described."""

    scenario_id: str
    seed: int
    waveform: Waveform
    ticks_per_sample: int
    mtime_offset: int
    timer_init: int        # first mtimecmp value; 0 = timer never armed
    timer_period: int      # ISR / poll re-arm increment
    sensor_irq: bool       # arm mie.SDIE (bit 16)
    mode: str              # "irq_wfi" | "irq_spin" | "polled"
    events: int            # handled events before the firmware finishes
    ack_step: int          # >=1 step, ACK_DRAIN, ACK_OVERACK
    trap_op: str           # "" | "ecall" | "ebreak" | "illegal"
    uart: bool             # UART status read + telemetry byte at finish
    faults: tuple[FaultEvent, ...] = ()
    budget: int = DEFAULT_BUDGET

    @property
    def kind(self) -> str:
        return "soc"

    def soc_spec(self) -> SocSpec:
        return SocSpec(sensor_samples=self.waveform.samples(),
                       sensor_ticks_per_sample=max(1, self.ticks_per_sample),
                       mtime_offset=self.mtime_offset)

    # ------------------------------------------------- firmware template

    def source(self) -> str:
        """Render the firmware for this scenario (RV32E assembly).

        One template, three main-loop shapes.  The ISR dispatches on
        mcause; synchronous traps skip the faulting word.  ``s0`` counts
        handled events, ``s1`` is the exit checksum stored to the power
        gate, so every scenario that reaches ``finish`` halts with
        ``halted_by == "poweroff"`` and a data-dependent exit code.
        """
        mie_mask = (128 if self.timer_init else 0) \
            | (0x10000 if self.sensor_irq else 0)
        lines = [
            ".equ PWR,      0x40000",
            ".equ MTIMECMP, 0x40108",
            ".equ UART_TX,  0x40200",
            ".equ SENSOR,   0x40300",
            f".equ SCRATCH,  {SCRATCH_BASE:#x}",
            "",
            ".text",
            "main:",
            "    la t0, isr",
            "    csrw mtvec, t0",
            "    li s0, 0",
            "    li s1, 0",
            "    li a4, 1",
        ]
        if self.timer_init:
            lines += [
                "    li t0, MTIMECMP",
                f"    li t1, {self.timer_init}",
                "    sw t1, 0(t0)",
                "    sw x0, 4(t0)",
            ]
        if mie_mask:
            lines += [f"    li t0, {mie_mask}", "    csrw mie, t0"]
        if self.mode.startswith("irq") and mie_mask:
            lines.append("    csrsi mstatus, 8")
        lines.append("loop:")
        if self.mode == "irq_spin":
            lines += ["    add s1, s1, a4", "    addi a4, a4, 3"]
        else:
            lines.append("    wfi")
        if self.mode == "polled":
            lines += self._poll_block(mie_mask)
        if self.trap_op == "ecall":
            lines.append("    ecall")
        elif self.trap_op == "ebreak":
            lines.append("    ebreak")
        elif self.trap_op == "illegal":
            lines.append("    .word 0xFFFFFFFF")
        lines += [
            f"    li t0, {self.events}",
            "    blt s0, t0, loop",
            "finish:",
        ]
        if self.mode.startswith("irq") and mie_mask:
            lines.append("    csrci mstatus, 8")
        lines += [
            "    li t2, SCRATCH",        # memory pokes reach the exit code
            "    lw t1, 0(t2)",
            "    add s1, s1, t1",
        ]
        if self.uart:
            lines += [
                "    li t0, UART_TX",
                "    lw t1, 4(t0)",      # STATUS — always ready
                "    add s1, s1, t1",
                "    andi a0, s1, 63",
                "    addi a0, a0, 48",
                "    sw a0, 0(t0)",
            ]
        lines += [
            "    li t0, PWR",
            "    sw s1, 0(t0)",
            "hang:",
            "    j hang",
            "",
            "isr:",
            "    csrr t0, mcause",
            "    li t1, 0x80000007",
            "    beq t0, t1, isr_timer",
            "    li t1, 0x80000010",
            "    beq t0, t1, isr_sensor",
            "    csrr t0, mepc",         # synchronous trap: skip the word
            "    addi t0, t0, 4",
            "    csrw mepc, t0",
            "    addi s0, s0, 1",
            "    addi s1, s1, 7",
            "    mret",
            "isr_timer:",
            "    li t0, MTIMECMP",
            "    lw t1, 0(t0)",
            f"    addi t1, t1, {max(1, self.timer_period)}",
            "    sw t1, 0(t0)",
            "    addi s0, s0, 1",
            "    addi s1, s1, 1",
            "    mret",
            "isr_sensor:",
        ] + self._sensor_block() + [
            "    addi s0, s0, 1",
            "    mret",
        ]
        return "\n".join(lines) + "\n"

    def _sensor_block(self) -> list[str]:
        """Read DATA, fold into checksum + scratch RAM, update ACK."""
        lines = [
            "    li t0, SENSOR",
            "    lw t1, 0(t0)",          # DATA
            "    add s1, s1, t1",
            "    li t2, SCRATCH",
            "    lw t1, 0(t2)",
            "    add t1, t1, s1",
            "    sw t1, 0(t2)",
        ]
        if self.ack_step == ACK_DRAIN:
            lines += ["    lw t1, 8(t0)",             # COUNT
                      "    sw t1, 12(t0)"]
        elif self.ack_step == ACK_OVERACK:
            lines += ["    lw t1, 8(t0)",
                      "    addi t1, t1, 5",
                      "    sw t1, 12(t0)"]
        else:
            lines += ["    lw t1, 4(t0)",             # INDEX
                      f"    addi t1, t1, {max(1, self.ack_step)}",
                      "    sw t1, 12(t0)"]
        return lines

    def _poll_block(self, mie_mask: int) -> list[str]:
        """Polled mode: after the wfi wake, service pending sources by
        reading mip — interrupts armed in mie (for the wake rule) but
        mstatus.MIE never set, so no handler entry ever happens."""
        lines = []
        if self.sensor_irq:
            lines += [
                "    csrr t0, mip",
                "    li t1, 0x10000",
                "    and t0, t0, t1",
                "    beq t0, zero, poll_no_sensor",
            ] + self._sensor_block() + [
                "    addi s0, s0, 1",
                "poll_no_sensor:",
            ]
        if self.timer_init:
            lines += [
                "    csrr t0, mip",
                "    andi t0, t0, 128",
                "    beq t0, zero, poll_no_timer",
                "    li t0, MTIMECMP",
                "    lw t1, 0(t0)",
                f"    addi t1, t1, {max(1, self.timer_period)}",
                "    sw t1, 0(t0)",
                "    addi s0, s0, 1",
                "poll_no_timer:",
            ]
        return lines


# -------------------------------------------------------- fleet scenario

@dataclass(frozen=True)
class FleetScenario:
    """Stunt lanes for the batched fleet simulator.

    Each lane is ``(stunt, end)``: the stunt is the lane's first batched
    instruction (forcing one classified divergence, or ``"none"`` for a
    lane the batch completes), the end is how the lane halts after the
    stunt (``ecall``/``ebreak`` under the halt convention).  Lanes that
    trap need mtvec pre-pointed at the embedded handler — the runner
    pokes it from the program's symbol table, exactly like the telemetry
    probe pokes its lanes.
    """

    scenario_id: str
    seed: int
    lanes: tuple[tuple[str, str], ...]

    @property
    def kind(self) -> str:
        return "fleet"

    @property
    def budget(self) -> int:
        return FLEET_BUDGET

    def lane_source(self, lane: int) -> str:
        stunt, end = self.lanes[lane]
        if stunt not in FLEET_STUNTS or end not in FLEET_ENDS:
            raise ValueError(f"unknown lane shape {self.lanes[lane]!r}")
        stunt_lines = {
            "none": ["    add t0, t0, t1"],
            "emulated": ["    csrrs t0, mscratch, zero"],
            # mret with reset mepc=0 jumps back to itself: the lane
            # diverges on cause "mret" and runs to its budget.
            "mret": ["    mret"],
            "trap": ["    ecall"],
            # add x16, x0, x0 — decodable, register field past RV32E
            "rv32e_bound": ["    .word 0x00000833"],
            "illegal": ["    .word 0xFFFFFFFF"],
        }[stunt]
        return "\n".join([
            ".text",
            "start:",
        ] + stunt_lines + [
            "    csrw mtvec, x0",        # restore the halt convention
            f"    {end}",
            "",
            "handler:",                  # skip the trapping word
            "    csrr t1, mepc",
            "    addi t1, t1, 4",
            "    csrw mepc, t1",
            "    mret",
        ]) + "\n"

    def lane_needs_handler(self, lane: int) -> bool:
        return self.lanes[lane][0] in ("trap", "rv32e_bound", "illegal")


# ------------------------------------------------------------ generation

def random_scenario(seed: int, budget: int = DEFAULT_BUDGET,
                    scenario_id: str = ""):
    """The random scenario of ``seed``: a pure function of its arguments.

    Draw weights are deliberately uneven — storm cadences, polled mode,
    draining ACK policies and trap ops are rare — so random-only
    campaigns leave bins for the mutation loop to close (which the
    benchmark gate demonstrates at equal budget).
    """
    rng = seeded_rng(seed)
    scenario_id = scenario_id or f"scn:seed={seed:#018x}"
    if rng.random() < 0.2:
        lanes = tuple(
            (rng.choice(RANDOM_FLEET_STUNTS), rng.choice(FLEET_ENDS))
            for _ in range(rng.randrange(1, 5)))
        return FleetScenario(scenario_id=scenario_id, seed=seed,
                             lanes=lanes)
    waveform = Waveform(kind=rng.choice(WAVEFORM_KINDS),
                        count=rng.randrange(8, 97),
                        period=rng.randrange(4, 33),
                        amplitude=rng.randrange(20, 121),
                        seed=rng.randrange(1 << 32))
    roll = rng.random()
    mode = "irq_wfi" if roll < 0.55 else \
        ("irq_spin" if roll < 0.9 else "polled")
    timer_armed = rng.random() < 0.7
    sensor_irq = rng.random() < 0.6
    roll = rng.random()
    ack_step = 1 if roll < 0.75 else (
        rng.randrange(2, 5) if roll < 0.9 else
        rng.choice((ACK_DRAIN, ACK_OVERACK)))
    roll = rng.random()
    trap_op = "" if roll < 0.82 else (
        "ecall" if roll < 0.9 else
        ("illegal" if roll < 0.97 else "ebreak"))
    faults = ()
    if rng.random() < 0.3:
        faults = tuple(sorted(
            (_random_fault(rng) for _ in range(rng.randrange(1, 3))),
            key=lambda fault: fault.at))
    return SocScenario(
        scenario_id=scenario_id, seed=seed, waveform=waveform,
        ticks_per_sample=rng.randrange(2, 201),
        mtime_offset=0 if rng.random() < 0.7 else rng.randrange(1, 301),
        timer_init=rng.randrange(4, 301) if timer_armed else 0,
        timer_period=rng.randrange(16, 241),
        sensor_irq=sensor_irq, mode=mode,
        events=rng.randrange(2, 9), ack_step=ack_step, trap_op=trap_op,
        uart=rng.random() < 0.4, faults=faults, budget=budget)


def _random_fault(rng) -> FaultEvent:
    if rng.random() < 0.5:
        return FaultEvent(at=rng.randrange(20, 1500), kind="reg",
                          target=rng.choice(POKE_REGS),
                          value=rng.randrange(1 << 16))
    return FaultEvent(at=rng.randrange(20, 1500), kind="mem",
                      target=SCRATCH_BASE + 4 * rng.randrange(
                          _SCRATCH_SPAN // 4),
                      value=rng.randrange(1 << 32))


# ------------------------------------------------------ directed mutation

def mutate_toward(bin_name: str, seed: int,
                  budget: int = DEFAULT_BUDGET, scenario_id: str = ""):
    """A scenario directed at coverage bin ``bin_name``.

    Starts from :func:`random_scenario` of the same seed and pins the
    parameters that drive the bin's family, leaving the rest (including
    fine interrupt alignment) to the seed — so re-mutating toward a
    still-uncovered bin with the next seed explores different timing.
    Pure function of ``(bin_name, seed, budget)``; unknown bins raise.
    """
    from .coverage import BINS

    if bin_name not in BINS:
        raise ValueError(f"unknown coverage bin {bin_name!r}")
    rng = seeded_rng(seed)
    scenario_id = scenario_id or f"mut:{bin_name}:seed={seed:#018x}"

    if bin_name.startswith("fleet.diverge."):
        stunt = bin_name.rsplit(".", 1)[1]
        return FleetScenario(scenario_id=scenario_id, seed=seed,
                             lanes=((stunt, rng.choice(FLEET_ENDS)),))
    if bin_name in ("halt.ecall", "halt.ebreak"):
        return FleetScenario(scenario_id=scenario_id, seed=seed,
                             lanes=(("none", bin_name.rsplit(".", 1)[1]),))

    base = random_scenario(seed, budget=budget)
    if base.kind != "soc":
        base = random_scenario(derive_child(seed), budget=budget)
        if base.kind != "soc":   # two fleet draws in a row: build directly
            base = _plain_soc(seed, budget)
    pins: dict = {"scenario_id": scenario_id, "seed": seed,
                  "trap_op": "", "faults": (), "budget": budget}

    if bin_name.startswith("trap."):
        pins.update(mode="irq_spin", timer_init=rng.randrange(8, 40),
                    timer_period=rng.randrange(24, 60), sensor_irq=False,
                    trap_op=bin_name.rsplit(".", 1)[1], events=4)
    elif bin_name in ("intr.timer", "arb.timer_only", "bus.timer.load",
                      "bus.timer.store", "wfi.wake.timer"):
        pins.update(mode="irq_wfi" if "wfi" in bin_name else "irq_spin",
                    timer_init=rng.randrange(8, 60),
                    timer_period=rng.randrange(40, 120),
                    sensor_irq=False, events=4)
    elif bin_name in ("intr.sensor", "arb.sensor_only", "bus.sensor.load",
                      "bus.sensor.store", "wfi.wake.sensor"):
        pins.update(mode="irq_wfi" if "wfi" in bin_name else "irq_spin",
                    timer_init=0, sensor_irq=True,
                    ticks_per_sample=rng.randrange(30, 90), ack_step=1,
                    events=4)
    elif bin_name == "arb.race.timer_first":
        # Timer and sensor comparators on one grid: both levels rise in
        # the same retirement window, fixed priority takes timer first.
        tps = rng.randrange(40, 90)
        pins.update(mode="irq_spin", sensor_irq=True, ticks_per_sample=tps,
                    timer_init=tps, timer_period=tps, ack_step=1,
                    events=6, mtime_offset=0)
    elif bin_name == "arb.race.sensor_first":
        # Timer lands a few retirements into the sensor handler (which
        # enters near boot: the sensor line is high from mtime 0), so the
        # back-to-back entry at the sensor's mret is the timer's.
        tps = rng.randrange(60, 120)
        pins.update(mode="irq_spin", sensor_irq=True, ticks_per_sample=tps,
                    timer_init=rng.randrange(12, 26),
                    timer_period=rng.randrange(300, 600), ack_step=1,
                    events=5, mtime_offset=0)
    elif bin_name == "arb.storm.timer":
        pins.update(mode="irq_spin", sensor_irq=False,
                    timer_init=rng.randrange(4, 12),
                    timer_period=rng.randrange(2, 4), events=6)
    elif bin_name == "arb.storm.sensor":
        pins.update(mode="irq_spin", timer_init=0, sensor_irq=True,
                    ticks_per_sample=1, ack_step=1, events=6,
                    waveform=replace(base.waveform, count=64))
    elif bin_name == "wfi.wake.masked":
        pins.update(mode="polled", sensor_irq=True,
                    ticks_per_sample=rng.randrange(20, 60), ack_step=1,
                    timer_init=0, events=3)
    elif bin_name == "halt.wfi":
        pins.update(mode="irq_wfi", timer_init=0, sensor_irq=False,
                    events=3)
    elif bin_name == "halt.limit":
        pins.update(mode="irq_spin", timer_init=0, sensor_irq=False,
                    events=3, budget=min(budget, 2000))
    elif bin_name == "sensor.drained":
        pins.update(mode="irq_spin", timer_init=0, sensor_irq=True,
                    ticks_per_sample=rng.randrange(10, 40),
                    ack_step=ACK_DRAIN, events=2,
                    waveform=replace(base.waveform, count=12))
    elif bin_name == "sensor.ack_skip":
        pins.update(mode="irq_spin", timer_init=0, sensor_irq=True,
                    ticks_per_sample=rng.randrange(10, 40),
                    ack_step=rng.randrange(2, 5), events=4)
    elif bin_name in ("bus.uart.load", "bus.uart.store"):
        pins.update(mode="irq_spin", timer_init=rng.randrange(8, 40),
                    timer_period=rng.randrange(24, 60), sensor_irq=False,
                    events=3, uart=True)
    else:   # intr.*, bus.power.store, halt.poweroff: any finishing run
        pins.update(mode="irq_spin", timer_init=rng.randrange(8, 40),
                    timer_period=rng.randrange(24, 60), sensor_irq=False,
                    events=3)
    return replace(base, **pins)


def derive_child(seed: int) -> int:
    """One more splitmix64 step — a disjoint child seed stream."""
    from ..verify.fuzz import derive_seed

    return derive_seed(seed, 1)


def _plain_soc(seed: int, budget: int) -> SocScenario:
    return SocScenario(
        scenario_id=f"scn:seed={seed:#018x}", seed=seed,
        waveform=Waveform(kind="ecg", count=32, seed=seed & 0xFFFFFFFF),
        ticks_per_sample=40, mtime_offset=0, timer_init=20,
        timer_period=50, sensor_irq=False, mode="irq_spin", events=3,
        ack_step=1, trap_op="", uart=False, budget=budget)


# ----------------------------------------------------------------- replay

def replay_scenario(scenario_id: str, seed: int,
                    budget: int = DEFAULT_BUDGET):
    """Rebuild the exact scenario an outcome row or failure record names.

    The id encodes how the scenario was constructed — ``scn...`` ids are
    random draws, ``mut...``/``probe...`` ids embed the directed bin as
    their second ``:``-separated field — and the seed pins every random
    choice.  ``budget`` is the row's ``budget``, the scenario's own
    retirement budget (:data:`FLEET_BUDGET` for a fleet scenario, at most
    2,000 for a ``halt.limit`` probe, else its campaign's budget), so
    ``replay_scenario(row["scenario_id"], row["seed"], row["budget"])``
    rebuilds an equal scenario at any campaign budget.
    """
    head = scenario_id.split(":", 2)
    if head[0].startswith(("mut", "probe")) and len(head) >= 2:
        return mutate_toward(head[1], seed, budget=budget,
                             scenario_id=scenario_id)
    return random_scenario(seed, budget=budget, scenario_id=scenario_id)
