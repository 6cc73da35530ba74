"""Machine-mode trap/interrupt subsystem + MMIO peripheral bus (PR 3).

Covers the full cross-layer story: CSR semantics, trap entry/return,
timer interrupts and wfi fast-forward on the golden ISS (fast and
recorded paths), the Serv model, and the RTL harness; MMIO device
behaviour and its interaction with the decoded-op cache; and lock-step
cosimulation of trap/interrupt timing on both RTL backends — including a
failure-injection check that the cosim actually gates the trap path.
"""

import pytest

from repro.isa import INSTRUCTIONS, assemble
from repro.isa.csrs import (
    CAUSE_BREAKPOINT,
    CAUSE_ECALL_M,
    CAUSE_ILLEGAL_INSTRUCTION,
    CAUSE_MACHINE_TIMER,
    MCAUSE,
    MEPC,
    MIP,
    MSTATUS,
    MSTATUS_MIE,
    MTVEC,
)
from repro.rtl import build_rissp
from repro.rtl.core_sim import RisspSim, cosimulate
from repro.sim import CsrFile, GoldenSim, ServSim, SimulationError
from repro.sim.golden import abi_initial_regs
from repro.sim.memory import MemoryError_
from repro.soc import SENSOR_BASE, Soc, SocSpec, TIMER_BASE
from repro.verify.rvfi import check_trace

FULL_TRAP_SUBSET = [d.mnemonic for d in INSTRUCTIONS] + ["mret"]


@pytest.fixture(scope="module")
def trap_core():
    return build_rissp(FULL_TRAP_SUBSET)


#: Timer-interrupt workload: five ISR-counted periods paced through
#: mtimecmp re-arming, wfi duty-cycling in between, poweroff at the end.
TIMER_LOOP = """
.equ PWR,      0x40000
.equ MTIME,    0x40100
.equ MTIMECMP, 0x40108
.text
main:
    la t0, handler
    csrw mtvec, t0
    li t0, MTIMECMP
    li t1, 100
    sw t1, 0(t0)
    sw x0, 4(t0)
    li t0, 128
    csrw mie, t0
    csrsi mstatus, 8
    li s0, 0
loop:
    wfi
    li t1, 5
    beq s0, t1, done
    j loop
done:
    li t0, PWR
    sw s0, 0(t0)
hang:
    j hang
handler:
    addi s0, s0, 1
    li t0, MTIME
    lw t1, 0(t0)
    addi t1, t1, 100
    li t0, MTIMECMP
    sw t1, 0(t0)
    mret
"""


# ------------------------------------------------------------- CSR file unit


def test_csr_warl_masks():
    from repro.isa.csrs import MIE, MIE_MTIE, MIE_SDIE
    from repro.sim.csr import CsrError

    csr = CsrFile()
    csr.write(MSTATUS, 0xFFFFFFFF)
    assert csr.mstatus == 0x88          # only MIE|MPIE implemented
    csr.write(MTVEC, 0x1003)
    assert csr.mtvec == 0x1000          # direct mode, low bits forced 0
    csr.write(MIE, 0xFFFFFFFF)
    assert csr.mie == MIE_MTIE | MIE_SDIE   # per-source enable bits
    with pytest.raises(CsrError):
        csr.write(MIP, 0xFFFFFFFF)      # read-only: levels are wired
    assert csr.mip == 0
    csr.write(MEPC, 0x123)
    assert csr.mepc == 0x120


def test_pending_cause_arbitrates_by_fixed_priority():
    from repro.isa.csrs import (CAUSE_SENSOR_DATA, MIE, MIE_MTIE, MIE_SDIE,
                                MIP_MTIP, MIP_SDIP)

    csr = CsrFile()
    csr.write(MTVEC, 0x400)
    csr.write(MIE, MIE_MTIE | MIE_SDIE)
    csr.mstatus = MSTATUS_MIE
    assert csr.pending_cause() is None          # nothing pending
    csr.set_pending(MIP_SDIP)
    assert csr.pending_cause() == CAUSE_SENSOR_DATA
    csr.set_pending(MIP_SDIP | MIP_MTIP)        # race: both levels high
    assert csr.pending_cause() == CAUSE_MACHINE_TIMER   # timer outranks
    csr.write(MIE, MIE_SDIE)                    # mask the timer source
    assert csr.pending_cause() == CAUSE_SENSOR_DATA
    csr.mstatus = 0                             # global MIE off: no entry
    assert csr.pending_cause() is None


def test_trap_enter_stacks_and_mret_unstacks_mie():
    csr = CsrFile()
    csr.write(MTVEC, 0x400)
    csr.mstatus = MSTATUS_MIE
    target = csr.trap_enter(CAUSE_ECALL_M, 0x84)
    assert target == 0x400
    assert csr.mepc == 0x84 and csr.mcause == CAUSE_ECALL_M
    assert not csr.mstatus & MSTATUS_MIE       # masked inside the handler
    assert csr.do_mret() == 0x84
    assert csr.mstatus & MSTATUS_MIE           # restored on return


# ----------------------------------------------------- golden ISS trap paths


def test_legacy_halt_convention_unchanged():
    prog = assemble(".text\nmain:\n    li a0, 7\n    ecall\n")
    result = GoldenSim(prog).run()
    assert result.halted_by == "ecall" and result.exit_code == 7


def test_ecall_traps_once_handler_installed():
    prog = assemble("""
.text
main:
    la t0, handler
    csrw mtvec, t0
    li a0, 1
    ecall                 # traps, handler rewrites a0 and returns
    ebreak                # also traps; handler halts via second path
handler:
    csrr t0, mcause
    li t1, 3
    beq t0, t1, stop
    li a0, 42
    csrr t0, mepc
    addi t0, t0, 4
    csrw mepc, t0
    mret
stop:
    csrw mtvec, x0        # uninstall: next ebreak really halts
    ebreak
""")
    result = GoldenSim(prog).run()
    assert result.halted_by == "ebreak"
    assert result.exit_code == 42


def test_illegal_instruction_traps_with_mtval():
    prog = assemble("""
.text
main:
    la t0, handler
    csrw mtvec, t0
    la t1, bad
    jr t1
handler:
    csrr a0, mcause
    csrw mtvec, x0
    ecall
bad:
    .word 0xFFFFFFFF
""")
    sim = GoldenSim(prog)
    result = sim.run()
    assert result.halted_by == "ecall"
    assert result.exit_code == CAUSE_ILLEGAL_INSTRUCTION
    assert sim.csr.mtval == 0xFFFFFFFF


def test_illegal_instruction_without_handler_still_raises():
    prog = assemble(".text\nmain:\n    .word 0xFFFFFFFF\n")
    with pytest.raises(SimulationError):
        GoldenSim(prog).run()


def test_timer_interrupts_fast_and_recorded_paths_agree():
    prog = assemble(TIMER_LOOP)
    fast = GoldenSim(prog, soc=SocSpec()).run()
    recorded_sim = GoldenSim(prog, soc=SocSpec(), trace=True)
    recorded = recorded_sim.run()
    assert fast.halted_by == recorded.halted_by == "poweroff"
    assert fast.exit_code == recorded.exit_code == 5
    assert fast.instructions == recorded.instructions
    intr_rows = [r for r in recorded.trace if r.intr]
    assert len(intr_rows) == 5
    handler = prog.symbol("handler")
    assert all(r.pc_rdata == handler for r in intr_rows)


def test_wfi_fast_forwards_the_clock():
    prog = assemble(TIMER_LOOP)
    sim = GoldenSim(prog, soc=SocSpec())
    result = sim.run()
    # 5 x 100-tick periods elapse while only ~100 instructions retire —
    # wfi skipped the idle time instead of spinning through it.
    assert sim.soc.timer.mtime >= 500
    assert result.instructions < 150


def test_interrupt_trace_passes_rvfi_checker():
    prog = assemble(TIMER_LOOP)
    result = GoldenSim(prog, soc=SocSpec(), trace=True).run()
    report = check_trace(result.trace, initial_regs=abi_initial_regs())
    assert report.passed, report.errors


def test_rvfi_checker_accepts_mtval_reset_by_interrupt_entry():
    """Regression: an illegal-instruction trap sets mtval, a later timer
    interrupt resets it to 0; the shadow-CSR model must track the reset
    or it flags the handler's mtval read on a *correct* trace."""
    prog = assemble("""
.equ PWR,      0x40000
.equ MTIMECMP, 0x40108
.text
main:
    la t0, handler
    csrw mtvec, t0
    la t1, bad
    jr t1                 # illegal trap: mtval <- the junk word
resume:
    li t0, MTIMECMP
    li t1, 200
    sw t1, 0(t0)
    sw x0, 4(t0)
    li t0, 128
    csrw mie, t0
    csrsi mstatus, 8
wait:
    wfi                   # timer interrupt: mtval <- 0
    j wait
handler:
    csrr t1, mtval        # read back: junk word, then 0
    csrr t0, mcause
    bgez t0, fixup
    li t0, PWR
    sw t1, 0(t0)          # power off with the mtval the interrupt saw
fixup:
    la t0, resume
    csrw mepc, t0
    mret
bad:
    .word 0xFFFFFFFF
""")
    result = GoldenSim(prog, soc=SocSpec(), trace=True).run()
    assert result.halted_by == "poweroff" and result.exit_code == 0
    report = check_trace(result.trace, initial_regs=abi_initial_regs())
    assert report.passed, report.errors


def test_rvfi_checker_does_not_learn_blind_rmw_csr_writes():
    """Regression: csrrs/csrrc with rd=x0 on a CSR whose value was never
    observed must invalidate the shadow entry, not learn old|src with
    old guessed as 0 (mstatus holds an invisible MPIE after mret)."""
    prog = assemble("""
.text
main:
    la t0, handler
    csrw mtvec, t0
    ecall                 # trap + mret leaves MPIE set in mstatus
    csrsi mstatus, 8      # blind RMW: rd=x0, old mstatus unobserved
    csrr a0, mstatus      # real value 0x88; a naive shadow expects 0x8
    csrw mtvec, x0
    ecall
handler:
    csrr t0, mepc
    addi t0, t0, 4
    csrw mepc, t0
    mret
""")
    result = GoldenSim(prog, trace=True).run()
    assert result.halted_by == "ecall" and result.exit_code == 0x88
    report = check_trace(result.trace, initial_regs=abi_initial_regs())
    assert report.passed, report.errors


def test_soc_argument_must_be_a_spec():
    prog = assemble(".text\nmain:\n    ret\n")
    with pytest.raises(TypeError):
        GoldenSim(prog, soc=True)


def test_rvfi_checker_rejects_corrupted_trap_target():
    prog = assemble(TIMER_LOOP)
    result = GoldenSim(prog, soc=SocSpec(), trace=True).run()
    trace = result.trace
    for index in range(len(trace)):
        if trace.peek(index, "intr"):
            trace.poke(index, "pc_rdata", 0x7777777C)
            break
    report = check_trace(trace, initial_regs=abi_initial_regs())
    assert not report.passed


def test_serv_runs_interrupt_workload_with_serial_cpi():
    prog = assemble(TIMER_LOOP)
    result = ServSim(prog, soc=SocSpec()).run()
    assert result.halted_by == "poweroff" and result.exit_code == 5
    assert 30.0 <= result.cpi <= 36.0


# ------------------------------------------------------------ MMIO bus/devices


def test_uart_and_poweroff_devices():
    prog = assemble("""
.equ PWR,  0x40000
.equ UART, 0x40200
.text
main:
    li t0, UART
    lw t1, 4(t0)          # STATUS reads ready
    beq t1, x0, main
    li t2, 'h'
    sw t2, 0(t0)
    li t2, 'i'
    sw t2, 0(t0)
    li t0, PWR
    li t1, 123
    sw t1, 0(t0)
""")
    sim = GoldenSim(prog, soc=SocSpec())
    result = sim.run()
    assert result.halted_by == "poweroff" and result.exit_code == 123
    assert bytes(sim.soc.uart.output) == b"hi"


def test_sensor_replays_waveform_by_time():
    prog = assemble("""
.equ SENSOR, 0x40300
.text
main:
    li t0, SENSOR
    lw a0, 0(t0)          # sample at current mtime
    lw a1, 8(t0)          # COUNT
    slli a1, a1, 8
    or a0, a0, a1
    ecall
""")
    spec = SocSpec(sensor_samples=(10, 20, 30), sensor_ticks_per_sample=1000)
    result = GoldenSim(prog, soc=spec).run()
    assert result.exit_code == 10 | (3 << 8)


def test_mtime_write_rebases_clock():
    prog = assemble("""
.equ MTIME, 0x40100
.text
main:
    li t0, MTIME
    li t1, 5000
    sw t1, 0(t0)          # firmware sets the wall clock
    lw a0, 0(t0)          # and reads it straight back
    ecall
""")
    result = GoldenSim(prog, soc=SocSpec()).run()
    assert 5000 <= result.exit_code <= 5010


def test_device_windows_are_word_only():
    prog = assemble("""
.equ UART, 0x40200
.text
main:
    li t0, UART
    lb a0, 1(t0)
    ecall
""")
    with pytest.raises(MemoryError_):
        GoldenSim(prog, soc=SocSpec()).run()


def test_soc_spec_builds_isolated_instances():
    from repro.sim.memory import Memory
    spec = SocSpec(sensor_samples=(1, 2))
    one, two = Soc(spec, Memory()), Soc(spec, Memory())
    one.uart.output += b"x"
    assert not two.uart.output


# ------------------------- decoded-op cache vs MMIO (PR 3 satellite 3)


def test_executing_from_mmio_raises_not_caches():
    prog = assemble(f"""
.text
main:
    li t0, {TIMER_BASE}
    jr t0
""")
    sim = GoldenSim(prog, soc=SocSpec())
    with pytest.raises(MemoryError_, match="fetch from MMIO"):
        sim.run()
    # Nothing from the device window leaked into the decoded-op cache.
    assert TIMER_BASE not in sim.image.executors
    assert not any(pc >= TIMER_BASE for pc in sim.image.executors)


def test_store_to_mmio_does_not_pollute_decoded_cache():
    prog = assemble(f"""
.text
main:
    li t0, {SENSOR_BASE}
    li t1, 100
    sw t1, 8(x0)          # RAM store (innocuous)
    li a0, 1
    ecall
""")
    sim = GoldenSim(prog, soc=SocSpec())
    result = sim.run()
    assert result.exit_code == 1
    cached = set(sim.image.executors)
    assert cached and all(pc < 0x40000 for pc in cached)


def test_store_into_cached_text_still_invalidates_with_soc():
    # Self-modifying code under a SocBus: the store hook must reach the
    # RAM-backed decoded image exactly as without a bus.
    prog = assemble("""
.text
main:
    la t0, patch
    lw t1, 0(t0)
    la t2, target
    sw t1, 0(t2)          # overwrite `li a0, 1` with `li a0, 99`
target:
    li a0, 1
    ecall
patch:
    li a0, 99
""")
    result = GoldenSim(prog, soc=SocSpec()).run()
    assert result.exit_code == 99


# ------------------------------------------------ RTL slice + cosimulation


def test_mret_block_passes_preverification():
    """The 41st library block goes through the same Step-0 campaign as
    the base ISA: directed testbench + formal-lite property check."""
    from repro.rtl import build_block
    from repro.verify import block_verifier, check_block
    block = build_block("mret")
    passed, report = block_verifier(block)
    assert passed, report
    assert check_block(block).proven
    # failure injection: dropping the alignment mask must be caught
    from repro.rtl.ir import Sig
    broken = build_block("mret").with_assigns({"next_pc": Sig("mepc", 32)})
    assert not check_block(broken).proven


def test_trap_free_cores_unchanged(trap_core):
    plain = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    assert "mtvec" not in plain.registers
    assert "trap" not in plain.ports
    assert {"mtvec", "mepc", "mcause"} <= set(trap_core.registers)
    assert trap_core.meta["trap_unit"]


@pytest.mark.parametrize("backend", ["fused", "interpreter"])
def test_cosimulate_timer_interrupt_workload(trap_core, backend):
    prog = assemble(TIMER_LOOP)
    mismatch = cosimulate(trap_core, prog, soc=SocSpec(), backend=backend)
    assert mismatch is None, mismatch


def test_rtl_hardware_traps_and_returns(trap_core):
    prog = assemble("""
.text
main:
    la t0, handler
    csrw mtvec, t0
    li a0, 1
    ecall
    j after
after:
    csrw mtvec, x0
    ecall
handler:
    li a0, 77
    csrr t0, mepc
    addi t0, t0, 4
    csrw mepc, t0
    mret
""")
    sim = RisspSim(trap_core, prog)
    result = sim.run()
    assert result.halted_by == "ecall"
    assert result.exit_code == 77
    assert sim.csr.mcause == CAUSE_ECALL_M     # latched by the trap unit


def test_rtl_trap_rows_carry_trap_flag(trap_core):
    prog = assemble("""
.text
main:
    la t0, handler
    csrw mtvec, t0
    ebreak
handler:
    csrw mtvec, x0
    li a0, 9
    ecall
""")
    sim = RisspSim(trap_core, prog, trace=True)
    result = sim.run()
    traps = [r for r in result.trace if r.trap]
    assert len(traps) == 1
    assert sim.csr.mcause == CAUSE_BREAKPOINT
    assert result.exit_code == 9


def test_cosim_catches_broken_trap_redirect():
    """Failure injection: a trap unit that fails to redirect the pc must
    be caught by the lock-step comparison (trap path is really gated)."""
    core = build_rissp(FULL_TRAP_SUBSET)
    core = core.with_assigns({"pc_next": core.sig("ex_next_pc")})  # no mux
    prog = assemble("""
.text
main:
    la t0, handler
    csrw mtvec, t0
    ecall
    nop                   # fall-through differs from the handler path
    nop
handler:
    csrw mtvec, x0
    li a0, 3
    ecall
""")
    mismatch = cosimulate(core, prog)
    assert mismatch is not None
    assert mismatch.field in ("pc_wdata", "halt", "trap")


def test_cosim_catches_diverging_device_state():
    """Different sensor waveforms on the two sides must diverge."""
    prog = assemble("""
.equ PWR,    0x40000
.equ SENSOR, 0x40300
.text
main:
    li t0, SENSOR
    lw a0, 0(t0)
    li t0, PWR
    sw a0, 0(t0)
""")
    core = build_rissp(FULL_TRAP_SUBSET)
    same = cosimulate(core, prog,
                      soc=SocSpec(sensor_samples=(5,),
                                  sensor_ticks_per_sample=100))
    assert same is None


def test_interrupt_timing_identical_across_backends(trap_core):
    """The interrupt must land on the same retirement index on both
    sides — cosim compares the intr column, so an off-by-one would fail."""
    prog = assemble(TIMER_LOOP)
    rtl_result = RisspSim(trap_core, prog, trace=True, soc=SocSpec()).run()
    gold_result = GoldenSim(prog, soc=SocSpec(), trace=True).run()
    rtl_intrs = [r.order for r in rtl_result.trace if r.intr]
    gold_intrs = [r.order for r in gold_result.trace if r.intr]
    assert rtl_intrs and rtl_intrs == gold_intrs


def test_mcause_has_interrupt_bit_after_timer_entry():
    prog = assemble(TIMER_LOOP)
    sim = GoldenSim(prog, soc=SocSpec())
    sim.run()
    assert sim.csr.mcause == CAUSE_MACHINE_TIMER


# ----------------------------------- multi-source interrupt fabric (PR 5)


def _run_everywhere(trap_core, src, soc=None, n=50_000):
    """One program on golden, Serv and both RTL backends; all four
    outcomes (halt cause, exit code, instruction count) must agree."""
    prog = assemble(src)
    outcomes = {}
    gold = GoldenSim(prog, soc=soc)
    result = gold.run(n)
    outcomes["golden"] = (result.halted_by, result.exit_code,
                          result.instructions)
    serv = ServSim(prog, soc=soc).run(n)
    outcomes["serv"] = (serv.halted_by, serv.exit_code, serv.instructions)
    for backend in ("fused", "interpreter"):
        r = RisspSim(trap_core, prog, backend=backend, soc=soc).run(n)
        outcomes[f"rtl-{backend}"] = (r.halted_by, r.exit_code,
                                      r.instructions)
    assert len(set(outcomes.values())) == 1, outcomes
    return gold, outcomes["golden"]


def test_sensor_port_data_ready_level_and_ack():
    from repro.sim.memory import Memory

    spec = SocSpec(sensor_samples=(5, 6, 7), sensor_ticks_per_sample=10)
    soc = Soc(spec, Memory())
    soc.sync(0)
    assert soc.sensor.irq_pending          # sample 0 ready at t=0
    soc.sensor.store(soc.sensor.ACK, 1, 4)
    assert not soc.sensor.irq_pending      # next sample due at t=10
    soc.sync(10)
    assert soc.sensor.irq_pending
    soc.sensor.store(soc.sensor.ACK, 3, 4)
    soc.sync(10_000)
    assert not soc.sensor.irq_pending      # stream exhausted: level low
    assert soc.sensor.ready_time() is None


def test_bus_irq_lines_packs_device_levels():
    from repro.isa.csrs import MIP_MTIP, MIP_SDIP
    from repro.sim.memory import Memory

    spec = SocSpec(sensor_samples=(1,), sensor_ticks_per_sample=5)
    soc = Soc(spec, Memory())
    soc.timer.mtimecmp = 20
    assert soc.irq_lines(0) == MIP_SDIP            # sensor ready at t=0
    soc.sensor.store(soc.sensor.ACK, 1, 4)
    assert soc.irq_lines(0) == 0
    assert soc.irq_lines(25) == MIP_MTIP           # timer level at t>=20


def test_fire_index_is_min_over_enabled_sources():
    from repro.isa.csrs import MIE, MIE_MTIE, MIE_SDIE, MTVEC as _MTVEC
    from repro.sim.memory import Memory

    spec = SocSpec(sensor_samples=(1, 2), sensor_ticks_per_sample=30)
    soc = Soc(spec, Memory())
    soc.timer.mtimecmp = 100
    soc.sensor.store(soc.sensor.ACK, 1, 4)   # next sensor edge at t=30
    csr = CsrFile()
    csr.write(_MTVEC, 0x400)
    csr.mstatus = MSTATUS_MIE
    csr.write(MIE, MIE_MTIE)
    assert soc.fire_index(csr) == 100        # timer only
    csr.write(MIE, MIE_MTIE | MIE_SDIE)
    assert soc.fire_index(csr) == 30         # sensor edge is earlier
    csr.mstatus = 0
    from repro.soc import NEVER
    assert soc.fire_index(csr) == NEVER      # global MIE gates everything


def test_two_source_priority_on_golden_trace(trap_core):
    """Both levels high in one retirement window: timer entry (intr=7)
    first, sensor entry (intr=16) right after the handler's mret."""
    src = """
.equ PWR,      0x40000
.equ MTIMECMP, 0x40108
.equ SENSOR,   0x40300
.text
main:
    la t0, handler
    csrw mtvec, t0
    li t0, MTIMECMP
    li t1, 60
    sw t1, 0(t0)
    sw x0, 4(t0)
    li t0, 0x10080           # mie = SDIE | MTIE
    csrw mie, t0
    csrsi mstatus, 8
    li s0, 0
loop:
    wfi
    li t1, 2
    blt s0, t1, loop
    csrci mstatus, 8
    li t0, PWR
    sw s0, 0(t0)
hang:
    j hang
handler:
    csrr t0, mcause
    bgez t0, back
    slli t0, t0, 1
    srli t0, t0, 1
    li t1, 7
    bne t0, t1, sensor
    li t0, MTIMECMP
    lw t1, 0(t0)
    addi t1, t1, 60
    sw t1, 0(t0)
    addi s0, s0, 1
    j back
sensor:
    li t0, SENSOR
    lw t1, 4(t0)
    addi t1, t1, 1
    sw t1, 12(t0)            # ACK
back:
    mret
"""
    spec = SocSpec(sensor_samples=tuple(range(8)),
                   sensor_ticks_per_sample=60)   # same grid: always racing
    prog = assemble(src)
    result = GoldenSim(prog, soc=spec, trace=True).run(20_000)
    assert result.halted_by == "poweroff"
    codes = [r.intr for r in result.trace if r.intr]
    assert codes, "no interrupts taken"
    # Every window with both sources due must enter timer-first.
    timer_positions = [i for i, c in enumerate(codes) if c == 7]
    assert timer_positions and all(
        codes[i + 1] == 16 for i in timer_positions if i + 1 < len(codes))
    mismatch = cosimulate(trap_core, prog, soc=spec)
    assert mismatch is None, mismatch


def test_interrupt_rows_carry_arbitrated_cause_and_pass_checker():
    from repro.workloads import WORKLOADS, build_program

    workload = WORKLOADS["sensor_streaming"]
    result = GoldenSim(build_program(workload), soc=workload.soc_spec,
                       trace=True).run(500_000)
    assert result.halted_by == "poweroff"
    codes = {r.intr for r in result.trace if r.intr}
    assert codes == {7, 16}
    report = check_trace(result.trace, initial_regs=abi_initial_regs())
    assert report.passed, report.errors


def test_rvfi_checker_rejects_unknown_intr_code():
    prog = assemble(TIMER_LOOP)
    result = GoldenSim(prog, soc=SocSpec(), trace=True).run()
    trace = result.trace
    for index in range(len(trace)):
        if trace.peek(index, "intr"):
            trace.poke(index, "intr", 33)      # no such source
            break
    report = check_trace(trace, initial_regs=abi_initial_regs())
    assert not report.passed


# ------------------------- PR 5 bugfix regressions (fail on pre-PR code)


def test_write_to_read_only_csr_traps_on_all_backends(trap_core):
    """Zicsr conformance: a write to read-only ``mip`` must raise illegal
    instruction (pre-PR it was silently WARL-ignored), with mcause=2 and
    mtval holding the faulting opcode word."""
    src = """
.text
main:
    la t0, handler
    csrw mtvec, t0
    li t1, 0x80
    csrw mip, t1             # write to read-only CSR: illegal
    li a0, 1                 # must never be reached
    csrw mtvec, x0
    ecall
handler:
    csrr a0, mtval           # exit code = faulting opcode word
    csrw mtvec, x0
    ecall
"""
    gold, (halted_by, exit_code, _) = _run_everywhere(trap_core, src)
    assert halted_by == "ecall"
    assert gold.csr.mcause == CAUSE_ILLEGAL_INSTRUCTION
    # mtval holds the csrw-mip opcode (csrrw x0, mip, t1) on every side.
    from repro.isa.encoding import Instruction, encode
    word = encode(Instruction("csrrw", rd=0, rs1=6, imm=MIP))
    assert exit_code == word and gold.csr.mtval == word
    prog = assemble(src)
    assert cosimulate(trap_core, prog) is None


def test_pure_read_forms_of_read_only_csr_do_not_trap(trap_core):
    """csrrs/csrrc with rs1=x0 and csrrsi/csrrci with uimm=0 are reads:
    no write side effect, no illegal trap — even on read-only mip."""
    src = """
.text
main:
    csrr a0, mip             # csrrs rs1=x0: pure read, no trap
    csrrs a1, mip, x0
    csrrsi a2, mip, 0
    csrrci a3, mip, 0
    add a0, a0, a1
    add a0, a0, a2
    add a0, a0, a3
    ecall
"""
    _, (halted_by, exit_code, _) = _run_everywhere(trap_core, src)
    assert halted_by == "ecall" and exit_code == 0


def test_rvfi_checker_flags_untrapped_read_only_write():
    """The shadow model also pins the rule: a trace row where csrw-mip
    retired *without* trapping must be rejected."""
    prog = assemble("""
.text
main:
    li t1, 0x80
    csrw mscratch, t1
    li a0, 0
    ecall
""")
    result = GoldenSim(prog, trace=True).run()
    trace = result.trace
    # Forge the mscratch write into a mip write (same operands).
    from repro.isa.encoding import Instruction, encode
    forged = encode(Instruction("csrrw", rd=0, rs1=6, imm=MIP))
    for index in range(len(trace)):
        word = trace.peek(index, "insn")
        try:
            from repro.isa.encoding import decode
            if decode(word).mnemonic == "csrrw":
                trace.poke(index, "insn", forged)
                break
        except Exception:
            continue
    report = check_trace(trace, initial_regs=abi_initial_regs())
    assert any("read-only" in error for error in report.errors)


def test_wfi_wakes_on_pending_with_global_mie_masked(trap_core):
    """Privileged-spec rule: wfi resumes when an *enabled* interrupt
    becomes pending, regardless of mstatus.MIE (pre-PR the sleep was
    skipped entirely and mip read back 0)."""
    src = """
.equ PWR,      0x40000
.equ MTIMECMP, 0x40108
.text
main:
    la t0, handler
    csrw mtvec, t0
    li t0, MTIMECMP
    li t1, 100
    sw t1, 0(t0)
    sw x0, 4(t0)
    li t0, 128
    csrw mie, t0             # MTIE enabled, mstatus.MIE stays 0
    wfi                      # must sleep until MTIP rises at t=100
    csrr a0, mip
    li t0, PWR
    sw a0, 0(t0)
hang:
    j hang
handler:
    mret
"""
    gold, (halted_by, exit_code, _) = _run_everywhere(
        trap_core, src, soc=SocSpec())
    assert halted_by == "poweroff"
    assert exit_code & 0x80                    # MTIP pending at wake-up
    assert gold.soc.timer.mtime >= 100         # clock really advanced


def test_wfi_with_nothing_armed_halts_cleanly(trap_core):
    """With no enabled source that could ever become pending, wfi must
    terminate the run deterministically (pre-PR it fell through as a nop
    and the idle loop spun to the instruction limit)."""
    src = """
.text
main:
    li a0, 7
idle:
    wfi                      # mie = 0: nothing can ever wake us
    j idle
"""
    _, (halted_by, exit_code, count) = _run_everywhere(
        trap_core, src, soc=SocSpec(), n=10_000)
    assert halted_by == "wfi" and exit_code == 7
    assert count < 100                         # no spin to the limit
    # Identical without any SoC attached.
    prog = assemble(src)
    bare = GoldenSim(prog).run(10_000)
    assert bare.halted_by == "wfi" and bare.instructions < 100


def test_wfi_exhausted_sensor_stream_halts_cleanly():
    """Sensor-only wake source: once every sample is acknowledged the
    level can never rise again, so a further wfi ends the run."""
    src = """
.equ SENSOR, 0x40300
.text
main:
    li t0, 0x10000           # mie = SDIE only
    csrw mie, t0
    li t0, SENSOR
    lw a0, 0(t0)             # consume the only sample...
    li t1, 1
    sw t1, 12(t0)            # ...and ACK it: stream exhausted
sleep:
    wfi
    j sleep
"""
    prog = assemble(src)
    spec = SocSpec(sensor_samples=(42,), sensor_ticks_per_sample=10)
    result = GoldenSim(prog, soc=spec).run(10_000)
    assert result.halted_by == "wfi" and result.exit_code == 42


def test_rv32e_register_bound_word_traps_with_mtval(trap_core):
    """A decodable word using x16+ must trap as illegal with mtval
    holding the opcode — pre-PR the RTL backends silently executed it
    with the register field truncated to the 16-entry file."""
    word = (1 << 20) | (1 << 15) | (20 << 7) | 0b0110011   # add x20,x1,x1
    src = f"""
.text
main:
    la t0, handler
    csrw mtvec, t0
    .word {word:#x}
    li a0, 111               # must never be reached
    csrw mtvec, x0
    ecall
handler:
    csrr a0, mtval
    csrw mtvec, x0
    ecall
"""
    _, (halted_by, exit_code, _) = _run_everywhere(trap_core, src)
    assert halted_by == "ecall" and exit_code == word
    assert cosimulate(trap_core, assemble(src)) is None


def test_rv32e_register_bound_word_refused_without_handler(trap_core):
    word = (1 << 20) | (1 << 15) | (20 << 7) | 0b0110011
    src = f".text\nmain:\n    .word {word:#x}\n"
    prog = assemble(src)
    with pytest.raises(SimulationError):
        GoldenSim(prog).run()
    for backend in ("fused", "interpreter"):
        with pytest.raises(SimulationError):
            RisspSim(trap_core, prog, backend=backend).run()


# ------------------------------ SensorPort edge semantics (PR 9 satellite)


def test_sensor_index_clamps_past_stream_end(trap_core):
    """Waveform exhaustion: with the platform clock started far past the
    stream end (the scenario engine's ``mtime_offset`` knob), INDEX
    clamps to the last sample instead of running off the table — on
    every backend."""
    src = """
.equ SENSOR, 0x40300
.text
main:
    li t0, SENSOR
    lw a0, 0(t0)             # DATA: clamped to the last sample
    lw a1, 4(t0)             # INDEX: COUNT-1, not mtime/tps
    slli a1, a1, 8
    or a0, a0, a1
    ecall
"""
    spec = SocSpec(sensor_samples=(10, 20, 30),
                   sensor_ticks_per_sample=10, mtime_offset=100_000)
    _, (halted_by, exit_code, _) = _run_everywhere(trap_core, src,
                                                   soc=spec)
    assert halted_by == "ecall"
    assert exit_code == 30 | (2 << 8)


def test_ack_without_pending_parks_the_stream(trap_core):
    """ACK past COUNT with nothing pending: the data-ready level can
    never rise again, so a sensor-only wfi ends the run instead of
    waking or spinning — identically everywhere."""
    src = """
.equ SENSOR, 0x40300
.text
main:
    li t0, SENSOR
    li t1, 9
    sw t1, 12(t0)            # ACK 9 of a 3-sample stream
    li t1, 0x10000           # mie = SDIE only
    csrw mie, t1
    li a0, 55
    wfi                      # the over-acked stream can never pend
    li a0, 77                # must never run
    ecall
"""
    spec = SocSpec(sensor_samples=(1, 2, 3), sensor_ticks_per_sample=10)
    _, (halted_by, exit_code, count) = _run_everywhere(
        trap_core, src, soc=spec, n=10_000)
    assert halted_by == "wfi" and exit_code == 55
    assert count < 50


def test_ack_ahead_of_stream_wakes_at_future_sample(trap_core):
    """ACK of samples that have not arrived yet is not an error: the
    level stays low until the acknowledged index becomes ready, and a
    masked wfi fast-forwards exactly there."""
    src = """
.equ SENSOR, 0x40300
.text
main:
    li t0, SENSOR
    li t1, 2
    sw t1, 12(t0)            # skip ahead: wait for sample 2 (t=2000)
    li t1, 0x10000
    csrw mie, t1             # enabled for wake, mstatus.MIE off
    wfi
    lw a0, 0(t0)             # the sample we skipped to
    ecall
"""
    spec = SocSpec(sensor_samples=(7, 8, 9), sensor_ticks_per_sample=1000)
    gold, (halted_by, exit_code, _) = _run_everywhere(
        trap_core, src, soc=spec, n=10_000)
    assert halted_by == "ecall" and exit_code == 9
    assert gold.soc.timer.mtime >= 2000       # really fast-forwarded


def test_same_cycle_sensor_vs_timer_race_is_timer_first(trap_core):
    """Sensor data-ready and the timer comparator rising in the same
    window take the arbiter's fixed priority — timer first — on every
    backend (the ``arb.race.timer_first`` coverage bin)."""
    src = """
.equ TIMER, 0x40100
.equ SENSOR, 0x40300
.text
main:
    la t0, handler
    csrw mtvec, t0
    li t0, SENSOR
    li t1, 1
    sw t1, 12(t0)            # ACK sample 0: next data-ready at t = 60
    li t0, TIMER
    li t1, 60
    sw t1, 8(t0)             # MTIMECMP = 60 — the same instant
    sw x0, 12(t0)
    li t1, 65664             # MTIE | SDIE
    csrw mie, t1
    csrsi mstatus, 8
spin:
    j spin
handler:
    csrr a0, mcause
    csrw mtvec, x0
    ecall
"""
    spec = SocSpec(sensor_samples=(1, 2, 3), sensor_ticks_per_sample=60)
    _, (halted_by, exit_code, _) = _run_everywhere(
        trap_core, src, soc=spec, n=10_000)
    assert halted_by == "ecall"
    assert exit_code == 0x8000_0007           # timer cause, not 16
