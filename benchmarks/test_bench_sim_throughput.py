"""Simulator throughput: decoded-op cache vs the seed decode/step interpreter.

Locks in the PR 1 tentpole speedup: the golden ISS fast path must retire
the 1.6 M-instruction loop microbenchmark at >=5x the throughput of a naive
interpreter that re-decodes and re-dispatches every retired word (the seed
architecture, ~0.19 MIPS on the reference machine).  Both sides run in the
same process on the same machine, so the ratio is load-invariant; absolute
MIPS figures are printed for the CI job log and written to the
``BENCH_sim_throughput.json`` artifact.

PR 3 adds the interrupts-enabled-but-idle gate: the same loop with the
machine-mode trap subsystem armed (handler installed, MIE+MTIE set, timer
far in the future) must stay within 10% of the plain fast path — the
per-retirement cost of interrupt support is one integer comparison
against a precomputed fire index, never CSR plumbing in the hot loop.
The two loops run as short plain/idle *pairs* in ABBA order and the gate
is the median per-pair throughput ratio: a shared host's speed drifts
within seconds, so one long run of each, taken apart, can fake an
overhead of 20% or more, while drift cancels inside a back-to-back pair.

The Serv idle gate holds the Serv timing model to the same >=0.85 with
the same idle SoC attached: its loop has the golden fast path's shape, so
a SoC costs it one fire-index comparison per retirement too.  A Serv loop
that sends every row of a SoC run to ``retire_one`` measures about 0.08
here.  Same ABBA pairing and median.

The recorded-golden gate: a traced run (``GoldenSim(trace=True).run()``,
the compiled recorders cosimulation's golden side runs) must record the
loop at >=2x the rate of ``retire_one`` called row by row into the same
kind of columnar trace — the reflective retirement every recorded row
went through before the recorders.  Same ABBA pairing and median.

The RVFI checker gate: ``check_trace`` on that recorded loop trace must
run at >=2.5x its rate with the compiled check arms forced off (the arm
compiler patched to compile nothing, so the reflective ``spec.step``
check judges every row, as it did before the arms).  Same ABBA pairing
and median; the arms-on rate is logged as ``rvfi_check_rps``.
"""

import statistics
import time
from unittest import mock

from repro.isa.encoding import decode
from repro.isa.spec import step
from repro.isa.assembler import assemble
from repro.sim import (
    GoldenSim, RvfiTrace, ServSim, abi_initial_regs, run_program,
    run_program_serv,
)
from repro.soc import SocSpec
from repro.verify import rvfi

_LOOP = """.text
main:
    li a0, 0
    li a1, {n}
loop:
    addi a0, a0, 1
    bne a0, a1, loop
    ret
"""

#: Same loop as event-driven firmware: trap handler installed and the
#: timer interrupt armed (mtimecmp stays at its far-future reset value),
#: terminating through the power gate because ecall now traps.
_LOOP_SOC_IDLE = """.equ PWR, 0x40000
.text
main:
    la t0, handler
    csrw mtvec, t0
    csrsi mstatus, 8
    li t1, 128
    csrw mie, t1
    li a0, 0
    li a1, {n}
loop:
    addi a0, a0, 1
    bne a0, a1, loop
    li t0, PWR
    sw a0, 0(t0)
hang:
    j hang
handler:
    mret
"""

#: The fast-path benchmark retires 4 instructions/iteration: 1.6 M total.
_FAST_ITERS = 400_000
_NAIVE_INSTRUCTIONS = 60_000

#: Plain/idle pairs behind the idle gate (even, so ABBA order is
#: balanced), each run a ~200k-instruction loop so both halves of a pair
#: share one host-speed window.
_IDLE_PAIRS = 16
_IDLE_ITERS = 50_000

#: Reflective/recorded pairs behind the recorded-golden gate (even, for
#: ABBA balance), each run a ~20k-instruction loop: the reflective side
#: takes about a tenth of a second.
_RECORDED_PAIRS = 8
_RECORDED_ITERS = 5_000

#: Arms-on/arms-off pairs behind the RVFI checker gate (even, for ABBA
#: balance), each checking the recorded loop's ~10k-row trace once.
_CHECK_PAIRS = 8

# The seed decoded every word on every retirement; bypass the lru_cache to
# reproduce that cost honestly.
_uncached_decode = decode.__wrapped__


def _naive_mips(program, max_instructions):
    """The seed inner loop: fetch, decode, spec.step, apply Effects."""
    sim = GoldenSim(program)
    memory = sim.memory
    count = 0
    started = time.perf_counter()
    while count < max_instructions:
        pc = sim.pc
        instr = _uncached_decode(memory.fetch(pc))
        effects = step(instr, pc, sim.read_reg(instr.rs1),
                       sim.read_reg(instr.rs2), memory.load)
        if effects.mem_write is not None:
            mw = effects.mem_write
            memory.store(mw.addr, mw.data, mw.width)
        if effects.rd is not None:
            sim.write_reg(effects.rd, effects.rd_data)
        sim.pc = effects.next_pc
        count += 1
        if effects.halt:
            break
    elapsed = time.perf_counter() - started
    return count / elapsed / 1e6


def _fast_mips(program, runner, iters=_FAST_ITERS):
    started = time.perf_counter()
    result = runner(program, max_instructions=3_000_000)
    elapsed = time.perf_counter() - started
    assert result.halted_by == "ecall" and result.exit_code == iters
    return result.instructions / elapsed / 1e6


def _soc_idle_mips(program, iters, simulator=GoldenSim):
    sim = simulator(program, soc=SocSpec())
    started = time.perf_counter()
    result = sim.run(max_instructions=3_000_000)
    elapsed = time.perf_counter() - started
    assert result.halted_by == "poweroff" and result.exit_code == iters
    return result.instructions / elapsed / 1e6


def _recorded_mips(program, iters):
    sim = GoldenSim(program, trace=True)
    started = time.perf_counter()
    result = sim.run(max_instructions=3_000_000)
    elapsed = time.perf_counter() - started
    assert result.halted_by == "ecall" and result.exit_code == iters
    assert len(result.trace) == result.instructions
    return result.instructions / elapsed / 1e6


def _reflective_mips(program, iters):
    """The per-row golden entry: ``retire_one`` into a columnar trace."""
    sim = GoldenSim(program, trace=True)
    trace = RvfiTrace()
    count = 0
    halted = False
    started = time.perf_counter()
    while not halted:
        halted, _ = sim.retire_one(count, trace)
        count += 1
    elapsed = time.perf_counter() - started
    assert sim.read_reg(10) == iters and len(trace) == count
    return count / elapsed / 1e6


def _check_rps(trace):
    """``check_trace``'s rate on a clean ``trace``, in rows per second."""
    started = time.perf_counter()
    report = rvfi.check_trace(trace, initial_regs=abi_initial_regs())
    elapsed = time.perf_counter() - started
    assert report.passed and report.records_checked == len(trace)
    return len(trace) / elapsed


def _reflective_check_rps(trace):
    """The same check with no compiled arms: every row is judged by the
    reflective code, the checker's reference."""
    with mock.patch.object(rvfi, "_compile_arm", lambda word: None):
        return _check_rps(trace)


def _abba_pairs(pairs, base, candidate):
    """(median candidate/base throughput ratio, median candidate MIPS)
    over ``pairs`` back-to-back pairs, alternating which side runs
    first."""
    ratios, rates = [], []
    for pair in range(pairs):
        mips = {}
        for side in (base, candidate) if pair % 2 == 0 \
                else (candidate, base):
            mips[side] = side()
        ratios.append(mips[candidate] / mips[base])
        rates.append(mips[candidate])
    return statistics.median(ratios), statistics.median(rates)


def test_bench_sim_throughput(benchmark, bench_artifact):
    fast_prog = assemble(_LOOP.format(n=_FAST_ITERS))
    naive_prog = assemble(_LOOP.format(n=_NAIVE_INSTRUCTIONS))
    pair_prog = assemble(_LOOP.format(n=_IDLE_ITERS))
    idle_prog = assemble(_LOOP_SOC_IDLE.format(n=_IDLE_ITERS))
    recorded_prog = assemble(_LOOP.format(n=_RECORDED_ITERS))
    loop_trace = GoldenSim(recorded_prog, trace=True).run().trace

    def report():
        idle_ratio, idle_mips = _abba_pairs(
            _IDLE_PAIRS,
            lambda: _fast_mips(pair_prog, run_program, _IDLE_ITERS),
            lambda: _soc_idle_mips(idle_prog, _IDLE_ITERS))
        serv_idle_ratio, serv_idle_mips = _abba_pairs(
            _IDLE_PAIRS,
            lambda: _fast_mips(pair_prog, run_program_serv, _IDLE_ITERS),
            lambda: _soc_idle_mips(idle_prog, _IDLE_ITERS, ServSim))
        recorded_ratio, recorded_mips = _abba_pairs(
            _RECORDED_PAIRS,
            lambda: _reflective_mips(recorded_prog, _RECORDED_ITERS),
            lambda: _recorded_mips(recorded_prog, _RECORDED_ITERS))
        check_ratio, check_rps = _abba_pairs(
            _CHECK_PAIRS,
            lambda: _reflective_check_rps(loop_trace),
            lambda: _check_rps(loop_trace))
        return {
            "naive_mips": _naive_mips(naive_prog, _NAIVE_INSTRUCTIONS),
            "golden_mips": _fast_mips(fast_prog, run_program),
            "golden_soc_idle_mips": idle_mips,
            "golden_recorded_mips": recorded_mips,
            "serv_mips": _fast_mips(fast_prog, run_program_serv),
            "serv_soc_idle_mips": serv_idle_mips,
            "soc_idle_ratio": idle_ratio,
            "serv_soc_idle_ratio": serv_idle_ratio,
            "recorded_vs_reflective": recorded_ratio,
            "rvfi_check_rps": check_rps,
            "rvfi_check_vs_reflective": check_ratio,
        }

    stats = benchmark.pedantic(report, rounds=1, iterations=1)
    speedup = stats["golden_mips"] / stats["naive_mips"]
    idle_ratio = stats["soc_idle_ratio"]
    serv_idle_ratio = stats["serv_soc_idle_ratio"]
    recorded_ratio = stats["recorded_vs_reflective"]
    check_ratio = stats["rvfi_check_vs_reflective"]
    print("\n=== Simulator throughput (1.6M-instruction loop) ===")
    print(f"seed-style interpreter:   {stats['naive_mips']:6.3f} MIPS")
    print(f"golden ISS fast path:     {stats['golden_mips']:6.3f} MIPS "
          f"({speedup:.1f}x)")
    print(f"golden + idle interrupts: {stats['golden_soc_idle_mips']:6.3f} "
          f"MIPS ({100 * idle_ratio:.1f}% of fast path, median of "
          f"{_IDLE_PAIRS} ABBA pairs)")
    print(f"golden recorded (traced): {stats['golden_recorded_mips']:6.3f} "
          f"MIPS ({recorded_ratio:.1f}x retire_one per row, median of "
          f"{_RECORDED_PAIRS} ABBA pairs)")
    print(f"serv timing model:        {stats['serv_mips']:6.3f} MIPS")
    print(f"serv + idle interrupts:   {stats['serv_soc_idle_mips']:6.3f} "
          f"MIPS (serv_soc_idle_ratio {serv_idle_ratio:.3f}, median of "
          f"{_IDLE_PAIRS} ABBA pairs)")
    print(f"RVFI check_trace:         {stats['rvfi_check_rps'] / 1e6:6.3f} "
          f"M rows/s on the {len(loop_trace)}-row recorded trace "
          f"({check_ratio:.1f}x with arms forced off, median of "
          f"{_CHECK_PAIRS} ABBA pairs)")
    bench_artifact("sim_throughput", {
        **stats,
        "decoded_cache_speedup": speedup,
    })
    assert speedup >= 5.0, (
        f"decoded-op cache speedup regressed: {speedup:.2f}x < 5x")
    assert stats["serv_mips"] >= 2.0 * stats["naive_mips"]
    # PR 3 acceptance: <10% regression with interrupts enabled-but-idle.
    # Gate with slack for shared-runner noise; the measured overhead of
    # the single fire-index comparison is ~0-3%.
    assert idle_ratio >= 0.85, (
        f"idle interrupt support cost too much fast-path throughput: "
        f"{100 * (1 - idle_ratio):.1f}% > 15%")
    # The same bound for Serv: with a SoC attached it runs the fast loop.
    assert serv_idle_ratio >= 0.85, (
        f"idle interrupt support cost too much Serv throughput: "
        f"{100 * (1 - serv_idle_ratio):.1f}% > 15%")
    # The compiled recorders must keep their gain over the reflective
    # per-row retirement (about 4x on this loop; 1x would mean traced
    # runs fell back to retire_one).
    assert recorded_ratio >= 2.0, (
        f"recorded golden only {recorded_ratio:.2f}x retire_one per row "
        f"(< 2x)")
    # The compiled check arms must keep their gain over the reflective
    # per-row spec.step check (about 4x on this loop; 1x would mean the
    # rows fell back to the reflective code).
    assert check_ratio >= 2.5, (
        f"check_trace with arms only {check_ratio:.2f}x the reflective "
        f"check (< 2.5x)")
