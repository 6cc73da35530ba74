"""Telemetry overhead gate: the zero-overhead-when-off contract (PR 8).

The telemetry core promises that the fused RTL backend pays nothing
measurable with no session open (the instrumented sites are one global
read + identity check at Python re-entry points, never inside the
exec-compiled loops) and stays within 3% with a session active
(``counters[name] += 1`` on a plain dict plus a decode-cache length
probe per ``_fused_run`` call).

Measurement discipline: reps run as off/on *pairs* in ABBA order (off
then on, then on then off, ...), and the gate is the median of the
per-pair ratios.  A shared host's CPU speed drifts within seconds, so
the best rep of each mode, taken on its own, can land at different host
speeds and fake an overhead of several percent.  The two reps of a pair
run back to back, so drift cancels inside each ratio; alternating which
mode runs first cancels any first-or-second bias; the median drops the
pairs a preemption hit.  A real 3% overhead shifts every pair's ratio,
so the median still catches it.
"""

import statistics
import time

from repro import obs
from repro.isa import assemble
from repro.rtl.core_sim import RisspSim
from repro.rtl.rissp import build_rissp

#: 2 instructions/iteration in the hot loop -> ~20k retirements/rep: a
#: short rep keeps both halves of a pair inside one host-speed window.
_ITERS = 10_000

_LOOP = f"""
    .text
    li a0, 0
    li a1, {_ITERS}
loop:
    addi a0, a0, 1
    bne a0, a1, loop
    ecall
"""

#: Off/on pairs per measurement (even, so ABBA order is balanced).
_REPS = 48

#: Acceptance floor: the median per-pair telemetry-on fused throughput is
#: >= 0.97x telemetry-off.
_MIN_RATIO = 0.97


def _one_rep(core, program, telemetry_on):
    sim = RisspSim(core, program)
    if telemetry_on:
        with obs.session() as telemetry:
            started = time.perf_counter()
            result = sim.run(max_instructions=1_000_000)
            elapsed = time.perf_counter() - started
        assert telemetry.counters["fused.exit.halt"] == 1
        assert telemetry.counters["fused.retired"] == result.instructions
    else:
        assert obs.get() is None
        started = time.perf_counter()
        result = sim.run(max_instructions=1_000_000)
        elapsed = time.perf_counter() - started
    assert result.halted_by == "ecall"
    return result.instructions, elapsed


def test_bench_telemetry_overhead(benchmark, bench_artifact):
    core = build_rissp(["addi", "add", "bne", "lui", "ecall"])
    program = assemble(_LOOP)
    _one_rep(core, program, False)   # warm compile + decode caches

    def report():
        off_times, on_times = [], []
        for pair in range(_REPS):
            timed = {}
            for telemetry_on in ((False, True) if pair % 2 == 0
                                 else (True, False)):
                instructions, timed[telemetry_on] = _one_rep(
                    core, program, telemetry_on)
            off_times.append(timed[False])
            on_times.append(timed[True])
        return instructions, off_times, on_times

    instructions, off_times, on_times = benchmark.pedantic(
        report, rounds=1, iterations=1)
    mips_off = instructions / statistics.median(off_times) / 1e6
    mips_on = instructions / statistics.median(on_times) / 1e6
    # Per pair, off_time / on_time == throughput_on / throughput_off.
    ratio = statistics.median(off / on
                              for off, on in zip(off_times, on_times))
    print("\n=== Telemetry overhead (fused loop, median of "
          f"{_REPS} ABBA pairs) ===")
    print(f"telemetry off: {mips_off:6.3f} MIPS")
    print(f"telemetry on:  {mips_on:6.3f} MIPS "
          f"({100 * ratio:.1f}% of off)")
    bench_artifact("telemetry_overhead", {
        "instructions_per_rep": instructions,
        "reps": _REPS,
        "fused_mips_off": mips_off,
        "fused_mips_on": mips_on,
        "on_over_off_ratio": ratio,
        "min_ratio_gate": _MIN_RATIO,
    })
    assert ratio >= _MIN_RATIO, (
        f"telemetry-on fused throughput regressed: {100 * ratio:.1f}% "
        f"of telemetry-off < {100 * _MIN_RATIO:.0f}%")
