"""RTL simulator throughput: the fused loop and the compiled per-cycle
pair, each against the interpreter oracle.

Three gates.  The first two are one per layer the ``exec``-compiled
code serves:

* **Whole programs**: the fused whole-cycle loop
  (:func:`repro.rtl.compiled.compile_core` — fetch, comb settle, memory
  and register commit in one generated function, with a per-word decode
  cache) must run the full-RV32E core at >=30x the cycle throughput of
  the interpreter's ``RisspSim`` on the same loop microbenchmark.  That
  is what the two earlier gates implied together: the retired per-cycle
  compiled backend at >=10x the interpreter, and the fused loop at >=3x
  that backend.
* **Per cycle**: :class:`~repro.rtl.sim.RtlSim`'s compiled pair
  (:func:`repro.rtl.compiled.compile_module`, which the block
  testbenches, formal checks and probes of a paused core run) must
  evaluate the full core at >=10x the interpreter's ``RtlSim``, driven
  by the random instruction words ``test_rissp_core_lockstep_fuzz``
  drives (:func:`repro.verify.fuzz.random_words`).

Both sides of each gate run in the same process, so the ratios are
load-invariant; absolute cycles/sec figures are printed for the CI job
log next to the ISS MIPS numbers and written to the
``BENCH_rtl_throughput.json`` artifact.

The third prices the ModularEX switch's width: the fused rate of the
full core over that of the loop's own 5-instruction core, the median of
ABBA-ordered pairs, must be >=0.6.  The fused loop's active-arm pass ORs
in only the arms whose select is set for the fetched word, so a
retirement behind the full core's 40 selects costs little more than one
behind the loop core's 5.  Testing every arm's select, as the loop did
before the pass, put the ratio at 0.39-0.42 (three runs on a 2-CPU
host), against 0.80-0.82 with the pass.
"""

import random
import statistics
import time

from repro.isa import INSTRUCTIONS, assemble
from repro.rtl import build_rissp
from repro.rtl.core_sim import RisspSim
from repro.rtl.sim import RtlSim
from repro.verify.fuzz import random_words

_LOOP = """.text
main:
    li a0, 0
    li a1, {n}
loop:
    addi a0, a0, 1
    bne a0, a1, loop
    ret
"""

#: Loop iterations (4 instructions each) of the fused leg, which runs
#: ~200k cycles/sec.
_FUSED_ITERS = 60_000
#: The interpreter leg (~600 cycles/sec) never halts; it just burns a
#: fixed cycle budget.
_INTERP_CYCLES = 1_200

#: Seed of the random instruction words (the lock-step fuzz's), how many
#: of them one pass drives, and the passes per ``RtlSim`` leg: the
#: compiled pair runs ~25k cycles/sec, the interpreter ~500.
_WORD_SEED = 2025
_WORDS = 600
_PASSES = {"fused": 20, "interpreter": 1}

#: The loop's own subset: ``li`` (lui/addi), ``bne``, ``ret`` (jalr) and
#: the halt stub's ``ecall``.
_LOOP_SUBSET = ["addi", "lui", "bne", "jalr", "ecall"]
#: ABBA pairs (and loop iterations per run) of the full-vs-subset ratio,
#: and its floor.
_SUBSET_PAIRS = 6
_SUBSET_ITERS = 15_000
_SUBSET_RATIO_FLOOR = 0.6


def _cycles_per_sec(core, backend):
    """Whole-program ``RisspSim`` rate on the loop microbenchmark."""
    if backend == "interpreter":
        program = assemble(_LOOP.format(n=_INTERP_CYCLES))
        max_cycles = _INTERP_CYCLES
    else:
        program = assemble(_LOOP.format(n=_FUSED_ITERS))
        max_cycles = 4 * _FUSED_ITERS + 100
    sim = RisspSim(core, program, backend=backend)
    started = time.perf_counter()
    result = sim.run(max_instructions=max_cycles)
    elapsed = time.perf_counter() - started
    if backend != "interpreter":
        assert result.halted_by == "ecall"
        assert result.exit_code == _FUSED_ITERS
    return result.instructions / elapsed


def _stimuli():
    """The (instruction word, dmem word) pairs of the lock-step fuzz."""
    rng = random.Random(_WORD_SEED)
    return [(word, rng.getrandbits(32))
            for word in random_words(_WORD_SEED, _WORDS)]


def _rtlsim_cycles_per_sec(core, backend, stimuli):
    """Per-cycle ``RtlSim`` rate: set inputs, settle, tick per word."""
    sim = RtlSim(core, backend=backend)
    sim.eval_comb()     # the fused backend builds its pair here, untimed
    passes = _PASSES[backend]
    started = time.perf_counter()
    for _ in range(passes):
        for word, dmem in stimuli:
            sim.set_inputs(imem_rdata=word, dmem_rdata=dmem)
            sim.eval_comb()
            sim.tick()
    elapsed = time.perf_counter() - started
    return passes * len(stimuli) / elapsed


def _fused_rate(core, program):
    sim = RisspSim(core, program, backend="fused")
    started = time.perf_counter()
    result = sim.run(max_instructions=4 * _SUBSET_ITERS + 100)
    elapsed = time.perf_counter() - started
    assert result.exit_code == _SUBSET_ITERS
    return result.instructions / elapsed


def _subset_ratio(full, subset):
    """Median full-core / loop-subset-core fused rate over back-to-back
    pairs, alternating which core runs first."""
    program = assemble(_LOOP.format(n=_SUBSET_ITERS))
    ratios = []
    for pair in range(_SUBSET_PAIRS):
        if pair % 2:
            subset_rate = _fused_rate(subset, program)
            full_rate = _fused_rate(full, program)
        else:
            full_rate = _fused_rate(full, program)
            subset_rate = _fused_rate(subset, program)
        ratios.append(full_rate / subset_rate)
    return statistics.median(ratios)


def test_bench_rtl_throughput(benchmark, bench_artifact):
    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    subset = build_rissp(_LOOP_SUBSET)
    stimuli = _stimuli()

    def report():
        stats = {backend: _cycles_per_sec(core, backend)
                 for backend in ("interpreter", "fused")}
        stats.update({f"rtlsim_{backend}":
                      _rtlsim_cycles_per_sec(core, backend, stimuli)
                      for backend in ("interpreter", "fused")})
        stats["full_vs_subset"] = _subset_ratio(core, subset)
        return stats

    stats = benchmark.pedantic(report, rounds=1, iterations=1)
    fused_speedup = stats["fused"] / stats["interpreter"]
    pair_speedup = stats["rtlsim_fused"] / stats["rtlsim_interpreter"]
    print("\n=== RTL simulator throughput (full RV32E RISSP) ===")
    print("RisspSim, loop microbenchmark:")
    print(f"  interpreter:        {stats['interpreter']:8.0f} cycles/sec")
    print(f"  fused cycle loop:   {stats['fused']:8.0f} cycles/sec "
          f"({fused_speedup:.0f}x)")
    print(f"RtlSim per cycle, {_WORDS} random instruction words:")
    print(f"  interpreter:        {stats['rtlsim_interpreter']:8.0f} "
          f"cycles/sec")
    print(f"  compiled pair:      {stats['rtlsim_fused']:8.0f} cycles/sec "
          f"({pair_speedup:.1f}x)")
    print(f"full core vs the loop's {len(_LOOP_SUBSET)}-insn core, fused: "
          f"{stats['full_vs_subset']:.2f}x the rate (median of "
          f"{_SUBSET_PAIRS} ABBA pairs)")
    bench_artifact("rtl_throughput", {
        "interpreter_cycles_per_sec": stats["interpreter"],
        "fused_cycles_per_sec": stats["fused"],
        "fused_speedup_over_interpreter": fused_speedup,
        "rtlsim_interpreter_cycles_per_sec": stats["rtlsim_interpreter"],
        "rtlsim_compiled_pair_cycles_per_sec": stats["rtlsim_fused"],
        "compiled_pair_speedup_over_interpreter": pair_speedup,
        "full_vs_subset_fused_ratio": stats["full_vs_subset"],
    })
    assert fused_speedup >= 30.0, (
        f"fused RTL cycle loop speedup regressed: "
        f"{fused_speedup:.2f}x < 30x over the interpreter's RisspSim")
    assert pair_speedup >= 10.0, (
        f"compiled per-cycle pair speedup regressed: "
        f"{pair_speedup:.2f}x < 10x over the interpreter's RtlSim")
    assert stats["full_vs_subset"] >= _SUBSET_RATIO_FLOOR, (
        f"full core's fused rate regressed: "
        f"{stats['full_vs_subset']:.2f}x < {_SUBSET_RATIO_FLOOR}x the "
        f"loop subset core's")
