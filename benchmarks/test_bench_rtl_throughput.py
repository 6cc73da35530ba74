"""RTL simulator throughput: fused loop vs per-cycle compiled vs oracle.

Locks in two tentpoles at once:

* **PR 2**: the per-cycle ``exec``-compiled evaluator must run
  whole-program RISSP simulation at >=10x the cycle throughput of the
  interpreted reference backend.
* **PR 4**: the fused whole-cycle loop (:func:`repro.rtl.compiled
  .compile_core` — fetch, comb settle, memory and register commit in one
  generated function, with a per-word decode cache) must add >=3x on top
  of the per-cycle compiled backend.

All sides run the same full-RV32E core on the same loop microbenchmark in
the same process, so the gating ratios are load-invariant; absolute
cycles/sec figures are printed for the CI job log next to the ISS MIPS
numbers and written to the ``BENCH_rtl_throughput.json`` artifact.

Also logged, not gated: the fused rate of the full core over that of the
loop's own 5-instruction core, the median of ABBA-ordered pairs.  The
generated loop evaluates only the ModularEX arms whose select is set, so
the full core's 40 arms per output cost less than 40x one arm; the ratio
tracks that, but moves too little between versions for a threshold that
holds on any host.
"""

import statistics
import time

from repro.isa import INSTRUCTIONS, assemble
from repro.rtl import build_rissp
from repro.rtl.core_sim import RisspSim

_LOOP = """.text
main:
    li a0, 0
    li a1, {n}
loop:
    addi a0, a0, 1
    bne a0, a1, loop
    ret
"""

#: Per-backend loop iterations (4 instructions each), sized so every
#: backend contributes a comparable slice of wall-clock: the fused loop
#: runs ~200k cycles/sec, per-cycle compiled ~30k, the interpreter ~1k.
_ITERS = {"fused": 60_000, "compiled": 15_000}
#: The interpreter leg never halts; it just burns a fixed cycle budget.
_INTERP_CYCLES = 2_500

#: The loop's own subset: ``li`` (lui/addi), ``bne``, ``ret`` (jalr) and
#: the halt stub's ``ecall``.
_LOOP_SUBSET = ["addi", "lui", "bne", "jalr", "ecall"]
#: ABBA pairs (and loop iterations per run) of the full-vs-subset ratio.
_SUBSET_PAIRS = 6
_SUBSET_ITERS = 15_000


def _cycles_per_sec(core, backend):
    if backend == "interpreter":
        program = assemble(_LOOP.format(n=_INTERP_CYCLES))
        max_cycles = _INTERP_CYCLES
    else:
        iters = _ITERS[backend]
        program = assemble(_LOOP.format(n=iters))
        max_cycles = 4 * iters + 100
    sim = RisspSim(core, program, backend=backend)
    started = time.perf_counter()
    result = sim.run(max_instructions=max_cycles)
    elapsed = time.perf_counter() - started
    if backend != "interpreter":
        assert result.halted_by == "ecall"
        assert result.exit_code == _ITERS[backend]
    return result.instructions / elapsed


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

    def report():
        stats = {backend: _cycles_per_sec(core, backend)
                 for backend in ("interpreter", "compiled", "fused")}
        stats["full_vs_subset"] = _subset_ratio(core, subset)
        return stats

    stats = benchmark.pedantic(report, rounds=1, iterations=1)
    compiled_speedup = stats["compiled"] / stats["interpreter"]
    fused_speedup = stats["fused"] / stats["compiled"]
    print("\n=== RTL simulator throughput (full RV32E RISSP) ===")
    print(f"interpreted evaluator: {stats['interpreter']:8.0f} cycles/sec")
    print(f"compiled per-cycle:    {stats['compiled']:8.0f} cycles/sec "
          f"({compiled_speedup:.1f}x)")
    print(f"fused cycle loop:      {stats['fused']:8.0f} cycles/sec "
          f"({fused_speedup:.1f}x over per-cycle, "
          f"{stats['fused'] / stats['interpreter']:.0f}x total)")
    print(f"full core vs the loop's {len(_LOOP_SUBSET)}-insn core, fused: "
          f"{stats['full_vs_subset']:.2f}x the rate (median of "
          f"{_SUBSET_PAIRS} ABBA pairs; logged, not gated)")
    bench_artifact("rtl_throughput", {
        "interpreter_cycles_per_sec": stats["interpreter"],
        "compiled_cycles_per_sec": stats["compiled"],
        "fused_cycles_per_sec": stats["fused"],
        "compiled_speedup": compiled_speedup,
        "fused_speedup_over_compiled": fused_speedup,
        "full_vs_subset_fused_ratio": stats["full_vs_subset"],
    })
    assert compiled_speedup >= 10.0, (
        f"compiled RTL backend speedup regressed: "
        f"{compiled_speedup:.2f}x < 10x")
    assert fused_speedup >= 3.0, (
        f"fused RTL cycle loop speedup regressed: "
        f"{fused_speedup:.2f}x < 3x over the per-cycle compiled backend")
