"""The end-to-end RISSP generation flow (Figure 2, Steps 0-3 + evaluation).

``RisspFlow`` chains everything this repository builds:

    MicroC source --compile(-O2)--> binary --Step 1--> instruction subset
    --Step 2/3--> RISSP RTL (pre-verified blocks + ModularEX + fixed units)
    --verify--> RISCOF compliance + golden cosimulation + RVFI check of
                the core's own trace
    --synthesize--> fmax / NAND2 area / power (Figures 6-8)
    --implement--> FlexIC layout at 300 kHz (Figure 10)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.program import Program
from ..physical.flow import LayoutReport, implement
from ..rtl.core_sim import cosimulate
from ..rtl.ir import Module
from ..rtl.rissp import build_rissp
from ..synth.report import SynthReport, synthesize
from ..workloads import OPT_LEVEL, WORKLOADS, build_program
from .subset_analysis import SubsetProfile, profile_program


def app_core(name: str) -> tuple[Program, SubsetProfile, Module]:
    """The flow's first half for one registered application: build its
    binary, profile it at ``OPT_LEVEL`` (``"-"`` for an assembly image)
    and stitch ``rissp_<name>`` for its subset, reset at the program's
    entry.  :meth:`RisspFlow.generate` and the farm's cosim targets both
    start here."""
    workload = WORKLOADS[name]
    program = build_program(workload)
    # The legacy assembly firmware images bypass the -O sweep.
    opt_level = "-" if workload.lang == "asm" else OPT_LEVEL
    profile = profile_program(name, program, opt_level)
    core = build_rissp(profile.core_subset(), name=f"rissp_{name}",
                       reset_pc=program.entry)
    return program, profile, core


@dataclass
class RisspResult:
    """Everything produced for one application."""

    name: str
    profile: SubsetProfile
    core: Module
    synth: SynthReport
    program: Program | None = None
    #: Platform description for SoC firmware workloads (None for pure
    #: compute kernels) — pass to the simulators to run the binary.
    soc_spec: object | None = None
    #: Filled in by ``generate(run_physical=True)``.
    layout: LayoutReport | None = field(init=False, default=None)
    #: Filled in by ``generate(run_verification=True)``.
    verified: dict[str, bool] = field(init=False, default_factory=dict)


class RisspFlow:
    """Generate, verify and evaluate RISSPs for applications or domains.

    Every core is stitched from :func:`~repro.rtl.library.default_library`'s
    pre-verified blocks and synthesized against
    :data:`~repro.synth.techlib.FLEXIC_GEN3`.
    """

    def generate(self, name: str, run_verification: bool = False,
                 run_physical: bool = False) -> RisspResult:
        """Run the full flow for one registered application
        (:data:`repro.workloads.WORKLOADS`), compiled at ``-O2``.

        ``run_verification`` additionally executes the RISCOF-analog
        compliance suite, a lock-step cosimulation of the application binary
        on the generated core (comparing writeback *and* both sides of the
        memory interface per retirement), and an RVFI trace check of the
        core's own retirements against the executable spec — the full
        §3.4.2 story.  The checked trace is the RTL side of the cosim
        (``cosimulate(rtl_trace_out=...)``), so ``verified["rvfi"]`` means
        the RISSP's retirements satisfy the spec, including the source
        operands its register-file read ports delivered, which cosim does
        not compare.  The golden side rides the decoded-op cache
        (:mod:`repro.sim.decoded`): the compliance signatures come from the
        golden fast path, and the cosimulation's golden side records its
        reference trace through the compiled recorders: on the compute
        apps about half the fast path's rate, and four to five times the
        rate of the reflective per-row retirement.

        The stitched core passes the structural lint
        (:mod:`repro.analysis`) on every build: a bad core fails here, at
        generation time, with the finding list — not later in cosim.
        """
        workload = WORKLOADS[name]
        program, profile, core = app_core(name)
        synth = synthesize(core, seed=name)
        result = RisspResult(name=name, profile=profile, core=core,
                             synth=synth, program=program,
                             soc_spec=workload.soc_spec)
        if run_verification:
            from ..sim.golden import abi_initial_regs
            from ..sim.tracing import RvfiTrace
            from ..verify.riscof import run_compliance
            from ..verify.rvfi import check_trace
            rtl_trace = RvfiTrace()
            mismatch = cosimulate(core, program,
                                  max_instructions=2_000_000,
                                  soc=workload.soc_spec,
                                  rtl_trace_out=rtl_trace)
            result.verified["cosim"] = mismatch is None
            compliance = run_compliance(core)
            result.verified["riscof"] = compliance.compliant
            # The core's trace is complete only when cosim matched to
            # halt — a truncated prefix is never reported as a full pass.
            rvfi_report = check_trace(rtl_trace,
                                      initial_regs=abi_initial_regs())
            result.verified["rvfi"] = mismatch is None and rvfi_report.passed
        if run_physical:
            result.layout = implement(synth)
        return result

    def generate_for_subset(self, name: str,
                            mnemonics: list[str]) -> RisspResult:
        """Generate a RISSP directly from an instruction subset (e.g. one
        of the paper's Table 3 lists)."""
        profile = SubsetProfile(name=name, opt_level=OPT_LEVEL,
                                mnemonics=tuple(sorted(mnemonics)),
                                static_instructions=0, code_size_bytes=0)
        core = build_rissp(profile.core_subset(), name=f"rissp_{name}")
        synth = synthesize(core, seed=name)
        return RisspResult(name=name, profile=profile, core=core,
                           synth=synth)

    def full_isa_baseline(self) -> RisspResult:
        """RISSP-RV32E: the full-ISA core generated by the same flow."""
        from ..isa.instructions import INSTRUCTIONS
        subset = [d.mnemonic for d in INSTRUCTIONS]
        core = build_rissp(subset, name="rissp_rv32e")
        synth = synthesize(core, seed="rv32e")
        profile = SubsetProfile(name="rv32e", opt_level="-",
                                mnemonics=tuple(sorted(
                                    m for m in subset
                                    if m not in ("fence", "ecall",
                                                 "ebreak"))),
                                static_instructions=0, code_size_bytes=0)
        return RisspResult(name="rv32e", profile=profile, core=core,
                           synth=synth)
