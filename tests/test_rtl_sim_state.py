"""State-handling coverage for :class:`RtlSim`: the register-file read
and write ports, ``reset()`` — including mid-run against the fused loop —
and peek/poke fault injection, exercised on every evaluator backend.

The register-file tests drive a storage-exposed read port, the shape
:func:`repro.rtl.rissp.build_rissp` builds: the array drives one storage
wire per register, and the port's data is a read-mux tree over them with
x0 as the constant-zero entry.  (The small module is not a RISSP, so the
``fused`` parametrization checks :class:`RtlSim`'s compiled per-cycle
pair against the interpreter.)

The fused-state tests at the bottom pin the PR 4 flush/refresh contract:
the generated ``run_cycles`` loads register state from ``env`` on entry
and flushes it back on exit, so pausing a run to poke ``env``/the
register file (fault injection) or to ``reset()`` must behave exactly
like the interpreter.
"""

import pytest

from repro.isa import INSTRUCTIONS, assemble
from repro.rtl import RisspSim, build_rissp
from repro.rtl.ir import Module, RegFileSpec, _read_mux_tree, const
from repro.rtl.sim import BACKENDS, RtlSim


def _regfile_module(num_regs=8):
    """One storage-exposed read port and one write port, both addressed
    by ``addr_in`` (4 bits, wider than the 8-entry file needs)."""
    module = Module("regfile")
    addr_in = module.input("addr_in", 4)
    wdata_in = module.input("wdata_in", 8)
    we_in = module.input("we_in", 1)
    storage = [module.wire(f"q{index}", 8) for index in range(1, num_regs)]
    raddr = module.wire("raddr", 4)
    module.assign(raddr, addr_in)
    module.assign(module.wire("rdata", 8),
                  _read_mux_tree([const(0, 8)] + storage, raddr))
    module.assign(module.output("rdata_out", 8), module.sig("rdata"))
    module.assign(module.wire("waddr", 4), addr_in)
    module.assign(module.wire("we", 1), we_in)
    module.assign(module.wire("wdata", 8), wdata_in)
    module.regfile = RegFileSpec(
        name="regs", num_regs=num_regs, width=8,
        read_ports=[("raddr", "rdata")],
        write_port=("we", "waddr", "wdata"),
        storage_signals=[sig.name for sig in storage])
    module.check()
    return module


@pytest.mark.parametrize("backend", BACKENDS)
def test_legacy_read_port_reads_written_values(backend):
    sim = RtlSim(_regfile_module(), backend=backend)
    for reg in range(1, 8):
        sim.set_inputs(addr_in=reg, wdata_in=0x10 + reg, we_in=1)
        sim.eval_comb()
        sim.tick()
    sim.set_inputs(we_in=0)
    for reg in range(1, 8):
        sim.set_inputs(addr_in=reg)
        sim.eval_comb()
        assert sim.get("rdata_out") == 0x10 + reg


@pytest.mark.parametrize("backend", BACKENDS)
def test_legacy_read_port_x0_and_address_wrap(backend):
    sim = RtlSim(_regfile_module(num_regs=8), backend=backend)
    sim.set_inputs(addr_in=8 + 3, wdata_in=0x77, we_in=1)
    sim.eval_comb()
    sim.tick()
    assert sim.regfile_data[3] == 0x77        # write wraps modulo num_regs
    sim.set_inputs(we_in=0, addr_in=0)
    sim.eval_comb()
    assert sim.get("rdata_out") == 0          # x0 always reads 0
    for addr in (3, 8 + 3):                   # the read wraps too
        sim.set_inputs(addr_in=addr)
        sim.eval_comb()
        assert sim.get("rdata_out") == 0x77


@pytest.mark.parametrize("backend", BACKENDS)
def test_legacy_write_to_x0_ignored(backend):
    sim = RtlSim(_regfile_module(), backend=backend)
    sim.set_inputs(addr_in=0, wdata_in=0xFF, we_in=1)
    sim.eval_comb()
    sim.tick()
    assert sim.regfile_data[0] == 0
    sim.set_inputs(addr_in=0, we_in=0)
    sim.eval_comb()
    assert sim.get("rdata_out") == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_reset_restores_registers_and_clears_regfile(backend):
    core = build_rissp([d.mnemonic for d in INSTRUCTIONS], reset_pc=0x40)
    sim = RtlSim(core, backend=backend)
    assert sim.get("pc") == 0x40              # reset value applied at init
    # Run a couple of real instructions: addi x5, x0, 9 then addi x6, x5, 1.
    for word in (0x00900293, 0x00128313):
        sim.set_inputs(imem_rdata=word, dmem_rdata=0)
        sim.eval_comb()
        sim.tick()
    assert sim.get("pc") == 0x48
    assert sim.regfile_data[5] == 9 and sim.regfile_data[6] == 10
    sim.reset()
    assert sim.get("pc") == 0x40              # reset value, not 0
    assert sim.regfile_data == [0] * len(sim.regfile_data)
    for port in core.inputs():
        assert sim.env[port.name] == 0        # inputs cleared
    # The partial run must not leak into a fresh run after reset().
    sim.set_inputs(imem_rdata=0x00900293, dmem_rdata=0)
    sim.eval_comb()
    sim.tick()
    assert sim.get("pc") == 0x44 and sim.regfile_data[5] == 9


@pytest.mark.parametrize("backend", BACKENDS)
def test_reset_reproduces_identical_run(backend):
    """A program rerun after reset() must retire identically (same exit
    code), proving no hidden state survives reset."""
    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    prog = assemble(""".text
main:
    li a0, 3
    addi a0, a0, 4
    ret
""")
    first = RisspSim(core, prog, backend=backend).run(1_000)
    sim = RisspSim(core, prog, backend=backend)
    sim.rtl.reset()
    # RisspSim seeds pc and the ABI registers at construction; reapply
    # after the reset exactly as the constructor does.
    from repro.sim.golden import abi_initial_regs
    sim.rtl.env["pc"] = prog.entry
    for index, value in abi_initial_regs(sim.memory.size).items():
        sim.rtl.regfile_data[index] = value
    second = sim.run(1_000)
    assert (first.exit_code, first.halted_by, first.instructions) == \
        (second.exit_code, second.halted_by, second.instructions)


# ------------------------------------------------ fused state coherency

_COUNTED = """.text
main:
    li a0, 0
    li a1, 200
loop:
    addi a0, a0, 1
    bne a0, a1, loop
    ret
"""


def _paused_run(backend, poke):
    """Run 20 instructions, apply ``poke(sim)``, run to halt; the final
    architectural outcome must not depend on the backend."""
    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    sim = RisspSim(core, assemble(_COUNTED), backend=backend)
    first = sim.run(20)
    assert first.halted_by == "limit" and first.instructions == 20
    poke(sim)
    return sim.run(5_000)


@pytest.mark.parametrize("backend", BACKENDS)
def test_poke_regfile_between_runs_matches_oracle(backend):
    """Fault injection into the register file while paused: the fused
    loop must pick the poked value up from the shared array exactly like
    the interpreter (its state is refreshed on entry)."""
    def poke(sim):
        sim.rtl.regfile_data[10] = 190          # a0: skip most iterations

    result = _paused_run(backend, poke)
    reference = _paused_run("interpreter", poke)
    assert (result.exit_code, result.instructions, result.halted_by) == \
        (reference.exit_code, reference.instructions, reference.halted_by)
    assert result.instructions < 100            # the poke really applied


@pytest.mark.parametrize("backend", BACKENDS)
def test_poke_pc_between_runs_matches_oracle(backend):
    """Poking env['pc'] while paused redirects the next fused chunk —
    registers are reloaded from env on every run_cycles entry."""
    def poke(sim):
        sim.rtl.env["pc"] = 0x10                # the ret site

    result = _paused_run(backend, poke)
    reference = _paused_run("interpreter", poke)
    assert (result.exit_code, result.instructions, result.halted_by) == \
        (reference.exit_code, reference.instructions, reference.halted_by)


@pytest.mark.parametrize("backend", BACKENDS)
def test_reset_mid_run_matches_oracle(backend):
    """RtlSim.reset() between two run() calls: the second run must replay
    the program from scratch on every backend (fused included — the loop
    must not resurrect pre-reset register locals)."""
    from repro.sim.golden import abi_initial_regs

    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    prog = assemble(_COUNTED)

    def run_with_reset(backend):
        sim = RisspSim(core, prog, backend=backend)
        sim.run(17)                              # stop mid-loop
        sim.rtl.reset()
        sim.rtl.env["pc"] = prog.entry
        for index, value in abi_initial_regs(sim.memory.size).items():
            sim.rtl.regfile_data[index] = value
        return sim.run(5_000)

    result = run_with_reset(backend)
    reference = run_with_reset("interpreter")
    assert result.halted_by == "ecall"
    assert (result.exit_code, result.instructions, result.halted_by) == \
        (reference.exit_code, reference.instructions, reference.halted_by)


@pytest.mark.parametrize("backend", BACKENDS)
def test_env_coherent_after_partial_run(backend):
    """After any run() the register state visible through get()/env must
    agree across backends — the fused loop's exit flush at work — and a
    manual set_inputs/eval_comb probe on the paused simulator must
    produce identical combinational signals.  The probe settles them
    itself: no backend settles combinational signals after a run."""
    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    sims = {b: RisspSim(core, assemble(_COUNTED), backend=b)
            for b in BACKENDS}
    for sim in sims.values():
        sim.run(25)
    pcs = {b: sim.rtl.get("pc") for b, sim in sims.items()}
    assert len(set(pcs.values())) == 1, pcs
    regs = {b: list(sim.rtl.regfile_data) for b, sim in sims.items()}
    assert regs["fused"] == regs["interpreter"]
    # Drive one cycle by hand through the per-cycle API on both.
    word = sims["fused"].memory.fetch(pcs["fused"])
    probes = {}
    for backend, sim in sims.items():
        sim.rtl.set_inputs(imem_rdata=word, dmem_rdata=0)
        sim.rtl.eval_comb()
        probes[backend] = {name: sim.rtl.get(name)
                           for name in ("next_pc", "halt", "illegal",
                                        "rf_we", "rf_waddr", "rf_wdata",
                                        "dmem_re", "dmem_wstrb")}
    assert probes["fused"] == probes["interpreter"]
