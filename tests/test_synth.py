"""Synthesis flow tests: lowering equivalence, optimization, timing, power."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtl import Module, RtlSim, build_rissp, const, mux
from repro.synth import (
    FLEXIC_GEN3, GateType, NetSim, analyze_timing, eval_words,
    lower_module, mapped_stats, synthesize, synthesize_serv,
)

u32 = st.integers(0, 0xFFFFFFFF)


def datapath_module():
    m = Module("dp")
    a = m.input("a", 32)
    b = m.input("b", 32)
    m.assign(m.output("add", 32), a + b)
    m.assign(m.output("sub", 32), a - b)
    m.assign(m.output("ult", 1), a.ult(b))
    m.assign(m.output("slt", 1), a.slt(b))
    m.assign(m.output("eq", 1), a.eq(b))
    m.assign(m.output("shl", 32), a.shl(b.slice(4, 0)))
    m.assign(m.output("shr", 32), a.lshr(b.slice(4, 0)))
    m.assign(m.output("sar", 32), a.ashr(b.slice(4, 0)))
    m.assign(m.output("mx", 32), mux(a.bit(0), a & b, a | b))
    return m


@settings(max_examples=40, deadline=None)
@given(a=u32, b=u32)
def test_gate_lowering_equivalence(a, b):
    """The lowered netlist computes exactly what the RTL eval computes."""
    m = datapath_module()
    netlist = lower_module(m)
    rtl = RtlSim(m)
    rtl.set_inputs(a=a, b=b)
    rtl.eval_comb()
    words = eval_words(netlist, {"a": a, "b": b},
                       {"a": 32, "b": 32})
    for out in ("add", "sub", "ult", "slt", "eq", "shl", "shr", "sar",
                "mx"):
        assert words.get(out, 0) == rtl.get(out), out


def test_structural_hashing_shares_logic():
    m = Module("s")
    a = m.input("a", 32)
    b = m.input("b", 32)
    m.assign(m.output("x", 32), a + b)
    m.assign(m.output("y", 32), a + b)   # identical expression
    single = Module("t")
    a2 = single.input("a", 32)
    b2 = single.input("b", 32)
    single.assign(single.output("x", 32), a2 + b2)
    both = lower_module(m).counts()
    one = lower_module(single).counts()
    assert both == one   # second adder strash-merged away


def test_constant_folding_removes_logic():
    m = Module("c")
    a = m.input("a", 32)
    m.assign(m.output("o", 32), (a & const(0, 32)) | (a ^ a))
    net = lower_module(m)
    assert sum(net.counts().values()) == 0   # folds to constant 0


def test_dead_sweep():
    m = Module("d")
    a = m.input("a", 32)
    m.assign(m.wire("unused", 32), a + const(12345, 32))
    m.assign(m.output("o", 32), a)
    net = lower_module(m)
    assert sum(net.counts().values()) == 0


def test_timing_monotone_with_depth():
    shallow = Module("sh")
    a = shallow.input("a", 32)
    shallow.assign(shallow.output("o", 32), a + const(1, 32))
    deep = Module("dp")
    b = deep.input("a", 32)
    x = b
    for _ in range(4):
        x = x + const(1, 32)
    deep.assign(deep.output("o", 32), x)
    t1 = analyze_timing(lower_module(shallow), FLEXIC_GEN3)
    t2 = analyze_timing(lower_module(deep), FLEXIC_GEN3)
    assert t2.critical_path_units > t1.critical_path_units


def test_calibration_anchors():
    """The techlib reproduces the paper's RISSP-RV32E / Serv anchors."""
    from repro.isa import INSTRUCTIONS
    rv = synthesize(build_rissp([d.mnemonic for d in INSTRUCTIONS],
                                name="rissp_rv32e"), seed="rv32e")
    assert rv.fmax_khz == 1700
    assert 3000 < rv.area_ge < 3400
    assert 0.05 < rv.ff_area_fraction < 0.07
    assert 0.8 < rv.power_at_fmax.total_mw < 1.0
    serv = synthesize_serv()
    assert serv.fmax_khz == 2050
    assert 0.55 < serv.ff_area_fraction < 0.65
    ratio = serv.power_at_fmax.total_mw / rv.power_at_fmax.total_mw
    assert 1.3 < ratio < 1.55


def test_subset_smaller_than_full():
    from repro.isa import INSTRUCTIONS
    full = synthesize(build_rissp([d.mnemonic for d in INSTRUCTIONS]),
                      seed="full")
    small = synthesize(build_rissp(["addi", "lw", "sw", "jal", "beq",
                                    "ecall"]), seed="small")
    assert small.area_ge < full.area_ge
    assert small.avg_power_mw < full.avg_power_mw


def test_mapped_stats_compress_and_or():
    m = Module("ao")
    s0 = m.input("s0", 1)
    s1 = m.input("s1", 1)
    a = m.input("a", 1)
    b = m.input("b", 1)
    m.assign(m.output("o", 1), (a & s0) | (b & s1))
    stats = mapped_stats(lower_module(m), FLEXIC_GEN3)
    assert stats.cell_counts.get("AO22") == 1


def test_netsim_dff_state():
    from repro.synth import Netlist
    net = Netlist()
    d = net.add_input("d")
    ff = net.add_dff("q", init=1)
    net.connect_dff(ff, d)
    net.set_output("q", ff)
    sim = NetSim(net)
    out = sim.eval_comb({"d": 0})
    assert out["q"] == 1     # init value
    sim.tick()
    out = sim.eval_comb({"d": 0})
    assert out["q"] == 0


def _assert_creation_order_is_topological(netlist):
    ids = list(netlist.gates)
    assert ids == sorted(ids)
    for node, gate in netlist.gates.items():
        if gate.kind is not GateType.DFF:
            assert all(dep < node for dep in gate.inputs), (node, gate)


def test_creation_order_is_topological():
    """Timing, mapping and NetSim walk ``Netlist.gates`` in dict order.
    That is sound because ids ascend in that order and every
    combinational gate reads only smaller ids; a DFF, a source in every
    walk, is the one gate whose ``d`` input may come later."""
    from repro.isa import INSTRUCTIONS
    from repro.rtl import build_block
    from repro.rtl.library import default_library

    core = lower_module(build_rissp([d.mnemonic for d in INSTRUCTIONS]))
    _assert_creation_order_is_topological(core)
    # The pc flops are created before their next-state cone.
    assert any(gate.inputs[0] > node for node, gate in core.gates.items()
               if gate.kind is GateType.DFF)
    for mnemonic in default_library().mnemonics:
        _assert_creation_order_is_topological(
            lower_module(build_block(mnemonic)))


def test_sweep_dead_keeps_late_flop_cone_and_drops_unreached_flop():
    """A DFF created before its ``d`` cone, as every lowered register
    is: the sweep's one worklist from the outputs keeps the cone of a
    flop an output reads, and a flop no output reaches goes together
    with its cone."""
    from repro.synth import Netlist, sweep_dead
    net = Netlist()
    a = net.add_input("a")
    b = net.add_input("b")
    live_ff = net.add_dff("live", init=1)
    dead_ff = net.add_dff("dead")
    and_ab = net.g_and(a, b)
    live_d = net.g_xor(and_ab, live_ff)
    not_a = net.g_not(a)
    dead_d = net.g_or(not_a, dead_ff)
    net.connect_dff(live_ff, live_d)
    net.connect_dff(dead_ff, dead_d)
    net.set_output("q", live_ff)
    sweep_dead(net)
    assert list(net.gates) == [net.zero, net.one, a, b, live_ff, and_ab,
                               live_d]
    assert net.dff_init == {live_ff: 1}
    sim = NetSim(net)
    assert sim.eval_comb({"a": 1, "b": 1})["q"] == 1   # init value
    sim.tick()
    assert sim.eval_comb({"a": 1, "b": 1})["q"] == 0   # (1 & 1) ^ 1
