"""RTL IR, evaluator and SystemVerilog emitter tests."""

import pytest
from hypothesis import given, strategies as st

from repro.rtl import (
    IrError, Module, RtlSim, cat, const, emit_module, eval_expr, mux,
)

u32 = st.integers(0, 0xFFFFFFFF)


def alu_module():
    m = Module("alu")
    a = m.input("a", 32)
    b = m.input("b", 32)
    m.assign(m.output("sum", 32), a + b)
    m.assign(m.output("lt", 1), a.slt(b))
    m.assign(m.output("sh", 32), a.shl(b.slice(4, 0)))
    m.assign(m.output("pick", 32), mux(a.eq(b), a, a ^ b))
    return m


@given(a=u32, b=u32)
def test_eval_matches_python(a, b):
    sim = RtlSim(alu_module())
    sim.set_inputs(a=a, b=b)
    sim.eval_comb()
    assert sim.get("sum") == (a + b) & 0xFFFFFFFF
    sa = a - (1 << 32) if a >> 31 else a
    sb = b - (1 << 32) if b >> 31 else b
    assert sim.get("lt") == (1 if sa < sb else 0)
    assert sim.get("sh") == (a << (b & 31)) & 0xFFFFFFFF
    assert sim.get("pick") == (a if a == b else a ^ b)


def test_width_checks():
    m = Module("w")
    a = m.input("a", 8)
    b = m.input("b", 16)
    with pytest.raises(IrError):
        _ = a + b


def test_double_drive_rejected():
    m = Module("d")
    a = m.input("a", 1)
    out = m.output("o", 1)
    m.assign(out, a)
    with pytest.raises(IrError):
        m.assign(out, a)


def test_comb_loop_detected():
    m = Module("l")
    m.input("a", 1)
    x = m.wire("x", 1)
    y = m.wire("y", 1)
    m.assign(x, m.sig("y"))
    m.assign(y, m.sig("x"))
    m.assign(m.output("o", 1), m.sig("x"))
    with pytest.raises(IrError, match="loop in l: x -> y -> x"):
        m.check()
    assert not m.frozen


def test_register_tick():
    m = Module("r")
    inc = m.register("count", 8)
    m.connect_register("count", inc + const(1, 8))
    m.assign(m.output("q", 8), inc)
    sim = RtlSim(m)
    for expected in range(5):
        sim.eval_comb()
        assert sim.get("q") == expected
        sim.tick()


def test_cat_slice_ext():
    m = Module("c")
    a = m.input("a", 8)
    m.assign(m.output("o", 16), cat(a, a))
    m.assign(m.output("hi", 4), a.slice(7, 4))
    m.assign(m.output("sx", 16), a.sext(16))
    sim = RtlSim(m)
    sim.set_inputs(a=0x9C)
    sim.eval_comb()
    assert sim.get("o") == 0x9C9C
    assert sim.get("hi") == 0x9
    assert sim.get("sx") == 0xFF9C


def test_verilog_emission_golden():
    text = emit_module(alu_module())
    assert "module alu (" in text
    assert "assign sum = (a + b);" in text
    assert "$signed" in text
    assert text.strip().endswith("endmodule")


def test_verilog_for_registered_module():
    m = Module("seq")
    q = m.register("q", 4, reset_value=3)
    m.connect_register("q", q + const(1, 4))
    m.assign(m.output("o", 4), q)
    text = emit_module(m)
    assert "always_ff @(posedge clk)" in text
    assert "4'h3" in text
