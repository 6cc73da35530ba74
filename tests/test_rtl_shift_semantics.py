"""Shift and signed-comparison edge semantics, pinned on both backends.

The IR's contract (matching how :mod:`repro.rtl.verilog` renders these
operators and how :mod:`repro.synth.lower` bit-blasts them):

* ``SHL``/``LSHR`` by an amount >= the value width produce 0,
* ``ASHR`` saturates the amount at ``width - 1`` so the sign bit fills,
* shift amounts have their own width (may exceed the value width's range),
* ``SLT``/``SGE`` compare two's-complement values at the declared width.

Every case runs on both backends: the interpreter (``eval_expr``) and
the fused backend, whose :class:`RtlSim` evaluates through the compiled
per-cycle pair (:func:`repro.rtl.compiled.compile_module`); a divergence
here means ``eval_expr``'s edge handling is wrong and must be fixed there
— never replicated into the compiled code.
"""

import pytest

from repro.rtl.ir import Binary, Const, Module, Op
from repro.rtl.sim import BACKENDS, RtlSim, eval_expr


def _shift_module(width, amount_width):
    module = Module(f"sh{width}_{amount_width}")
    a = module.input("a", width)
    b = module.input("b", amount_width)
    module.assign(module.output("shl", width), a.shl(b))
    module.assign(module.output("lshr", width), a.lshr(b))
    module.assign(module.output("ashr", width), a.ashr(b))
    return module


def _ref_shifts(a, b, width):
    """Reference semantics, written independently of eval_expr."""
    mask = (1 << width) - 1
    a &= mask
    shl = (a << b) & mask if b < width else 0
    lshr = (a >> b) if b < width else 0
    signed = a - (1 << width) if a >> (width - 1) else a
    ashr = (signed >> min(b, width - 1)) & mask
    return shl, lshr, ashr


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("width,amount_width", [(1, 1), (1, 8), (8, 3),
                                                (8, 8), (32, 5), (32, 8),
                                                (33, 8), (64, 7), (64, 8)])
def test_shift_edges(backend, width, amount_width):
    module = _shift_module(width, amount_width)
    sim = RtlSim(module, backend=backend)
    patterns = [0, 1, (1 << width) - 1, 1 << (width - 1),
                0x5A5A5A5A5A5A5A5A & ((1 << width) - 1)]
    amount_mask = (1 << amount_width) - 1
    amounts = sorted({0, 1, width - 1, width, width + 1, amount_mask} &
                     set(range(amount_mask + 1)))
    for a in patterns:
        for b in amounts:
            sim.set_inputs(a=a, b=b)
            sim.eval_comb()
            shl, lshr, ashr = _ref_shifts(a, b, width)
            context = f"{backend} w={width} a={a:#x} b={b}"
            assert sim.get("shl") == shl, f"{context} shl"
            assert sim.get("lshr") == lshr, f"{context} lshr"
            assert sim.get("ashr") == ashr, f"{context} ashr"


@pytest.mark.parametrize("backend", BACKENDS)
def test_constant_amount_shifts_fold_identically(backend):
    """Codegen folds constant shift amounts; semantics must not change."""
    width = 16
    module = Module("constsh")
    a = module.input("a", width)
    for index, amount in enumerate((0, 1, width - 1, width, width + 7)):
        b = Const(amount, 8)
        module.assign(module.output(f"shl{index}", width), a.shl(b))
        module.assign(module.output(f"lshr{index}", width), a.lshr(b))
        module.assign(module.output(f"ashr{index}", width), a.ashr(b))
    sim = RtlSim(module, backend=backend)
    for value in (0, 1, 0x8000, 0xFFFF, 0x1234):
        sim.set_inputs(a=value)
        sim.eval_comb()
        for index, amount in enumerate((0, 1, width - 1, width, width + 7)):
            shl, lshr, ashr = _ref_shifts(value, amount, width)
            assert sim.get(f"shl{index}") == shl
            assert sim.get(f"lshr{index}") == lshr
            assert sim.get(f"ashr{index}") == ashr


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("width", [1, 8, 32])
def test_signed_compare_sign_boundary(backend, width):
    module = Module(f"cmp{width}")
    a = module.input("a", width)
    b = module.input("b", width)
    module.assign(module.output("slt", 1), a.slt(b))
    module.assign(module.output("sge", 1), a.sge(b))
    module.assign(module.output("ult", 1), a.ult(b))
    sim = RtlSim(module, backend=backend)
    top = (1 << width) - 1
    most_negative = 1 << (width - 1)          # e.g. 0x80000000
    most_positive = most_negative - 1         # e.g. 0x7FFFFFFF
    boundary = {0, 1, top, most_negative, most_positive,
                (most_negative + 1) & top, (most_positive - 1) & top}

    def signed(value):
        return value - (1 << width) if value >> (width - 1) else value

    for va in boundary:
        for vb in boundary:
            sim.set_inputs(a=va, b=vb)
            sim.eval_comb()
            context = f"{backend} w={width} a={va:#x} b={vb:#x}"
            assert sim.get("slt") == int(signed(va) < signed(vb)), context
            assert sim.get("sge") == int(signed(va) >= signed(vb)), context
            assert sim.get("ult") == int(va < vb), context


def test_eval_expr_shift_semantics_direct():
    """Pin the oracle itself, independent of any Module plumbing."""
    a = Const(0b1011, 4)
    for amount, want_shl, want_lshr, want_ashr in (
            (0, 0b1011, 0b1011, 0b1011),
            (1, 0b0110, 0b0101, 0b1101),
            (3, 0b1000, 0b0001, 0b1111),
            (4, 0, 0, 0b1111),      # >= width: shl/lshr flush, ashr fills
            (15, 0, 0, 0b1111)):
        b = Const(amount, 4)
        assert eval_expr(Binary(Op.SHL, a, b), {}) == want_shl, amount
        assert eval_expr(Binary(Op.LSHR, a, b), {}) == want_lshr, amount
        assert eval_expr(Binary(Op.ASHR, a, b), {}) == want_ashr, amount
