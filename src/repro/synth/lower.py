"""Bit-blasting: word-level RTL IR -> gate-level netlist.

This is the technology-independent "elaboration + mapping" front half of the
synthesis flow.  Word operators lower to the classic structures a synthesis
tool infers (ripple-carry adders, barrel shifters, one-hot AND-OR muxes),
after which the netlist-level constant propagation / structural hashing /
dead sweep perform the paper's "redundancy removal".  :func:`lower_module`
returns the swept netlist; a word signal ``name`` becomes the pins
``name[0]``, ``name[1]``, ...

The register file primitive is **not** lowered — its interface signals
become primary outputs/inputs, matching the paper's setup where "each RISSP
is synthesized without the RF".
"""

from __future__ import annotations

from ..rtl.ir import (
    Binary,
    Cat,
    Const,
    Expr,
    Ext,
    Module,
    Mux,
    Not,
    Op,
    Sig,
    Slice,
)
from .netlist import Netlist, sweep_dead

Bits = list  # list[int] of netlist node ids, LSB first


class _Lowerer:
    def __init__(self, module: Module):
        self.module = module
        self.net = Netlist()
        self.values: dict[str, Bits] = {}
        self.memo: dict[Expr, Bits] = {}

    # ------------------------------------------------------------ primitives

    def _const_bits(self, value: int, width: int) -> Bits:
        return [self.net.one if (value >> i) & 1 else self.net.zero
                for i in range(width)]

    def _adder(self, a: Bits, b: Bits, cin: int) -> tuple[Bits, int]:
        """Ripple-carry add; returns (sum bits, carry out)."""
        net = self.net
        carry = cin
        out: Bits = []
        for abit, bbit in zip(a, b):
            axb = net.g_xor(abit, bbit)
            out.append(net.g_xor(axb, carry))
            carry = net.g_or(net.g_and(abit, bbit), net.g_and(axb, carry))
        return out, carry

    def _sub(self, a: Bits, b: Bits) -> tuple[Bits, int]:
        nb = list(map(self.net.g_not, b))
        return self._adder(a, nb, self.net.one)

    def _or_tree(self, bits: Bits) -> int:
        if not bits:
            return self.net.zero
        layer = list(bits)
        while len(layer) > 1:
            nxt = [self.net.g_or(layer[i], layer[i + 1])
                   for i in range(0, len(layer) - 1, 2)]
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    def _barrel(self, a: Bits, amount: Bits, right: bool, fill: int) -> Bits:
        """Logarithmic barrel shifter with ``fill`` shifted in."""
        net = self.net
        width = len(a)
        current = list(a)
        for stage, sel in enumerate(amount):
            shift = 1 << stage
            if shift >= width:
                # any set high bit clears the result (or saturates to fill)
                current = [net.g_mux(sel, fill, bit) for bit in current]
                continue
            shifted: Bits = []
            for index in range(width):
                src = index + shift if right else index - shift
                shifted.append(current[src] if 0 <= src < width else fill)
            current = [net.g_mux(sel, s, c)
                       for s, c in zip(shifted, current)]
        return current

    # --------------------------------------------------------------- exprs

    def lower_expr(self, expr: Expr) -> Bits:
        cached = self.memo.get(expr)
        if cached is not None:
            return cached
        bits = self._lower_expr(expr)
        assert len(bits) == expr.width, f"width bug lowering {expr}"
        self.memo[expr] = bits
        return bits

    def _lower_expr(self, expr: Expr) -> Bits:
        net = self.net
        if isinstance(expr, Const):
            return self._const_bits(expr.value, expr.width)
        if isinstance(expr, Sig):
            return list(self.values[expr.name])
        if isinstance(expr, Not):
            return list(map(net.g_not, self.lower_expr(expr.a)))
        if isinstance(expr, Mux):
            sel = self.lower_expr(expr.sel)[0]
            a = self.lower_expr(expr.a)
            b = self.lower_expr(expr.b)
            return [net.g_mux(sel, x, y) for x, y in zip(a, b)]
        if isinstance(expr, Cat):
            out: Bits = []
            for part in reversed(expr.parts):   # LSB-first assembly
                out.extend(self.lower_expr(part))
            return out
        if isinstance(expr, Slice):
            return self.lower_expr(expr.a)[expr.lo:expr.hi + 1]
        if isinstance(expr, Ext):
            inner = self.lower_expr(expr.a)
            pad = expr.out_width - len(inner)
            fill = inner[-1] if expr.signed else net.zero
            return inner + [fill] * pad
        if isinstance(expr, Binary):
            return self._lower_binary(expr)
        raise TypeError(f"cannot lower {type(expr).__name__}")

    def _lower_binary(self, expr: Binary) -> Bits:
        net = self.net
        op = expr.op
        a = self.lower_expr(expr.a)
        if op in (Op.SHL, Op.LSHR, Op.ASHR):
            amount = self.lower_expr(expr.b)
            if op is Op.SHL:
                return self._barrel(a, amount, right=False, fill=net.zero)
            if op is Op.LSHR:
                return self._barrel(a, amount, right=True, fill=net.zero)
            return self._barrel(a, amount, right=True, fill=a[-1])
        b = self.lower_expr(expr.b)
        if op is Op.AND:
            return list(map(net.g_and, a, b))
        if op is Op.OR:
            return list(map(net.g_or, a, b))
        if op is Op.XOR:
            return list(map(net.g_xor, a, b))
        if op is Op.ADD:
            return self._adder(a, b, net.zero)[0]
        if op is Op.SUB:
            return self._sub(a, b)[0]
        if op is Op.EQ:
            diff = list(map(net.g_xor, a, b))
            return [net.g_not(self._or_tree(diff))]
        if op is Op.NE:
            diff = list(map(net.g_xor, a, b))
            return [self._or_tree(diff)]
        if op is Op.ULT:
            _, cout = self._sub(a, b)
            return [net.g_not(cout)]
        if op is Op.UGE:
            _, cout = self._sub(a, b)
            return [cout]
        if op in (Op.SLT, Op.SGE):
            diff, _ = self._sub(a, b)
            sign_differs = net.g_xor(a[-1], b[-1])
            lt = net.g_mux(sign_differs, a[-1], diff[-1])
            return [lt if op is Op.SLT else net.g_not(lt)]
        raise TypeError(f"cannot lower op {op}")

    # --------------------------------------------------------------- module

    def run(self) -> Netlist:
        module = self.module
        regfile_data: tuple[str, ...] = ()
        regfile_interface = set()
        if module.regfile is not None:
            spec = module.regfile
            # Storage wires become primary inputs (the array itself stays
            # out of synthesis), numbered in the spec's order; the read
            # muxes over them are core logic.
            regfile_data = spec.storage_signals
            regfile_interface.update(addr for addr, _ in spec.read_ports)
            if spec.write_port is not None:
                regfile_interface.update(spec.write_port)

        for port in module.inputs():
            bits = [self.net.add_input(f"{port.name}[{i}]")
                    for i in range(port.width)]
            self.values[port.name] = bits
        for name in regfile_data:
            width = module.signal_width(name)
            bits = [self.net.add_input(f"{name}[{i}]") for i in range(width)]
            self.values[name] = bits
        for reg in module.registers.values():
            bits = [self.net.add_dff(f"{reg.name}[{i}]",
                                     (reg.reset_value >> i) & 1)
                    for i in range(reg.width)]
            self.values[reg.name] = bits

        for name in module.order:
            self.values[name] = self.lower_expr(module.assigns[name])

        for reg in module.registers.values():
            if reg.next is None:
                continue
            next_bits = self.lower_expr(reg.next)
            if reg.enable is not None:
                en = self.lower_expr(reg.enable)[0]
                q = self.values[reg.name]
                next_bits = [self.net.g_mux(en, nxt, cur)
                             for nxt, cur in zip(next_bits, q)]
            for dff, d in zip(self.values[reg.name], next_bits):
                self.net.connect_dff(dff, d)

        out_names = [p.name for p in module.outputs()]
        out_names += sorted(regfile_interface)
        for name in out_names:
            bits = self.values[name]
            for index, node in enumerate(bits):
                self.net.set_output(f"{name}[{index}]", node)
        return self.net


def lower_module(module: Module) -> Netlist:
    """Lower ``module`` to gates and run dead-gate elimination."""
    module.check()
    netlist = _Lowerer(module).run()
    sweep_dead(netlist)
    return netlist
