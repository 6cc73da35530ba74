"""SystemVerilog emission for RTL IR modules.

The paper's instruction hardware blocks are SystemVerilog files
(``instrx.sv``); this emitter produces the equivalent sources for every
block, for ModularEX and for the stitched RISSP, so the generated processor
is inspectable in the same form the paper ships.
"""

from __future__ import annotations

from .ir import (
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

_OP_TOKEN = {
    Op.ADD: "+", Op.SUB: "-", Op.AND: "&", Op.OR: "|", Op.XOR: "^",
    Op.SHL: "<<", Op.LSHR: ">>", Op.EQ: "==", Op.NE: "!=", Op.ULT: "<",
    Op.UGE: ">=",
}


def _emit_expr(expr: Expr) -> str:
    if isinstance(expr, Const):
        return f"{expr.width}'h{expr.value:x}"
    if isinstance(expr, Sig):
        return expr.name
    if isinstance(expr, Not):
        return f"~({_emit_expr(expr.a)})"
    if isinstance(expr, Binary):
        a = _emit_expr(expr.a)
        b = _emit_expr(expr.b)
        if expr.op is Op.ASHR:
            return f"($signed({a}) >>> {b})"
        if expr.op is Op.SLT:
            return f"($signed({a}) < $signed({b}))"
        if expr.op is Op.SGE:
            return f"($signed({a}) >= $signed({b}))"
        return f"({a} {_OP_TOKEN[expr.op]} {b})"
    if isinstance(expr, Mux):
        return (f"({_emit_expr(expr.sel)} ? {_emit_expr(expr.a)} : "
                f"{_emit_expr(expr.b)})")
    if isinstance(expr, Cat):
        inner = ", ".join(_emit_expr(p) for p in expr.parts)
        return "{" + inner + "}"
    if isinstance(expr, Slice):
        base = _emit_expr(expr.a)
        if expr.hi == expr.lo:
            return f"{base}[{expr.lo}]"
        return f"{base}[{expr.hi}:{expr.lo}]"
    if isinstance(expr, Ext):
        pad = expr.out_width - expr.a.width
        base = _emit_expr(expr.a)
        if pad == 0:
            return base
        if expr.signed:
            top = f"{base}[{expr.a.width - 1}]"
            return "{{" + str(pad) + "{" + top + "}}, " + base + "}"
        return "{" + f"{pad}'b0, {base}" + "}"
    raise TypeError(f"cannot emit {type(expr).__name__}")


def _range(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


def emit_module(module: Module) -> str:
    """Render ``module`` as synthesizable SystemVerilog text."""
    lines: list[str] = []
    spec = module.regfile
    has_regs = bool(module.registers) or spec is not None
    port_decls = []
    if has_regs:
        port_decls.append("    input  logic clk")
        port_decls.append("    input  logic rst")
    for port in module.ports.values():
        direction = "input " if port.direction == "in" else "output"
        port_decls.append(f"    {direction} logic {_range(port.width)}"
                          f"{port.name}")
    lines.append(f"module {module.name} (")
    lines.append(",\n".join(port_decls))
    lines.append(");")
    for name, width in module.wires.items():
        lines.append(f"  logic {_range(width)}{name};")
    for reg in module.registers.values():
        lines.append(f"  logic {_range(reg.width)}{reg.name};")
    if spec is not None:
        lines.append(f"  logic {_range(spec.width)}{spec.name} "
                     f"[0:{spec.num_regs - 1}];")
    lines.append("")
    for name, expr in module.assigns.items():
        lines.append(f"  assign {name} = {_emit_expr(expr)};")
    if module.registers:
        lines.append("")
        lines.append("  always_ff @(posedge clk) begin")
        lines.append("    if (rst) begin")
        for reg in module.registers.values():
            lines.append(f"      {reg.name} <= {reg.width}'h"
                         f"{reg.reset_value:x};")
        lines.append("    end else begin")
        for reg in module.registers.values():
            if reg.next is None:
                continue
            target = f"{reg.name} <= {_emit_expr(reg.next)};"
            if reg.enable is not None:
                lines.append(f"      if ({_emit_expr(reg.enable)}) {target}")
            else:
                lines.append(f"      {target}")
        lines.append("    end")
        lines.append("  end")
    if spec is not None:
        # The array drives its storage wires; the read muxes over them are
        # ordinary assigns above.
        lines.append("")
        if spec.write_port is not None:
            we, addr, data = spec.write_port
            lines.append("  always_ff @(posedge clk) begin")
            lines.append(f"    if ({we} && ({addr} != 0)) "
                         f"{spec.name}[{addr}] <= {data};")
            lines.append("  end")
        for index, name in enumerate(spec.storage_signals, start=1):
            lines.append(f"  assign {name} = {spec.name}[{index}];")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
