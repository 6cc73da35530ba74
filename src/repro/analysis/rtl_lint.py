"""RTL structural lint over :mod:`repro.rtl.ir` modules.

Rule taxonomy (all findings carry ``location = "module:signal"``):

=======  ==================================================================
RTL001   combinational loop — the finding reports the full cycle path
         ``a -> b -> ... -> a`` (from ``topo_order``'s ``CombLoopError``)
RTL002   multiply-driven signal (comb assign vs register vs regfile
         storage vs input port)
RTL003   silent width truncation: a non-constant shift amount wider than
         needed to index the shifted operand — amounts >= the operand
         width quietly truncate the result to zero
RTL004   dead signal: a wire or register no consumer ever reads
         (self-references through a register's own next/enable hold path
         do not count as consumption)
RTL005   unreachable logic: a ``Mux`` arm behind a constant select, or an
         AND with a constant-zero operand (the term is always zero)
RTL006   unconnected input port: declared but never read by any logic
RTL007   undriven wire or output port
=======  ==================================================================

:func:`structural_facts` derives the cycle/driver/undriven facts exactly
once per checked module: on a frozen module it reuses the order
``Module.check`` proved and is memoized, so ``build_rissp``'s build-time
gate and any later lint share one derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..rtl.ir import (Binary, CombLoopError, Const, Expr, Module, Mux, Op,
                      SHIFT_OPS, expr_signals, topo_order)
from .findings import Finding

#: Driver kinds, in reporting order.
_DRIVER_KINDS = ("assign", "register", "regfile-storage", "input")


@dataclass(frozen=True)
class StructuralFacts:
    """Single-derivation structural facts about one module.

    ``order`` is the combinational topological order (empty when ``cycle``
    is non-empty); ``drivers`` maps every driven signal to its driver
    kinds; ``conflicts``/``undriven`` are the error-class facts that both
    the build-time gate and :func:`lint_module` report from.  Frozen: a
    checked module shares one instance with every caller.
    """

    module: str
    order: tuple[str, ...]
    cycle: tuple[str, ...]
    drivers: dict[str, tuple[str, ...]]
    conflicts: tuple[tuple[str, tuple[str, ...]], ...]
    undriven: tuple[str, ...]

    def error_findings(self) -> list[Finding]:
        """The error-class findings (RTL001/RTL002/RTL007) — the subset a
        structurally bad core fails the build with."""
        out: list[Finding] = []
        if self.cycle:
            out.append(Finding(
                "rtl", "RTL001", f"{self.module}:{self.cycle[0]}",
                "combinational loop: " + " -> ".join(self.cycle)))
        for name, kinds in self.conflicts:
            out.append(Finding(
                "rtl", "RTL002", f"{self.module}:{name}",
                "signal driven by " + " and ".join(kinds)))
        for name in self.undriven:
            out.append(Finding(
                "rtl", "RTL007", f"{self.module}:{name}",
                "wire or output port has no driver"))
        return out


def structural_facts(module: Module) -> StructuralFacts:
    """Derive drivers, conflicts, undriven signals and the combinational
    order (or the cycle path) in one deterministic pass — memoized on a
    checked module, whose proven order it reuses instead of walking."""
    return module.memo("structural_facts", lambda: _derive_facts(module))


def _derive_facts(module: Module) -> StructuralFacts:
    drivers: dict[str, list[str]] = {}

    def drive(name: str, kind: str) -> None:
        drivers.setdefault(name, []).append(kind)

    for name in module.assigns:
        drive(name, "assign")
    for name in module.registers:
        drive(name, "register")
    storage = module.regfile.storage_signals \
        if module.regfile is not None else ()
    for name in storage:
        drive(name, "regfile-storage")
    for port in module.inputs():
        drive(port.name, "input")

    conflicts = tuple(
        (name, tuple(sorted(kinds, key=_DRIVER_KINDS.index)))
        for name, kinds in sorted(drivers.items()) if len(kinds) > 1)

    undriven = tuple(
        [port.name for port in module.outputs()
         if port.name not in module.assigns] +
        [wire for wire in module.wires
         if wire not in module.assigns and wire not in storage])

    order: tuple[str, ...] = ()
    cycle: tuple[str, ...] = ()
    if module.frozen:
        order = module.order
    else:
        try:
            order = tuple(topo_order(module))
        except CombLoopError as loop:
            cycle = loop.cycle
    return StructuralFacts(
        module=module.name,
        order=order,
        cycle=cycle,
        drivers={name: tuple(kinds) for name, kinds in drivers.items()},
        conflicts=conflicts,
        undriven=undriven,
    )


# ------------------------------------------------------------ expression walk


def _iter_nodes(expr: Expr) -> Iterator[Expr]:
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Binary):
            stack.extend((node.a, node.b))
        elif isinstance(node, Mux):
            stack.extend((node.sel, node.a, node.b))
        elif hasattr(node, "parts"):
            stack.extend(node.parts)  # Cat
        elif hasattr(node, "a"):
            stack.append(node.a)  # Not / Slice / Ext
        # Const / Sig are leaves


def _owned_exprs(module: Module) -> Iterator[tuple[str, Expr]]:
    """Every expression in the module, tagged with its owning signal."""
    for name in sorted(module.assigns):
        yield name, module.assigns[name]
    for name in sorted(module.registers):
        reg = module.registers[name]
        if reg.next is not None:
            yield name, reg.next
        if reg.enable is not None:
            yield name, reg.enable


def _shift_amount_bits(operand_width: int) -> int:
    """Bits needed to express every useful shift amount (0..width-1)."""
    return max(1, (operand_width - 1).bit_length())


def lint_module(module: Module) -> list[Finding]:
    """All RTL findings for one module (error class + style class)."""
    findings = structural_facts(module).error_findings()
    loc = f"{module.name}:"

    # ---- consumption map (RTL004 dead signals / RTL006 unused inputs).
    # A signal is consumed when some *other* signal's logic reads it, or
    # the regfile primitive or an output port depends on it; a register
    # referenced only by its own next/enable hold path is still dead.
    consumed: set[str] = set()
    for owner, expr in _owned_exprs(module):
        consumed.update(name for name in expr_signals(expr) if name != owner)
    if module.regfile is not None:
        for addr, _ in module.regfile.read_ports:
            consumed.add(addr)
        if module.regfile.write_port is not None:
            consumed.update(module.regfile.write_port)

    for name in sorted(module.wires):
        if name not in consumed:
            findings.append(Finding(
                "rtl", "RTL004", loc + name,
                "dead wire: no signal, register or regfile port reads it"))
    for name in sorted(module.registers):
        if name not in consumed:
            findings.append(Finding(
                "rtl", "RTL004", loc + name,
                "dead register: written every cycle but never read "
                "outside its own hold path"))
    for port in module.inputs():
        if port.name not in consumed:
            findings.append(Finding(
                "rtl", "RTL006", loc + port.name,
                "input port declared but never read"))

    # ---- expression-level rules (RTL003 / RTL005).
    for owner, root in _owned_exprs(module):
        for node in _iter_nodes(root):
            if isinstance(node, Binary) and node.op in SHIFT_OPS \
                    and not isinstance(node.b, Const):
                needed = _shift_amount_bits(node.a.width)
                if node.b.width > needed:
                    findings.append(Finding(
                        "rtl", "RTL003", loc + owner,
                        f"{node.op.value} amount is {node.b.width} bits "
                        f"but {needed} suffice for a {node.a.width}-bit "
                        f"operand; amounts >= {node.a.width} silently "
                        f"truncate the result to zero"))
            elif isinstance(node, Mux) and isinstance(node.sel, Const):
                dead_arm = "false (b)" if node.sel.value else "true (a)"
                findings.append(Finding(
                    "rtl", "RTL005", loc + owner,
                    f"mux select is constant {node.sel.value}; the "
                    f"{dead_arm} arm is unreachable"))
            elif isinstance(node, Binary) and node.op is Op.AND and (
                    (isinstance(node.a, Const) and node.a.value == 0) or
                    (isinstance(node.b, Const) and node.b.value == 0)):
                findings.append(Finding(
                    "rtl", "RTL005", loc + owner,
                    "AND with a constant-zero operand: the term is "
                    "always zero"))
    return sorted(set(findings))
