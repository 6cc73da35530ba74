"""Cycle-accurate evaluation of RTL IR modules.

Two backends (:data:`BACKENDS`) share one interface and bit-identical
semantics:

* ``"fused"`` (the default), the fast path.  A RISSP-shaped core run
  through :class:`repro.rtl.core_sim.RisspSim` executes whole programs in
  the fused cycle loop (:func:`repro.rtl.compiled.compile_core`): fetch,
  combinational settle, memory traffic and register commit in one
  generated function.  A core without that harness interface is refused
  at construction.  :class:`RtlSim`'s per-cycle entry points (block
  testbenches, formal checks, probes of a paused core) evaluate through
  the ``exec``-compiled pair of :func:`repro.rtl.compiled.compile_module`.
* ``"interpreter"``: the tree-walking evaluator built on :func:`eval_expr`.
  It is the reference oracle and the only per-cycle whole-program
  harness; ``tests/test_rtl_compiled_diff.py`` and
  ``tests/test_rtl_fused_diff.py`` check the fast paths against it.

:func:`resolve_backend` reads a simulator's ``backend`` argument, else
the ``REPRO_RTL_BACKEND`` environment variable, and rejects an unknown
name at construction.
"""

from __future__ import annotations

import os

from .compiled import CompiledModule, compile_module
from .ir import (
    Binary,
    Cat,
    Const,
    Expr,
    Ext,
    IrError,
    Module,
    Mux,
    Not,
    Op,
    Sig,
    Slice,
)


def _mask(width: int) -> int:
    return (1 << width) - 1


def _signed(value: int, width: int) -> int:
    value &= _mask(width)
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def eval_expr(expr: Expr, env: dict[str, int]) -> int:
    """Evaluate ``expr`` over signal values in ``env`` (all unsigned ints)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Sig):
        try:
            return env[expr.name] & _mask(expr.width)
        except KeyError:
            raise IrError(f"signal {expr.name} has no value") from None
    if isinstance(expr, Not):
        return ~eval_expr(expr.a, env) & _mask(expr.width)
    if isinstance(expr, Binary):
        a = eval_expr(expr.a, env)
        b = eval_expr(expr.b, env)
        w = expr.a.width
        op = expr.op
        if op is Op.ADD:
            return (a + b) & _mask(w)
        if op is Op.SUB:
            return (a - b) & _mask(w)
        if op is Op.AND:
            return a & b
        if op is Op.OR:
            return a | b
        if op is Op.XOR:
            return a ^ b
        if op is Op.SHL:
            return (a << (b % (1 << expr.b.width))) & _mask(w) \
                if b < w else 0
        if op is Op.LSHR:
            return a >> b if b < w else 0
        if op is Op.ASHR:
            shift = min(b, w - 1)
            return _signed(a, w) >> shift & _mask(w)
        if op is Op.EQ:
            return 1 if a == b else 0
        if op is Op.NE:
            return 1 if a != b else 0
        if op is Op.ULT:
            return 1 if a < b else 0
        if op is Op.UGE:
            return 1 if a >= b else 0
        if op is Op.SLT:
            return 1 if _signed(a, w) < _signed(b, w) else 0
        if op is Op.SGE:
            return 1 if _signed(a, w) >= _signed(b, w) else 0
        raise IrError(f"unhandled op {op}")
    if isinstance(expr, Mux):
        return eval_expr(expr.a if eval_expr(expr.sel, env) else expr.b, env)
    if isinstance(expr, Cat):
        value = 0
        for part in expr.parts:
            value = (value << part.width) | eval_expr(part, env)
        return value
    if isinstance(expr, Slice):
        return (eval_expr(expr.a, env) >> expr.lo) & _mask(expr.width)
    if isinstance(expr, Ext):
        inner = eval_expr(expr.a, env)
        if expr.signed:
            return _signed(inner, expr.a.width) & _mask(expr.out_width)
        return inner
    raise IrError(f"unknown expression node {type(expr).__name__}")


#: The RTL backend names, the default first.
BACKENDS = ("fused", "interpreter")


def resolve_backend(backend: str | None) -> str:
    """The backend a simulator is built on: ``backend``, or when it is
    None the ``REPRO_RTL_BACKEND`` environment variable, else ``"fused"``.
    An unknown name raises :class:`IrError` here, so a simulator given one
    fails at construction, not at its first step."""
    if backend is None:
        backend = os.environ.get("REPRO_RTL_BACKEND", BACKENDS[0])
    if backend not in BACKENDS:
        raise IrError(f"unknown RTL backend {backend!r}")
    return backend


class RtlSim:
    """Simulate one :class:`Module` cycle by cycle.

    Usage::

        sim = RtlSim(module)
        sim.set_inputs(pc=0, insn=0x00000013, ...)
        sim.eval_comb()
        value = sim.get("next_pc")
        sim.tick()           # commit registers

    Construction checks, and so freezes, ``module``; on an already
    checked module it derives nothing.  On the ``fused`` backend the
    per-cycle pair (:func:`~repro.rtl.compiled.compile_module`) is built
    on the first :meth:`eval_comb` or :meth:`tick`, not at construction.
    """

    def __init__(self, module: Module, backend: str | None = None):
        module.check()
        self.module = module
        self.backend = backend = resolve_backend(backend)
        self._compiled: CompiledModule | None = None
        # The compiled code has the evaluation order baked in, so _order is
        # interpreter-only.
        self._order = module.order if backend == "interpreter" else None
        self.env: dict[str, int] = {}
        self.regfile_data: list[int] | None = None
        if module.regfile is not None:
            self.regfile_data = [0] * module.regfile.num_regs
        self.reset()

    def _pair(self) -> CompiledModule:
        """The compiled per-cycle pair, built on first call (fused only)."""
        if self._compiled is None:
            self._compiled = compile_module(self.module)
        return self._compiled

    def reset(self) -> None:
        """Reset registers to their reset values and clear inputs to 0."""
        for port in self.module.inputs():
            self.env[port.name] = 0
        for reg in self.module.registers.values():
            self.env[reg.name] = reg.reset_value & _mask(reg.width)
        if self.regfile_data is not None:
            for index in range(len(self.regfile_data)):
                self.regfile_data[index] = 0

    def set_inputs(self, **values: int) -> None:
        for name, value in values.items():
            port = self.module.ports.get(name)
            if port is None or port.direction != "in":
                raise IrError(f"{name} is not an input port")
            self.env[name] = value & _mask(port.width)

    def eval_comb(self) -> None:
        """Evaluate all combinational assigns (registers hold state)."""
        if self._order is None:
            self._pair().eval_comb(self.env, self.regfile_data)
            return
        spec = self.module.regfile
        if spec is not None:
            # Each register's value drives a storage wire; the read muxes
            # are ordinary combinational logic.
            for index, name in enumerate(spec.storage_signals, start=1):
                self.env[name] = self.regfile_data[index]
        for name in self._order:
            self.env[name] = eval_expr(self.module.assigns[name], self.env)

    def tick(self) -> None:
        """Commit registers and the register-file write port."""
        if self._order is None:
            self._pair().tick(self.env, self.regfile_data)
            return
        updates: dict[str, int] = {}
        for reg in self.module.registers.values():
            if reg.next is None:
                continue
            if reg.enable is not None and not eval_expr(reg.enable, self.env):
                continue
            updates[reg.name] = eval_expr(reg.next, self.env) & _mask(reg.width)
        spec = self.module.regfile
        if spec is not None and spec.write_port is not None:
            we_sig, addr_sig, data_sig = spec.write_port
            if self.env.get(we_sig, 0):
                addr = self.env[addr_sig] % spec.num_regs
                if addr != 0:
                    self.regfile_data[addr] = self.env[data_sig] & _mask(
                        spec.width)
        self.env.update(updates)

    def get(self, name: str) -> int:
        return self.env[name] & _mask(self.module.signal_width(name))
