"""Word-level RTL intermediate representation.

Instruction hardware blocks, ModularEX and the full RISSP are all built as
:class:`Module` objects over this IR.  The same IR drives three consumers:

  * :mod:`repro.rtl.sim` — cycle-accurate evaluation (RTL simulation),
  * :mod:`repro.rtl.verilog` — SystemVerilog emission (the paper's RTL
    deliverable),
  * :mod:`repro.synth.lower` — bit-blasting into a gate netlist for PPA.

Expressions are immutable, hashable dataclasses; equality is structural,
which the synthesis structural-hashing pass exploits directly.  Each node
hashes its subtree once and keeps the value, so the code generators' and
the lowerer's per-node dict probes cost O(1), not O(subtree).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, TypeVar

_T = TypeVar("_T")


class Op(Enum):
    """Word-level operators.  Hashed by identity (members are singletons),
    which is C-level, where ``Enum.__hash__`` is a Python call per probe."""

    __hash__ = object.__hash__

    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"
    EQ = "eq"
    NE = "ne"
    ULT = "ult"
    SLT = "slt"
    UGE = "uge"
    SGE = "sge"


#: Operators whose result is a single bit.
COMPARE_OPS = {Op.EQ, Op.NE, Op.ULT, Op.SLT, Op.UGE, Op.SGE}
#: Operators where the rhs is a shift amount (width may differ from lhs).
SHIFT_OPS = {Op.SHL, Op.LSHR, Op.ASHR}


class IrError(ValueError):
    """Raised on width mismatches or malformed module structure."""


class Expr:
    """Base class for expression nodes.  ``width`` is always defined."""

    width: int

    def __getstate__(self) -> dict:
        # The cached hash is per process (string hashing is salted), so it
        # never crosses a pickle; the copy rehashes on first use.
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    # Convenience builders so block construction reads like RTL.
    def __add__(self, other: "Expr") -> "Expr":
        return Binary(Op.ADD, self, _coerce(other, self.width))

    def __sub__(self, other: "Expr") -> "Expr":
        return Binary(Op.SUB, self, _coerce(other, self.width))

    def __and__(self, other: "Expr") -> "Expr":
        return Binary(Op.AND, self, _coerce(other, self.width))

    def __or__(self, other: "Expr") -> "Expr":
        return Binary(Op.OR, self, _coerce(other, self.width))

    def __xor__(self, other: "Expr") -> "Expr":
        return Binary(Op.XOR, self, _coerce(other, self.width))

    def eq(self, other) -> "Expr":
        return Binary(Op.EQ, self, _coerce(other, self.width))

    def ne(self, other) -> "Expr":
        return Binary(Op.NE, self, _coerce(other, self.width))

    def ult(self, other) -> "Expr":
        return Binary(Op.ULT, self, _coerce(other, self.width))

    def slt(self, other) -> "Expr":
        return Binary(Op.SLT, self, _coerce(other, self.width))

    def uge(self, other) -> "Expr":
        return Binary(Op.UGE, self, _coerce(other, self.width))

    def sge(self, other) -> "Expr":
        return Binary(Op.SGE, self, _coerce(other, self.width))

    def shl(self, amount: "Expr") -> "Expr":
        return Binary(Op.SHL, self, amount)

    def lshr(self, amount: "Expr") -> "Expr":
        return Binary(Op.LSHR, self, amount)

    def ashr(self, amount: "Expr") -> "Expr":
        return Binary(Op.ASHR, self, amount)

    def invert(self) -> "Expr":
        return Not(self)

    def slice(self, hi: int, lo: int) -> "Expr":
        return Slice(self, hi, lo)

    def bit(self, index: int) -> "Expr":
        return Slice(self, index, index)

    def zext(self, width: int) -> "Expr":
        return Ext(self, width, signed=False)

    def sext(self, width: int) -> "Expr":
        return Ext(self, width, signed=True)


def _hash_once(cls):
    """Class decorator over a frozen IR dataclass: keep its generated
    structural ``__hash__``, but compute it once per node and cache it on
    the instance (children's hashes are cached the same way)."""
    structural = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = structural(self)
            object.__setattr__(self, "_hash", value)
            return value

    cls.__hash__ = __hash__
    return cls


def _coerce(value, width: int) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        return Const(value, width)
    raise IrError(f"cannot use {value!r} as an expression")


@_hash_once
@dataclass(frozen=True, eq=True)
class Const(Expr):
    """A constant of explicit ``width`` bits."""

    value: int
    width: int

    def __post_init__(self):
        if self.width <= 0:
            raise IrError("constant width must be positive")
        object.__setattr__(self, "value",
                           self.value & ((1 << self.width) - 1))


@_hash_once
@dataclass(frozen=True, eq=True)
class Sig(Expr):
    """Reference to a named signal (port, wire or register output)."""

    name: str
    width: int


@_hash_once
@dataclass(frozen=True, eq=True)
class Not(Expr):
    """Bitwise complement."""

    a: Expr

    @property
    def width(self) -> int:  # type: ignore[override]
        return self.a.width


@_hash_once
@dataclass(frozen=True, eq=True)
class Binary(Expr):
    """Binary word operator."""

    op: Op
    a: Expr
    b: Expr

    def __post_init__(self):
        if self.op in SHIFT_OPS:
            return
        if self.a.width != self.b.width:
            raise IrError(f"{self.op.value}: width mismatch "
                          f"{self.a.width} vs {self.b.width}")

    @property
    def width(self) -> int:  # type: ignore[override]
        if self.op in COMPARE_OPS:
            return 1
        return self.a.width


@_hash_once
@dataclass(frozen=True, eq=True)
class Mux(Expr):
    """2-way multiplexer: ``sel ? a : b`` with 1-bit ``sel``."""

    sel: Expr
    a: Expr
    b: Expr

    def __post_init__(self):
        if self.sel.width != 1:
            raise IrError("mux select must be 1 bit")
        if self.a.width != self.b.width:
            raise IrError(f"mux arm widths differ: {self.a.width} vs "
                          f"{self.b.width}")

    @property
    def width(self) -> int:  # type: ignore[override]
        return self.a.width


@_hash_once
@dataclass(frozen=True, eq=True)
class Cat(Expr):
    """Concatenation, most-significant part first (Verilog ``{a, b, c}``)."""

    parts: tuple[Expr, ...]

    def __post_init__(self):
        if not self.parts:
            raise IrError("empty concatenation")

    @property
    def width(self) -> int:  # type: ignore[override]
        return sum(p.width for p in self.parts)


@_hash_once
@dataclass(frozen=True, eq=True)
class Slice(Expr):
    """Bit-field extraction ``a[hi:lo]`` (inclusive)."""

    a: Expr
    hi: int
    lo: int

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi < self.a.width:
            raise IrError(f"slice [{self.hi}:{self.lo}] out of range for "
                          f"width {self.a.width}")

    @property
    def width(self) -> int:  # type: ignore[override]
        return self.hi - self.lo + 1


@_hash_once
@dataclass(frozen=True, eq=True)
class Ext(Expr):
    """Zero/sign extension to ``out_width`` bits."""

    a: Expr
    out_width: int
    signed: bool

    def __post_init__(self):
        if self.out_width < self.a.width:
            raise IrError("extension must not narrow")

    @property
    def width(self) -> int:  # type: ignore[override]
        return self.out_width


def cat(*parts: Expr) -> Expr:
    """Concatenate, MSB-first."""
    return Cat(tuple(parts))


def const(value: int, width: int) -> Const:
    return Const(value, width)


def mux(sel: Expr, a: Expr, b: Expr) -> Expr:
    return Mux(sel, a, b)


def _read_mux_tree(entries: list[Expr], addr: Expr) -> Expr:
    """Balanced binary mux tree selecting ``entries[addr]`` (addr LSB first).

    This is the register-file read port as synthesis sees it: 15 MUX2 cells
    per bit for a 16-entry RV32E file.  The fused loop recognizes a read
    port assigned exactly this tree over ``[const 0] + storage`` and reads
    it by index (:func:`repro.rtl.compiled._indexed_read_ports`).
    """
    level = list(entries)
    bit = 0
    while len(level) > 1:
        sel = addr.bit(bit)
        level = [mux(sel, level[i + 1], level[i])
                 for i in range(0, len(level), 2)]
        bit += 1
    return level[0]


# --------------------------------------------------------------------------
# Module structure


@dataclass(frozen=True)
class Port:
    name: str
    width: int
    direction: str  # "in" | "out"


@dataclass(frozen=True)
class Register:
    """A clocked register: ``q <= en ? next : q`` with synchronous reset.

    Immutable: :meth:`Module.connect_register` installs a wired copy."""

    name: str
    width: int
    next: Expr | None = None
    enable: Expr | None = None      # None = always enabled
    reset_value: int = 0


@dataclass(frozen=True)
class RegFileSpec:
    """Architectural register-file *storage* primitive.

    The paper synthesizes RISSPs "without the RF": the 512 storage
    flip-flops are excluded (they are a separate array; the full-ISA core's
    FF share is only ~6% — the PC), but the core netlist still contains the
    read-select multiplexers and write decode.  We model that split by
    exposing each register's output on a ``storage_signals`` wire: the RTL
    evaluator drives those wires from the array, the synthesis lowering
    turns them into primary inputs, and the read muxes built over them are
    synthesized as ordinary core logic.
    """

    name: str
    num_regs: int
    width: int
    #: (addr_signal, data_signal) per read port; lists are stored as tuples.
    #: The data signal is core logic (a read mux over ``storage_signals``)
    #: with its own assign.
    read_ports: tuple[tuple[str, str], ...] = ()
    # write port: (we_signal, addr_signal, data_signal)
    write_port: tuple[str, str, str] | None = None
    #: wire names carrying each register's current value (index 1..N-1;
    #: x0 is a constant and has no storage signal).
    storage_signals: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "read_ports",
                           tuple(tuple(port) for port in self.read_ports))
        object.__setattr__(self, "storage_signals",
                           tuple(self.storage_signals))


class _FrozenMap(dict):
    """A structure map of a checked :class:`Module`: reads like a dict,
    refuses every mutation."""

    def _refuse(self, *args, **kwargs):
        raise IrError("module structure is frozen by check(); derive a "
                      "variant with Module.with_assigns()")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


#: The :class:`Module` attributes compiled code and derived facts depend
#: on; read-only once :meth:`Module.check` has passed.
_STRUCTURE = ("ports", "wires", "assigns", "registers", "regfile")


class Module:
    """A hardware module: ports, wires, combinational assigns, registers.

    Assignments form a DAG over signal names.  :meth:`check` verifies that
    every wire/output is driven exactly once and that no combinational loops
    exist, and then *freezes* the module: its structure becomes read-only
    (builders, item assignment on the maps and reassigning ``regfile``
    raise :class:`IrError`; :class:`Register` and :class:`RegFileSpec` are
    immutable), the proven combinational :attr:`order` is stored, and
    derived facts are memoized through :meth:`memo`.  Every simulator,
    compile cache and analysis over a checked module therefore reuses them
    instead of re-deriving them per use.  :meth:`with_assigns` is the one
    way to derive a variant; ``meta`` stays a plain, writable dict.
    """

    def __init__(self, name: str):
        self._order: tuple[str, ...] | None = None
        self._memo: dict[str, Any] = {}
        self.name = name
        self.ports: dict[str, Port] = {}
        self.wires: dict[str, int] = {}
        self.assigns: dict[str, Expr] = {}
        self.registers: dict[str, Register] = {}
        self.regfile: RegFileSpec | None = None
        self.meta: dict[str, object] = {}

    def __setattr__(self, name: str, value: object) -> None:
        if name in _STRUCTURE and self.frozen:
            raise IrError(f"module {self.name} is frozen by check(); cannot "
                          f"reassign {name}")
        object.__setattr__(self, name, value)

    # -------------------------------------------------------- construction

    def input(self, name: str, width: int) -> Sig:
        self._fresh(name)
        self.ports[name] = Port(name, width, "in")
        return Sig(name, width)

    def output(self, name: str, width: int) -> Sig:
        self._fresh(name)
        self.ports[name] = Port(name, width, "out")
        return Sig(name, width)

    def wire(self, name: str, width: int) -> Sig:
        self._fresh(name)
        self.wires[name] = width
        return Sig(name, width)

    def register(self, name: str, width: int, reset_value: int = 0) -> Sig:
        self._fresh(name)
        self.registers[name] = Register(name, width, reset_value=reset_value)
        return Sig(name, width)

    def assign(self, target: Sig | str, expr: Expr) -> None:
        name = target.name if isinstance(target, Sig) else target
        width = self.signal_width(name)
        if expr.width != width:
            raise IrError(f"assign {name}: width {expr.width} != declared "
                          f"{width}")
        if name in self.assigns:
            raise IrError(f"signal {name} driven twice")
        if name in self.registers:
            raise IrError(f"use connect_register for register {name}")
        if name in self.ports and self.ports[name].direction == "in":
            raise IrError(f"cannot drive input port {name}")
        self.assigns[name] = expr

    def connect_register(self, name: str, next_expr: Expr,
                         enable: Expr | None = None) -> None:
        reg = self.registers[name]
        if next_expr.width != reg.width:
            raise IrError(f"register {name}: next width {next_expr.width} "
                          f"!= {reg.width}")
        self.registers[name] = replace(reg, next=next_expr, enable=enable)

    def _fresh(self, name: str) -> None:
        if name in self.ports or name in self.wires or name in self.registers:
            raise IrError(f"signal {name} already declared in {self.name}")

    # ------------------------------------------------------------- queries

    def signal_width(self, name: str) -> int:
        if name in self.ports:
            return self.ports[name].width
        if name in self.wires:
            return self.wires[name]
        if name in self.registers:
            return self.registers[name].width
        raise IrError(f"unknown signal {name!r} in module {self.name}")

    def sig(self, name: str) -> Sig:
        return Sig(name, self.signal_width(name))

    def inputs(self) -> list[Port]:
        return [p for p in self.ports.values() if p.direction == "in"]

    def outputs(self) -> list[Port]:
        return [p for p in self.ports.values() if p.direction == "out"]

    @property
    def frozen(self) -> bool:
        """True once :meth:`check` has passed."""
        return self._order is not None

    @property
    def order(self) -> tuple[str, ...]:
        """The combinational topological order :meth:`check` proved."""
        if self._order is None:
            raise IrError(f"module {self.name} has not been checked")
        return self._order

    def memo(self, key: str, compute: Callable[[], _T]) -> _T:
        """``compute()``, cached under ``key`` once the module is frozen.

        Derived structural facts (fingerprints, lint facts, fusability)
        are pure functions of the frozen structure, so each is computed
        once per checked module; an unchecked module recomputes on every
        call."""
        if self._order is None:
            return compute()
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def with_assigns(self, overrides: dict[str, Expr]) -> "Module":
        """An unfrozen copy with the given assigns replaced.

        The one mutation path for a checked module (mutants, failure
        injection).  The copy shares the immutable expressions, registers
        and register-file spec but owns its maps, derives its own facts
        once checked, and leaves this module's compiled code and memo
        untouched.  Each override must replace an existing assign at the
        same width."""
        variant = Module(self.name)
        variant.ports = dict(self.ports)
        variant.wires = dict(self.wires)
        variant.assigns = dict(self.assigns)
        variant.registers = dict(self.registers)
        variant.regfile = self.regfile
        variant.meta = dict(self.meta)
        for name, expr in overrides.items():
            if name not in self.assigns:
                raise IrError(f"with_assigns: {name} is not an assign of "
                              f"{self.name}")
            if expr.width != self.signal_width(name):
                raise IrError(f"with_assigns {name}: width {expr.width} "
                              f"!= declared {self.signal_width(name)}")
            variant.assigns[name] = expr
        return variant

    def check(self) -> None:
        """Validate single-driver rule and combinational acyclicity, then
        freeze the module (a no-op once frozen)."""
        if self.frozen:
            return
        storage = self.regfile.storage_signals \
            if self.regfile is not None else ()
        for port in self.outputs():
            if port.name not in self.assigns:
                raise IrError(f"output {port.name} of {self.name} undriven")
        for wire in self.wires:
            if wire not in self.assigns and wire not in storage:
                raise IrError(f"wire {wire} of {self.name} undriven")
        order = tuple(topo_order(self))  # raises on combinational loops
        for name in ("ports", "wires", "assigns", "registers"):
            setattr(self, name, _FrozenMap(getattr(self, name)))
        self._order = order


def expr_signals(expr: Expr) -> set[str]:
    """Names of all signals referenced by ``expr``."""
    out: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Sig):
            out.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.a)
        elif isinstance(node, Binary):
            stack.append(node.a)
            stack.append(node.b)
        elif isinstance(node, Mux):
            stack.extend((node.sel, node.a, node.b))
        elif isinstance(node, Cat):
            stack.extend(node.parts)
        elif isinstance(node, (Slice, Ext)):
            stack.append(node.a)
    return out


def map_children(expr: Expr, fn) -> Expr:
    """Rebuild one node with each child expression mapped through ``fn``.

    Leaves (:class:`Const`/:class:`Sig`) are returned unchanged.  The
    single place that knows every node's shape — all expression rewriters
    (:func:`substitute`, the code generators' memoized substitution and
    its word-only subtree extraction) dispatch through it, so adding a
    node type cannot silently leave one walker behind.
    """
    if isinstance(expr, (Const, Sig)):
        return expr
    if isinstance(expr, Not):
        return Not(fn(expr.a))
    if isinstance(expr, Binary):
        return Binary(expr.op, fn(expr.a), fn(expr.b))
    if isinstance(expr, Mux):
        return Mux(fn(expr.sel), fn(expr.a), fn(expr.b))
    if isinstance(expr, Cat):
        return Cat(tuple(fn(part) for part in expr.parts))
    if isinstance(expr, Slice):
        return Slice(fn(expr.a), expr.hi, expr.lo)
    if isinstance(expr, Ext):
        return Ext(fn(expr.a), expr.out_width, expr.signed)
    raise IrError(f"cannot rewrite {type(expr).__name__}")


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Rewrite ``expr``, replacing each :class:`Sig` via ``mapping``.

    Signals absent from ``mapping`` are kept as-is.  Used when inlining an
    instruction hardware block into ModularEX under a name prefix.
    """
    if isinstance(expr, Sig):
        return mapping.get(expr.name, expr)
    return map_children(expr, lambda child: substitute(child, mapping))


def inline(parent: Module, child: Module, prefix: str,
           bindings: dict[str, Expr]) -> dict[str, Sig]:
    """Flatten ``child`` into ``parent`` under ``prefix``.

    ``bindings`` maps each child *input port* to a parent expression.  Child
    wires, outputs and registers become prefixed parent signals.  Returns a
    map from child output-port names to the corresponding parent signals.

    This implements the paper's "stitching": ModularEX inlines instruction
    hardware blocks, and the RISSP inlines ModularEX next to the fixed units.
    """
    mapping: dict[str, Expr] = {}
    for port in child.inputs():
        if port.name not in bindings:
            raise IrError(f"inline {child.name}: input {port.name} unbound")
        bound = bindings[port.name]
        if bound.width != port.width:
            raise IrError(f"inline {child.name}: {port.name} width "
                          f"{bound.width} != {port.width}")
        mapping[port.name] = bound
    for name, width in child.wires.items():
        mapping[name] = parent.wire(f"{prefix}{name}", width)
    outputs: dict[str, Sig] = {}
    for port in child.outputs():
        sig = parent.wire(f"{prefix}{port.name}", port.width)
        mapping[port.name] = sig
        outputs[port.name] = sig
    for reg in child.registers.values():
        mapping[reg.name] = parent.register(f"{prefix}{reg.name}", reg.width,
                                            reg.reset_value)
    for target, expr in child.assigns.items():
        parent.assign(mapping[target].name, substitute(expr, mapping))
    for reg in child.registers.values():
        if reg.next is not None:
            enable = (substitute(reg.enable, mapping)
                      if reg.enable is not None else None)
            parent.connect_register(f"{prefix}{reg.name}",
                                    substitute(reg.next, mapping), enable)
    return outputs


class CombLoopError(IrError):
    """A combinational loop; ``cycle`` is the path ``a -> b -> ... -> a``."""

    def __init__(self, module: str, cycle: tuple[str, ...]):
        super().__init__(f"combinational loop in {module}: "
                         + " -> ".join(cycle))
        self.cycle = cycle


def topo_order(module: Module) -> list[str]:
    """Topological order of combinationally assigned signals.

    Walks the whole assign DAG; a checked module's order is
    :attr:`Module.order`.  Raises :class:`CombLoopError`, carrying the full
    cycle path, on a combinational loop.  Registers and input ports are
    sources and do not appear in the result.  Signals and dependencies are
    visited in sorted order, so the order and any reported cycle path are
    stable across runs and worker counts.
    """
    order: list[str] = []
    state: dict[str, int] = {}  # 0=unvisited, 1=visiting, 2=done
    path: list[str] = []

    def visit(name: str) -> None:
        if name not in module.assigns:
            return  # input, register output, or regfile read data
        mark = state.get(name, 0)
        if mark == 2:
            return
        if mark == 1:
            raise CombLoopError(module.name,
                                tuple(path[path.index(name):] + [name]))
        state[name] = 1
        path.append(name)
        for dep in sorted(expr_signals(module.assigns[name])):
            visit(dep)
        path.pop()
        state[name] = 2
        order.append(name)

    for name in sorted(module.assigns):
        visit(name)
    return order
