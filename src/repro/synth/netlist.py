"""Gate-level netlist with constructive optimization.

The netlist is an AIG-like DAG over a small standard-cell alphabet (NOT,
AND2, OR2, XOR2, MUX2, DFF plus constants).  Two of the paper's
"redundancy removal by synthesis tools" mechanisms are implemented right in
the constructor API:

  * **constant propagation** — gates with constant inputs fold away, which
    is how the unused arms of the ModularEX switch disappear, and
  * **structural hashing** — identical gates over identical inputs merge,
    which is how common datapath logic (the ``pc+4`` incrementer, the
    effective-address adder shared by loads/stores/jalr, branch comparator
    chains) is shared across instruction hardware blocks.

A third pass, dead-gate elimination, runs after construction
(:func:`sweep_dead`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class GateType(Enum):
    # Identity hash (C-level) for the per-gate strash and membership
    # probes; ``Enum.__hash__`` is a Python call.
    __hash__ = object.__hash__

    CONST0 = "const0"
    CONST1 = "const1"
    NOT = "not"
    AND2 = "and2"
    OR2 = "or2"
    XOR2 = "xor2"
    MUX2 = "mux2"   # inputs: (sel, a, b) -> sel ? a : b
    DFF = "dff"     # input: (d,); state element
    INPUT = "input"


_COMMUTATIVE = {GateType.AND2, GateType.OR2, GateType.XOR2}


@dataclass(frozen=True)
class Gate:
    kind: GateType
    inputs: tuple[int, ...]
    name: str = ""   # populated for INPUT and DFF nodes


class Netlist:
    """Mutable gate network under construction; optimizes as it builds.

    ``gates`` is in creation order, and every walk (timing, mapping,
    :class:`~repro.synth.netsim.NetSim`) relies on it being topological:
    a constructor is handed only nodes that exist, so a combinational
    gate reads only smaller ids.  The one late edge, a DFF's ``d`` input
    (:meth:`connect_dff`), is harmless because a DFF is a source.
    """

    def __init__(self):
        self.gates: dict[int, Gate] = {}
        self.outputs: dict[str, int] = {}
        self._strash: dict[tuple, int] = {}
        self._next_id = 0
        self.zero = self._raw(Gate(GateType.CONST0, ()))
        self.one = self._raw(Gate(GateType.CONST1, ()))
        self.dff_init: dict[int, int] = {}

    # ------------------------------------------------------------- plumbing

    def _raw(self, gate: Gate) -> int:
        node = self._next_id
        self._next_id += 1
        self.gates[node] = gate
        return node

    def add_input(self, name: str) -> int:
        return self._raw(Gate(GateType.INPUT, (), name))

    def add_dff(self, name: str, init: int = 0) -> int:
        node = self._raw(Gate(GateType.DFF, (self.zero,), name))
        self.dff_init[node] = init
        return node

    def connect_dff(self, dff: int, d: int) -> None:
        gate = self.gates[dff]
        if gate.kind is not GateType.DFF:
            raise ValueError(f"node {dff} is not a DFF")
        self.gates[dff] = Gate(GateType.DFF, (d,), gate.name)

    def set_output(self, name: str, node: int) -> None:
        self.outputs[name] = node

    def is_const(self, node: int) -> bool:
        return self.gates[node].kind in (GateType.CONST0, GateType.CONST1)

    def const_value(self, node: int) -> int:
        return 1 if self.gates[node].kind is GateType.CONST1 else 0

    # ----------------------------------------------------- logic constructors

    def g_not(self, a: int) -> int:
        gate = self.gates[a]
        if gate.kind is GateType.CONST0:
            return self.one
        if gate.kind is GateType.CONST1:
            return self.zero
        if gate.kind is GateType.NOT:   # double negation
            return gate.inputs[0]
        return self._hashed(GateType.NOT, (a,))

    def g_and(self, a: int, b: int) -> int:
        if a == b:
            return a
        for x, y in ((a, b), (b, a)):
            if self.gates[x].kind is GateType.CONST0:
                return self.zero
            if self.gates[x].kind is GateType.CONST1:
                return y
        if self._complementary(a, b):
            return self.zero
        return self._hashed(GateType.AND2, (a, b))

    def g_or(self, a: int, b: int) -> int:
        if a == b:
            return a
        for x, y in ((a, b), (b, a)):
            if self.gates[x].kind is GateType.CONST1:
                return self.one
            if self.gates[x].kind is GateType.CONST0:
                return y
        if self._complementary(a, b):
            return self.one
        return self._hashed(GateType.OR2, (a, b))

    def g_xor(self, a: int, b: int) -> int:
        if a == b:
            return self.zero
        for x, y in ((a, b), (b, a)):
            if self.gates[x].kind is GateType.CONST0:
                return y
            if self.gates[x].kind is GateType.CONST1:
                return self.g_not(y)
        if self._complementary(a, b):
            return self.one
        return self._hashed(GateType.XOR2, (a, b))

    def g_mux(self, sel: int, a: int, b: int) -> int:
        """``sel ? a : b``."""
        if a == b:
            return a
        kind = self.gates[sel].kind
        if kind is GateType.CONST1:
            return a
        if kind is GateType.CONST0:
            return b
        if self.is_const(a) and self.is_const(b):
            # arms are 1/0 or 0/1 (a == b handled above)
            return sel if self.const_value(a) else self.g_not(sel)
        if self.is_const(a):
            return (self.g_or(sel, b) if self.const_value(a)
                    else self.g_and(self.g_not(sel), b))
        if self.is_const(b):
            return (self.g_or(self.g_not(sel), a) if self.const_value(b)
                    else self.g_and(sel, a))
        return self._hashed(GateType.MUX2, (sel, a, b))

    def _complementary(self, a: int, b: int) -> bool:
        ga, gb = self.gates[a], self.gates[b]
        return ((ga.kind is GateType.NOT and ga.inputs[0] == b)
                or (gb.kind is GateType.NOT and gb.inputs[0] == a))

    def _hashed(self, kind: GateType, inputs: tuple[int, ...]) -> int:
        if kind in _COMMUTATIVE:
            inputs = tuple(sorted(inputs))
        key = (kind, inputs)
        node = self._strash.get(key)
        if node is None:
            node = self._raw(Gate(kind, inputs))
            self._strash[key] = node
        return node

    # --------------------------------------------------------------- queries

    def counts(self) -> dict[GateType, int]:
        """Gate population by type (excluding constants and inputs)."""
        out: dict[GateType, int] = {}
        for gate in self.gates.values():
            if gate.kind in (GateType.CONST0, GateType.CONST1, GateType.INPUT):
                continue
            out[gate.kind] = out.get(gate.kind, 0) + 1
        return out


def sweep_dead(netlist: Netlist) -> None:
    """Dead-gate elimination, in place: keep the constants and the logic
    an output reaches (through DFF ``d`` inputs too), in creation order.

    The unused-instruction logic the RISSP philosophy removes shows up
    here as a concrete gate-count drop.
    """
    live: set[int] = set()
    stack = list(netlist.outputs.values())
    while stack:
        node = stack.pop()
        if node in live:
            continue
        live.add(node)
        stack.extend(netlist.gates[node].inputs)
    netlist.gates = {node: gate for node, gate in netlist.gates.items()
                     if node in live
                     or gate.kind in (GateType.CONST0, GateType.CONST1)}
    netlist.dff_init = {node: init for node, init in netlist.dff_init.items()
                        if node in netlist.gates}
