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

from collections import Counter
from enum import Enum
from operator import itemgetter
from typing import NamedTuple


class GateType(Enum):
    # Identity hash (C-level) for the per-gate lookups by kind (delay and
    # area tables, counts); ``Enum.__hash__`` is a Python call.
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


_SOURCES = (GateType.CONST0, GateType.CONST1, GateType.INPUT)


class Gate(NamedTuple):
    kind: GateType
    inputs: tuple[int, ...]
    name: str = ""   # populated for INPUT and DFF nodes


#: ``_new_gate(Gate, (kind, inputs, name))`` builds a :class:`Gate`
#: without the Python-level ``__new__`` a ``NamedTuple`` call runs; the
#: constructors make one per gate.
_new_gate = tuple.__new__

_kind_of = itemgetter(0)


class Netlist:
    """Mutable gate network under construction; optimizes as it builds.

    The constants are nodes 0 (``zero``) and 1 (``one``): the
    constructors fold a constant operand by its id, without reading its
    gate.

    ``gates`` is in creation order, and every walk (timing, mapping,
    :class:`~repro.synth.netsim.NetSim`) relies on it being topological:
    a constructor is handed only nodes that exist, so a combinational
    gate reads only smaller ids.  The one late edge, a DFF's ``d`` input
    (:meth:`connect_dff`), is harmless because a DFF is a source.
    """

    def __init__(self):
        self.gates: dict[int, Gate] = {}
        self.outputs: dict[str, int] = {}
        self.dff_init: dict[int, int] = {}
        # Structural hashing, one table per kind: operands -> node.  The
        # operands of a commutative kind are stored ascending.
        self._and: dict[tuple[int, ...], int] = {}
        self._or: dict[tuple[int, ...], int] = {}
        self._xor: dict[tuple[int, ...], int] = {}
        self._mux: dict[tuple[int, ...], int] = {}
        # Each NOT gate and its input map to each other: the NOT strash,
        # double negation and the complement test in one lookup.
        self._inverse: dict[int, int] = {}
        self._next_id = 0
        self.zero = self._raw(Gate(GateType.CONST0, ()))
        self.one = self._raw(Gate(GateType.CONST1, ()))

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

    # ----------------------------------------------------- logic constructors
    #
    # An operand below 2 is a constant, and its id is its value.

    def g_not(self, a: int) -> int:
        if a < 2:
            return 1 - a
        node = self._inverse.get(a)   # double negation, or the strash
        if node is None:
            node = self._raw(_new_gate(Gate, (GateType.NOT, (a,), "")))
            self._inverse[a] = node
            self._inverse[node] = a
        return node

    def g_and(self, a: int, b: int) -> int:
        if a == b:
            return a
        if a < 2:
            return b if a else 0
        if b < 2:
            return a if b else 0
        if self._inverse.get(a) == b:
            return 0
        return self._hashed(self._and, GateType.AND2,
                            (a, b) if a < b else (b, a))

    def g_or(self, a: int, b: int) -> int:
        if a == b:
            return a
        if a < 2:
            return 1 if a else b
        if b < 2:
            return 1 if b else a
        if self._inverse.get(a) == b:
            return 1
        return self._hashed(self._or, GateType.OR2,
                            (a, b) if a < b else (b, a))

    def g_xor(self, a: int, b: int) -> int:
        if a == b:
            return 0
        if a < 2:
            return self.g_not(b) if a else b
        if b < 2:
            return self.g_not(a) if b else a
        if self._inverse.get(a) == b:
            return 1
        return self._hashed(self._xor, GateType.XOR2,
                            (a, b) if a < b else (b, a))

    def g_mux(self, sel: int, a: int, b: int) -> int:
        """``sel ? a : b``."""
        if a == b:
            return a
        if sel < 2:
            return a if sel else b
        if a < 2:
            if b < 2:
                # arms are 1/0 or 0/1 (a == b handled above)
                return sel if a else self.g_not(sel)
            return (self.g_or(sel, b) if a
                    else self.g_and(self.g_not(sel), b))
        if b < 2:
            return (self.g_or(self.g_not(sel), a) if b
                    else self.g_and(sel, a))
        return self._hashed(self._mux, GateType.MUX2, (sel, a, b))

    def _hashed(self, table: dict[tuple[int, ...], int], kind: GateType,
                inputs: tuple[int, ...]) -> int:
        node = table.get(inputs)
        if node is None:
            node = table[inputs] = self._next_id
            self._next_id = node + 1
            self.gates[node] = _new_gate(Gate, (kind, inputs, ""))
        return node

    # --------------------------------------------------------------- queries

    def counts(self) -> dict[GateType, int]:
        """Gate population by type (excluding constants and inputs), in
        order of each type's first gate."""
        out = dict(Counter(map(_kind_of, self.gates.values())))
        for kind in _SOURCES:
            out.pop(kind, None)
        return out


def sweep_dead(netlist: Netlist) -> None:
    """Dead-gate elimination, in place: keep the constants and the logic
    an output reaches (through DFF ``d`` inputs too), in creation order.

    The unused-instruction logic the RISSP philosophy removes shows up
    here as a concrete gate-count drop.
    """
    gates = netlist.gates
    live = {0, 1}   # the constants
    stack: list[int] = []
    for node in netlist.outputs.values():
        if node not in live:
            live.add(node)
            stack.append(node)
    while stack:
        for dep in gates[stack.pop()].inputs:
            if dep not in live:
                live.add(dep)
                stack.append(dep)
    # Deleting keeps the survivors in creation order.
    for node in gates.keys() - live:
        del gates[node]
    for node in netlist.dff_init.keys() - live:
        del netlist.dff_init[node]
