"""RVFI-style retirement records.

The paper verifies RISSPs with riscv-formal, whose RISC-V Formal Interface
(RVFI) reports, per retired instruction: the instruction word, pc before and
after, source/destination registers with their data, and any memory access.
Both the golden ISS and the RTL simulation of a generated RISSP emit these
records so the :mod:`repro.verify.rvfi` checker can compare them against the
executable spec.

Read-effect convention (shared by every producer so traces are comparable
field-by-field): ``mem_addr`` is the true byte address of the access,
``mem_rmask`` is ``(1 << width) - 1`` — lane bits counted from the accessed
address, not shifted by the sub-word offset — and ``mem_rdata`` is the
sub-word value sign- or zero-extended to 32 bits exactly as it lands in
``rd``.  :func:`load_read_fields` computes the triple from a raw aligned
memory word; the RTL harness uses it so byte/halfword loads record the same
fields the golden ISS does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Iterator

from ..isa.bits import sign_extend, to_u32


@dataclass(frozen=True)
class RvfiRecord:
    """One retired instruction, RVFI-style."""

    order: int           # retirement index
    insn: int            # raw 32-bit instruction word
    pc_rdata: int        # pc of this instruction
    pc_wdata: int        # next pc
    rs1_addr: int
    rs2_addr: int
    rs1_rdata: int
    rs2_rdata: int
    rd_addr: int         # 0 when no register write
    rd_wdata: int        # 0 when rd_addr == 0
    mem_addr: int = 0
    mem_rmask: int = 0   # byte mask of a load (bit per byte, from addr)
    mem_wmask: int = 0   # byte mask of a store
    mem_rdata: int = 0
    mem_wdata: int = 0
    trap: int = 0        # this instruction trapped (ecall/ebreak/illegal):
                         # no architectural side effects, pc_wdata = handler
    intr: int = 0        # first instruction of an interrupt handler


class RvfiTrace:
    """Columnar RVFI retirement trace with optional ring-buffer capacity.

    Each RVFI field lives in its own column list, so recording a
    retirement is 17 integer appends (or, in ring mode, 17 in-place slot
    writes — zero allocation) via :meth:`append_row`.  Verification reads
    the columns without building records: the lock-step cosimulation
    indexes :meth:`column` lists, and the RVFI checker walks
    :meth:`rows`, plain ``FIELDS``-ordered tuples.  For everyone else the
    trace quacks like a read-only sequence of :class:`RvfiRecord`:
    ``len(trace)``, ``trace[i]``, slicing and iteration build records on
    demand.

    With ``capacity=N`` the trace keeps only the newest N retirements
    (index 0 is the oldest *retained* row); ``total_appended`` still counts
    every retirement ever recorded.
    """

    #: Field order shared by :meth:`append_row`, :meth:`row` and
    #: :meth:`rows`; matches the :class:`RvfiRecord` constructor.
    FIELDS = ("order", "insn", "pc_rdata", "pc_wdata", "rs1_addr",
              "rs2_addr", "rs1_rdata", "rs2_rdata", "rd_addr", "rd_wdata",
              "mem_addr", "mem_rmask", "mem_wmask", "mem_rdata",
              "mem_wdata", "trap", "intr")

    __slots__ = ("capacity", "total_appended", "_columns")

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self.total_appended = 0
        if capacity is None:
            self._columns = tuple([] for _ in self.FIELDS)
        else:
            self._columns = tuple([0] * capacity for _ in self.FIELDS)

    def append_row(self, order: int, insn: int, pc_rdata: int,
                   pc_wdata: int, rs1_addr: int, rs2_addr: int,
                   rs1_rdata: int, rs2_rdata: int, rd_addr: int,
                   rd_wdata: int, mem_addr: int = 0, mem_rmask: int = 0,
                   mem_wmask: int = 0, mem_rdata: int = 0,
                   mem_wdata: int = 0, trap: int = 0, intr: int = 0) -> None:
        # Unrolled: every retirement of a traced run lands here, and a
        # zip over the 17 columns costs twice the stores themselves.
        (c_order, c_insn, c_pc_rdata, c_pc_wdata, c_rs1_addr, c_rs2_addr,
         c_rs1_rdata, c_rs2_rdata, c_rd_addr, c_rd_wdata, c_mem_addr,
         c_mem_rmask, c_mem_wmask, c_mem_rdata, c_mem_wdata, c_trap,
         c_intr) = self._columns
        if self.capacity is None:
            c_order.append(order)
            c_insn.append(insn)
            c_pc_rdata.append(pc_rdata)
            c_pc_wdata.append(pc_wdata)
            c_rs1_addr.append(rs1_addr)
            c_rs2_addr.append(rs2_addr)
            c_rs1_rdata.append(rs1_rdata)
            c_rs2_rdata.append(rs2_rdata)
            c_rd_addr.append(rd_addr)
            c_rd_wdata.append(rd_wdata)
            c_mem_addr.append(mem_addr)
            c_mem_rmask.append(mem_rmask)
            c_mem_wmask.append(mem_wmask)
            c_mem_rdata.append(mem_rdata)
            c_mem_wdata.append(mem_wdata)
            c_trap.append(trap)
            c_intr.append(intr)
        else:
            slot = self.total_appended % self.capacity
            c_order[slot] = order
            c_insn[slot] = insn
            c_pc_rdata[slot] = pc_rdata
            c_pc_wdata[slot] = pc_wdata
            c_rs1_addr[slot] = rs1_addr
            c_rs2_addr[slot] = rs2_addr
            c_rs1_rdata[slot] = rs1_rdata
            c_rs2_rdata[slot] = rs2_rdata
            c_rd_addr[slot] = rd_addr
            c_rd_wdata[slot] = rd_wdata
            c_mem_addr[slot] = mem_addr
            c_mem_rmask[slot] = mem_rmask
            c_mem_wmask[slot] = mem_wmask
            c_mem_rdata[slot] = mem_rdata
            c_mem_wdata[slot] = mem_wdata
            c_trap[slot] = trap
            c_intr[slot] = intr
        self.total_appended += 1

    def extend(self, other: "RvfiTrace") -> None:
        """Append every retained row of ``other``, oldest first, column by
        column — the same trace as :meth:`append_row` per row: a ring
        keeps only its newest ``capacity`` rows and ``total_appended``
        counts every row."""
        rows = len(other)
        columns = other._ordered_columns()
        if self.capacity is None:
            for column, more in zip(self._columns, columns):
                column.extend(more)
        else:
            keep = min(rows, self.capacity)
            start = (self.total_appended + rows - keep) % self.capacity
            head = min(keep, self.capacity - start)
            for column, more in zip(self._columns, columns):
                newest = more[rows - keep:rows]
                column[start:start + head] = newest[:head]
                column[:keep - head] = newest[head:]
        self.total_appended += rows

    def column(self, field: str) -> list[int]:
        """The raw column for ``field`` (ring mode: physical slot order)."""
        return self._columns[self.FIELDS.index(field)]

    def _slot(self, index: int) -> int:
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("trace index out of range")
        if self.capacity is None or self.total_appended <= self.capacity:
            return index
        return (self.total_appended + index) % self.capacity

    def row(self, index: int) -> tuple[int, ...]:
        """All 17 fields of one retirement as a tuple (``FIELDS`` order)."""
        slot = self._slot(index)
        return tuple(column[slot] for column in self._columns)

    def rows(self) -> Iterator[tuple[int, ...]]:
        """Every retained retirement as a ``FIELDS``-ordered tuple, oldest
        first (ring mode: in ring order, from the oldest retained slot)."""
        return zip(*self._ordered_columns())

    def _ordered_columns(self) -> tuple[list[int], ...]:
        """The retained rows' columns, oldest first (unbounded: the
        columns themselves, uncopied)."""
        columns = self._columns
        length = len(self)
        if self.capacity is None:
            return columns
        start = self._slot(0) if length else 0
        if start == 0:
            return tuple(column[:length] for column in columns)
        return tuple(column[start:] + column[:start] for column in columns)

    def peek(self, index: int, field: str) -> int:
        """Read one field of one retirement without materializing it."""
        return self.column(field)[self._slot(index)]

    def poke(self, index: int, field: str, value: int) -> None:
        """Overwrite one recorded field in place (fault-injection hook)."""
        self.column(field)[self._slot(index)] = value

    def __len__(self) -> int:
        if self.capacity is None:
            return self.total_appended
        return min(self.total_appended, self.capacity)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [RvfiRecord(*self.row(i))
                    for i in range(*index.indices(len(self)))]
        return RvfiRecord(*self.row(index))

    def __iter__(self) -> Iterator[RvfiRecord]:
        return starmap(RvfiRecord, self.rows())


def load_read_fields(addr: int, word: int, width: int,
                     signed: bool) -> tuple[int, int, int]:
    """RVFI ``(mem_addr, mem_rmask, mem_rdata)`` for a load, repo convention.

    ``word`` is the aligned 32-bit memory word covering the access at byte
    address ``addr``; the returned ``mem_rdata`` is the ``width``-byte lane
    extended to 32 bits (sign-extended when ``signed``), matching what the
    golden ISS records and what lands in ``rd``.
    """
    offset = addr & 0x3
    value = (word >> (8 * offset)) & ((1 << (8 * width)) - 1)
    if signed:
        value = to_u32(sign_extend(value, 8 * width))
    return to_u32(addr), (1 << width) - 1, value
