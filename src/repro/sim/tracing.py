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
fields the golden ISS does.  The RTL harnesses record ``rs1_rdata``/
``rs2_rdata`` from the core's register-file read ports, so a trace shows
the operands the core actually read.

Storage is row-major: an :class:`RvfiTrace` keeps its rows back to back in
one flat list.  The ``row_sink`` contract: a producer that records many
rows takes :meth:`RvfiTrace.row_sink` once and calls it once per row with
one ``FIELDS``-ordered tuple of exactly 17 ints; for an unbounded trace
that call is the flat list's own ``extend``, one C call per retirement.
Columns are derived on demand (:meth:`RvfiTrace.column` returns a copy),
so fault injection writes through :meth:`RvfiTrace.poke`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Callable, Iterator

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
    """Row-major RVFI retirement trace with optional ring-buffer capacity.

    Rows live back to back in one flat list of ints, :attr:`FIELDS`
    order, :data:`ROW_WIDTH` entries per row.  Recording a retirement is
    one call with one ``FIELDS``-ordered 17-tuple: producers that retire
    rows in a loop (the generated RTL loops, the golden ISS's compiled
    recorders, ``GoldenSim.run_chunk``, ``RisspSim._fused_run``,
    ``FleetSim.trace``) fetch :meth:`row_sink` once and call it per row,
    and the per-row producers call :meth:`append_row`.  Verification
    reads without building records: the lock-step cosimulation compares
    :meth:`column` copies, and the RVFI checker walks :meth:`rows`, plain
    ``FIELDS``-ordered tuples.  For everyone else the trace quacks like a
    read-only sequence of :class:`RvfiRecord`: ``len(trace)``,
    ``trace[i]``, slicing and iteration build records on demand.

    With ``capacity=N`` the trace keeps only the newest N retirements
    (index 0 is the oldest *retained* row) in a preallocated flat list of
    N rows, written slot by slot with no allocation; ``total_appended``
    still counts every retirement ever recorded.  Fault injection goes
    through :meth:`poke`: :meth:`column` returns a copy.
    """

    #: Field order shared by :meth:`append_row`, :meth:`row_sink`,
    #: :meth:`row` and :meth:`rows`; matches the :class:`RvfiRecord`
    #: constructor.
    FIELDS = ("order", "insn", "pc_rdata", "pc_wdata", "rs1_addr",
              "rs2_addr", "rs1_rdata", "rs2_rdata", "rd_addr", "rd_wdata",
              "mem_addr", "mem_rmask", "mem_wmask", "mem_rdata",
              "mem_wdata", "trap", "intr")

    __slots__ = ("capacity", "_flat", "_ring_total")

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        #: Rows ever written into a ring; an unbounded trace counts its
        #: rows by the flat list's length instead.
        self._ring_total = 0
        self._flat: list[int] = [] if capacity is None \
            else [0] * (ROW_WIDTH * capacity)

    @property
    def total_appended(self) -> int:
        """Every retirement ever recorded, retained or not."""
        if self.capacity is None:
            return len(self._flat) // ROW_WIDTH
        return self._ring_total

    def row_sink(self) -> Callable[[tuple[int, ...]], None]:
        """The one-argument recorder of this trace.

        Call it once per retirement with that retirement's 17 fields as
        one ``FIELDS``-ordered tuple — exactly 17 entries, no defaults.
        Unbounded, it is the flat list's own ``extend``; in ring mode, a
        slot writer that overwrites the oldest retained row.  Either way
        it records the same trace as :meth:`append_row`, and the two may
        be mixed on one trace.
        """
        if self.capacity is None:
            return self._flat.extend
        return self._ring_write

    def _ring_write(self, row: tuple[int, ...]) -> None:
        start = self._ring_total % self.capacity * ROW_WIDTH
        self._flat[start:start + ROW_WIDTH] = row
        self._ring_total += 1

    def append_row(self, order: int, insn: int, pc_rdata: int,
                   pc_wdata: int, rs1_addr: int, rs2_addr: int,
                   rs1_rdata: int, rs2_rdata: int, rd_addr: int,
                   rd_wdata: int, mem_addr: int = 0, mem_rmask: int = 0,
                   mem_wmask: int = 0, mem_rdata: int = 0,
                   mem_wdata: int = 0, trap: int = 0, intr: int = 0) -> None:
        """Record one retirement field by field (the memory, trap and
        intr fields default to 0)."""
        row = (order, insn, pc_rdata, pc_wdata, rs1_addr, rs2_addr,
               rs1_rdata, rs2_rdata, rd_addr, rd_wdata, mem_addr,
               mem_rmask, mem_wmask, mem_rdata, mem_wdata, trap, intr)
        if self.capacity is None:
            self._flat.extend(row)
        else:
            self._ring_write(row)

    def extend(self, other: "RvfiTrace") -> None:
        """Append every retained row of ``other``, oldest first, as copied
        slices — the same trace as :meth:`append_row` per row: a ring
        keeps only its newest ``capacity`` rows and ``total_appended``
        counts every row."""
        rows = len(other)
        flat = other._ordered_flat()
        if self.capacity is None:
            self._flat += flat
            return
        keep = min(rows, self.capacity)
        start = (self._ring_total + rows - keep) % self.capacity
        head = min(keep, self.capacity - start)
        newest = flat[(rows - keep) * ROW_WIDTH:rows * ROW_WIDTH]
        split = head * ROW_WIDTH
        self._flat[start * ROW_WIDTH:start * ROW_WIDTH + split] = \
            newest[:split]
        self._flat[:(keep - head) * ROW_WIDTH] = newest[split:]
        self._ring_total += rows

    def truncate(self, rows: int) -> None:
        """Keep only the first ``rows`` rows (an unbounded trace only)."""
        if self.capacity is not None:
            raise ValueError("a ring trace cannot be truncated")
        del self._flat[rows * ROW_WIDTH:]

    def column(self, field: str) -> list[int]:
        """A copy of the column for ``field`` (ring mode: every slot, in
        physical slot order)."""
        return self._flat[_FIELD_INDEX[field]::ROW_WIDTH]

    def _slot(self, index: int) -> int:
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("trace index out of range")
        if self.capacity is None or self._ring_total <= self.capacity:
            return index
        return (self._ring_total + index) % self.capacity

    def row(self, index: int) -> tuple[int, ...]:
        """All 17 fields of one retirement as a tuple (``FIELDS`` order)."""
        start = self._slot(index) * ROW_WIDTH
        return tuple(self._flat[start:start + ROW_WIDTH])

    def rows(self) -> Iterator[tuple[int, ...]]:
        """Every retained retirement as a ``FIELDS``-ordered tuple, oldest
        first (ring mode: in ring order, from the oldest retained slot)."""
        return zip(*[iter(self._ordered_flat())] * ROW_WIDTH)

    def _ordered_flat(self) -> list[int]:
        """The retained rows, oldest first, as one flat list (unbounded:
        the list itself, uncopied)."""
        flat = self._flat
        if self.capacity is None:
            return flat
        length = len(self)
        start = self._slot(0) * ROW_WIDTH if length else 0
        if start == 0:
            return flat[:length * ROW_WIDTH]
        return flat[start:] + flat[:start]

    def peek(self, index: int, field: str) -> int:
        """Read one field of one retirement without materializing it."""
        return self._flat[self._slot(index) * ROW_WIDTH + _FIELD_INDEX[field]]

    def poke(self, index: int, field: str, value: int) -> None:
        """Overwrite one recorded field in place (fault-injection hook)."""
        self._flat[self._slot(index) * ROW_WIDTH + _FIELD_INDEX[field]] = \
            value

    def __len__(self) -> int:
        if self.capacity is None:
            return len(self._flat) // ROW_WIDTH
        return min(self._ring_total, self.capacity)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [RvfiRecord(*self.row(i))
                    for i in range(*index.indices(len(self)))]
        return RvfiRecord(*self.row(index))

    def __iter__(self) -> Iterator[RvfiRecord]:
        return starmap(RvfiRecord, self.rows())


#: Entries per row of an :class:`RvfiTrace`'s flat list.
ROW_WIDTH = len(RvfiTrace.FIELDS)

_FIELD_INDEX = {name: index for index, name in enumerate(RvfiTrace.FIELDS)}


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
