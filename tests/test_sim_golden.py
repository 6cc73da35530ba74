"""Golden ISS and memory model tests."""

import pytest

from repro.isa import assemble
from repro.sim import Memory, MemoryError_, run_program, run_program_serv


def test_memory_alignment():
    m = Memory(64)
    with pytest.raises(MemoryError_):
        m.load(2, 4, False)
    with pytest.raises(MemoryError_):
        m.store(62, 0, 4)


def test_memory_endianness():
    m = Memory(64)
    m.store(0, 0x11223344, 4)
    assert m.load(0, 1, False) == 0x44
    assert m.load(3, 1, False) == 0x11


def test_exit_code_in_a0():
    p = assemble(".text\nmain:\n li a0, 123\n ret\n")
    r = run_program(p)
    assert r.exit_code == 123 and r.halted_by == "ecall"


def test_cpi_is_one():
    p = assemble(".text\nmain:\n li a0, 1\n ret\n")
    r = run_program(p)
    assert r.cycles == r.instructions


def test_serv_cpi_about_32():
    p = assemble(""".text
main:
    li a0, 0
    li a1, 100
loop:
    addi a0, a0, 1
    bne a0, a1, loop
    ret
""")
    r = run_program_serv(p)
    assert 31.5 < r.cpi < 34


def test_instruction_limit():
    p = assemble(".text\nmain:\n j main\n")
    r = run_program(p, max_instructions=100)
    assert r.halted_by == "limit" and r.instructions == 100


def test_rvfi_trace_emitted():
    p = assemble(".text\nmain:\n li a0, 7\n ret\n")
    r = run_program(p, trace=True)
    assert len(r.trace) == r.instructions
    assert r.trace[0].rd_addr == 10 and r.trace[0].rd_wdata == 7


@pytest.mark.parametrize("capacity", [1, 7])
def test_trace_extend_into_ring_matches_append_row(capacity):
    """extend keeps a ring's newest rows in the slots append_row would
    use, and counts every row; an unbounded trace keeps all of them."""
    from repro.sim import RvfiTrace

    def source(first, rows, ring=None):
        trace = RvfiTrace(capacity=ring)
        for order in range(first, first + rows):
            trace.append_row(*range(order, order + 17))
        return trace

    # Batches wrap the ring mid-batch, exceed it, and come from a ring
    # that already dropped rows.
    batches = [source(0, 3), source(3, 0), source(3, 9), source(12, 1),
               source(13, 8, ring=5)]
    for want in (RvfiTrace(capacity=capacity), RvfiTrace()):
        got = RvfiTrace(capacity=want.capacity)
        for batch in batches:
            got.extend(batch)
            for row in batch.rows():
                want.append_row(*row)
            assert got.total_appended == want.total_appended
            assert list(got.rows()) == list(want.rows())
            for field in RvfiTrace.FIELDS:
                assert got.column(field) == want.column(field), field


def test_stack_pointer_initialized():
    p = assemble(""".text
main:
    addi sp, sp, -16
    li a0, 55
    sw a0, 4(sp)
    lw a0, 4(sp)
    addi sp, sp, 16
    ret
""")
    assert run_program(p).exit_code == 55
