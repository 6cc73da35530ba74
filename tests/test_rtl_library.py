"""Pre-verified library contract tests (Step 0)."""

import pytest

from repro.rtl import IsaHardwareLibrary, LibraryError, build_block
from repro.rtl.ir import Sig


def test_unverified_block_is_withheld():
    lib = IsaHardwareLibrary(["add", "sub"])
    with pytest.raises(LibraryError):
        lib.get_block("add")
    assert lib.entry("add").module.meta["mnemonic"] == "add"


def test_verify_releases_blocks():
    lib = IsaHardwareLibrary(["add", "beq", "lw"])
    results = lib.verify()
    assert all(results.values())
    lib.get_block("add")  # no longer raises


def test_verification_report_recorded():
    lib = IsaHardwareLibrary(["xor"])
    lib.verify()
    assert lib.entry("xor").verification_report.vectors_run > 50


def test_verify_withholds_a_block_that_drops_the_alignment_mask():
    """``mret``'s ``next_pc`` is ``mepc`` with its low two bits cleared.
    Its architecture tests drive only aligned ``mepc`` values, so the
    lattice's unaligned one is what must catch a block without the mask."""
    lib = IsaHardwareLibrary(["mret"])
    lib.entry("mret").module = build_block("mret").with_assigns(
        {"next_pc": Sig("mepc", 32)})
    assert lib.verify() == {"mret": False}
    assert lib.entry("mret").verification_report.failures
    with pytest.raises(LibraryError):
        lib.get_block("mret")


def test_unknown_instruction():
    with pytest.raises(LibraryError):
        IsaHardwareLibrary(["madeup"])


def test_emit_sv():
    lib = IsaHardwareLibrary(["add"])
    assert "module instr_add" in lib.emit_systemverilog("add")


def test_full_library_size():
    # 40 base-ISA blocks + the mret trap-return block (PR 3).
    assert len(IsaHardwareLibrary()) == 41
    assert "mret" in IsaHardwareLibrary()
