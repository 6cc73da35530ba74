"""Instruction hardware block tests (Table 2 contract + semantics)."""

import pytest

from repro.isa import INSTRUCTIONS
from repro.rtl import build_block
from repro.verify import lattice_vectors, vectors_for, verify_block

ALL = [d.mnemonic for d in INSTRUCTIONS]


@pytest.mark.parametrize("mnemonic", ALL)
def test_block_builds_and_checks(mnemonic):
    block = build_block(mnemonic)
    assert block.meta["mnemonic"] == mnemonic
    block.check()


@pytest.mark.parametrize("mnemonic", ALL)
def test_block_testbench_passes(mnemonic):
    """One checker over both vector sets: the architecture tests and the
    operand lattice."""
    lattice = lattice_vectors(mnemonic)
    assert lattice
    result = verify_block(build_block(mnemonic))
    assert result.passed, result.failures[:3]
    assert result.vectors_run == len(vectors_for(mnemonic)) + len(lattice)


def test_branch_block_has_no_rd_port():
    block = build_block("beq")
    assert "rdest_we" not in block.ports
    assert "rdest_data" not in block.ports


def test_store_block_ports():
    block = build_block("sb")
    assert "dmem_wstrb" in block.ports
    assert "rdest_we" not in block.ports


def test_load_block_ports():
    block = build_block("lw")
    assert "dmem_re" in block.ports and "dmem_rdata" in block.ports


def test_sys_block_halts():
    block = build_block("ecall")
    assert "halt" in block.ports
