"""Verification substrate: the block verifier over arch-test and lattice
vectors, mutation, RISCOF-style compliance, RVFI trace checking."""

from .arch_tests import CORNER_VALUES, TestVector, lattice_vectors, vectors_for
from .fuzz import (
    FUZZ_BASE_SEED,
    derive_seed,
    fuzz_chunk_seeds,
    random_program,
    random_trap_program,
)
from .mutation import (
    Mutation,
    MutationReport,
    cosim_verdict,
    enumerate_mutations,
    mutant_verdict_row,
    rtl_mutant_kill_matrix,
    run_mutation_campaign,
)
from .riscof import (
    ComplianceReport,
    SIGNATURE_WORDS,
    check_compliance_mnemonic,
    compliance_program,
    compliance_targets,
    run_compliance,
)
from .rvfi import RvfiCheckReport, check_trace
from .testbench import BlockReport, block_inputs, verify_block

__all__ = [
    "BlockReport", "CORNER_VALUES", "ComplianceReport", "FUZZ_BASE_SEED",
    "Mutation", "MutationReport", "RvfiCheckReport", "SIGNATURE_WORDS",
    "TestVector", "block_inputs", "check_compliance_mnemonic",
    "check_trace", "compliance_program", "compliance_targets",
    "cosim_verdict", "derive_seed", "enumerate_mutations",
    "fuzz_chunk_seeds", "lattice_vectors", "mutant_verdict_row",
    "random_program", "random_trap_program", "rtl_mutant_kill_matrix",
    "run_compliance", "run_mutation_campaign", "vectors_for",
    "verify_block",
]
