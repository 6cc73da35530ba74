"""Mutation smoke test for the exec-compiled fused RTL backend.

The point of the fast path is speed, not leniency: running verification
through the fused whole-cycle loop must kill exactly the faults the
interpreter kills.  This test injects the deterministic RTL mutant set
from :mod:`repro.verify.mutation` into a RISSP core and asserts that

* every mutant trips cosimulation on the fused backend (a mismatch, a
  "limit" pseudo-mismatch, or a simulator refusal all count as caught) —
  except mutants that are *architecturally equivalent on this program*,
  which is proven by lock-step-comparing the mutant RTL against the
  pristine RTL (the analog of the gate campaign's equivalence filter:
  cosimulation can only ever see architectural effects),
* the full mutant-kill matrix is *identical* on both backends — every
  mutant the oracle kills is killed through the fused loop with the very
  same verdict, so the fast path neither weakens nor accidentally
  "improves" verification,
* the pristine core still cosimulates cleanly, so the trips are the
  mutants' doing.
"""

import pytest

from repro.isa import assemble
from repro.rtl import RisspSim, build_rissp
from repro.rtl.core_sim import COSIM_FIELDS
from repro.sim import MemoryError_, SimulationError
from repro.verify.mutation import (
    apply_rtl_mutation,
    cosim_verdict,
    enumerate_rtl_mutations,
    rtl_mutant_kill_matrix,
)

_SUBSET = ["add", "addi", "sub", "and", "or", "xor", "slt", "sll", "srl",
           "lui", "lw", "sw", "beq", "bne", "jal", "jalr", "ecall"]

#: Exercises every mutated datapath: ALU ops, shifts, compare, upper-imm,
#: memory round-trips, taken/untaken branches and both jumps.
_PROGRAM = """.text
main:
    li a1, 21
    li a2, 2
    add a0, a1, a2
    sub a3, a1, a2
    and a4, a1, a2
    or a5, a1, a2
    xor t0, a1, a2
    slt t1, a2, a1
    sll t2, a1, a2
    srl s0, a1, a2
    lui gp, 0x12345
    add a0, a0, t0
    add a0, a0, t1
    add a0, a0, t2
    add a0, a0, s0
    sw a0, -32(sp)
    lw tp, -32(sp)
    beq a0, tp, good
    li a0, 0x0BAD
good:
    bne a0, zero, next
    li a0, 0x0BAD
next:
    jal s1, sub1
    add a0, a0, a3
    ret
sub1:
    addi a0, a0, 1
    jalr zero, s1, 0
"""


@pytest.fixture(scope="module")
def core():
    return build_rissp(_SUBSET)


@pytest.fixture(scope="module")
def program():
    return assemble(_PROGRAM)


def _verdict(core, program, backend):
    """Cosimulation outcome for one core: None = clean, str = how it
    tripped."""
    return cosim_verdict(core, program, backend, max_instructions=2_000)


def _architectural_trace(core, program):
    """The COSIM-visible retirement stream of a core on its own (no golden
    reference involved — pure RTL observation)."""
    try:
        result = RisspSim(core, program, trace=True).run(2_000)
    except (SimulationError, MemoryError_) as exc:
        return f"refused:{type(exc).__name__}"
    rows = [tuple(getattr(record, name) for name in COSIM_FIELDS)
            for record in result.trace]
    return (result.halted_by, tuple(rows))


def test_pristine_core_is_clean(core, program):
    assert _verdict(core, program, "fused") is None


def test_every_mutant_trips_compiled_cosimulation(core, program):
    """Every distinguishable mutant must trip; survivors must be proven
    architecturally equivalent to the pristine core on this program."""
    mutations = enumerate_rtl_mutations(core, limit=24)
    assert len(mutations) == 24
    pristine = _architectural_trace(core, program)
    tripped = 0
    missed = []
    for mutation in mutations:
        mutant = apply_rtl_mutation(core, mutation)
        if _verdict(mutant, program, "fused") is not None:
            tripped += 1
        elif _architectural_trace(mutant, program) != pristine:
            missed.append(mutation.description)
    assert not missed, f"fused cosim missed distinguishable: {missed}"
    # The set must have teeth: most sampled mutants are distinguishable.
    assert tripped >= 15, f"only {tripped}/24 mutants distinguishable"


def test_backends_agree_on_mutant_verdicts(core, program):
    """The fast path must catch a mutant exactly when the oracle does."""
    mutations = enumerate_rtl_mutations(core, limit=24)
    for mutation in mutations[::4]:
        mutant = apply_rtl_mutation(core, mutation)
        fused = _verdict(mutant, program, "fused")
        interpreted = _verdict(mutant, program, "interpreter")
        assert fused == interpreted, (
            f"{mutation.description}: fused={fused} "
            f"interpreter={interpreted}")


def test_fused_kill_matrix_matches_oracle(core, program):
    """Full matrix parity: every RTL mutant killed by the tree-walking
    oracle is killed *through the fused loop* with the same verdict —
    per-mutant, per-backend, asserted equal row by row.  The interpreter
    column makes this independent of the _Emitter codegen; the cycle
    budget is trimmed so the oracle's runaway-mutant legs stay affordable
    (a limit kill is a limit kill at any budget)."""
    matrix = rtl_mutant_kill_matrix(
        core, program, backends=("fused", "interpreter"),
        limit=24, max_instructions=400)
    assert len(matrix) == 24
    unequal = {description: verdicts
               for description, verdicts in matrix.items()
               if len(set(verdicts.values())) != 1}
    assert not unequal, f"kill matrices diverge: {unequal}"
    kills = sum(1 for verdicts in matrix.values()
                if verdicts["fused"] is not None)
    assert kills >= 15, f"mutant set lost its teeth: {kills}/24 killed"
