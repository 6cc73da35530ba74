"""Mutation coverage of block testbenches — the MCY (mutation cover with
Yosys) analog of Figure 4, step 3.

MCY's question is *"can this testbench actually catch bugs?"*: it mutates
the design, filters out mutations that provably cannot change behaviour,
and requires the testbench to fail on the rest.  We do the same at gate
level: the block is lowered to its netlist, single-gate mutations are
applied (gate-type flips, input swaps, stuck-at faults), mutations that no
probe vector can distinguish are classed *equivalent* (our stand-in for
MCY's formal filter), and every distinguishable mutant must be killed by
the block verifier's vectors (the distinct architecture-test and
operand-lattice stimuli of :func:`~repro.verify.arch_tests.block_vectors`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..rtl.ir import Binary, Const, Expr, Module, Mux, Not, Op
from ..synth.lower import lower_module
from ..synth.netlist import Gate, GateType, Netlist
from ..synth.netsim import NetSim
from .arch_tests import TestVector, block_vectors
from .testbench import block_inputs

#: Gate-type substitutions applied as mutations.
_TYPE_FLIPS = {
    GateType.AND2: (GateType.OR2, GateType.XOR2),
    GateType.OR2: (GateType.AND2, GateType.XOR2),
    GateType.XOR2: (GateType.OR2, GateType.AND2),
    GateType.NOT: (),
}


@dataclass(frozen=True)
class Mutation:
    """A single-gate fault: replace ``node``'s gate with ``replacement``."""

    node: int
    replacement: Gate
    description: str


@dataclass
class MutationReport:
    mnemonic: str
    total: int = 0
    killed: int = 0
    equivalent: int = 0
    survivors: list[str] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Killed over distinguishable mutants; 0.0 when no mutant is
        distinguishable, because a campaign that judged nothing passes
        nothing."""
        effective = self.total - self.equivalent
        return self.killed / effective if effective else 0.0


def enumerate_mutations(netlist: Netlist, limit: int = 120) -> list[Mutation]:
    """Deterministically pick up to ``limit`` single-gate mutations."""
    candidates: list[Mutation] = []
    for node, gate in netlist.gates.items():
        if gate.kind in (GateType.CONST0, GateType.CONST1, GateType.INPUT,
                         GateType.DFF):
            continue
        for new_kind in _TYPE_FLIPS.get(gate.kind, ()):
            candidates.append(Mutation(
                node, Gate(new_kind, gate.inputs),
                f"node {node}: {gate.kind.value} -> {new_kind.value}"))
        if gate.kind is GateType.MUX2:
            sel, a, b = gate.inputs
            candidates.append(Mutation(
                node, Gate(GateType.MUX2, (sel, b, a)),
                f"node {node}: mux arm swap"))
        candidates.append(Mutation(node, Gate(GateType.CONST0, ()),
                                   f"node {node}: stuck-at-0"))
        candidates.append(Mutation(node, Gate(GateType.CONST1, ()),
                                   f"node {node}: stuck-at-1"))
    if len(candidates) <= limit:
        return candidates
    stride = len(candidates) / limit
    return [candidates[int(i * stride)] for i in range(limit)]


# --------------------------------------------------------------------------
# RTL-level mutations
#
# The gate-level campaign above asks whether the *block testbenches* catch
# faults.  The RTL-level set below asks the same of the whole-program
# verification flows (cosimulation, compliance), which ride the fused
# cycle loop: a fast path that silently stopped propagating faults would
# show up here as a surviving mutant.

#: Word-operator substitutions applied as RTL mutations.  Every pair keeps
#: the expression width unchanged, so mutants still pass Module.check().
_RTL_OP_FLIPS = {
    Op.ADD: Op.SUB, Op.SUB: Op.ADD,
    Op.AND: Op.OR, Op.OR: Op.XOR, Op.XOR: Op.AND,
    Op.EQ: Op.NE, Op.NE: Op.EQ,
    Op.ULT: Op.UGE, Op.UGE: Op.ULT,
    Op.SLT: Op.SGE, Op.SGE: Op.SLT,
    Op.SHL: Op.LSHR, Op.LSHR: Op.ASHR, Op.ASHR: Op.LSHR,
}


@dataclass(frozen=True)
class RtlMutation:
    """A single-site fault in one assign: drive ``signal`` with ``mutated``."""

    signal: str
    mutated: Expr
    description: str


def _expr_mutants(expr: Expr):
    """Yield (mutated_subtree, description) for every supported site."""
    if isinstance(expr, Binary):
        flip = _RTL_OP_FLIPS.get(expr.op)
        if flip is not None:
            yield (Binary(flip, expr.a, expr.b),
                   f"{expr.op.value}->{flip.value}")
        for mutated, description in _expr_mutants(expr.a):
            yield Binary(expr.op, mutated, expr.b), description
        for mutated, description in _expr_mutants(expr.b):
            yield Binary(expr.op, expr.a, mutated), description
    elif isinstance(expr, Mux):
        yield Mux(expr.sel, expr.b, expr.a), "mux arm swap"
        yield Mux(Not(expr.sel), expr.a, expr.b), "mux select inverted"
        for mutated, description in _expr_mutants(expr.a):
            yield Mux(expr.sel, mutated, expr.b), description
        for mutated, description in _expr_mutants(expr.b):
            yield Mux(expr.sel, expr.a, mutated), description
    elif isinstance(expr, Not):
        yield expr.a, "inverter dropped"


def enumerate_rtl_mutations(module: Module,
                            limit: int = 24) -> tuple[RtlMutation, ...]:
    """Deterministically pick up to ``limit`` single-site RTL mutations
    over every assign.

    Mutants preserve widths and cannot introduce combinational loops, so
    they always build into a runnable :class:`RtlSim`.  The pick is a pure
    function of the structure, so it is memoized on a checked module:
    every kill-matrix task that names the same core reuses it.
    """
    return module.memo(f"rtl_mutations[{limit}]",
                       lambda: _pick_rtl_mutations(module, limit))


def _pick_rtl_mutations(module: Module,
                        limit: int) -> tuple[RtlMutation, ...]:
    candidates: list[RtlMutation] = []
    for name in sorted(module.assigns):
        expr = module.assigns[name]
        candidates.append(RtlMutation(
            name, Const(0, expr.width), f"{name}: stuck-at-0"))
        candidates.append(RtlMutation(
            name, Const((1 << expr.width) - 1, expr.width),
            f"{name}: stuck-at-1"))
        for site, (mutated, description) in enumerate(_expr_mutants(expr)):
            candidates.append(RtlMutation(
                name, mutated, f"{name}[site {site}]: {description}"))
    if len(candidates) <= limit:
        return tuple(candidates)
    stride = len(candidates) / limit
    return tuple(candidates[int(i * stride)] for i in range(limit))


def cosim_verdict(core: Module, program, backend: str | None = None,
                  max_instructions: int = 2_000,
                  soc: "object | None" = None) -> str | None:
    """Cosimulation outcome of one core as a comparable verdict.

    ``None`` means the lock-step run matched the golden reference through
    the halting instruction; any string is a kill — either the first
    diverging RVFI field (``"mismatch:<field>"``) or a simulator refusal
    (``"refused:<ExceptionName>"``).  Used to assert that every evaluator
    backend reaches the *same* verdict on the same mutant, and by the
    simulation farm as the comparable (picklable) result of one cosim
    task.  ``soc`` attaches a :class:`~repro.soc.SocSpec` platform, as in
    :func:`~repro.rtl.core_sim.cosimulate`.
    """
    from ..rtl.core_sim import cosimulate
    from ..sim.decoded import SimulationError
    from ..sim.memory import MemoryError_

    try:
        mismatch = cosimulate(core, program,
                              max_instructions=max_instructions,
                              backend=backend, soc=soc)
    except (SimulationError, MemoryError_) as exc:
        return f"refused:{type(exc).__name__}"
    if mismatch is None:
        return None
    return f"mismatch:{mismatch.field}"


def mutant_verdict_row(core: Module, program, index: int, limit: int,
                       backends, max_instructions: int = 2_000
                       ) -> tuple[str, dict[str, str | None]]:
    """One kill-matrix row: mutant ``index`` of the deterministic
    enumeration, judged under every backend.

    The mutant is addressed by *position* in
    :func:`enumerate_rtl_mutations`\\ ``(core, limit)`` — a pure function
    of the core's structure, memoized on it — so a worker that rebuilt
    the core from its subset description computes the same row at any
    worker count.  Returns ``(description, {backend: verdict})``.
    """
    mutation = enumerate_rtl_mutations(core, limit=limit)[index]
    mutant = apply_rtl_mutation(core, mutation)
    return mutation.description, {
        backend: cosim_verdict(mutant, program, backend, max_instructions)
        for backend in backends}


def rtl_mutant_kill_matrix(core: Module, program, backends,
                           limit: int = 24,
                           max_instructions: int = 2_000,
                           workers: int = 1
                           ) -> dict[str, dict[str, str | None]]:
    """Verdict of every enumerated RTL mutant under every backend.

    Returns ``{mutant description: {backend: verdict}}`` over the same
    deterministic mutant set :func:`enumerate_rtl_mutations` hands the
    mutation tests, so a fast path that silently weakens (or accidentally
    "improves") verification shows up as an unequal matrix row.

    Each mutant is one :class:`~repro.farm.tasks.MutantTask` through
    :func:`~repro.farm.runner.run_tasks`, in-process at ``workers=1`` and
    on a process pool otherwise; rows merge in enumeration order, so the
    matrix (keys, key order, every verdict) is bit-identical for any
    worker count, and a failing mutant surfaces as a
    :class:`~repro.farm.runner.FarmTaskError` naming its task id.
    Requires a core rebuildable from its subset (every stitched RISSP
    qualifies).
    """
    from ..farm.runner import run_tasks
    from ..farm.tasks import CoreSpec, MutantTask

    spec = CoreSpec.of(core)
    tasks = [MutantTask(task_id=f"mutant[{index:03d}]", core=spec,
                        program=program, index=index, limit=limit,
                        backends=tuple(backends),
                        max_instructions=max_instructions)
             for index in range(len(enumerate_rtl_mutations(core, limit)))]
    return dict(run_tasks(tasks, workers=workers))


def apply_rtl_mutation(module: Module, mutation: RtlMutation) -> Module:
    """A structurally fresh copy of ``module`` with one assign mutated.

    Built with :meth:`~repro.rtl.ir.Module.with_assigns`: the mutant shares
    the original's immutable expression nodes but is its own module, so
    it compiles into its own cache entries while the original — its
    compiled code and memoized facts — is untouched.
    """
    return module.with_assigns({mutation.signal: mutation.mutated})


def _vector_inputs(block: Module, vector: TestVector) -> dict[str, int]:
    """:func:`~repro.verify.testbench.block_inputs`, one entry per
    netlist input bit."""
    bits: dict[str, int] = {}
    for name, value in block_inputs(block, vector).items():
        for index in range(block.ports[name].width):
            bits[f"{name}[{index}]"] = (value >> index) & 1
    return bits


def _outputs_for(netlist: Netlist, inputs: dict[str, int]) -> tuple:
    sim = NetSim(netlist)
    out = sim.eval_comb(inputs)
    return tuple(sorted(out.items()))


def run_mutation_campaign(block: Module,
                          limit: int = 120) -> MutationReport:
    """Measure whether the block verifier's vectors
    (:func:`~repro.verify.arch_tests.block_vectors`) kill injected
    faults."""
    mnemonic = str(block.meta.get("mnemonic", block.name))
    netlist = lower_module(block)
    probes = [_vector_inputs(block, v) for v in block_vectors(mnemonic)]
    golden = [_outputs_for(netlist, p) for p in probes]

    report = MutationReport(mnemonic=mnemonic)
    mutations = enumerate_mutations(netlist, limit=limit)
    report.total = len(mutations)
    for mutation in mutations:
        original = netlist.gates[mutation.node]
        netlist.gates[mutation.node] = mutation.replacement
        try:
            killed = False
            distinguishable = False
            for probe, want in zip(probes, golden):
                got = _outputs_for(netlist, probe)
                if got != want:
                    distinguishable = True
                    killed = True   # the testbench compares these outputs
                    break
            if not distinguishable:
                report.equivalent += 1
            elif killed:
                report.killed += 1
            else:  # pragma: no cover - killed iff distinguishable here
                report.survivors.append(mutation.description)
        finally:
            netlist.gates[mutation.node] = original
    return report
