"""Pure, picklable task descriptions for the simulation farm.

The campaigns this farm shards — cosimulation, the mutant kill matrix,
scenarios, lint — were written around live objects that cannot cross a
process boundary: ``Module`` expression DAGs wired into exec-compiled
closures, ``RisspSim``/``GoldenSim`` instances holding memories and
generated code.  A farm task therefore carries only *descriptions*:

* the core as a :class:`CoreSpec` — its instruction subset plus the
  :func:`~repro.rtl.compiled.stable_fingerprint` of the structure the
  task was enumerated against,
* the program as the linked :class:`~repro.isa.program.Program` image
  (plain words/bytes/symbols — picklable), or, for fuzz chunks, just the
  chunk seed the generator re-expands worker-side,
* the backend *name*, instruction budget, optional
  :class:`~repro.soc.SocSpec` platform, and provenance (task id, seed).

Worker-cache-rebuild contract: a worker materializes the core with
:meth:`CoreSpec.build` — an in-process memo keyed on the spec — and the
compiled-core / decoded-image caches repopulate transparently the first
time a simulator runs on it (the exec-compiled functions themselves never
travel).  The rebuilt structure is verified against the spec's
fingerprint, so a worker can never silently compute a verdict for a
different core than the one the campaign enumerated.  The rebuilt core
is frozen (``build_rissp`` checks it), so that fingerprint is hashed once
per core and every later simulator on it derives nothing.

Every ``run()`` is a pure function of the task description (plus the
deterministic simulators), which is what makes the farm's merge step
trivially bit-identical to the serial path for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.program import Program
from ..obs import telemetry as _obs
from ..rtl.compiled import stable_fingerprint
from ..rtl.ir import Module
from ..soc import SocSpec


class CoreMaterializeError(RuntimeError):
    """A worker could not rebuild the core a task describes."""


@dataclass(frozen=True)
class CoreSpec:
    """Rebuildable description of a stitched RISSP core.

    ``fingerprint`` (when non-empty) is the stable structural hash the
    rebuilt module must match; it travels with every task so cross-process
    rebuild divergence is an error, never a wrong verdict.  The subset
    alone decides the trap unit (present iff it holds ``mret``).
    """

    mnemonics: tuple[str, ...]
    name: str = "rissp"
    reset_pc: int = 0
    fingerprint: str = ""

    @classmethod
    def of(cls, core: Module) -> "CoreSpec":
        """Describe a live core so a worker can rebuild it.

        Requires a core produced by :func:`~repro.rtl.rissp.build_rissp`
        (subset recorded in ``meta['mnemonics']``); anything else cannot
        be re-expressed as a task description and raises.
        """
        mnemonics = core.meta.get("mnemonics")
        if not mnemonics or "pc" not in core.registers:
            raise CoreMaterializeError(
                f"core {core.name!r} is not rebuildable from a subset "
                f"description (no meta['mnemonics']); the farm can only "
                f"ship stitched RISSPs across process boundaries")
        return cls(mnemonics=tuple(mnemonics), name=core.name,
                   reset_pc=core.registers["pc"].reset_value,
                   fingerprint=stable_fingerprint(core))

    def build(self) -> Module:
        """Materialize (worker-side, memoized per process)."""
        return _materialize(self)


#: Worker-side core memo: one rebuild per (spec, process), shared by every
#: task in the shard that names the same core.
_CORE_CACHE: dict[CoreSpec, Module] = {}


def _materialize(spec: CoreSpec) -> Module:
    core = _CORE_CACHE.get(spec)
    if core is not None:
        if _obs._ACTIVE is not None:
            _obs._ACTIVE.counters["farm.core_rebuild.memo_hit"] += 1
        return core
    if _obs._ACTIVE is not None:
        _obs._ACTIVE.counters["farm.core_rebuild.build"] += 1
    from ..rtl.rissp import build_rissp

    core = build_rissp(list(spec.mnemonics), name=spec.name,
                       reset_pc=spec.reset_pc)
    if spec.fingerprint:
        rebuilt = stable_fingerprint(core)
        if rebuilt != spec.fingerprint:
            raise CoreMaterializeError(
                f"rebuilt core {spec.name!r} fingerprint {rebuilt[:16]} "
                f"does not match task description "
                f"{spec.fingerprint[:16]} — worker and campaign disagree "
                f"about the core structure")
    _CORE_CACHE[spec] = core
    return core


# ---------------------------------------------------------------- tasks

@dataclass(frozen=True)
class CosimTask:
    """Lock-step cosimulation of one linked image on one backend.

    ``run()`` returns the comparable verdict of
    :func:`~repro.verify.mutation.cosim_verdict`: ``None`` for a clean
    match through halt, ``"mismatch:<field>"`` / ``"refused:<Exc>"``
    otherwise.
    """

    task_id: str
    core: CoreSpec
    program: Program
    backend: str | None = "fused"
    max_instructions: int = 2_000_000
    soc: SocSpec | None = None

    def describe(self) -> str:
        return (f"cosim {self.task_id}: core={self.core.name} "
                f"backend={self.backend} "
                f"max_instructions={self.max_instructions}")

    def run(self) -> str | None:
        from ..verify.mutation import cosim_verdict

        return cosim_verdict(self.core.build(), self.program, self.backend,
                             self.max_instructions, soc=self.soc)


@dataclass(frozen=True)
class FuzzCosimTask:
    """One chunk of the randomized differential fuzz campaign.

    Carries only the chunk *seed* — the worker re-expands it through
    :func:`repro.verify.fuzz.random_program`, so the task description
    stays a few hundred bytes and the failure report's ``(task-id, seed)``
    pair is sufficient to replay the chunk anywhere.
    """

    task_id: str
    core: CoreSpec
    seed: int
    backend: str | None = "fused"
    max_instructions: int = 20_000

    def describe(self) -> str:
        return (f"fuzz {self.task_id}: seed={self.seed:#x} "
                f"core={self.core.name} backend={self.backend}")

    def run(self) -> str | None:
        from ..isa.assembler import assemble
        from ..verify.fuzz import random_program
        from ..verify.mutation import cosim_verdict

        return cosim_verdict(self.core.build(),
                             assemble(random_program(self.seed)),
                             self.backend, self.max_instructions)


@dataclass(frozen=True)
class MutantTask:
    """One kill-matrix row: mutant ``index`` of the deterministic
    enumeration over the pristine core, judged under every backend.

    ``run()`` returns ``(description, {backend: verdict})``, one row of
    :func:`~repro.verify.mutation.rtl_mutant_kill_matrix`; the row is the
    same in any process, because mutant enumeration is a pure function of
    the (fingerprint-checked) core structure.
    """

    task_id: str
    core: CoreSpec
    program: Program
    index: int
    limit: int
    backends: tuple[str, ...]
    max_instructions: int = 2_000

    def describe(self) -> str:
        return (f"mutant {self.task_id}: core={self.core.name} "
                f"index={self.index}/{self.limit} "
                f"backends={','.join(self.backends)}")

    def run(self) -> tuple[str, dict[str, str | None]]:
        from ..verify.mutation import mutant_verdict_row

        return mutant_verdict_row(self.core.build(), self.program,
                                  self.index, self.limit, self.backends,
                                  self.max_instructions)


@dataclass(frozen=True)
class ScenarioShardTask:
    """One contiguous scenario range of a coverage-guided campaign.

    Scenarios are pure picklable descriptions (see
    :mod:`repro.scenario.gen`); the worker assembles and runs each one
    and returns its plain outcome row.  ``checks`` marks, per scenario,
    whether the worker must also replay it on the golden ISS — the flag
    is a pure function of the scenario's *global* campaign index, so the
    checked subset is identical at any worker count.  The merge step
    concatenates shard outcome lists in shard order, restoring the
    serial row order exactly.
    """

    task_id: str
    core: CoreSpec
    scenarios: tuple
    checks: tuple

    def describe(self) -> str:
        first = self.scenarios[0].scenario_id if self.scenarios else "-"
        return (f"scenario {self.task_id}: core={self.core.name} "
                f"n={len(self.scenarios)} first={first}")

    def run(self) -> list[dict]:
        from ..scenario.run import run_scenario

        core = self.core.build()
        return [run_scenario(core, scenario, check_backends=check)
                for scenario, check in zip(self.scenarios, self.checks)]


@dataclass(frozen=True)
class LintTask:
    """One shard of the static RTL lint sweep (PR 10).

    Lints a set of library blocks (``blocks``) and/or one subset-lattice
    core (``core``, rebuilt worker-side through the fingerprint-checked
    :meth:`CoreSpec.build` memo).  ``run()`` returns the sorted, deduped
    pre-waiver finding records — a pure function of the target structure,
    so the merged sweep is bit-identical at any worker count.
    """

    task_id: str
    blocks: tuple[str, ...] = ()
    core: CoreSpec | None = None

    def describe(self) -> str:
        target = f"core={self.core.name}" if self.core is not None \
            else f"blocks={','.join(self.blocks)}"
        return f"lint {self.task_id}: {target}"

    def run(self) -> list:
        from ..analysis import lint_module
        from ..rtl.library import default_library

        findings = []
        if self.blocks:
            library = default_library()
            for mnemonic in self.blocks:
                findings.extend(lint_module(library.entry(mnemonic).module))
        if self.core is not None:
            findings.extend(lint_module(self.core.build()))
        return sorted(set(findings))
