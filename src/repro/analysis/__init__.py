"""Static-analysis subsystem: RTL lint, generated-source audit, contracts.

Three analyzers, one finding currency (:class:`Finding`), one waiver table
(:data:`WAIVERS`), one schema-validated ``--lint-out`` artifact:

* :mod:`repro.analysis.rtl_lint` — structural lint over ``rtl.ir`` DAGs
  (RTL001..RTL007), plus the :func:`structural_facts` derivation that
  ``build_rissp``'s build-time gate consumes;
* :mod:`repro.analysis.gen_audit` — hot-loop purity audit of the Python
  sources ``compile_module`` / ``compile_core`` / ``compile_fleet`` emit
  (GEN001..GEN006);
* :mod:`repro.analysis.contracts` — registry/picklability/merge-path
  contracts over the package tree itself (CON001..CON005).

The subset-lattice sweep is farm-sharded via ``repro.farm.LintTask`` /
``repro.farm.lint_campaign`` and surfaced as the ``lint`` CLI stage.
"""

from .contracts import lint_contracts
from .findings import (ANALYZERS, Finding, LINT_KIND, LINT_SCHEMA, WAIVERS,
                       Waiver, apply_waivers, build_lint_report,
                       dedup_findings, validate_lint_report,
                       write_lint_report)
from .gen_audit import audit_compiled, audit_source
from .rtl_lint import StructuralFacts, lint_module, structural_facts

__all__ = [
    "ANALYZERS", "Finding", "LINT_KIND", "LINT_SCHEMA", "StructuralFacts",
    "WAIVERS", "Waiver", "apply_waivers", "audit_compiled", "audit_source",
    "build_lint_report", "dedup_findings", "lint_contracts", "lint_module",
    "structural_facts", "validate_lint_report", "write_lint_report",
]
