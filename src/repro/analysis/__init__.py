"""Static analysis over MAL-like programs and incremental plans.

The passes here never execute a program — they reason about the
straight-line :class:`~repro.kernel.execution.program.Program` IR and the
rewriter's :class:`~repro.core.rewriter.incremental.IncrementalPlan`:

* :mod:`repro.analysis.dataflow` — def-before-use, single assignment,
  dead-instruction detection and elimination;
* :mod:`repro.analysis.typecheck` — atom type inference against the
  per-opcode signature table in :mod:`repro.analysis.signatures`;
* :mod:`repro.analysis.plan_verifier` — the Figure-3 taxonomy invariants
  that the factory and scheduler rely on (packed inputs, closure over
  bundles, AVG expansion, cost tags);
* :mod:`repro.analysis.pretty` — typed human-readable plan dumps;
* :mod:`repro.analysis.lint` — the ``repro lint`` driver that verifies
  real queries from ``examples/`` and ``benchmarks/``;
* :mod:`repro.analysis.resources` — abstract interpretation computing
  worst-case per-factory state bounds (``repro lint --resources``).
"""

from repro.analysis.dataflow import (
    analyze_dataflow,
    dead_instructions,
    eliminate_dead_instructions,
)
from repro.analysis.diagnostics import (
    SEV_ERROR,
    SEV_WARNING,
    Diagnostic,
    Report,
)
from repro.analysis.plan_verifier import check_plan, verify_plan
from repro.analysis.pretty import dump_plan, dump_program
from repro.analysis.resources import Bound, ResourceReport, analyze_resources
from repro.analysis.signatures import SIGNATURES, signature_for
from repro.analysis.typecheck import infer_types, output_atoms

__all__ = [
    "SEV_ERROR",
    "SEV_WARNING",
    "SIGNATURES",
    "Bound",
    "Diagnostic",
    "Report",
    "ResourceReport",
    "analyze_dataflow",
    "analyze_resources",
    "check_plan",
    "dead_instructions",
    "dump_plan",
    "dump_program",
    "eliminate_dead_instructions",
    "infer_types",
    "output_atoms",
    "signature_for",
    "verify_plan",
]
