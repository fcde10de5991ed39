"""The DataCell incremental plan rewriter (the paper's contribution)."""

from repro.core.rewriter.analysis import PlanShape, analyze
from repro.core.rewriter.flows import AggPlanEntry, Flow, plan_aggregate_flows
from repro.core.rewriter.incremental import (
    IncrementalPlan,
    PrepSpec,
    packed,
    prep_slot,
    reevaluation_plan,
    rewrite,
)

__all__ = [
    "AggPlanEntry",
    "Flow",
    "IncrementalPlan",
    "PlanShape",
    "PrepSpec",
    "analyze",
    "packed",
    "plan_aggregate_flows",
    "prep_slot",
    "reevaluation_plan",
    "rewrite",
]
