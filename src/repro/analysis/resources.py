"""Plan resource-bound analyzer: worst-case state per continuous query.

Abstract interpretation over a rewritten :class:`IncrementalPlan`: every
program slot is mapped to a :class:`Bound` — a symbolic cardinality
``coeff · W^degree`` where ``W`` is the (unknown) tuple count of one
basic window.  Count-based windows pin ``W`` to the step, so their
bounds collapse to plain numbers; time-based windows keep the symbol.

From per-slot bounds the analyzer derives the quantities the overload
and sharing machinery care about:

* **window state** — tuples retained across firings: live basic-window
  bundles in the partial store(s) — plus an invertible plan's running
  table (the combined window, one weight a row; DESIGN.md §17) — prep
  caches and pair results for joins.  Landmark windows retain
  *every* basic window, so their state is finite only when the combine
  program compacts (all outputs stay
  bounded when the packed inputs are unbounded — true for aggregates,
  false for concatenation flows).  Non-compacting landmark state is the
  ``unbounded-landmark`` finding.
* **basket depth** — tuples a basket must hold before the factory can
  fire (one basic window).  A stream ``capacity`` below that is the
  ``capacity-starved`` finding: the query can never fire.
* **join pairs** — a join retains the rows of every live basic-window
  pair (the pair fragment's flows for that pair, in the pair table) and
  merges all of them every slide; many live pairs are the
  ``join-fanout`` hazard.  Per slide the
  factory joins each new basic window against the other side's live
  window in one tagged run: the *transient* bound is that run's largest
  intermediate.

Results surface three ways: submit-time diagnostics on
:class:`~repro.core.engine.DataCellEngine` (errors raise only under
``verify_plans=True``), the ``repro lint --resources`` table, and
:meth:`ResourceReport.to_json` for the future cost model (ROADMAP 3–5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.analysis.diagnostics import Report
from repro.core.rewriter.incremental import IncrementalPlan, new_slot, packed, prep_slot, seq_slot
from repro.core.windows import WindowSpec
from repro.kernel.execution.program import Instr, Lit, Program, Ref
from repro.sql.physical import scan_slot

#: Live basic-window pair count above which a join is flagged as a
#: fan-out hazard (every slide merges the retained rows of every live pair).
JOIN_FANOUT_THRESHOLD = 64


# ----------------------------------------------------------------------
# the bound lattice
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Bound:
    """A symbolic cardinality ``coeff · W^degree`` (W = basic-window tuples).

    ``coeff = inf`` is the lattice top (unbounded); degree is meaningless
    there.  The lattice is ordered pointwise: higher degree dominates,
    then higher coefficient.
    """

    coeff: float
    degree: int = 0

    @property
    def finite(self) -> bool:
        return math.isfinite(self.coeff)

    @property
    def constant(self) -> bool:
        """True when the bound does not depend on W."""
        return self.finite and (self.degree == 0 or self.coeff == 0)

    def add(self, other: "Bound") -> "Bound":
        if not (self.finite and other.finite):
            return UNBOUNDED
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        degree = max(self.degree, other.degree)
        return Bound(self.coeff + other.coeff, degree)

    def mul(self, other: "Bound") -> "Bound":
        if self.coeff == 0 or other.coeff == 0:
            return ZERO
        if not (self.finite and other.finite):
            return UNBOUNDED
        return Bound(self.coeff * other.coeff, self.degree + other.degree)

    def min_with(self, other: "Bound") -> "Bound":
        return self if _order_key(self) <= _order_key(other) else other

    def max_with(self, other: "Bound") -> "Bound":
        return self if _order_key(self) >= _order_key(other) else other

    def scaled(self, factor: float) -> "Bound":
        return self.mul(Bound(factor))

    def render(self) -> str:
        if not self.finite:
            return "unbounded"
        if self.coeff == 0:
            return "0"
        coeff = f"{self.coeff:g}"
        if self.degree == 0:
            return coeff
        w = "W" if self.degree == 1 else f"W^{self.degree}"
        return w if self.coeff == 1 else f"{coeff}·{w}"

    def to_json(self) -> dict[str, Any]:
        return {
            "coeff": None if not self.finite else self.coeff,
            "degree": self.degree,
            "finite": self.finite,
            "text": self.render(),
        }


ZERO = Bound(0)
ONE = Bound(1)
UNBOUNDED = Bound(math.inf)


def _order_key(bound: Bound) -> tuple[float, float]:
    if not bound.finite:
        return (math.inf, math.inf)
    if bound.coeff == 0:
        return (-1, 0)
    return (bound.degree, bound.coeff)


def bound_max(bounds: Sequence[Bound]) -> Bound:
    out = ZERO
    for bound in bounds:
        out = out.max_with(bound)
    return out


def bound_sum(bounds: Sequence[Bound]) -> Bound:
    out = ZERO
    for bound in bounds:
        out = out.add(bound)
    return out


# ----------------------------------------------------------------------
# per-opcode transfer functions
# ----------------------------------------------------------------------
#: Opcodes whose single output never exceeds the first referenced input
#: (filters, reorderings, per-row maps over one column).
_SHRINKING = {
    "algebra.select",
    "algebra.thetaselect",
    "algebra.mask_select",
    "algebra.projection",
    "algebra.sort",
    "algebra.sortrefine",
    "algebra.semijoin",
    "algebra.antijoin",
    "bat.mirror",
    "bat.materialize",
    "bat.slice",
    "bat.id",
    "group.distinct",
    "cand.intersect",
    "cand.difference",
}

#: Full aggregates: one output row regardless of input size.
_SCALAR = {
    "aggr.sum",
    "aggr.count",
    "aggr.min",
    "aggr.max",
    "aggr.avg",
    "bat.count",
    "calc.const",
}

#: Grouped/merge aggregates: output ≤ the smallest referenced input
#: (one row per group, groups ≤ rows).
_GROUPWISE = {
    "aggr.subsum",
    "aggr.subcount",
    "aggr.submin",
    "aggr.submax",
    "aggr.subavg",
    "aggr.align",
}

#: Concatenations: output = sum of referenced inputs.
_CONCAT = {"mat.pack", "bat.append", "cand.union"}


def _ref_bounds(instr: Instr, env: dict[str, Bound]) -> list[Bound]:
    return [env.get(arg.name, UNBOUNDED) for arg in instr.args if isinstance(arg, Ref)]


def transfer(instr: Instr, env: dict[str, Bound]) -> Bound:
    """Output-slot bound of one instruction given its input bounds."""
    refs = _ref_bounds(instr, env)
    opcode = instr.opcode
    if opcode in _SCALAR:
        return ONE
    if opcode in _SHRINKING:
        return refs[0] if refs else ONE
    if opcode in _GROUPWISE:
        out = UNBOUNDED
        for bound in refs:
            out = out.min_with(bound)
        return out
    if opcode in _CONCAT:
        return bound_sum(refs)
    if opcode == "algebra.join":
        if len(refs) >= 2:
            return refs[0].mul(refs[1])
        return UNBOUNDED
    if opcode == "algebra.firstn":
        limit = next(
            (Bound(arg.value) for arg in instr.args
             if isinstance(arg, Lit) and isinstance(arg.value, (int, float))),
            UNBOUNDED,
        )
        first = refs[0] if refs else UNBOUNDED
        return first.min_with(limit)
    if opcode == "group.group":
        # gids is row-aligned; extents/ngroups are ≤ rows.  The row bound
        # is safe for every output.
        return refs[0] if refs else ONE
    # calc.* and anything unknown: row-aligned with the widest input.
    return bound_max(refs) if refs else ONE


def program_bounds(
    program: Program,
    inputs: dict[str, Bound],
    constant: frozenset[str] = frozenset(),
) -> dict[str, Bound]:
    """Abstractly interpret a program; returns bounds for every slot.

    ``constant`` names inputs holding one distinct value (a join side's
    seq tag over one basic window).  Projections keep that property, and
    grouping by such columns alone yields at most one group — which is
    what bounds a global aggregate grouped by the tag pair to one row.
    """
    env: dict[str, Bound] = {name: UNBOUNDED for name in program.inputs}
    env.update(inputs)
    single = set(constant)
    for instr in program.instructions:
        bound = transfer(instr, env)
        for out in instr.outs:
            env[out] = bound
        keys = [arg.name for arg in instr.args if isinstance(arg, Ref)]
        if instr.opcode == "algebra.projection" and keys[-1:] and keys[-1] in single:
            single.update(instr.outs)
        elif instr.opcode == "group.group" and keys and set(keys) <= single:
            for out in instr.outs[1:]:  # extents, ngroups; gids stay rows
                env[out] = ONE
    return env


def output_bounds(
    program: Program, inputs: dict[str, Bound]
) -> dict[str, Bound]:
    env = program_bounds(program, inputs)
    return {name: env.get(name, UNBOUNDED) for name in program.outputs}


# ----------------------------------------------------------------------
# plan-level analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AliasBounds:
    """Resource facts for one stream input of a plan."""

    alias: str
    relation: str
    window: WindowSpec
    #: tuples in one basic window (step for count-based, W otherwise).
    window_tuples: Bound
    #: live basic windows retained (inf for landmark without compaction).
    live_windows: Bound
    #: tuples retained across firings for this input (partials/preps,
    #: a running table included).
    state: Bound
    #: minimum basket occupancy needed for the factory to fire once.
    basket_need: Bound
    capacity: Optional[int] = None

    def to_json(self) -> dict[str, Any]:
        return {
            "alias": self.alias,
            "relation": self.relation,
            "window": {
                "kind": self.window.kind,
                "size": self.window.size,
                "step": self.window.step,
                "time_based": self.window.time_based,
            },
            "window_tuples": self.window_tuples.to_json(),
            "live_windows": self.live_windows.to_json(),
            "state": self.state.to_json(),
            "basket_need": self.basket_need.to_json(),
            "capacity": self.capacity,
        }


@dataclass
class ResourceReport:
    """Worst-case state bounds of one rewritten plan, plus diagnostics."""

    subject: str
    aliases: list[AliasBounds] = field(default_factory=list)
    #: live basic-window pairs, each retaining its rows (joins only).
    join_pairs: Optional[Bound] = None
    #: tuples retained per live pair: the pair fragment's flows (joins only).
    pair_state: Optional[Bound] = None
    #: largest intermediate of one slide's join run: a new basic window
    #: against the other side's live window (joins only; not retained).
    join_transient: Optional[Bound] = None
    #: total tuples retained across firings (all stores summed).
    total_state: Bound = ZERO
    report: Report = field(default_factory=Report)

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def bounded(self) -> bool:
        return self.total_state.finite

    def render_table(self) -> str:
        lines = [f"-- resources: {self.subject}"]
        for ab in self.aliases:
            cap = "unbounded" if not ab.capacity else str(ab.capacity)
            lines.append(
                f"  {ab.alias} ({ab.relation}, {ab.window.kind}): "
                f"basic window = {ab.window_tuples.render()} tuples, "
                f"live windows = {ab.live_windows.render()}, "
                f"state = {ab.state.render()}, "
                f"basket need = {ab.basket_need.render()} (capacity {cap})"
            )
        if (
            self.join_pairs is not None
            and self.pair_state is not None
            and self.join_transient is not None
        ):
            lines.append(
                f"  join: live pairs = {self.join_pairs.render()}, "
                f"state per pair = {self.pair_state.render()}, "
                f"per-slide join run = {self.join_transient.render()} tuples"
            )
        lines.append(f"  total state bound = {self.total_state.render()}")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "bounded": self.bounded,
            "total_state": self.total_state.to_json(),
            "aliases": [ab.to_json() for ab in self.aliases],
            "join_pairs": self.join_pairs.to_json() if self.join_pairs else None,
            "pair_state": self.pair_state.to_json() if self.pair_state else None,
            "join_transient": (
                self.join_transient.to_json() if self.join_transient else None
            ),
            "report": self.report.to_json(),
        }


def window_tuple_bound(window: WindowSpec) -> Bound:
    """Tuples in one basic window: the step for count-based windows."""
    if window.time_based:
        return Bound(1, 1)
    return Bound(window.step)


def combine_compacts(plan: IncrementalPlan) -> bool:
    """True when combine maps unbounded packed inputs to bounded outputs.

    Aggregate combines (sum of sums, merge of grouped partials) compact:
    their output size is independent of how many partials were packed.
    Concatenation combines (select-only queries) do not — every retained
    basic window contributes rows forever.  This is what decides whether
    a landmark query's state stays finite.
    """
    inputs = {packed(flow.name): UNBOUNDED for flow in plan.flows}
    outs = output_bounds(plan.combine, inputs)
    return all(bound.finite for bound in outs.values())


def running_table_bound(
    plan: IncrementalPlan, live_windows: int, flow_bounds: Sequence[Bound]
) -> Bound:
    """Tuples an invertible plan's running table adds to its store.

    Mirrors ``IncrementalFactory._running_bundle``: the table is what
    combine makes of the window's ``live_windows`` partials
    (``flow_bounds``: one basic window's rows per flow, in flow order)
    plus one weight per row (per group, or per global flow).  Other
    plans keep no state beside their partials.
    """
    if not plan.invertible:
        return ZERO
    packed_inputs = {
        packed(flow.name): bound.scaled(live_windows)
        for flow, bound in zip(plan.flows, flow_bounds)
    }
    table = list(output_bounds(plan.combine, packed_inputs).values())
    weights = bound_max(table) if plan.grouped else Bound(len(plan.flows))
    return bound_sum(table).add(weights)


def _scan_inputs(plan: IncrementalPlan, alias: str, bound: Bound) -> dict[str, Bound]:
    """Input-slot bounds of a fragment/prep reading one basic window."""
    inputs = {
        scan_slot(alias, column): bound for column in plan.scan_columns.get(alias, [])
    }
    if plan.table_alias is not None:
        # Base-table side of a stream-table join: unknown but fixed size.
        for column in plan.scan_columns.get(plan.table_alias, []):
            inputs[scan_slot(plan.table_alias, column)] = Bound(1, 1)
    return inputs


def _pair_inputs(plan: IncrementalPlan, alias: str, windows: Bound) -> dict[str, Bound]:
    """Pair-fragment input bounds for ``windows`` basic windows of one
    stream side: its prepped columns and its seq tags, which are as long."""
    prep = plan.preps[alias]
    w_tuples = window_tuple_bound(plan.windows[alias])
    outs = output_bounds(prep.program, _scan_inputs(plan, alias, w_tuples))
    inputs = {
        prep_slot(alias, column): bound.mul(windows)
        for column, bound in zip(prep.columns, outs.values())
    }
    inputs[seq_slot(alias)] = bound_max(list(inputs.values())) if inputs else ZERO
    inputs[new_slot(alias)] = ONE
    return inputs


def analyze_resources(
    plan: IncrementalPlan,
    capacities: Optional[dict[str, Optional[int]]] = None,
    subject: str = "plan",
) -> ResourceReport:
    """Compute worst-case state bounds for one rewritten plan.

    ``capacities`` maps stream *relation* → basket capacity (``None`` =
    unbounded); pass None when capacities are unknown (lint).
    """
    capacities = capacities or {}
    result = ResourceReport(subject=subject, report=Report(subject=subject))
    report = result.report
    compacts = combine_compacts(plan)
    total = ZERO

    for alias in plan.stream_aliases:
        window = plan.windows[alias]
        w_tuples = window_tuple_bound(window)
        relation = plan.stream_relations[alias]
        capacity = capacities.get(relation)

        if window.is_landmark:
            if compacts:
                live = Bound(1)
            else:
                live = UNBOUNDED
                report.warning(
                    "plan",
                    f"landmark window on {alias!r} with a non-compacting "
                    f"combine retains every basic window: state grows "
                    "without bound; add an aggregate, or call "
                    "reset_landmark periodically",
                    code="unbounded-landmark",
                )
        else:
            live = Bound(window.basic_windows)

        # Per-basic-window retained tuples: fragment flow outputs for
        # single-stream plans, prep outputs for joins.
        flow_bounds: list[Bound] = []
        if plan.is_join:
            prep = plan.preps.get(alias)
            if prep is not None:
                outs = output_bounds(prep.program, _scan_inputs(plan, alias, w_tuples))
                per_window = bound_sum(list(outs.values()))
            else:  # pragma: no cover - joins always prep both sides
                per_window = w_tuples
        elif plan.fragment is not None:
            env = program_bounds(plan.fragment, _scan_inputs(plan, alias, w_tuples))
            flow_bounds = [env.get(slot, UNBOUNDED) for slot in plan.fragment.outputs]
            per_window = bound_sum(flow_bounds)
        else:  # pragma: no cover - incremental plans always have a fragment
            per_window = w_tuples

        if window.is_landmark and compacts:
            # The store keeps one *combined* bundle, whose size is the
            # combine output bound, not the per-window partial size.
            state = bound_sum(
                list(
                    output_bounds(
                        plan.combine,
                        {packed(flow.name): UNBOUNDED for flow in plan.flows},
                    ).values()
                )
            )
        else:
            state = live.mul(per_window)
        state = state.add(running_table_bound(plan, window.basic_windows, flow_bounds))
        total = total.add(state)

        basket_need = w_tuples  # the factory fires per basic window
        if (
            capacity is not None
            and basket_need.constant
            and capacity < basket_need.coeff
        ):
            report.error(
                "plan",
                f"stream {relation!r} capacity {capacity} is below one "
                f"basic window ({int(basket_need.coeff)} tuples) for "
                f"{alias!r}: the query can never fire",
                code="capacity-starved",
            )

        result.aliases.append(
            AliasBounds(
                alias=alias,
                relation=relation,
                window=window,
                window_tuples=w_tuples,
                live_windows=live,
                state=state,
                basket_need=basket_need,
                capacity=capacity,
            )
        )

    if plan.is_join and plan.pair_fragment is not None and len(result.aliases) == 2:
        left, right = result.aliases
        pairs = left.live_windows.mul(right.live_windows)
        fragment = plan.pair_fragment
        flow_slots = fragment.outputs[: len(plan.flows)]
        # Retained: what the pair fragment makes of one basic window per
        # side — the rows the factory keeps per pair (their seq tags are
        # columns of those rows, not rows of their own).
        one_each = {}
        for alias in plan.stream_aliases:
            one_each.update(_pair_inputs(plan, alias, ONE))
        tags = frozenset(seq_slot(alias) for alias in plan.stream_aliases)
        env = program_bounds(fragment, one_each, tags)
        pair_state = bound_sum([env.get(slot, UNBOUNDED) for slot in flow_slots])
        # Transient: one run per slide joins the L-shaped delta, a new
        # left basic window against the whole live right window plus the
        # older live left window against a new right basic window.
        def held(alias: str, older: bool) -> Bound:
            window = plan.windows[alias]
            if window.is_landmark:
                return UNBOUNDED
            return Bound(window.basic_windows - older)

        transient = ZERO
        for sides in ((ONE, held(right.alias, False)), (held(left.alias, True), ONE)):
            inputs = {}
            for alias, windows in zip(plan.stream_aliases, sides):
                inputs.update(_pair_inputs(plan, alias, windows))
            env = program_bounds(fragment, inputs)
            transient = transient.add(bound_max(list(env.values())))
        result.join_pairs = pairs
        result.pair_state = pair_state
        result.join_transient = transient
        total = total.add(pairs.mul(pair_state))
        if pairs.constant and pairs.coeff > JOIN_FANOUT_THRESHOLD:
            report.warning(
                "plan",
                f"join retains the rows of {int(pairs.coeff)} live "
                f"basic-window pairs and merges all of them every slide "
                f"(> {JOIN_FANOUT_THRESHOLD}); each slide's join run reaches "
                f"{transient.render()} tuples; consider a larger step or "
                f"smaller windows",
                code="join-fanout",
            )

    result.total_state = total
    return result
