"""Static verification of rewritten incremental plans.

Checks the invariants of the paper's Figure-3 operator taxonomy that the
rewriter (:mod:`repro.core.rewriter.incremental`) is supposed to uphold and
that the factory silently relies on:

* every program (fragment, preps, pair fragment, combine, finalize, and
  the tagged twins of the fragment and the stream preps) passes the
  dataflow and type-inference passes;
* **tagged twins** — a tagged fragment (prep) reads the INT basic-window
  tag and (some of) the plain one's inputs, and emits the plain one's
  outputs, atom for atom, followed by the tag: the bundles it is split
  into stand in for plain ones;
* **flow wiring** — fragment outputs map 1:1 onto the declared flows, the
  combine program consumes exactly the ``packed_<flow>`` columns and
  produces exactly the flow columns, and finalize consumes the flows;
* **closure over bundles** — each combine output has the combine opcode
  its flow kind mandates (count partials are *summed*, never re-counted)
  and the same atom as the packed partials it merges, so a combined bundle
  can re-enter the store as a valid partial (landmark compaction and the
  m-chunk optimization both feed combine its own output);
* **expanding replication** — AVG never survives as a directly-combined
  flow: it must be split into a sum flow and a count flow (``X__sum`` /
  ``X__cnt``) finalized as their quotient, and no incremental program may
  use ``aggr.avg`` / ``aggr.subavg``;
* **cost tags** — every instruction carries a legal profiler tag, fragment
  work is tagged ``main``, merge machinery ``merge`` (DataCell's Figure-7
  cost breakdown depends on this labelling);
* the declared output names/atoms agree with what finalize actually
  produces.

``schemas`` (alias → column → atom) is optional; without it the type-level
checks degrade gracefully to the unknown-typed subset.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.analysis.dataflow import analyze_dataflow
from repro.analysis.diagnostics import Report
from repro.analysis.typecheck import infer_types
from repro.core.rewriter.flows import GLOBAL_COMBINE, GROUPED_COMBINE
from repro.core.rewriter.incremental import IncrementalPlan, new_slot, packed, prep_slot, seq_slot
from repro.errors import PlanVerificationError
from repro.kernel.atoms import Atom
from repro.kernel.execution.program import (
    Instr,
    Program,
    Ref,
    TAG_ADMIN,
    TAG_MAIN,
    TAG_MERGE,
)
from repro.sql.physical import scan_slot

#: flow kinds of the operator taxonomy (Figure 3)
GROUPED_KINDS = frozenset({"gkey", "gsum", "gcount", "gmin", "gmax"})
GLOBAL_KINDS = frozenset({"sum", "count", "min", "max"})
KNOWN_KINDS = GROUPED_KINDS | GLOBAL_KINDS | {"pack"}

#: opcodes that must never appear in an incremental program: AVG partials
#: cannot be merged directly (average of averages is wrong), which is why
#: the rewriter expands AVG into sum+count flows.
FORBIDDEN_OPCODES = frozenset({"aggr.avg", "aggr.subavg"})

_LEGAL_TAGS = frozenset({TAG_MAIN, TAG_MERGE, TAG_ADMIN})

SchemaMap = Mapping[str, Mapping[str, Atom]]


def _check_tags(
    report: Report, program: Program, where: str, expected: frozenset[str]
) -> None:
    for index, instr in enumerate(program.instructions):
        if instr.tag not in _LEGAL_TAGS:
            report.error(
                where,
                f"illegal cost tag {instr.tag!r} on {instr.opcode} "
                f"(must be one of {sorted(_LEGAL_TAGS)})",
                instr=index,
            )
        elif instr.tag not in expected:
            report.error(
                where,
                f"{instr.opcode} is tagged {instr.tag!r} but every "
                f"instruction of the {where} program must be tagged "
                f"{' or '.join(sorted(expected))} (profiler cost breakdown)",
                instr=index,
            )


def _check_forbidden(report: Report, program: Program, where: str) -> None:
    for index, instr in enumerate(program.instructions):
        if instr.opcode in FORBIDDEN_OPCODES:
            report.error(
                where,
                f"{instr.opcode} must not appear in incremental programs: "
                "AVG partials do not merge — expand into sum and count "
                "flows (expanding replication)",
                instr=index,
            )


def _producer(program: Program, slot: str) -> Optional[tuple[int, Instr]]:
    for index, instr in enumerate(program.instructions):
        if slot in instr.outs:
            return index, instr
    return None


def _slots_read(program: Program) -> set[str]:
    return {
        arg.name
        for instr in program.instructions
        for arg in instr.args
        if isinstance(arg, Ref)
    }


def _run_program_passes(
    report: Report,
    program: Program,
    where: str,
    input_atoms: Optional[Mapping[str, Optional[Atom]]],
    tags: frozenset[str],
) -> dict[str, Optional[Atom]]:
    """Dataflow + tags + type inference for one program; returns slot types."""
    report.extend(analyze_dataflow(program, where))
    _check_tags(report, program, where, tags)
    _check_forbidden(report, program, where)
    env, __ = infer_types(program, input_atoms, where, report)
    return env


def _scan_atoms(
    plan: IncrementalPlan, alias: str, schemas: Optional[SchemaMap]
) -> dict[str, Optional[Atom]]:
    """Input-slot atoms of a per-basic-window program for ``alias``."""
    columns = plan.scan_columns.get(alias, [])
    table = dict((schemas or {}).get(alias, {}))
    return {scan_slot(alias, column): table.get(column) for column in columns}


def verify_plan(
    plan: IncrementalPlan, schemas: Optional[SchemaMap] = None
) -> Report:
    """Verify every invariant; returns the full report (never raises)."""
    report = Report(subject="incremental plan")
    flows = plan.flows

    # ------------------------------------------------------------------
    # flow taxonomy sanity
    # ------------------------------------------------------------------
    seen_flow_names: set[str] = set()
    for flow in flows:
        if flow.name in seen_flow_names:
            report.error("plan", f"duplicate flow name {flow.name!r}")
        seen_flow_names.add(flow.name)
        if flow.kind not in KNOWN_KINDS:
            report.error(
                "plan",
                f"flow {flow.name!r} has unknown kind {flow.kind!r} "
                f"(taxonomy kinds: {sorted(KNOWN_KINDS)})",
            )
    kinds = {flow.kind for flow in flows} & KNOWN_KINDS
    if not flows:
        report.error("plan", "plan declares no flows")
    if plan.grouped:
        if "gkey" not in kinds:
            report.error(
                "plan", "grouped plan has no gkey flow to re-group on"
            )
        illegal = kinds - GROUPED_KINDS
        if illegal:
            report.error(
                "plan",
                f"grouped plan mixes in non-grouped flow kinds {sorted(illegal)}",
            )
    else:
        if kinds & GROUPED_KINDS:
            report.error(
                "plan",
                f"non-grouped plan carries grouped flow kinds "
                f"{sorted(kinds & GROUPED_KINDS)}",
            )
        if "pack" in kinds and kinds - {"pack"}:
            report.error(
                "plan",
                "plan mixes pack (concatenation) flows with aggregate flows",
            )

    # -- AVG expansion: sum/count flows must come in pairs -------------
    flow_by_name = {flow.name: flow for flow in flows}
    for flow in flows:
        if flow.name.endswith("__sum"):
            partner = flow.name[: -len("__sum")] + "__cnt"
            mate = flow_by_name.get(partner)
            if mate is None:
                report.error(
                    "plan",
                    f"AVG sum flow {flow.name!r} has no matching count flow "
                    f"{partner!r}: the quotient cannot be finalized "
                    "(expanding replication needs both)",
                )
            elif mate.kind not in ("count", "gcount"):
                report.error(
                    "plan",
                    f"AVG count flow {partner!r} has kind {mate.kind!r}, "
                    "expected a count kind",
                )
        if flow.name.endswith("__cnt"):
            partner = flow.name[: -len("__cnt")] + "__sum"
            if partner not in flow_by_name:
                report.error(
                    "plan",
                    f"AVG count flow {flow.name!r} has no matching sum flow "
                    f"{partner!r} (expanding replication needs both)",
                )

    # ------------------------------------------------------------------
    # shape: single-stream vs join
    # ------------------------------------------------------------------
    if not plan.stream_aliases:
        report.error("plan", "plan has no stream inputs")
    for alias in plan.stream_aliases:
        if alias not in plan.windows:
            report.error("plan", f"stream {alias!r} has no window specification")

    fragment_atoms: dict[str, Optional[Atom]] = {}
    if plan.is_join:
        if plan.fragment is not None or plan.tagged_fragment is not None:
            report.error(
                "plan", "join plan must not carry a single-stream fragment"
            )
        sides = list(plan.stream_aliases)
        if plan.table_alias is not None:
            sides.append(plan.table_alias)
        for alias in sides:
            if alias not in plan.preps:
                report.error("plan", f"join side {alias!r} has no prep program")
        for alias in plan.preps:
            if alias not in sides:
                report.error("plan", f"prep program for unknown side {alias!r}")

        # preps: filter + narrowing, one output per kept column
        pair_inputs: dict[str, Optional[Atom]] = {}
        expected_pair_inputs: list[str] = []
        for alias, prep in plan.preps.items():
            where = f"prep[{alias}]"
            scan_atoms = _scan_atoms(plan, alias, schemas)
            env = _run_program_passes(
                report,
                prep.program,
                where,
                scan_atoms,
                frozenset({TAG_MAIN, TAG_ADMIN}),
            )
            if len(prep.program.outputs) != len(prep.columns):
                report.error(
                    where,
                    f"prep declares {len(prep.columns)} column(s) "
                    f"{prep.columns} but its program emits "
                    f"{len(prep.program.outputs)} output(s)",
                )
            plain_atoms = [env.get(slot) for slot in prep.program.outputs]
            if alias == plan.table_alias:
                if prep.tagged is not None:
                    report.error(where, "a base table's prep runs once, untagged")
            elif prep.tagged is None:
                report.error(where, "stream prep has no tagged twin")
            else:
                _check_tagged_twin(
                    report,
                    prep.tagged,
                    prep.program,
                    f"tagged prep[{alias}]",
                    alias,
                    scan_atoms,
                    plain_atoms,
                )
            for column, slot in zip(prep.columns, prep.program.outputs):
                name = prep_slot(alias, column)
                pair_inputs[name] = env.get(slot)
                expected_pair_inputs.append(name)
            pair_inputs[seq_slot(alias)] = pair_inputs[new_slot(alias)] = Atom.INT
            expected_pair_inputs += [seq_slot(alias), new_slot(alias)]

        if plan.pair_fragment is None:
            report.error("plan", "join plan has no pair fragment")
        else:
            where = "pair_fragment"
            got = set(plan.pair_fragment.inputs)
            expected = set(expected_pair_inputs)
            for missing in sorted(expected - got):
                report.error(
                    where,
                    f"prepped column {missing!r} is produced by a prep but "
                    "not declared as a pair-fragment input",
                )
            for extra in sorted(got - expected):
                report.error(
                    where,
                    f"pair-fragment input {extra!r} matches no prep output: "
                    "the factory cannot supply it",
                )
            env = _run_program_passes(
                report,
                plan.pair_fragment,
                where,
                pair_inputs,
                frozenset({TAG_MAIN, TAG_ADMIN}),
            )
            fragment_atoms = _check_flow_outputs(
                report, plan.pair_fragment, where, flows, env, tags=2
            )
    else:
        if plan.preps or plan.pair_fragment is not None:
            report.error(
                "plan", "single-stream plan must not carry join prep programs"
            )
        if len(plan.stream_aliases) > 1:
            report.error(
                "plan",
                f"non-join plan reads {len(plan.stream_aliases)} streams",
            )
        if plan.fragment is None:
            report.error("plan", "single-stream plan has no fragment program")
        else:
            where = "fragment"
            alias = plan.stream_aliases[0] if plan.stream_aliases else ""
            scan_atoms = _scan_atoms(plan, alias, schemas)
            env = _run_program_passes(
                report,
                plan.fragment,
                where,
                scan_atoms,
                frozenset({TAG_MAIN, TAG_ADMIN}),
            )
            fragment_atoms = _check_flow_outputs(
                report, plan.fragment, where, flows, env
            )
            if plan.tagged_fragment is None:
                report.error("plan", "single-stream plan has no tagged fragment")
            else:
                _check_tagged_twin(
                    report,
                    plan.tagged_fragment,
                    plan.fragment,
                    "tagged_fragment",
                    alias,
                    scan_atoms,
                    [fragment_atoms.get(f.name) for f in flows],
                )

    # ------------------------------------------------------------------
    # combine: packed partials in, one merged bundle out (closed!)
    # ------------------------------------------------------------------
    combine_inputs = {
        packed(flow.name): fragment_atoms.get(flow.name) for flow in flows
    }
    where = "combine"
    combine_env = _run_program_passes(
        report,
        plan.combine,
        where,
        combine_inputs,
        frozenset({TAG_MERGE, TAG_ADMIN}),
    )
    got_inputs = set(plan.combine.inputs)
    expected_inputs = set(combine_inputs)
    for missing in sorted(expected_inputs - got_inputs):
        report.error(
            where,
            f"combine does not declare input {missing!r}: the factory packs "
            "every flow's partials and combine must consume them",
        )
    for extra in sorted(got_inputs - expected_inputs):
        report.error(
            where,
            f"combine input {extra!r} matches no declared flow "
            "(packed_<flow> inputs only)",
        )
    got_outputs = set(plan.combine.outputs)
    flow_names = {flow.name for flow in flows}
    for missing in sorted(flow_names - got_outputs):
        report.error(
            where,
            f"combine does not produce flow {missing!r}: its bundle would "
            "not be a valid partial (combine must be closed over bundles)",
        )
    for extra in sorted(got_outputs - flow_names):
        report.error(where, f"combine output {extra!r} is not a declared flow")

    # closure checks per flow: the right merge opcode, and a stable atom
    for flow in flows:
        if flow.name not in got_outputs:
            continue
        produced = _producer(plan.combine, flow.name)
        if produced is None:
            continue  # an input passthrough would already be a dataflow error
        index, instr = produced
        expected_op = _expected_combine_opcode(flow.kind)
        if expected_op is not None and instr.opcode != expected_op:
            report.error(
                where,
                f"flow {flow.name!r} ({flow.kind}) is merged with "
                f"{instr.opcode} but the taxonomy mandates {expected_op} "
                "(e.g. count partials are summed, never re-counted)",
                instr=index,
            )
        in_atom = combine_inputs.get(packed(flow.name))
        out_atom = combine_env.get(flow.name)
        if in_atom is not None and out_atom is not None and in_atom != out_atom:
            report.error(
                where,
                f"flow {flow.name!r} enters combine as {in_atom.value} but "
                f"leaves as {out_atom.value}: the combined bundle could not "
                "re-enter the partial store (not closed over bundles)",
            )

    # ------------------------------------------------------------------
    # finalize: flows in, result columns out
    # ------------------------------------------------------------------
    where = "finalize"
    finalize_inputs = {
        flow.name: combine_env.get(flow.name, fragment_atoms.get(flow.name))
        for flow in flows
    }
    finalize_env = _run_program_passes(
        report,
        plan.finalize,
        where,
        finalize_inputs,
        frozenset({TAG_MERGE, TAG_ADMIN}),
    )
    got_inputs = set(plan.finalize.inputs)
    for missing in sorted(flow_names - got_inputs):
        report.error(
            where,
            f"finalize does not declare flow {missing!r} as an input "
            "(the factory hands it the full combined bundle)",
        )
    for extra in sorted(got_inputs - flow_names):
        report.error(where, f"finalize input {extra!r} is not a declared flow")
    read = _slots_read(plan.finalize) | set(plan.finalize.outputs)
    for flow in flows:
        if flow.name in got_inputs and flow.name not in read:
            report.warning(
                where,
                f"flow {flow.name!r} is combined every slide but finalize "
                "never uses it",
            )

    if len(plan.output_names) != len(plan.finalize.outputs):
        report.error(
            where,
            f"plan declares {len(plan.output_names)} output column(s) but "
            f"finalize emits {len(plan.finalize.outputs)}",
        )
    if len(plan.output_names) != len(plan.output_atoms):
        report.error(
            "plan",
            f"output names/atoms length mismatch: {len(plan.output_names)} "
            f"vs {len(plan.output_atoms)}",
        )
    for name, atom, slot in zip(
        plan.output_names, plan.output_atoms, plan.finalize.outputs
    ):
        inferred = finalize_env.get(slot)
        if inferred is not None and atom is not None and inferred != atom:
            report.error(
                where,
                f"output column {name!r} is declared {atom.value} but "
                f"finalize produces {inferred.value}",
            )
    return report


def _expected_combine_opcode(kind: str) -> Optional[str]:
    """The merge opcode the taxonomy mandates for a flow kind."""
    if kind in GROUPED_COMBINE:
        return GROUPED_COMBINE[kind]
    if kind in GLOBAL_COMBINE:
        return GLOBAL_COMBINE[kind]
    if kind == "gkey":
        return "algebra.projection"  # re-grouped key values
    if kind == "pack":
        return "bat.id"  # concatenation only (Figure 3a)
    return None


def _check_flow_outputs(
    report: Report,
    program: Program,
    where: str,
    flows,
    env: Mapping[str, Optional[Atom]],
    tags: int = 0,
) -> dict[str, Optional[Atom]]:
    """Check fragment outputs ↔ flows and return per-flow output atoms.

    ``tags`` trailing outputs are seq tags (the pair fragment's left and
    right basic-window seqs), which must be INT."""
    atoms: dict[str, Optional[Atom]] = {}
    if len(program.outputs) != len(flows) + tags:
        report.error(
            where,
            f"program emits {len(program.outputs)} output(s) but the plan "
            f"declares {len(flows)} flow(s) and {tags} seq tag(s); the "
            "factory zips them positionally",
        )
    for flow, slot in zip(flows, program.outputs):
        atoms[flow.name] = env.get(slot)
    for slot in program.outputs[len(flows):]:
        if env.get(slot) not in (Atom.INT, None):
            report.error(where, f"seq tag output {slot!r} is {env.get(slot)}, not INT")
    return atoms


def _check_tagged_twin(
    report: Report,
    tagged: Program,
    plain: Program,
    where: str,
    alias: str,
    scan_atoms: Mapping[str, Optional[Atom]],
    plain_atoms: list[Optional[Atom]],
) -> None:
    """A tagged run's outputs, cut by its trailing tag, must be bundles of
    the plain program: the tag and plain inputs in, the same atoms out."""
    tag_input = seq_slot(alias)
    env = _run_program_passes(
        report,
        tagged,
        where,
        {**scan_atoms, tag_input: Atom.INT},
        frozenset({TAG_MAIN, TAG_ADMIN}),
    )
    if tag_input not in tagged.inputs or not set(tagged.inputs) <= {*plain.inputs, tag_input}:
        report.error(
            where,
            f"reads {sorted(tagged.inputs)}, not the tag {tag_input!r} and "
            "some of the plain program's inputs",
        )
    if len(tagged.outputs) != len(plain.outputs) + 1:
        report.error(
            where,
            f"emits {len(tagged.outputs)} output(s); the plain program's "
            f"{len(plain.outputs)} and one tag expected",
        )
        return
    for index, (slot, want) in enumerate(zip(tagged.outputs, plain_atoms)):
        got = env.get(slot)
        if got is not None and want is not None and got != want:
            report.error(
                where,
                f"output {index} ({slot!r}) is {got}, the plain program's is "
                f"{want}: its bundles could not stand in for plain ones",
            )
    tag = tagged.outputs[-1]
    if env.get(tag) not in (Atom.INT, None):
        report.error(where, f"tag output {tag!r} is {env.get(tag)}, not INT")


def check_plan(plan: IncrementalPlan, schemas: Optional[SchemaMap] = None) -> Report:
    """Verify ``plan`` and raise :class:`PlanVerificationError` on errors."""
    report = verify_plan(plan, schemas)
    if not report.ok:
        rendered = "\n".join(d.render() for d in report.errors())
        raise PlanVerificationError(
            f"incremental plan failed static verification:\n{rendered}"
        )
    return report


def verify_program(
    program: Program,
    input_atoms: Optional[Mapping[str, Optional[Atom]]] = None,
    subject: str = "program",
) -> Report:
    """Run the program-level passes over one standalone program.

    The partitioned-execution layer synthesizes a *merge* program per
    sharded query (compiled from SQL over the ``__partials`` relation,
    DESIGN.md §14) and verifies it here before the first window fires:
    dataflow (every read slot defined, outputs produced), legal cost
    tags, the forbidden-opcode list, and full atom type inference from
    the partials schema.  Never raises; returns the report.
    """
    report = Report(subject=subject)
    _run_program_passes(report, program, subject, input_atoms, _LEGAL_TAGS)
    return report


def check_program(
    program: Program,
    input_atoms: Optional[Mapping[str, Optional[Atom]]] = None,
    subject: str = "program",
) -> Report:
    """:func:`verify_program`, raising on errors (submit-time gate)."""
    report = verify_program(program, input_atoms, subject)
    if not report.ok:
        rendered = "\n".join(d.render() for d in report.errors())
        raise PlanVerificationError(
            f"{subject} failed static verification:\n{rendered}"
        )
    return report
