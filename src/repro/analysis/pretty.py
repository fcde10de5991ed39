"""Human-readable program dumps with inferred atom types.

``repro lint --dump`` uses this to render each program of an incremental
plan with one instruction per line, its cost tag, and the inferred atom of
every output slot — the format bug reports and EXPERIMENTS.md quote when
discussing rewritten plans.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.analysis.typecheck import infer_types
from repro.core.rewriter.incremental import (
    TAGGED_FRAGMENT_TITLE,
    TAGGED_RUN,
    IncrementalPlan,
    new_slot,
    packed,
    prep_slot,
    seq_slot,
)
from repro.kernel.atoms import Atom
from repro.kernel.execution.program import Lit, Program, Ref
from repro.sql.physical import scan_slot


def _atom_name(atom: Optional[Atom]) -> str:
    return atom.value if atom is not None else "?"


def _operand(arg) -> str:
    if isinstance(arg, Ref):
        return arg.name
    if isinstance(arg, Lit):
        return repr(arg.value)
    return repr(arg)  # pragma: no cover - defensive


def dump_program(
    program: Program,
    title: str,
    input_atoms: Optional[Mapping[str, Optional[Atom]]] = None,
) -> str:
    """Render one program with slot types, one instruction per line."""
    env, __ = infer_types(program, input_atoms, where=title)
    lines = [f"== {title} =="]
    ins = ", ".join(
        f"{name}:{_atom_name(env.get(name))}" for name in program.inputs
    )
    lines.append(f"  inputs:  {ins or '(none)'}")
    for index, instr in enumerate(program.instructions):
        outs = ", ".join(
            f"{out}:{_atom_name(env.get(out))}" for out in instr.outs
        )
        args = ", ".join(_operand(arg) for arg in instr.args)
        lines.append(
            f"  {index:3d}  {outs} := {instr.opcode}({args})  #{instr.tag}"
        )
    outs = ", ".join(
        f"{name}:{_atom_name(env.get(name))}" for name in program.outputs
    )
    lines.append(f"  outputs: {outs or '(none)'}")
    return "\n".join(lines)


def dump_plan(
    plan: IncrementalPlan,
    schemas: Optional[Mapping[str, Mapping[str, Atom]]] = None,
) -> str:
    """Render every program of an incremental plan, types included."""
    schemas = schemas or {}
    parts: list[str] = []

    flow_lines = ["== flows =="]
    for flow in plan.flows:
        flow_lines.append(f"  {flow.name}  [{flow.kind}]")
    parts.append("\n".join(flow_lines))

    window_lines = ["== windows =="]
    for alias, window in plan.windows.items():
        unit = "us" if window.time_based else "tuples"
        size = "landmark" if window.size is None else f"{window.size} {unit}"
        window_lines.append(
            f"  {alias}: {window.kind} size={size} step={window.step} {unit}"
        )
    parts.append("\n".join(window_lines))

    def scan_atoms(alias: str) -> dict[str, Optional[Atom]]:
        table = dict(schemas.get(alias, {}))
        return {
            scan_slot(alias, column): table.get(column)
            for column in plan.scan_columns.get(alias, [])
        }

    def tagged_atoms(alias: str) -> dict[str, Optional[Atom]]:
        return {**scan_atoms(alias), seq_slot(alias): Atom.INT}

    fragment_atoms: dict[str, Optional[Atom]] = {}
    if plan.fragment is not None:
        alias = plan.stream_aliases[0]
        env, __ = infer_types(plan.fragment, scan_atoms(alias))
        fragment_atoms = {
            flow.name: env.get(slot)
            for flow, slot in zip(plan.flows, plan.fragment.outputs)
        }
        parts.append(
            dump_program(
                plan.fragment, "fragment (per basic window)", scan_atoms(alias)
            )
        )
        if plan.tagged_fragment is not None:
            parts.append(
                dump_program(
                    plan.tagged_fragment, TAGGED_FRAGMENT_TITLE, tagged_atoms(alias)
                )
            )
    pair_inputs: dict[str, Optional[Atom]] = {}
    for alias, prep in plan.preps.items():
        env, __ = infer_types(prep.program, scan_atoms(alias))
        for column, slot in zip(prep.columns, prep.program.outputs):
            pair_inputs[prep_slot(alias, column)] = env.get(slot)
        pair_inputs[seq_slot(alias)] = pair_inputs[new_slot(alias)] = Atom.INT
        parts.append(
            dump_program(
                prep.program, f"prep[{alias}] (per basic window)", scan_atoms(alias)
            )
        )
        if prep.tagged is not None:
            parts.append(
                dump_program(
                    prep.tagged, f"prep[{alias}] ({TAGGED_RUN})", tagged_atoms(alias)
                )
            )
    if plan.pair_fragment is not None:
        env, __ = infer_types(plan.pair_fragment, pair_inputs)
        fragment_atoms = {
            flow.name: env.get(slot)
            for flow, slot in zip(plan.flows, plan.pair_fragment.outputs)
        }
        parts.append(
            dump_program(
                plan.pair_fragment,
                "pair fragment (per seq-tagged join run)",
                pair_inputs,
            )
        )

    combine_inputs = {
        packed(flow.name): fragment_atoms.get(flow.name) for flow in plan.flows
    }
    combine_env, __ = infer_types(plan.combine, combine_inputs)
    parts.append(dump_program(plan.combine, "combine (per slide)", combine_inputs))

    finalize_inputs = {
        flow.name: combine_env.get(flow.name) for flow in plan.flows
    }
    parts.append(
        dump_program(plan.finalize, "finalize (per slide)", finalize_inputs)
    )

    out_lines = ["== result columns =="]
    for name, atom in zip(plan.output_names, plan.output_atoms):
        out_lines.append(f"  {name}: {_atom_name(atom)}")
    parts.append("\n".join(out_lines))
    return "\n\n".join(parts)
