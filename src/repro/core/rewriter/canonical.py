"""Canonical fingerprints of per-basic-window fragment programs.

Two continuous queries can share one fragment computation per basic window
iff their fragments are the *same function of the same stream columns* —
regardless of the slot names the per-query compilers happened to generate
(prefixes, instruction counters, scan aliases all differ between
otherwise-identical queries).

:func:`fragment_fingerprint` therefore alpha-renames a fragment into a
canonical form before hashing:

* input slots are renamed to the *stream column* they bind
  (``s1__x2`` → ``in:x2``) — the alias disappears, the column stays;
* every slot defined by an instruction is renamed ``v0, v1, ...`` in
  definition order (programs are straight-line single-assignment, a
  discipline checked by :mod:`repro.analysis.dataflow`, so definition
  order is canonical);
* literals are kept verbatim (repr + type, so ``1`` ≠ ``1.0`` ≠ ``"1"``);
* declared outputs are listed in order under their canonical names.

The SHA-256 of that text is the fingerprint.  Alpha-equivalent fragments
hash equal; fragments differing in any constant, opcode, column binding or
output arity hash apart.

:func:`plan_fingerprint` extends the same renaming to a whole
:class:`~repro.core.rewriter.incremental.IncrementalPlan`: every program
it runs, its outputs, flows and each stream's relation and window.  Two
queries whose plans hash equal are one transition of the Petri net, and
the engine runs them as one factory with one sink per query (DESIGN.md
§6, "Whole-query sharing").
"""

from __future__ import annotations

import hashlib
from typing import Mapping, Optional

from repro.core.rewriter.incremental import IncrementalPlan, new_slot, packed, prep_slot, seq_slot
from repro.kernel.execution.program import Lit, Program, Ref
from repro.sql.physical import scan_slot


def canonical_text(program: Program, input_names: Mapping[str, str]) -> str:
    """The canonical (alpha-renamed) listing of ``program``.

    ``input_names`` maps each program input slot to its stable external
    name (for fragments: the stream column the factory binds to the slot).
    Raises ``KeyError`` if an input slot has no stable name and
    ``ValueError`` if the program reads an undefined slot (i.e. it would
    not pass the dataflow checks).
    """
    rename: dict[str, str] = {}
    for slot in program.inputs:
        rename[slot] = f"in:{input_names[slot]}"
    lines = [
        "inputs " + " ".join(rename[slot] for slot in program.inputs),
    ]
    fresh = 0
    for instr in program.instructions:
        args = []
        for operand in instr.args:
            if isinstance(operand, Ref):
                if operand.name not in rename:
                    raise ValueError(
                        f"{instr.opcode} reads undefined slot {operand.name!r}"
                    )
                args.append(rename[operand.name])
            else:
                assert isinstance(operand, Lit)
                args.append(f"lit:{type(operand.value).__name__}:{operand.value!r}")
        outs = []
        for out in instr.outs:
            if out in rename:
                raise ValueError(f"slot {out!r} assigned twice; not canonicalizable")
            rename[out] = f"v{fresh}"
            fresh += 1
            outs.append(rename[out])
        lines.append(f"{' '.join(outs)} := {instr.opcode}({', '.join(args)})")
    outputs = []
    for out in program.outputs:
        if out not in rename:
            raise ValueError(f"program output {out!r} is never defined")
        outputs.append(rename[out])
    lines.append("outputs " + " ".join(outputs))
    return "\n".join(lines)


def fragment_fingerprint(program: Program, input_names: Mapping[str, str]) -> str:
    """Stable hash of a fragment program modulo slot naming."""
    text = canonical_text(program, input_names)
    return hashlib.sha256(text.encode()).hexdigest()


def plan_fingerprint(plan: IncrementalPlan, mode: str) -> str:
    """Stable hash of a whole plan modulo alias and slot naming.

    Covers the mode, the output names and atoms, the flows, each
    stream's relation, window and scanned columns (a base table's
    relation and columns), and every program the factory runs — preps,
    the fragment and its tagged twin, the pair fragment, combine and
    finalize — each alpha-renamed by :func:`canonical_text`.  Program
    inputs are renamed to what the factory binds to them: a scan slot to
    its relation's column, a prep slot to the prepped column, a seq tag
    and a first-new-row slot to their relation, a packed flow to the
    flow.  An input it does not know keeps its slot name, so a plan with
    an unexpected binding never hashes equal to a plan it differs from.
    """
    sources = {alias: f"stream:{plan.stream_relations[alias]}" for alias in plan.stream_aliases}
    if plan.table_alias is not None:
        sources[plan.table_alias] = f"table:{plan.table_relation}"
    scans: dict[str, str] = {}
    preps: dict[str, str] = {}
    for alias, source in sources.items():
        scans[seq_slot(alias)] = preps[seq_slot(alias)] = f"seq:{source}"
        preps[new_slot(alias)] = f"new:{source}"
        for column in plan.scan_columns.get(alias, ()):
            scans[scan_slot(alias, column)] = f"{source}.{column}"
        if alias in plan.preps:
            for column in plan.preps[alias].columns:
                preps[prep_slot(alias, column)] = f"prep:{source}.{column}"
    combine = {packed(flow.name): f"packed:{flow.name}" for flow in plan.flows}

    def text(title: str, program: Optional[Program], names: dict[str, str]) -> str:
        if program is None:
            return f"== {title}: none"
        bound = {slot: names.get(slot, f"slot:{slot}") for slot in program.inputs}
        return f"== {title}\n{canonical_text(program, bound)}"

    lines = [
        f"mode {mode}",
        "outputs " + " ".join(
            f"{name}:{atom.value}" for name, atom in zip(plan.output_names, plan.output_atoms)
        ),
        "flows " + " ".join(f"{flow.name}:{flow.kind}" for flow in plan.flows),
        f"grouped {plan.grouped} invertible {plan.invertible}",
    ]
    for alias, source in sources.items():
        window = plan.windows.get(alias)
        geometry = (
            f"{window.kind} {window.size} {window.step} {window.time_based}"
            if window is not None
            else "table"
        )
        columns = " ".join(plan.scan_columns.get(alias, ()))
        lines.append(f"source {source} [{geometry}] reads {columns}")
        prep = plan.preps.get(alias)
        if prep is not None:
            lines.append(f"prep columns {' '.join(prep.columns)}")
            lines.append(text(f"prep {source}", prep.program, scans))
            lines.append(text(f"tagged prep {source}", prep.tagged, scans))
    lines += [
        text("fragment", plan.fragment, scans),
        text("tagged fragment", plan.tagged_fragment, scans),
        text("pair fragment", plan.pair_fragment, preps),
        text("combine", plan.combine, combine),
        text("finalize", plan.finalize, scans),
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
