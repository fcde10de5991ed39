"""Interpreter for MAL-like programs.

Maps opcodes to the columnar algebra and evaluates a :class:`Program` over
an environment of named slots.  Results of multi-output opcodes (join,
group, sort) unpack positionally into the instruction's ``outs``.

The opcode surface is intentionally small and flat — the DataCell rewriter
manipulates programs symbolically, so every opcode must be a pure function
of its operands.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping

from repro.errors import ExecutionError, UnknownInstructionError
from repro.kernel.algebra import (
    aggregate,
    calc,
    group as group_mod,
    join as join_mod,
    project,
    select as select_mod,
    setops,
    sort as sort_mod,
)
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.execution.profiler import Profiler
from repro.kernel.execution.program import Instr, Lit, Program, Ref


def _sum_bat(b: BAT) -> BAT:
    """1-row BAT holding SUM(b); 0-row on empty input."""
    if b.is_empty():
        out_atom = b.atom if b.atom == Atom.FLT else Atom.INT
        return BAT.empty(out_atom)
    value = aggregate.total_sum(b)
    out_atom = Atom.FLT if b.atom == Atom.FLT else Atom.INT
    return BAT.from_values([value], out_atom)


def _count_bat(b: BAT) -> BAT:
    """1-row INT BAT holding COUNT(b) (0 is a valid value)."""
    return BAT.from_values([len(b)], Atom.INT)


def _min_bat(b: BAT) -> BAT:
    if b.is_empty():
        return BAT.empty(b.atom)
    return BAT.from_values([aggregate.total_min(b)], b.atom)


def _max_bat(b: BAT) -> BAT:
    if b.is_empty():
        return BAT.empty(b.atom)
    return BAT.from_values([aggregate.total_max(b)], b.atom)


def _avg_bat(b: BAT) -> BAT:
    if b.is_empty():
        return BAT.empty(Atom.FLT)
    return BAT.from_values([aggregate.total_avg(b)], Atom.FLT)


def _group(*keys: BAT):
    grouping = group_mod.group(list(keys))
    return grouping.gids, grouping.extents, grouping.ngroups


def _align_globals(*bats: BAT):
    """Global-aggregate row fixup: if any aggregate is empty, all are.

    Global aggregates follow the 1-row-BAT convention but MIN/SUM/AVG of an
    empty rowset produce 0 rows while COUNT produces ``[0]``; a query mixing
    them must emit a consistent (empty) row.
    """
    if any(b.is_empty() for b in bats):
        empties = tuple(BAT.empty(b.atom) for b in bats)
        return empties if len(empties) > 1 else empties[0]
    return bats if len(bats) > 1 else bats[0]


def _build_registry() -> dict[str, Callable]:
    registry: dict[str, Callable] = {
        # selections
        "algebra.select": select_mod.select,
        "algebra.thetaselect": select_mod.thetaselect,
        "algebra.mask_select": select_mod.mask_select,
        "cand.intersect": select_mod.intersect_candidates,
        "cand.union": select_mod.union_candidates,
        "cand.difference": select_mod.difference_candidates,
        # projection / reconstruction
        "algebra.projection": project.projection,
        "bat.mirror": project.head_oids,
        "bat.materialize": project.materialize,
        "bat.slice": setops.slice_bat,
        "bat.count": lambda b: len(b),
        "bat.id": lambda b: b,
        # joins
        "algebra.join": join_mod.join,
        "algebra.semijoin": join_mod.semijoin,
        "algebra.antijoin": join_mod.antijoin,
        # grouping
        "group.group": _group,
        "group.distinct": group_mod.distinct,
        # aggregates (scalar → 1-row-BAT convention, see DESIGN.md)
        "aggr.sum": _sum_bat,
        "aggr.count": _count_bat,
        "aggr.min": _min_bat,
        "aggr.max": _max_bat,
        "aggr.avg": _avg_bat,
        "aggr.subsum": aggregate.subsum,
        "aggr.subcount": aggregate.subcount,
        "aggr.submin": aggregate.submin,
        "aggr.submax": aggregate.submax,
        "aggr.subavg": aggregate.subavg,
        "aggr.align": _align_globals,
        # merge / materialization
        "mat.pack": lambda *parts: setops.concat(list(parts)),
        "bat.append": setops.append,
        # ordering
        "algebra.sort": sort_mod.sort,
        "algebra.sortrefine": sort_mod.sort_refine,
        "algebra.firstn": sort_mod.firstn,
        # calculator
        "calc.div": calc.divide,
        "calc.and": calc.logic_and,
        "calc.or": calc.logic_or,
        "calc.not": calc.logic_not,
        "calc.neg": calc.negate,
        "calc.const": calc.constant_column,
    }
    for op in ("+", "-", "*", "%"):
        registry[f"calc.{op}"] = (lambda o: lambda left, right: calc.arith(o, left, right))(op)
    for op in ("==", "!=", "<", "<=", ">", ">="):
        registry[f"calc.{op}"] = (lambda o: lambda left, right: calc.compare(o, left, right))(op)
    registry["calc./"] = calc.divide
    return registry


_REGISTRY = _build_registry()


def known_opcodes() -> frozenset[str]:
    """All opcodes the interpreter implements (rewriter sanity checks)."""
    return frozenset(_REGISTRY)


def kernel_registry() -> Mapping[str, Callable]:
    """The built-in opcode → kernel-function table (read-only view), for
    callers that apply one kernel outside a program."""
    return _REGISTRY


class Interpreter:
    """Executes programs over a slot environment.

    A single interpreter instance is stateless between runs and safe to
    share; profiling is per-call via an explicit :class:`Profiler`.
    """

    def run(
        self,
        program: Program,
        inputs: Mapping[str, object],
        profiler: Profiler | None = None,
    ) -> dict[str, object]:
        """Evaluate ``program`` and return its declared outputs.

        Raises :class:`ExecutionError` if an input slot is missing or an
        instruction fails; :class:`UnknownInstructionError` on unknown
        opcodes.
        """
        env: dict[str, object] = {}
        for name in program.inputs:
            if name not in inputs:
                raise ExecutionError(f"missing program input {name!r}")
            env[name] = inputs[name]
        for instr in program.instructions:
            self._step(instr, env, profiler)
        missing = [name for name in program.outputs if name not in env]
        if missing:
            raise ExecutionError(f"program outputs never produced: {missing}")
        return {name: env[name] for name in program.outputs}

    def _step(self, instr: Instr, env: dict, profiler: Profiler | None) -> None:
        fn = _REGISTRY.get(instr.opcode)
        if fn is None:
            raise UnknownInstructionError(f"unknown opcode {instr.opcode!r}")
        args = []
        for operand in instr.args:
            if isinstance(operand, Ref):
                if operand.name not in env:
                    raise ExecutionError(
                        f"{instr.opcode}: slot {operand.name!r} is undefined"
                    )
                args.append(env[operand.name])
            elif isinstance(operand, Lit):
                args.append(operand.value)
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"bad operand {operand!r}")
        if profiler is None:
            # Unprofiled firings skip the two perf_counter() calls too.
            try:
                result = fn(*args)
            except Exception as exc:
                raise ExecutionError(f"{instr!r} failed: {exc}") from exc
        else:
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:
                raise ExecutionError(f"{instr!r} failed: {exc}") from exc
            profiler.record(instr.tag, instr.opcode, time.perf_counter() - start)
        if len(instr.outs) == 1:
            env[instr.outs[0]] = result
        else:
            if not isinstance(result, tuple) or len(result) != len(instr.outs):
                raise ExecutionError(
                    f"{instr.opcode} returned {result!r}, expected "
                    f"{len(instr.outs)} outputs"
                )
            for name, value in zip(instr.outs, result):
                env[name] = value
