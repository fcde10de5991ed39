"""Differential tests: compiled backend vs the interpreter.

Every opcode in ``known_opcodes()`` runs through both backends on the
same inputs and must produce equal results — the table below *is* the
compiler's conformance suite, and a coverage assertion fails the moment
a new opcode lands without a differential case.  On top of the per-opcode
table: fusion/folding behaviour, interpreter fallback (with the
``compiled_fallbacks`` counter), error-message parity, profiling
semantics, and whole-engine equivalence across query shapes.
"""

import numpy as np
import pytest

from repro import DataCellEngine
from repro.errors import ExecutionError, ReproError, UnknownInstructionError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.execution import (
    BACKENDS,
    CompiledBackend,
    Interpreter,
    InterpreterBackend,
    Lit,
    Profiler,
    Program,
    ProgramCompiler,
    Ref,
    TAG_MERGE,
    compile_program,
    kernel_registry,
    known_opcodes,
    make_backend,
)
from repro.kernel.execution.compiled import FUSED_OPCODE
from repro.kernel.execution.profiler import COUNTER_COMPILED_FALLBACKS

from conftest import int_bat


def bit_bat(values, hseq: int = 0) -> BAT:
    return BAT(np.asarray(values, dtype=bool), Atom.BIT, hseq)


def oid_bat(values) -> BAT:
    return BAT(np.asarray(values, dtype=np.int64), Atom.OID)


INTS = [4, 1, 3, 1, 9]
FLTS = [0.5, 2.25, -1.0]

#: opcode -> list of (inputs, args, n_outs) differential cases.  Inputs
#: are the program's input slots; args mix Ref (into those slots) and Lit.
OPCODE_CASES = {
    "algebra.select": [
        ({"b": int_bat(INTS)}, [Ref("b"), Lit(1), Lit(4)], 1),
        (
            {"b": int_bat(INTS), "c": oid_bat([0, 2, 4])},
            [Ref("b"), Lit(1), Lit(9), Lit(True), Lit(False), Ref("c")],
            1,
        ),
    ],
    "algebra.thetaselect": [
        ({"b": int_bat(INTS)}, [Ref("b"), Lit(2), Lit(">")], 1),
    ],
    "algebra.mask_select": [
        ({"m": bit_bat([1, 0, 1, 1, 0])}, [Ref("m")], 1),
    ],
    "cand.intersect": [
        ({"l": oid_bat([0, 2, 4]), "r": oid_bat([2, 3, 4])}, [Ref("l"), Ref("r")], 1),
    ],
    "cand.union": [
        ({"l": oid_bat([0, 2]), "r": oid_bat([1, 2])}, [Ref("l"), Ref("r")], 1),
    ],
    "cand.difference": [
        ({"l": oid_bat([0, 2, 4]), "r": oid_bat([2])}, [Ref("l"), Ref("r")], 1),
    ],
    "algebra.projection": [
        ({"c": oid_bat([0, 3]), "b": int_bat(INTS)}, [Ref("c"), Ref("b")], 1),
    ],
    "bat.mirror": [({"b": int_bat(INTS)}, [Ref("b")], 1)],
    "bat.materialize": [({"b": int_bat(INTS)}, [Ref("b")], 1)],
    "bat.slice": [({"b": int_bat(INTS)}, [Ref("b"), Lit(1), Lit(3)], 1)],
    "bat.count": [
        ({"b": int_bat(INTS)}, [Ref("b")], 1),
        ({"b": BAT.empty(Atom.INT)}, [Ref("b")], 1),
    ],
    "bat.id": [({"b": int_bat(INTS)}, [Ref("b")], 1)],
    "algebra.join": [
        ({"l": int_bat([1, 2, 3]), "r": int_bat([3, 1, 1])}, [Ref("l"), Ref("r")], 2),
    ],
    "algebra.semijoin": [
        ({"l": int_bat([1, 2, 3]), "r": int_bat([3, 1])}, [Ref("l"), Ref("r")], 1),
    ],
    "algebra.antijoin": [
        ({"l": int_bat([1, 2, 3]), "r": int_bat([3, 1])}, [Ref("l"), Ref("r")], 1),
    ],
    "group.group": [
        ({"k": int_bat([2, 1, 2, 1])}, [Ref("k")], 3),
        (
            {"k": int_bat([2, 1, 2, 1]), "k2": int_bat([0, 0, 1, 0])},
            [Ref("k"), Ref("k2")],
            3,
        ),
    ],
    "group.distinct": [({"b": int_bat(INTS)}, [Ref("b")], 1)],
    "aggr.sum": [
        ({"b": int_bat(INTS)}, [Ref("b")], 1),
        ({"b": BAT.empty(Atom.FLT)}, [Ref("b")], 1),
    ],
    "aggr.count": [({"b": int_bat(INTS)}, [Ref("b")], 1)],
    "aggr.min": [({"b": int_bat(INTS)}, [Ref("b")], 1)],
    "aggr.max": [({"b": int_bat(INTS)}, [Ref("b")], 1)],
    "aggr.avg": [({"b": BAT.from_values(FLTS, Atom.FLT)}, [Ref("b")], 1)],
    "aggr.subsum": [
        (
            {"v": int_bat([1, 2, 3, 4]), "g": oid_bat([0, 1, 0, 1])},
            [Ref("v"), Ref("g"), Lit(2)],
            1,
        ),
    ],
    "aggr.subcount": [
        (
            {"v": int_bat([1, 2, 3, 4]), "g": oid_bat([0, 1, 0, 1])},
            [Ref("v"), Ref("g"), Lit(2)],
            1,
        ),
    ],
    "aggr.submin": [
        (
            {"v": int_bat([1, 2, 3, 4]), "g": oid_bat([0, 1, 0, 1])},
            [Ref("v"), Ref("g"), Lit(2)],
            1,
        ),
    ],
    "aggr.submax": [
        (
            {"v": int_bat([1, 2, 3, 4]), "g": oid_bat([0, 1, 0, 1])},
            [Ref("v"), Ref("g"), Lit(2)],
            1,
        ),
    ],
    "aggr.subavg": [
        (
            {"v": int_bat([1, 2, 3, 4]), "g": oid_bat([0, 1, 0, 1])},
            [Ref("v"), Ref("g"), Lit(2)],
            1,
        ),
    ],
    "aggr.align": [
        ({"a": int_bat([7])}, [Ref("a")], 1),
        ({"a": int_bat([7]), "c": int_bat([3])}, [Ref("a"), Ref("c")], 2),
        ({"a": BAT.empty(Atom.INT), "c": int_bat([3])}, [Ref("a"), Ref("c")], 2),
    ],
    "mat.pack": [
        ({"a": int_bat([1, 2]), "b": int_bat([3])}, [Ref("a"), Ref("b")], 1),
    ],
    "bat.append": [
        ({"a": int_bat([1, 2]), "b": int_bat([3])}, [Ref("a"), Ref("b")], 1),
    ],
    "algebra.sort": [
        ({"b": int_bat(INTS)}, [Ref("b")], 2),
        ({"b": int_bat(INTS)}, [Ref("b"), Lit(True)], 2),
    ],
    "algebra.sortrefine": [
        (
            {"o": int_bat([1, 1, 2]), "b": int_bat([5, 3, 4])},
            [Ref("o"), Ref("b")],
            1,
        ),
    ],
    "algebra.firstn": [({"b": int_bat(INTS)}, [Ref("b"), Lit(2)], 1)],
    "calc.div": [({"b": int_bat(INTS)}, [Ref("b"), Lit(2)], 1)],
    "calc./": [({"b": int_bat(INTS)}, [Ref("b"), Lit(2)], 1)],
    "calc.and": [
        ({"l": bit_bat([1, 0, 1]), "r": bit_bat([1, 1, 0])}, [Ref("l"), Ref("r")], 1),
    ],
    "calc.or": [
        ({"l": bit_bat([1, 0, 0]), "r": bit_bat([0, 0, 1])}, [Ref("l"), Ref("r")], 1),
    ],
    "calc.not": [({"m": bit_bat([1, 0, 1])}, [Ref("m")], 1)],
    "calc.neg": [({"b": int_bat(INTS)}, [Ref("b")], 1)],
    "calc.const": [({}, [Lit(5), Lit(Atom.INT), Lit(4)], 1)],
    "calc.+": [
        ({"b": int_bat(INTS)}, [Ref("b"), Lit(3)], 1),
        ({"b": int_bat(INTS), "c": int_bat([1, 1, 1, 1, 1])}, [Ref("b"), Ref("c")], 1),
    ],
    "calc.-": [({"b": int_bat(INTS)}, [Ref("b"), Lit(1)], 1)],
    "calc.*": [({"b": int_bat(INTS)}, [Ref("b"), Lit(2)], 1)],
    "calc.%": [({"b": int_bat(INTS)}, [Ref("b"), Lit(3)], 1)],
    "calc.==": [({"b": int_bat(INTS)}, [Ref("b"), Lit(1)], 1)],
    "calc.!=": [({"b": int_bat(INTS)}, [Ref("b"), Lit(1)], 1)],
    "calc.<": [({"b": int_bat(INTS)}, [Ref("b"), Lit(3)], 1)],
    "calc.<=": [({"b": int_bat(INTS)}, [Ref("b"), Lit(3)], 1)],
    "calc.>": [({"b": int_bat(INTS)}, [Ref("b"), Lit(3)], 1)],
    "calc.>=": [({"b": int_bat(INTS)}, [Ref("b"), Lit(3)], 1)],
}


def assert_values_equal(left, right, label=""):
    """Structural equality for interpreter/compiler result values."""
    assert type(left) is type(right), f"{label}: {type(left)} vs {type(right)}"
    if isinstance(left, BAT):
        assert left.atom == right.atom, label
        assert left.hseq == right.hseq, label
        assert left.to_list() == right.to_list(), label
    else:
        assert left == right, label


def run_both(program, inputs):
    expected = Interpreter().run(program, dict(inputs))
    actual = compile_program(program).run(dict(inputs))
    assert expected.keys() == actual.keys()
    for name in expected:
        assert_values_equal(expected[name], actual[name], name)
    return actual


ALL_CASES = [
    pytest.param(opcode, case, id=f"{opcode}-{index}")
    for opcode, cases in sorted(OPCODE_CASES.items())
    for index, case in enumerate(cases)
]


class TestOpcodeDifferential:
    def test_table_covers_every_opcode(self):
        assert set(OPCODE_CASES) == set(known_opcodes())

    def test_compiler_interpreter_opcode_parity(self):
        assert ProgramCompiler().known_opcodes() == known_opcodes()
        assert set(kernel_registry()) == set(known_opcodes())

    @pytest.mark.parametrize("opcode,case", ALL_CASES)
    def test_differential(self, opcode, case):
        inputs, args, n_outs = case
        program = Program(
            inputs=tuple(inputs), outputs=tuple(f"o{i}" for i in range(n_outs))
        )
        program.emit(opcode, args, [f"o{i}" for i in range(n_outs)])
        run_both(program, inputs)


class TestFusionAndFolding:
    def _chain(self):
        program = Program(inputs=("x",), outputs=("out",))
        program.emit("calc.+", [Ref("x"), Lit(10)], ["a"])
        program.emit("calc.*", [Ref("a"), Lit(2)], ["b"])
        program.emit("calc.-", [Ref("b"), Lit(1)], ["out"])
        return program

    def test_calc_chain_fuses(self):
        program = self._chain()
        compiled = compile_program(program)
        assert compiled.fused_count == 2
        run_both(program, {"x": int_bat(INTS)})

    def test_program_output_never_fused(self):
        # `a` is a program output: its producer must stay materialized.
        program = Program(inputs=("x",), outputs=("a", "out"))
        program.emit("calc.+", [Ref("x"), Lit(10)], ["a"])
        program.emit("calc.*", [Ref("a"), Lit(2)], ["out"])
        assert compile_program(program).fused_count == 0
        run_both(program, {"x": int_bat(INTS)})

    def test_multi_use_never_fused(self):
        program = Program(inputs=("x",), outputs=("out",))
        program.emit("calc.+", [Ref("x"), Lit(1)], ["a"])
        program.emit("calc.+", [Ref("a"), Ref("a")], ["out"])
        assert compile_program(program).fused_count == 0
        run_both(program, {"x": int_bat(INTS)})

    def test_fusion_follows_dataflow_across_interleaved_instructions(self):
        # `a` feeds a calc op two instructions later; fusion is dataflow-
        # based, so the interleaved bat.count does not force `a` to
        # materialize.  `m` feeds a non-calc consumer and must be a BAT.
        program = Program(inputs=("x",), outputs=("out",))
        program.emit("calc.+", [Ref("x"), Lit(1)], ["a"])
        program.emit("bat.count", [Ref("x")], ["n"])
        program.emit("calc.*", [Ref("a"), Lit(2)], ["m"])
        program.emit("calc.const", [Ref("n"), Lit(Atom.INT), Lit(1)], ["c"])
        program.emit("bat.append", [Ref("m"), Ref("c")], ["out"])
        assert compile_program(program).fused_count == 1
        run_both(program, {"x": int_bat(INTS)})

    def test_all_literal_instruction_folds(self):
        program = Program(inputs=(), outputs=("k",))
        program.emit("calc.const", [Lit(5), Lit(Atom.INT), Lit(3)], ["k"])
        compiled = compile_program(program)
        assert compiled.folded_count == 1
        assert compiled.run({})["k"].to_list() == [5, 5, 5]

    def test_profile_mode_disables_fusion_and_folding(self):
        program = self._chain()
        compiled = compile_program(program, profile=True)
        assert compiled.fused_count == 0
        assert compiled.folded_count == 0


class TestSpecializedFusion:
    """The non-calc fusions: mask positions, projection, aggregates."""

    def _mask_chain(self):
        program = Program(inputs=("x", "y"), outputs=("sel",))
        program.emit("calc.*", [Ref("x"), Lit(2)], ["a"])
        program.emit("calc.>", [Ref("a"), Lit(4)], ["m"])
        program.emit("algebra.mask_select", [Ref("m")], ["mask"])
        program.emit("algebra.projection", [Ref("mask"), Ref("y")], ["sel"])
        return program

    def test_mask_and_projection_fuse(self):
        program = self._mask_chain()
        compiled = compile_program(program)
        assert compiled.fused_count == 2  # `a` and `m` stay chain state
        assert "_x_fnz" in compiled.source
        assert "_x_prj" in compiled.source
        run_both(program, {"x": int_bat(INTS), "y": int_bat([10, 20, 30, 40, 50])})

    def test_projection_guard_falls_back_to_kernel(self):
        # `y` is longer than the mask's source, so the aligned fast path
        # must not trigger; the kernel path accepts the in-range oids.
        program = self._mask_chain()
        run_both(program, {"x": int_bat(INTS), "y": int_bat(list(range(100, 109)))})

    def test_projection_out_of_range_error_parity(self):
        # `y`'s head range excludes oid 0, which the mask selects: both
        # backends must raise the same per-instruction error.
        program = self._mask_chain()
        inputs = {"x": int_bat(INTS), "y": int_bat([1, 2, 3, 4, 5], hseq=3)}
        with pytest.raises(ExecutionError) as interp_err:
            Interpreter().run(program, dict(inputs))
        with pytest.raises(ExecutionError) as compiled_err:
            compile_program(program).run(dict(inputs))
        assert str(interp_err.value) == str(compiled_err.value)

    def test_mask_slot_redefinition_invalidates_positions(self):
        # The mask_select output slot is legally redefined (here by a
        # second, unfused mask_select); the later projection must read the
        # *redefined* candidate list, not the stale fused positions.
        program = Program(inputs=("x", "m2", "src"), outputs=("out",))
        program.emit("calc.<", [Ref("x"), Lit(3)], ["m1"])
        program.emit("algebra.mask_select", [Ref("m1")], ["cand"])
        program.emit("algebra.mask_select", [Ref("m2")], ["cand"])
        program.emit("algebra.projection", [Ref("cand"), Ref("src")], ["out"])
        run_both(
            program,
            {
                "x": int_bat([1, 2, 3, 4, 5]),
                "m2": bit_bat([0, 1, 0, 1, 0]),
                "src": int_bat([10, 20, 30, 40, 50]),
            },
        )

    def test_mask_slot_redefined_by_non_mask_write(self):
        # Redefinition through an arbitrary opcode (not another
        # mask_select) must equally drop the fused-positions registration.
        program = Program(inputs=("x", "c2", "src"), outputs=("out",))
        program.emit("calc.<", [Ref("x"), Lit(3)], ["m1"])
        program.emit("algebra.mask_select", [Ref("m1")], ["cand"])
        program.emit("bat.materialize", [Ref("c2")], ["cand"])
        program.emit("algebra.projection", [Ref("cand"), Ref("src")], ["out"])
        run_both(
            program,
            {
                "x": int_bat([1, 2, 3, 4, 5]),
                "c2": oid_bat([2, 4]),
                "src": int_bat([10, 20, 30, 40, 50]),
            },
        )

    def test_self_redefining_projection_stays_correct(self):
        # ``cand = projection(cand, src)`` reads the slot it redefines:
        # the specialization is skipped, the kernel path must be taken.
        program = Program(inputs=("x", "src"), outputs=("cand",))
        program.emit("calc.<", [Ref("x"), Lit(3)], ["m1"])
        program.emit("algebra.mask_select", [Ref("m1")], ["cand"])
        program.emit("algebra.projection", [Ref("cand"), Ref("src")], ["cand"])
        run_both(
            program,
            {
                "x": int_bat([1, 2, 3, 4, 5]),
                "src": int_bat([10, 20, 30, 40, 50]),
            },
        )

    @pytest.mark.parametrize(
        "opcode", ["aggr.sum", "aggr.count", "aggr.min", "aggr.max", "aggr.avg"]
    )
    def test_aggregate_terminal_fuses(self, opcode):
        program = Program(inputs=("x",), outputs=("out",))
        program.emit("calc.*", [Ref("x"), Lit(3)], ["a"])
        program.emit(opcode, [Ref("a")], ["out"])
        compiled = compile_program(program)
        assert compiled.fused_count == 1
        run_both(program, {"x": int_bat(INTS)})
        run_both(program, {"x": int_bat([])})
        run_both(program, {"x": BAT(np.asarray(FLTS), Atom.FLT)})


class TestCompileErrors:
    def test_unknown_opcode_raises_at_compile(self):
        program = Program(inputs=("x",), outputs=("y",))
        program.emit("no.such.op", [Ref("x")], ["y"])
        with pytest.raises(UnknownInstructionError):
            compile_program(program)

    def test_invalid_program_rejected(self):
        program = Program(inputs=(), outputs=())
        program.emit("bat.id", [Ref("ghost")], ["y"])
        with pytest.raises(ExecutionError):
            compile_program(program)

    def test_missing_input_message_parity(self):
        program = Program(inputs=("x",), outputs=())
        with pytest.raises(ExecutionError) as interp_err:
            Interpreter().run(program, {})
        with pytest.raises(ExecutionError) as compiled_err:
            compile_program(program).run({})
        assert str(interp_err.value) == str(compiled_err.value)

    def test_runtime_error_message_parity(self):
        # logic_not on a non-BIT BAT fails inside the kernel function;
        # the compiled path re-runs through the interpreter to reproduce
        # the canonical per-instruction error text.
        program = Program(inputs=("x",), outputs=("y",))
        program.emit("calc.not", [Ref("x")], ["y"])
        inputs = {"x": int_bat(INTS)}
        with pytest.raises(ExecutionError) as interp_err:
            Interpreter().run(program, dict(inputs))
        with pytest.raises(ExecutionError) as compiled_err:
            compile_program(program).run(dict(inputs))
        assert str(interp_err.value) == str(compiled_err.value)


class TestFallback:
    def _ext_program(self):
        program = Program(inputs=("x",), outputs=("y",))
        program.emit("ext.double", [Ref("x")], ["y"])
        return program

    def _ext_interpreter(self):
        registry = dict(kernel_registry())
        registry["ext.double"] = lambda b: BAT.from_array(b.tail * 2, b.atom)
        return Interpreter(registry)

    def test_extension_opcode_falls_back_to_interpreter(self):
        backend = CompiledBackend(interpreter=self._ext_interpreter())
        profiler = Profiler()
        result = backend.run(self._ext_program(), {"x": int_bat([1, 2])}, profiler)
        assert result["y"].to_list() == [2, 4]
        assert profiler.counter(COUNTER_COMPILED_FALLBACKS) == 1

    def test_fallback_counted_per_run(self):
        backend = CompiledBackend(interpreter=self._ext_interpreter())
        profiler = Profiler()
        program = self._ext_program()
        for _ in range(3):
            backend.run(program, {"x": int_bat([1])}, profiler)
        assert profiler.counter(COUNTER_COMPILED_FALLBACKS) == 3

    def test_builtin_program_does_not_fall_back(self):
        backend = CompiledBackend()
        profiler = Profiler()
        program = Program(inputs=("x",), outputs=("y",))
        program.emit("calc.+", [Ref("x"), Lit(1)], ["y"])
        backend.run(program, {"x": int_bat([1])}, profiler)
        assert profiler.counter(COUNTER_COMPILED_FALLBACKS) == 0

    def test_unknown_to_both_still_raises(self):
        backend = CompiledBackend()
        program = Program(inputs=(), outputs=())
        program.emit("no.such.op", [], ["y"])
        with pytest.raises(UnknownInstructionError):
            backend.run(program, {})

    def test_compilation_memoized(self):
        backend = CompiledBackend()
        program = Program(inputs=("x",), outputs=("y",))
        program.emit("bat.id", [Ref("x")], ["y"])
        first = backend.compiled_for(program)
        assert first is not None
        assert backend.compiled_for(program) is first

    def test_fallback_error_recorded_on_cache_entry(self):
        backend = CompiledBackend(interpreter=self._ext_interpreter())
        program = self._ext_program()
        assert backend.compiled_for(program) is None
        assert isinstance(backend.fallback_error(program), UnknownInstructionError)

    def test_fallback_error_none_for_compiled_program(self):
        backend = CompiledBackend()
        program = Program(inputs=("x",), outputs=("y",))
        program.emit("bat.id", [Ref("x")], ["y"])
        assert backend.compiled_for(program) is not None
        assert backend.fallback_error(program) is None
        # Never-seen programs report no error either.
        unseen = Program(inputs=("x",), outputs=("y",))
        unseen.emit("bat.id", [Ref("x")], ["y"])
        assert backend.fallback_error(unseen) is None


class TestProfilingSemantics:
    def _program(self):
        program = Program(inputs=("x",), outputs=("out",))
        program.emit("algebra.thetaselect", [Ref("x"), Lit(2), Lit(">")], ["c"])
        program.emit("algebra.projection", [Ref("c"), Ref("x")], ["p"])
        program.emit("aggr.sum", [Ref("p")], ["out"], tag=TAG_MERGE)
        return program

    def test_tag_breakdown_preserved(self):
        program = self._program()
        inputs = {"x": int_bat(INTS)}
        interp_prof, compiled_prof = Profiler(), Profiler()
        Interpreter().run(program, dict(inputs), interp_prof)
        compile_program(program).run(dict(inputs), compiled_prof)
        assert set(interp_prof.tags()) == set(compiled_prof.tags())
        assert all(seconds > 0 for seconds in compiled_prof.tags().values())
        # One fused span per tag segment, not one record per instruction.
        assert compiled_prof.calls == {"compiled.fused": 2}

    def test_profile_true_matches_interpreter_calls(self):
        program = self._program()
        inputs = {"x": int_bat(INTS)}
        interp_prof, compiled_prof = Profiler(), Profiler()
        Interpreter().run(program, dict(inputs), interp_prof)
        compile_program(program, profile=True).run(dict(inputs), compiled_prof)
        assert dict(interp_prof.calls) == dict(compiled_prof.calls)
        assert set(interp_prof.by_opcode) == set(compiled_prof.by_opcode)

    def test_error_path_does_not_double_count(self):
        # The traced variant records its first (main-tag) segment before
        # the merge-tag instruction fails; the interpreter re-run must not
        # stack on top of that partial recording — profiler state is
        # rolled back first, so per-opcode calls match a pure interpreter
        # error run and no fused pseudo-opcode survives.
        program = Program(inputs=("x",), outputs=("y",))
        program.emit("calc.+", [Ref("x"), Lit(1)], ["a"])
        program.emit("calc.not", [Ref("a")], ["y"], tag=TAG_MERGE)
        inputs = {"x": int_bat(INTS)}
        interp_prof, compiled_prof = Profiler(), Profiler()
        with pytest.raises(ExecutionError):
            Interpreter().run(program, dict(inputs), interp_prof)
        with pytest.raises(ExecutionError):
            compile_program(program).run(dict(inputs), compiled_prof)
        assert FUSED_OPCODE not in compiled_prof.calls
        assert dict(compiled_prof.calls) == dict(interp_prof.calls)

    def test_error_path_rollback_preserves_prior_records(self):
        # Rollback restores the snapshot, not an empty profiler: records
        # that predate the failing run must survive.
        program = Program(inputs=("x",), outputs=("y",))
        program.emit("calc.+", [Ref("x"), Lit(1)], ["a"])
        program.emit("calc.not", [Ref("a")], ["y"], tag=TAG_MERGE)
        profiler = Profiler()
        profiler.record("main", "warmup.op", 1.0)
        profiler.count("firings", 2)
        with pytest.raises(ExecutionError):
            compile_program(program).run({"x": int_bat(INTS)}, profiler)
        assert profiler.calls["warmup.op"] == 1
        assert profiler.counter("firings") == 2

    def test_no_profiler_runs_fast_variant(self):
        program = self._program()
        result = compile_program(program).run({"x": int_bat(INTS)})
        assert result["out"].to_list() == [sum(v for v in INTS if v > 2)]


class TestBackendSeam:
    def test_make_backend_names(self):
        assert BACKENDS == ("interpreted", "compiled")
        assert isinstance(make_backend("interpreted"), InterpreterBackend)
        assert isinstance(make_backend("compiled"), CompiledBackend)
        with pytest.raises(ValueError):
            make_backend("jit")

    def test_engine_rejects_unknown_backend(self):
        with pytest.raises(ReproError):
            DataCellEngine(backend="jit")


QUERY_SHAPES = [
    "SELECT count(*) AS n FROM s [RANGE 4 SLIDE 2]",
    "SELECT x2, sum(x1) AS total FROM s [RANGE 6 SLIDE 3] GROUP BY x2",
    "SELECT max(x1) AS top FROM s [RANGE 4 SLIDE 2] WHERE x1 > 2",
    "SELECT avg(x1) AS mean FROM s [RANGE 5 SLIDE 5] ORDER BY mean",
]


def _drive(backend, sql, mode="incremental"):
    engine = DataCellEngine(backend=backend)
    engine.create_stream("s", [("x1", "int"), ("x2", "int")])
    try:
        handle = engine.submit(sql, mode=mode)
        rng = np.random.default_rng(7)
        for _ in range(4):
            rows = [
                (int(a), int(b))
                for a, b in zip(
                    rng.integers(0, 10, size=5), rng.integers(0, 3, size=5)
                )
            ]
            engine.feed("s", rows)
            engine.run_until_idle()
        return handle.result_rows()
    finally:
        engine.close()


class TestEngineEquivalence:
    @pytest.mark.parametrize("sql", QUERY_SHAPES)
    def test_incremental_results_identical(self, sql):
        assert _drive("compiled", sql) == _drive("interpreted", sql)

    def test_reeval_results_identical(self):
        sql = QUERY_SHAPES[1]
        assert _drive("compiled", sql, mode="reeval") == _drive(
            "interpreted", sql, mode="reeval"
        )

    def test_engine_records_backend(self):
        engine = DataCellEngine(backend="compiled")
        try:
            assert engine.backend == "compiled"
        finally:
            engine.close()
