"""Unit tests for programs, the interpreter, and the profiler."""

import numpy as np
import pytest

from repro.errors import ExecutionError, UnknownInstructionError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.execution import (
    Interpreter,
    Lit,
    Profiler,
    Program,
    Ref,
    SlotNames,
    TAG_MERGE,
    kernel_registry,
    known_opcodes,
)

from conftest import int_bat


def bit_bat(values) -> BAT:
    return BAT(np.asarray(values, dtype=bool), Atom.BIT)


def oid_bat(values) -> BAT:
    return BAT(np.asarray(values, dtype=np.int64), Atom.OID)


INTS = [4, 1, 3, 1, 9]
FLTS = [0.5, 2.25, -1.0]
GROUPED = {"v": int_bat([1, 2, 3, 4]), "g": oid_bat([0, 1, 0, 1])}

#: opcode -> list of (inputs, args, n_outs).  Inputs are the program's
#: input slots; args mix Ref (into those slots) and Lit.
OPCODE_CASES = {
    "algebra.select": [
        ({"b": int_bat(INTS)}, [Ref("b"), Lit(1), Lit(4)], 1),
        (
            {"b": int_bat(INTS), "c": oid_bat([0, 2, 4])},
            [Ref("b"), Lit(1), Lit(9), Lit(True), Lit(False), Ref("c")],
            1,
        ),
    ],
    "algebra.thetaselect": [({"b": int_bat(INTS)}, [Ref("b"), Lit(2), Lit(">")], 1)],
    "algebra.mask_select": [({"m": bit_bat([1, 0, 1, 1, 0])}, [Ref("m")], 1)],
    "cand.intersect": [
        ({"l": oid_bat([0, 2, 4]), "r": oid_bat([2, 3, 4])}, [Ref("l"), Ref("r")], 1),
    ],
    "cand.union": [({"l": oid_bat([0, 2]), "r": oid_bat([1, 2])}, [Ref("l"), Ref("r")], 1)],
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
    **{
        opcode: [(GROUPED, [Ref("v"), Ref("g"), Lit(2)], 1)]
        for opcode in (
            "aggr.subsum", "aggr.subcount", "aggr.submin", "aggr.submax", "aggr.subavg"
        )
    },
    "aggr.align": [
        ({"a": int_bat([7])}, [Ref("a")], 1),
        ({"a": int_bat([7]), "c": int_bat([3])}, [Ref("a"), Ref("c")], 2),
        ({"a": BAT.empty(Atom.INT), "c": int_bat([3])}, [Ref("a"), Ref("c")], 2),
    ],
    "mat.pack": [({"a": int_bat([1, 2]), "b": int_bat([3])}, [Ref("a"), Ref("b")], 1)],
    "bat.append": [({"a": int_bat([1, 2]), "b": int_bat([3])}, [Ref("a"), Ref("b")], 1)],
    "algebra.sort": [
        ({"b": int_bat(INTS)}, [Ref("b")], 2),
        ({"b": int_bat(INTS)}, [Ref("b"), Lit(True)], 2),
    ],
    "algebra.sortrefine": [
        ({"o": int_bat([1, 1, 2]), "b": int_bat([5, 3, 4])}, [Ref("o"), Ref("b")], 1),
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

ALL_CASES = [
    pytest.param(opcode, case, id=f"{opcode}-{index}")
    for opcode, cases in sorted(OPCODE_CASES.items())
    for index, case in enumerate(cases)
]


def assert_values_equal(left, right, label=""):
    """Structural equality of two slot values (BATs or scalars)."""
    assert type(left) is type(right), f"{label}: {type(left)} vs {type(right)}"
    if isinstance(left, BAT):
        assert (left.atom, left.hseq) == (right.atom, right.hseq), label
        assert left.to_list() == right.to_list(), label
    else:
        assert left == right, label


class TestProgram:
    def test_emit_and_pretty(self):
        program = Program(inputs=("x",), outputs=("y",))
        program.emit("bat.id", [Ref("x")], ["y"])
        text = program.pretty()
        assert "bat.id" in text
        assert "inputs: x" in text

    def test_validate_def_before_use(self):
        program = Program(inputs=(), outputs=())
        program.emit("bat.id", [Ref("ghost")], ["y"])
        with pytest.raises(ValueError):
            program.validate()

    def test_validate_missing_output(self):
        program = Program(inputs=("x",), outputs=("never",))
        with pytest.raises(ValueError):
            program.validate()

    def test_slots_read_written(self):
        program = Program(inputs=("x",))
        program.emit("bat.id", [Ref("x")], ["y"])
        assert program.slots_read() == {"x"}
        assert program.slots_written() == {"y"}

    def test_slot_names_unique(self):
        names = SlotNames("t")
        a, b = names.fresh(), names.fresh("hint")
        assert a != b
        assert b.endswith("_hint")


class TestInterpreter:
    def test_single_output(self):
        program = Program(inputs=("x",), outputs=("out",))
        program.emit("algebra.thetaselect", [Ref("x"), Lit(2), Lit(">")], ["out"])
        result = Interpreter().run(program, {"x": int_bat([1, 3, 5])})
        assert result["out"].to_list() == [1, 2]

    def test_multi_output(self):
        program = Program(inputs=("x",), outputs=("gids", "ext"))
        program.emit("group.group", [Ref("x")], ["gids", "ext", "ng"])
        result = Interpreter().run(program, {"x": int_bat([2, 1, 2])})
        assert result["gids"].to_list() == [1, 0, 1]

    def test_missing_input(self):
        program = Program(inputs=("x",), outputs=())
        with pytest.raises(ExecutionError):
            Interpreter().run(program, {})

    def test_unknown_opcode(self):
        program = Program(inputs=(), outputs=())
        program.emit("no.such.op", [], ["y"])
        with pytest.raises(UnknownInstructionError):
            Interpreter().run(program, {})

    def test_undefined_slot_mid_program(self):
        program = Program(inputs=(), outputs=())
        program.emit("bat.id", [Ref("ghost")], ["y"])
        with pytest.raises(ExecutionError):
            Interpreter().run(program, {})

    def test_operator_failure_wrapped(self):
        program = Program(inputs=("x",), outputs=("y",))
        program.emit("algebra.thetaselect", [Ref("x"), Lit(1), Lit("!!")], ["y"])
        with pytest.raises(ExecutionError):
            Interpreter().run(program, {"x": int_bat([1])})

    def test_known_opcodes_cover_calc_family(self):
        ops = known_opcodes()
        for op in ("calc.+", "calc.==", "calc.div", "mat.pack", "aggr.subsum"):
            assert op in ops

    def test_aggr_align_empties_all(self):
        program = Program(inputs=("a", "b"), outputs=("x", "y"))
        program.emit("aggr.align", [Ref("a"), Ref("b")], ["x", "y"])
        result = Interpreter().run(
            program, {"a": int_bat([5]), "b": BAT.empty(Atom.INT)}
        )
        assert result["x"].to_list() == []
        assert result["y"].to_list() == []

    def test_redefined_slot_reads_latest_value(self):
        # `cand` is written twice, the second time from itself: every read
        # sees the most recent write.
        program = Program(inputs=("x", "m2", "src"), outputs=("cand",))
        program.emit("calc.<", [Ref("x"), Lit(3)], ["m1"])
        program.emit("algebra.mask_select", [Ref("m1")], ["cand"])
        program.emit("algebra.mask_select", [Ref("m2")], ["cand"])
        program.emit("algebra.projection", [Ref("cand"), Ref("src")], ["cand"])
        result = Interpreter().run(
            program,
            {
                "x": int_bat([1, 2, 3, 4, 5]),
                "m2": bit_bat([0, 1, 0, 1, 0]),
                "src": int_bat([10, 20, 30, 40, 50]),
            },
        )
        assert result["cand"].to_list() == [20, 40]

    def test_aggr_align_passthrough(self):
        program = Program(inputs=("a", "b"), outputs=("x", "y"))
        program.emit("aggr.align", [Ref("a"), Ref("b")], ["x", "y"])
        result = Interpreter().run(program, {"a": int_bat([5]), "b": int_bat([6])})
        assert result["x"].to_list() == [5]
        assert result["y"].to_list() == [6]


class TestOpcodeTable:
    """Every opcode runs through the interpreter: operands resolve
    (Ref from the environment, Lit as is), multi-output results unpack
    positionally, and each instruction is profiled once."""

    def test_table_covers_every_opcode(self):
        assert set(OPCODE_CASES) == set(known_opcodes()) == set(kernel_registry())

    @pytest.mark.parametrize("opcode,case", ALL_CASES)
    def test_opcode_runs(self, opcode, case):
        inputs, args, n_outs = case
        outs = [f"o{i}" for i in range(n_outs)]
        program = Program(inputs=tuple(inputs), outputs=tuple(outs))
        program.emit(opcode, args, outs)
        profiler = Profiler()
        result = Interpreter().run(program, dict(inputs), profiler)
        direct = kernel_registry()[opcode](
            *(inputs[a.name] if isinstance(a, Ref) else a.value for a in args)
        )
        assert list(result) == outs
        for name, value in zip(outs, direct if n_outs > 1 else (direct,)):
            assert_values_equal(result[name], value, name)
        assert dict(profiler.calls) == {opcode: 1}


class TestProfiler:
    def test_records_by_tag(self):
        program = Program(inputs=("x",), outputs=("y",))
        program.emit("bat.id", [Ref("x")], ["m"])
        program.emit("bat.id", [Ref("m")], ["y"], tag=TAG_MERGE)
        profiler = Profiler()
        Interpreter().run(program, {"x": int_bat([1])}, profiler)
        assert profiler.calls["bat.id"] == 2
        assert set(profiler.by_tag) == {"main", "merge"}
        assert profiler.total > 0

    def test_merge_from(self):
        a, b = Profiler(), Profiler()
        a.record("main", "op", 1.0)
        b.record("main", "op", 2.0)
        b.record("merge", "op2", 3.0)
        a.merge_from(b)
        assert a.by_tag["main"] == pytest.approx(3.0)
        assert a.by_tag["merge"] == pytest.approx(3.0)
        assert a.calls["op"] == 2

    def test_reset(self):
        p = Profiler()
        p.record("main", "op", 1.0)
        p.reset()
        assert p.total == 0.0
