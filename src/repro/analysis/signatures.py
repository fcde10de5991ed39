"""Per-opcode type signatures for MAL-like programs.

One :class:`OpSig` per interpreter opcode: operand-count bounds plus a
typing rule that maps operand atom types to output atom types, mirroring
the runtime behaviour of :mod:`repro.kernel.algebra`.  The type-inference
pass (:mod:`repro.analysis.typecheck`) drives these rules symbolically;
``None`` stands for a statically unknown atom and propagates without
complaint — the rules only reject *definite* violations, exactly like the
kernel operators would at run time.

A test pins this table to :func:`repro.kernel.execution.interpreter.
known_opcodes`, so adding an opcode without a signature fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.kernel.atoms import Atom, atom_of_python, is_numeric

#: marker for "operand is a slot reference, not a literal"
_NO_LIT = object()


class SignatureError(Exception):
    """A definite type violation against an opcode signature."""


@dataclass(frozen=True)
class ArgType:
    """Static knowledge about one operand: its atom and literal value."""

    atom: Optional[Atom]  # None = unknown
    lit: object = _NO_LIT  # _NO_LIT for slot references

    @property
    def is_literal(self) -> bool:
        return self.lit is not _NO_LIT


def literal_arg(value: object) -> ArgType:
    """ArgType of a literal operand (atom inferred when possible)."""
    try:
        atom = atom_of_python(value)
    except Exception:
        atom = None  # Atoms, operator strings, None, ... carry no column type
    return ArgType(atom, value)


@dataclass(frozen=True)
class OpSig:
    """Operand-count bounds and the typing rule of one opcode."""

    name: str
    min_args: int
    max_args: Optional[int]  # None = unbounded
    rule: Callable[[Sequence[ArgType]], tuple[Optional[Atom], ...]]

    def check_arity(self, nargs: int) -> None:
        if nargs < self.min_args:
            raise SignatureError(
                f"{self.name} needs at least {self.min_args} operand(s), got {nargs}"
            )
        if self.max_args is not None and nargs > self.max_args:
            raise SignatureError(
                f"{self.name} takes at most {self.max_args} operand(s), got {nargs}"
            )

    def apply(self, args: Sequence[ArgType]) -> tuple[Optional[Atom], ...]:
        """Output atom types for the given operand types."""
        self.check_arity(len(args))
        return self.rule(args)


# ----------------------------------------------------------------------
# rule helpers
# ----------------------------------------------------------------------
def _require_numeric(arg: ArgType, op: str) -> None:
    if arg.atom is not None and not is_numeric(arg.atom):
        raise SignatureError(f"{op} needs a numeric operand, got {arg.atom.value}")


def _require_atom(arg: ArgType, atom: Atom, op: str, role: str) -> None:
    if arg.atom is not None and arg.atom != atom:
        raise SignatureError(f"{op} expects a {atom.value} {role}, got {arg.atom.value}")


def _promote(left: ArgType, right: ArgType, op: str) -> Optional[Atom]:
    if left.atom is None or right.atom is None:
        return None
    if left.atom == right.atom:
        return left.atom
    if is_numeric(left.atom) and is_numeric(right.atom):
        return Atom.FLT if Atom.FLT in (left.atom, right.atom) else Atom.INT
    raise SignatureError(f"{op} cannot combine {left.atom.value} with {right.atom.value}")


def _same(parts: Sequence[ArgType], op: str) -> Optional[Atom]:
    atom: Optional[Atom] = None
    for part in parts:
        if part.atom is None:
            continue
        if atom is None:
            atom = part.atom
        elif part.atom != atom:
            raise SignatureError(
                f"{op} atom mismatch: {atom.value} vs {part.atom.value}"
            )
    return atom


# ----------------------------------------------------------------------
# the signature table
# ----------------------------------------------------------------------
def _build_signatures() -> dict[str, OpSig]:
    table: dict[str, OpSig] = {}

    def sig(name: str, lo: int, hi: Optional[int], rule) -> None:
        table[name] = OpSig(name, lo, hi, rule)

    # -- selections: value column (+ optional candidates) -> OID list
    def select_rule(a):
        if len(a) == 6:
            _require_atom(a[5], Atom.OID, "algebra.select", "candidate list")
        return (Atom.OID,)

    sig("algebra.select", 3, 6, select_rule)

    def theta_rule(a):
        if len(a) == 4:
            _require_atom(a[3], Atom.OID, "algebra.thetaselect", "candidate list")
        if a[2].is_literal and a[2].lit not in ("==", "!=", "<", "<=", ">", ">="):
            raise SignatureError(
                f"algebra.thetaselect got unknown comparison {a[2].lit!r}"
            )
        return (Atom.OID,)

    sig("algebra.thetaselect", 3, 4, theta_rule)

    def mask_rule(a):
        _require_atom(a[0], Atom.BIT, "algebra.mask_select", "mask")
        if len(a) == 2:
            _require_atom(a[1], Atom.OID, "algebra.mask_select", "candidate list")
        return (Atom.OID,)

    sig("algebra.mask_select", 1, 2, mask_rule)

    def cand_rule(name):
        def rule(a):
            _require_atom(a[0], Atom.OID, name, "candidate list")
            _require_atom(a[1], Atom.OID, name, "candidate list")
            return (Atom.OID,)

        return rule

    for name in ("cand.intersect", "cand.union", "cand.difference"):
        sig(name, 2, 2, cand_rule(name))

    # -- projection / reconstruction
    def projection_rule(a):
        _require_atom(a[0], Atom.OID, "algebra.projection", "candidate list")
        return (a[1].atom,)

    sig("algebra.projection", 2, 2, projection_rule)
    sig("bat.mirror", 1, 1, lambda a: (Atom.OID,))
    sig("bat.materialize", 1, 1, lambda a: (a[0].atom,))
    sig("bat.slice", 3, 3, lambda a: (a[0].atom,))
    sig("bat.count", 1, 1, lambda a: (Atom.INT,))
    sig("bat.id", 1, 1, lambda a: (a[0].atom,))

    # -- joins
    def join_rule(outs):
        def rule(a):
            left, right = a[0], a[1]
            if (
                left.atom is not None
                and right.atom is not None
                and left.atom != right.atom
                and not (is_numeric(left.atom) and is_numeric(right.atom))
            ):
                raise SignatureError(
                    f"join atoms differ: {left.atom.value} vs {right.atom.value}"
                )
            return (Atom.OID,) * outs

        return rule

    def delta_join_rule(a):
        for first_new in a[2:]:
            _require_atom(first_new, Atom.INT, "algebra.join", "first new row")
        return join_rule(2)(a)

    sig("algebra.join", 2, 4, delta_join_rule)
    sig("algebra.semijoin", 2, 2, join_rule(1))
    sig("algebra.antijoin", 2, 2, join_rule(1))

    # -- grouping
    sig("group.group", 1, None, lambda a: (Atom.INT, Atom.OID, Atom.INT))
    sig("group.distinct", 1, 1, lambda a: (a[0].atom,))

    # -- global aggregates (1-row-BAT convention)
    def sum_rule(a):
        _require_numeric(a[0], "aggr.sum")
        if a[0].atom is None:
            return (None,)
        return (Atom.FLT if a[0].atom == Atom.FLT else Atom.INT,)

    sig("aggr.sum", 1, 1, sum_rule)
    sig("aggr.count", 1, 1, lambda a: (Atom.INT,))
    sig("aggr.min", 1, 1, lambda a: (a[0].atom,))
    sig("aggr.max", 1, 1, lambda a: (a[0].atom,))

    def avg_rule(a):
        _require_numeric(a[0], "aggr.avg")
        return (Atom.FLT,)

    sig("aggr.avg", 1, 1, avg_rule)

    # -- grouped aggregates: (values, gids, ngroups)
    def grouped_rule(name, numeric, out):
        def rule(a):
            if numeric:
                _require_numeric(a[0], name)
            _require_atom(a[1], Atom.INT, name, "group-id column")
            _require_atom(a[2], Atom.INT, name, "group count")
            if out == "same":
                return (a[0].atom,)
            return (out,)

        return rule

    sig("aggr.subsum", 3, 3, grouped_rule("aggr.subsum", True, "same"))
    sig("aggr.subcount", 3, 3, grouped_rule("aggr.subcount", False, Atom.INT))
    sig("aggr.submin", 3, 3, grouped_rule("aggr.submin", False, "same"))
    sig("aggr.submax", 3, 3, grouped_rule("aggr.submax", False, "same"))
    sig("aggr.subavg", 3, 3, grouped_rule("aggr.subavg", True, Atom.FLT))

    # -- global-aggregate row alignment: n columns in, the same n out
    sig("aggr.align", 1, None, lambda a: tuple(arg.atom for arg in a))

    # -- merge / materialization
    sig("mat.pack", 1, None, lambda a: (_same(a, "mat.pack"),))
    sig("bat.append", 2, 2, lambda a: (_same(a, "bat.append"),))

    # -- ordering
    sig("algebra.sort", 2, 2, lambda a: (a[0].atom, Atom.OID))

    def sortrefine_rule(a):
        _require_atom(a[0], Atom.OID, "algebra.sortrefine", "order")
        return (Atom.OID,)

    sig("algebra.sortrefine", 3, 3, sortrefine_rule)
    sig("algebra.firstn", 2, 3, lambda a: (Atom.OID,))

    # -- calculator
    def arith_rule(op):
        name = f"calc.{op}"

        def rule(a):
            if a[0].is_literal and a[1].is_literal:
                raise SignatureError(f"{name} needs at least one column operand")
            _require_numeric(a[0], name)
            _require_numeric(a[1], name)
            return (_promote(a[0], a[1], name),)

        return rule

    for op in ("+", "-", "*", "%"):
        sig(f"calc.{op}", 2, 2, arith_rule(op))

    def div_rule(a):
        if a[0].is_literal and a[1].is_literal:
            raise SignatureError("calc.div needs at least one column operand")
        _require_numeric(a[0], "calc.div")
        _require_numeric(a[1], "calc.div")
        return (Atom.FLT,)

    sig("calc.div", 2, 2, div_rule)
    sig("calc./", 2, 2, div_rule)

    def compare_rule(op):
        name = f"calc.{op}"

        def rule(a):
            if a[0].is_literal and a[1].is_literal:
                raise SignatureError(f"{name} needs at least one column operand")
            left, right = a[0].atom, a[1].atom
            if left is not None and right is not None:
                if (left == Atom.STR) != (right == Atom.STR):
                    raise SignatureError(
                        f"{name} cannot compare {left.value} with {right.value}"
                    )
            return (Atom.BIT,)

        return rule

    for op in ("==", "!=", "<", "<=", ">", ">="):
        sig(f"calc.{op}", 2, 2, compare_rule(op))

    def logic_rule(name):
        def rule(a):
            for arg in a:
                _require_atom(arg, Atom.BIT, name, "operand")
            return (Atom.BIT,)

        return rule

    sig("calc.and", 2, 2, logic_rule("calc.and"))
    sig("calc.or", 2, 2, logic_rule("calc.or"))
    sig("calc.not", 1, 1, logic_rule("calc.not"))

    def neg_rule(a):
        if a[0].atom is not None and a[0].atom not in (Atom.INT, Atom.FLT):
            raise SignatureError(f"calc.neg cannot negate {a[0].atom.value}")
        return (a[0].atom,)

    sig("calc.neg", 1, 1, neg_rule)

    def const_rule(a):
        atom = a[1].lit if a[1].is_literal and isinstance(a[1].lit, Atom) else None
        return (atom,)

    sig("calc.const", 3, 3, const_rule)
    return table


SIGNATURES: dict[str, OpSig] = _build_signatures()


def signature_for(opcode: str) -> Optional[OpSig]:
    """The signature of ``opcode``, or None for unknown opcodes."""
    return SIGNATURES.get(opcode)
