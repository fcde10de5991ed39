"""Execution-backend seam: interpreted vs compiled program evaluation.

Factories hold an :class:`ExecutionBackend` instead of a bare
:class:`~repro.kernel.execution.interpreter.Interpreter`, so the choice
between op-at-a-time interpretation and compiled/fused execution
(:mod:`repro.kernel.execution.compiled`) is one constructor argument
(``DataCellEngine(backend="compiled")``) rather than a code change.

Fallback contract: the compiler specializes exactly the *built-in*
opcode surface (:func:`~repro.kernel.execution.interpreter.kernel_registry`).
A program containing any other opcode — e.g. one registered on a custom
interpreter registry — compiles to ``None`` once and runs through the
interpreter on every firing, bumping the
:data:`~repro.kernel.execution.profiler.COUNTER_COMPILED_FALLBACKS`
counter so the fallback is observable (``repro top`` counters, tests).
Opcodes unknown to both raise
:class:`~repro.errors.UnknownInstructionError` exactly as the interpreter
alone would.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Optional

from repro.errors import ExecutionError, UnknownInstructionError
from repro.kernel.execution.compiled import CompiledProgram, ProgramCompiler
from repro.kernel.execution.interpreter import Interpreter
from repro.kernel.execution.profiler import COUNTER_COMPILED_FALLBACKS, Profiler
from repro.kernel.execution.program import Program

#: Backend names accepted by ``make_backend`` / ``DataCellEngine``.
BACKENDS: tuple[str, ...] = ("interpreted", "compiled")

#: Compiled-program cache entries kept per backend (plans per factory are
#: few and long-lived; the cap only guards pathological churn).
_CACHE_CAP = 256


class ExecutionBackend:
    """Evaluates verified Programs; same run() contract as Interpreter."""

    name: str = "abstract"

    def run(
        self,
        program: Program,
        inputs: Mapping[str, object],
        profiler: Optional[Profiler] = None,
    ) -> dict[str, object]:
        raise NotImplementedError


class InterpreterBackend(ExecutionBackend):
    """Op-at-a-time interpretation — the default backend."""

    name = "interpreted"

    def __init__(self, interpreter: Optional[Interpreter] = None) -> None:
        self._interp = interpreter if interpreter is not None else Interpreter()

    def run(
        self,
        program: Program,
        inputs: Mapping[str, object],
        profiler: Optional[Profiler] = None,
    ) -> dict[str, object]:
        return self._interp.run(program, inputs, profiler)


class CompiledBackend(ExecutionBackend):
    """Compiled/fused execution with per-program interpreter fallback.

    Compilation results are memoized per Program identity: factory plans
    are built once at submit time and reused for every firing, so keying
    on ``id(program)`` is both safe (the cache entry keeps the program
    alive, preventing id reuse) and free of the cost of structural
    hashing.  A ``None`` entry records a program that failed to compile
    and permanently runs interpreted; the triggering exception is kept on
    the entry (see :meth:`fallback_error`) so an *unexpected* compiler
    failure — anything other than the contractual
    :class:`UnknownInstructionError` / :class:`ExecutionError` — stays
    diagnosable instead of being indistinguishable from an unsupported
    opcode.  Unexpected failures additionally emit a :class:`RuntimeWarning`
    at compile time (results are still correct — the interpreter is
    authoritative — but silent would hide a compiler bug).
    """

    name = "compiled"

    def __init__(
        self,
        interpreter: Optional[Interpreter] = None,
        profile: bool = False,
    ) -> None:
        # The compiler always targets the built-in registry; the fallback
        # interpreter may carry extension opcodes on top of it.
        self._compiler = ProgramCompiler()
        self._interp = interpreter if interpreter is not None else Interpreter()
        self._profile = profile
        # id(program) -> (program, compiled-or-None, compile-error-or-None);
        # a factory's backend runs on the firing thread only, so no lock.
        self._cache: dict[
            int, tuple[Program, Optional[CompiledProgram], Optional[Exception]]
        ] = {}

    def compiled_for(self, program: Program) -> Optional[CompiledProgram]:
        """The memoized compilation of ``program`` (None = fallback)."""
        key = id(program)
        entry = self._cache.get(key)
        if entry is not None:
            return entry[1]
        error: Optional[Exception] = None
        compiled: Optional[CompiledProgram]
        try:
            compiled = self._compiler.compile(program, profile=self._profile)
        except (UnknownInstructionError, ExecutionError) as exc:
            # The contractual fallback reasons: an opcode outside the
            # built-in registry, or a program the verifier rejects.
            compiled, error = None, exc
        except Exception as exc:  # pragma: no cover - compiler bug guard
            # Anything else is a compiler defect, not an unsupported
            # program.  Fall back (the interpreter is authoritative) but
            # say so — a silent catch here turns bugs into permanently
            # slow, undiagnosable programs.
            compiled, error = None, exc
            warnings.warn(
                f"unexpected failure compiling program "
                f"({len(program.instructions)} instructions); "
                f"falling back to the interpreter: {exc!r}",
                RuntimeWarning,
                stacklevel=2,
            )
        if len(self._cache) >= _CACHE_CAP:
            self._cache.clear()
        self._cache[key] = (program, compiled, error)
        return compiled

    def fallback_error(self, program: Program) -> Optional[Exception]:
        """Why ``program`` fell back to the interpreter (None = compiled,
        or never seen)."""
        entry = self._cache.get(id(program))
        return entry[2] if entry is not None else None

    def run(
        self,
        program: Program,
        inputs: Mapping[str, object],
        profiler: Optional[Profiler] = None,
    ) -> dict[str, object]:
        compiled = self.compiled_for(program)
        if compiled is None:
            if profiler is not None:
                profiler.count(COUNTER_COMPILED_FALLBACKS)
            return self._interp.run(program, inputs, profiler)
        return compiled.run(inputs, profiler)


def make_backend(
    name: str,
    interpreter: Optional[Interpreter] = None,
    profile: bool = False,
) -> ExecutionBackend:
    """Build a backend by name (``interpreted`` | ``compiled``).

    ``interpreter`` seeds the interpreted path (and the compiled
    backend's fallback) — pass one carrying extension opcodes if needed.
    ``profile`` only affects the compiled backend: it preserves
    per-opcode timing at the cost of disabling fusion.
    """
    if name == "interpreted":
        return InterpreterBackend(interpreter)
    if name == "compiled":
        return CompiledBackend(interpreter, profile=profile)
    raise ValueError(f"unknown execution backend {name!r}; expected one of {BACKENDS}")
