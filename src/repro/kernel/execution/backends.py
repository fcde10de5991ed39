"""The program runner factories hold.

Every verified program runs op-at-a-time on the :class:`Interpreter`,
the kernel's one execution path (DESIGN.md §13).  Factories call
:meth:`InterpreterBackend.run` rather than the interpreter itself, so
that one method sees every factory program run.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.kernel.execution.interpreter import Interpreter
from repro.kernel.execution.profiler import Profiler
from repro.kernel.execution.program import Program


class InterpreterBackend:
    """Runs a factory's programs on the interpreter."""

    def __init__(self) -> None:
        self._interp = Interpreter()

    def run(
        self,
        program: Program,
        inputs: Mapping[str, object],
        profiler: Optional[Profiler] = None,
    ) -> dict[str, object]:
        return self._interp.run(program, inputs, profiler)


# Never instantiated: perf/trace.py patches `run` on this name too, and stays
# frozen until its monkeypatch tracer is replaced (ROADMAP item 5).
class CompiledBackend(InterpreterBackend):
    run = InterpreterBackend.run
