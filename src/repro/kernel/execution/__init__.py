"""Program execution: interpreter, profiler."""

from repro.kernel.execution.backends import InterpreterBackend
from repro.kernel.execution.interpreter import (
    Interpreter,
    kernel_registry,
    known_opcodes,
)
from repro.kernel.execution.profiler import Profiler
from repro.kernel.execution.program import (
    TAG_ADMIN,
    TAG_MAIN,
    TAG_MERGE,
    Instr,
    Lit,
    Program,
    Ref,
    SlotNames,
)

__all__ = [
    "Instr",
    "Interpreter",
    "InterpreterBackend",
    "Lit",
    "Profiler",
    "Program",
    "Ref",
    "SlotNames",
    "TAG_ADMIN",
    "TAG_MAIN",
    "TAG_MERGE",
    "kernel_registry",
    "known_opcodes",
]
