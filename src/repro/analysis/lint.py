"""The ``repro lint`` driver: verify rewritten plans of real queries.

Three query sources feed the verifier:

* explicit ``--sql`` plus ``--stream``/``--table`` schema declarations;
* Python files/directories (``examples/``): a conservative AST harvest
  finds ``create_stream`` / ``create_table`` / ``submit`` calls and
  resolves their literal (and f-string) arguments without executing the
  example;
* ``benchmarks/``: the shared ``conftest.py`` is imported and its
  ``fresh_engine`` / ``q*_sql`` builders are invoked with representative
  parameters, so the exact SQL the figure benchmarks submit is linted.

Each query is compiled once by the engine's own pipeline
(:func:`repro.core.engine.compile_query`: planned, optimized, rewritten,
statically verified by :mod:`repro.analysis.plan_verifier` and, with
``--resources``, bounded by :mod:`repro.analysis.resources`); CI fails
on any error diagnostic.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import inspect
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.analysis.diagnostics import Report
from repro.analysis.pretty import dump_plan
from repro.core.engine import CompiledQuery, DataCellEngine, compile_query
from repro.errors import CatalogError, ReproError, UnsupportedQueryError

#: representative parameters for benchmark query builders (``q1_sql(window,
#: step, threshold)`` & co.); ratios match the scaled-down figure runs.
_BENCH_PARAM_DEFAULTS = {"window": 1024, "step": 128, "threshold": 50}
_BENCH_PARAM_FALLBACK = 64


def lint_sql(
    engine: DataCellEngine, sql: str, subject: str = "query", resources: bool = False
) -> tuple[Report, Optional[CompiledQuery]]:
    """Compile + verify one query; returns ``(report, compiled-or-None)``.

    One :func:`~repro.core.engine.compile_query` run serves the verifier
    diagnostics and, with ``resources``, the static state bounds
    (``compiled.resources``, whose diagnostics join the report).
    Non-rewritable queries (re-evaluation fallback) produce a warning, not
    an error — the engine would accept them in ``reeval`` mode.
    """
    report = Report(subject=subject)
    try:
        compiled = compile_query(
            sql,
            engine.catalog,
            capacities=engine._capacities() if resources else None,
            verify=True,
            strict=False,
            subject=subject,
        )
    except UnsupportedQueryError as exc:
        # Only the rewriter raises it: the query planned.
        report.warning(
            "plan", f"not rewritable (re-evaluation fallback): {exc}"
        )
        return report, None
    except ReproError as exc:
        report.error("plan", f"query does not plan: {exc}")
        return report, None
    assert compiled.verified is not None
    report.extend(compiled.verified)
    if compiled.resources is not None:
        report.extend(compiled.resources.report)
    return report, compiled


# ----------------------------------------------------------------------
# AST harvesting of example scripts
# ----------------------------------------------------------------------
@dataclass
class HarvestedQueries:
    """Schemas and continuous-query SQL found in one Python source file."""

    source: str
    streams: list[tuple[str, list[tuple[str, str]]]] = field(default_factory=list)
    tables: list[tuple[str, list[tuple[str, str]]]] = field(default_factory=list)
    queries: list[str] = field(default_factory=list)
    skipped: int = 0  # submit() calls whose SQL could not be resolved


class _Unresolved(Exception):
    """A harvested expression is not statically resolvable."""


class _Harvester(ast.NodeVisitor):
    """Best-effort constant evaluator over one module, in source order.

    Assignments of literal-ish expressions (constants, arithmetic,
    f-strings over already-known names) are tracked in a single flat
    namespace — good enough to resolve the SQL strings the examples build,
    while anything dynamic is skipped rather than executed.
    """

    def __init__(self, source: str) -> None:
        self.result = HarvestedQueries(source)
        self._names: dict[str, object] = {}

    # -- expression evaluation ----------------------------------------
    def _eval(self, node: ast.AST) -> object:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in self._names:
                return self._names[node.id]
            raise _Unresolved(node.id)
        if isinstance(node, (ast.List, ast.Tuple)):
            return [self._eval(item) for item in node.elts]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            value = self._eval(node.operand)
            if isinstance(value, (int, float)):
                return -value
            raise _Unresolved("unary minus")
        if isinstance(node, ast.BinOp):
            left, right = self._eval(node.left), self._eval(node.right)
            ops = {
                ast.Add: lambda a, b: a + b,
                ast.Sub: lambda a, b: a - b,
                ast.Mult: lambda a, b: a * b,
                ast.FloorDiv: lambda a, b: a // b,
                ast.Div: lambda a, b: a / b,
                ast.Mod: lambda a, b: a % b,
            }
            fn = ops.get(type(node.op))
            if fn is None:
                raise _Unresolved(type(node.op).__name__)
            return fn(left, right)
        if isinstance(node, ast.JoinedStr):
            parts = []
            for value in node.values:
                if isinstance(value, ast.Constant):
                    parts.append(str(value.value))
                elif isinstance(value, ast.FormattedValue):
                    spec = ""
                    if value.format_spec is not None:
                        spec = str(self._eval(value.format_spec))
                    parts.append(format(self._eval(value.value), spec))
                else:  # pragma: no cover - defensive
                    raise _Unresolved("f-string part")
            return "".join(parts)
        raise _Unresolved(type(node).__name__)

    # -- statement visitors -------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            try:
                self._names[node.targets[0].id] = self._eval(node.value)
            except _Unresolved:
                self._names.pop(node.targets[0].id, None)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and node.args:
            if func.attr in ("create_stream", "create_table") and len(node.args) >= 2:
                try:
                    name = self._eval(node.args[0])
                    columns = [
                        (str(col), str(atom))
                        for col, atom in self._eval(node.args[1])
                    ]
                except (_Unresolved, TypeError, ValueError):
                    pass
                else:
                    target = (
                        self.result.streams
                        if func.attr == "create_stream"
                        else self.result.tables
                    )
                    target.append((str(name), columns))
            elif func.attr == "submit":
                try:
                    sql = self._eval(node.args[0])
                except _Unresolved:
                    self.result.skipped += 1
                else:
                    if isinstance(sql, str) and sql not in self.result.queries:
                        self.result.queries.append(sql)
        self.generic_visit(node)


def harvest_python_file(path: Path) -> HarvestedQueries:
    """Statically harvest schemas and submitted SQL from one Python file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    harvester = _Harvester(str(path))
    harvester.visit(tree)
    return harvester.result


def _engine_for(harvest: HarvestedQueries) -> DataCellEngine:
    engine = DataCellEngine()
    for name, columns in harvest.streams:
        try:
            engine.create_stream(name, columns)
        except (CatalogError, ReproError):
            pass  # duplicate declarations across engines in one script
    for name, columns in harvest.tables:
        try:
            engine.create_table(name, columns)
        except (CatalogError, ReproError):
            pass
    return engine


# ----------------------------------------------------------------------
# benchmark harvesting (dynamic: conftest query builders)
# ----------------------------------------------------------------------
def harvest_benchmarks(directory: Path) -> Optional[tuple[DataCellEngine, list[str]]]:
    """Import ``conftest.py`` and collect its ``q*_sql`` builder outputs."""
    conftest = directory / "conftest.py"
    if not conftest.is_file():
        return None
    spec = importlib.util.spec_from_file_location("repro_lint_bench_conftest", conftest)
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    factory = getattr(module, "fresh_engine", None)
    engine = factory() if callable(factory) else DataCellEngine()
    queries: list[str] = []
    for name in sorted(vars(module)):
        if not re.fullmatch(r"q\d+_sql", name):
            continue
        builder = getattr(module, name)
        try:
            params = inspect.signature(builder).parameters
            args = [
                _BENCH_PARAM_DEFAULTS.get(param, _BENCH_PARAM_FALLBACK)
                for param in params
            ]
            sql = builder(*args)
        except Exception:
            continue
        if isinstance(sql, str):
            queries.append(sql)
    return engine, queries


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------
def _collect_targets(paths: list[str]) -> list[tuple[DataCellEngine, str, str]]:
    """Expand CLI paths into ``(engine, subject, sql)`` lint units."""
    units: list[tuple[DataCellEngine, str, str]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            bench = harvest_benchmarks(path)
            if bench is not None:
                engine, queries = bench
                for sql in queries:
                    units.append((engine, f"{path}/conftest.py", sql))
            for file in sorted(path.glob("*.py")):
                if file.name == "conftest.py" and bench is not None:
                    continue
                harvest = harvest_python_file(file)
                engine = _engine_for(harvest)
                for sql in harvest.queries:
                    units.append((engine, str(file), sql))
        elif path.is_file():
            harvest = harvest_python_file(path)
            engine = _engine_for(harvest)
            for sql in harvest.queries:
                units.append((engine, str(path), sql))
        else:
            raise FileNotFoundError(f"lint target {raw!r} does not exist")
    return units


def run_lint_cli(argv: list[str], out=None) -> int:
    """``repro lint`` entry point; returns a process exit code."""
    import sys

    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="statically verify the rewritten plans of continuous queries",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="Python files or directories to harvest queries from "
        "(default: examples/ and benchmarks/ when present)",
    )
    parser.add_argument("--sql", action="append", default=[], help="lint one SQL query")
    parser.add_argument(
        "--stream",
        action="append",
        default=[],
        metavar="NAME(COL TYPE,...)",
        help="declare a stream schema for --sql",
    )
    parser.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME(COL TYPE,...)",
        help="declare a table schema for --sql",
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="also lint N randomly generated continuous queries "
        "(the repro fuzz generator as a free verifier corpus)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="generator seed for --fuzz (default 0)",
    )
    parser.add_argument(
        "--dump",
        action="store_true",
        help="print the typed program dump of every verified plan",
    )
    parser.add_argument(
        "--resources",
        action="store_true",
        help="also run the resource-bound analyzer and print per-query "
        "worst-case state bounds (unbounded landmark state, capacity "
        "mismatches, join fan-out)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress warnings, print errors only"
    )
    args = parser.parse_args(argv)

    units: list[tuple[DataCellEngine, str, str]] = []
    if args.sql:
        from repro.cli import _parse_schema

        engine = DataCellEngine()
        try:
            for declaration in args.stream:
                name, columns = _parse_schema(declaration)
                engine.create_stream(name, columns)
            for declaration in args.table:
                name, columns = _parse_schema(declaration)
                engine.create_table(name, columns)
        except ReproError as exc:
            print(f"repro lint: {exc}", file=out)
            return 2
        units += [(engine, "--sql", sql) for sql in args.sql]

    if args.fuzz:
        import numpy as np

        from repro.testing.fuzz.generator import TAXONOMY, QueryGenerator, build_engine

        for i in range(args.fuzz):
            generator = QueryGenerator(np.random.default_rng([args.seed, i]))
            try:
                query = generator.query(TAXONOMY[i % len(TAXONOMY)])
            except ReproError:
                continue
            units.append((build_engine(query), f"--fuzz[{i}]", query.sql))

    paths = list(args.paths)
    if not paths and not args.sql and not args.fuzz:
        paths = [p for p in ("examples", "benchmarks") if Path(p).is_dir()]
        if not paths:
            print("repro lint: nothing to lint (no examples/ or benchmarks/)", file=out)
            return 2
    try:
        units += _collect_targets(paths)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=out)
        return 2

    failures = 0
    for engine, subject, sql in units:
        report, compiled = lint_sql(
            engine, sql, subject=subject, resources=args.resources
        )
        resources = compiled.resources if compiled is not None else None
        label = " ".join(sql.split())
        if len(label) > 88:
            label = label[:85] + "..."
        if report.ok:
            status = "ok" if not report.warnings() else "ok (warnings)"
            print(f"{status}: {subject}: {label}", file=out)
        else:
            failures += 1
            print(f"FAIL: {subject}: {label}", file=out)
        shown = report.errors() if args.quiet else report.diagnostics
        for diagnostic in shown:
            print(f"    {diagnostic.render()}", file=out)
        if resources is not None:
            print(f"    state bound: {resources.total_state.render()}", file=out)
            if args.dump:
                print(resources.render_table(), file=out)
        if args.dump and compiled is not None:
            print(dump_plan(compiled.plan, compiled.schemas), file=out)
            print(file=out)
    total = len(units)
    print(
        f"repro lint: {total} quer{'y' if total == 1 else 'ies'} checked, "
        f"{failures} failed",
        file=out,
    )
    return 1 if failures else 0
