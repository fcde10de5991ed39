"""Tests for the DataCell console (``python -m repro``)."""

import io

import numpy as np
import pytest

from repro.cli import Console, _parse_schema
from repro.core.overflow import Block
from repro.errors import BasketOverflowError, ReproError
from repro.workloads import write_csv


def run_script(lines, console=None):
    console = console or Console(out=io.StringIO())
    for line in lines:
        alive = console.execute(line)
        if not alive:
            break
    return console, console.out.getvalue()


class TestSchemaParsing:
    def test_basic(self):
        name, columns = _parse_schema("s (a int, b float)")
        assert name == "s"
        assert columns == [("a", "int"), ("b", "float")]

    def test_bad_shapes(self):
        with pytest.raises(ReproError):
            _parse_schema("nope")
        with pytest.raises(ReproError):
            _parse_schema("s (a)")
        with pytest.raises(ReproError):
            _parse_schema("s ()")


class TestCommands:
    def test_create_and_streams_listing(self):
        __, out = run_script(
            ["CREATE STREAM s (x1 int, x2 int)", "STREAMS"]
        )
        assert "stream s created" in out
        assert "s (x1 int, x2 int)" in out

    def test_full_session(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "data.csv"
        write_csv(
            path,
            {"x1": rng.integers(0, 5, 100), "x2": rng.integers(0, 9, 100)},
            order=["x1", "x2"],
        )
        console, out = run_script(
            [
                "CREATE STREAM s (x1 int, x2 int)",
                "SUBMIT SELECT x1, sum(x2) FROM s [RANGE 40 SLIDE 20] GROUP BY x1 ORDER BY x1",
                f"FEED s FROM {path} CHUNK 32",
                "RESULTS q1 LAST",
                "QUERIES",
            ]
        )
        assert "registered q1 [incremental]" in out
        assert "fed 100 tuple(s)" in out
        assert "q1: 4 window(s)" in out

    def test_reeval_mode(self):
        __, out = run_script(
            [
                "CREATE STREAM s (x1 int, x2 int)",
                "SUBMIT REEVAL SELECT count(*) FROM s [RANGE 4 SLIDE 2]",
            ]
        )
        assert "registered q1 [reeval]" in out

    def test_one_time_query_and_load(self, tmp_path):
        path = tmp_path / "dim.csv"
        write_csv(path, {"k": [1, 2, 3], "v": [10, 20, 30]}, order=["k", "v"])
        __, out = run_script(
            [
                "CREATE TABLE dim (k int, v int)",
                f"LOAD dim FROM {path}",
                "SELECT k, v FROM dim WHERE v > 15 ORDER BY k",
            ]
        )
        assert "loaded 3 row(s)" in out
        assert "2 | 20" in out
        assert "(2 row(s))" in out

    def test_explain_variants(self):
        __, out = run_script(
            [
                "CREATE STREAM s (x1 int, x2 int)",
                "EXPLAIN SELECT x1 FROM s [RANGE 10 SLIDE 5] WHERE x1 > 1",
                "EXPLAIN CONTINUOUS SELECT sum(x1) FROM s [RANGE 10 SLIDE 5]",
            ]
        )
        assert "Scan[stream]" in out
        assert "combine" in out

    def test_errors_keep_console_alive(self):
        console, out = run_script(
            ["WIBBLE", "CREATE STREAM s (x1 int)", "STREAMS"]
        )
        assert "unknown command" in out
        assert "stream s created" in out

    def test_quit_stops(self):
        console, __ = run_script(["QUIT", "CREATE STREAM s (x1 int)"])
        assert not console.engine._logs  # nothing after QUIT

    def test_comments_and_blank_lines(self):
        __, out = run_script(["", "-- a comment", "HELP"])
        assert "CREATE STREAM" in out

    def test_run_command(self):
        __, out = run_script(
            [
                "CREATE STREAM s (x1 int)",
                "SUBMIT SELECT count(*) FROM s [RANGE 2 SLIDE 1]",
                "RUN",
            ]
        )
        assert "fired 0 window(s)" in out

    def test_script_file_entry_point(self, tmp_path):
        script = tmp_path / "session.dcl"
        script.write_text("CREATE STREAM s (x1 int)\nSTREAMS\nQUIT\n")
        from repro.cli import main

        assert main([str(script)]) == 0


class TestStatsCommand:
    """The STATS console command: overload counters + factory profiles."""

    def test_stats_empty_engine_prints_nothing(self):
        __, out = run_script(["STATS"])
        assert "-- streams" not in out
        assert "-- factories" not in out

    def test_stats_reports_overload_counters(self):
        console = Console(out=io.StringIO(), capacity=3, overflow=Block(timeout=0.0))
        console.execute("CREATE STREAM s (x1 int)")
        console.execute("SUBMIT SELECT count(*) AS n FROM s [RANGE 4 SLIDE 4]")
        console.engine.feed("s", rows=[(0,), (1,)])
        with pytest.raises(BasketOverflowError):
            console.engine.feed("s", rows=[(2,), (3,)])  # no room: times out at once
        console.execute("STATS")
        out = console.out.getvalue()
        assert "-- streams" in out
        assert "capacity=3" in out
        assert "parked=2 block_waits=1 block_timeouts=1" in out

    def test_stats_reports_factory_profiles_after_run(self):
        console, out = run_script(
            [
                "CREATE STREAM s (x1 int)",
                "SUBMIT SELECT count(*) AS n FROM s [RANGE 2 SLIDE 2]",
            ]
        )
        console.engine.feed("s", rows=[(1,), (2,)])
        console.execute("RUN")
        console.execute("STATS")
        out = console.out.getvalue()
        assert "-- factories" in out
        assert "fired 1 window(s)" in out

    def test_unbounded_stream_stats_label(self):
        console, out = run_script(["CREATE STREAM s (x1 int)", "STATS"])
        assert "capacity=unbounded" in console.out.getvalue()


class TestMainFlagParsing:
    """`python -m repro` flag handling: --capacity/--overflow."""

    def run_main(self, args, tmp_path, script_text="QUIT\n"):
        from repro.cli import main

        script = tmp_path / "session.dcl"
        script.write_text(script_text)
        return main([*args, str(script)])

    def test_capacity_and_overflow_happy_path(self, tmp_path, capsys):
        code = self.run_main(
            ["--capacity", "4", "--overflow", "block"],
            tmp_path,
            "CREATE STREAM s (x1 int)\nQUIT\n",
        )
        assert code == 0
        assert "capacity 4, overflow block" in capsys.readouterr().out

    def test_inline_flag_values(self, tmp_path, capsys):
        code = self.run_main(
            ["--capacity=2", "--overflow=block:0.5"],
            tmp_path,
            "CREATE STREAM s (x1 int)\nQUIT\n",
        )
        assert code == 0
        assert "overflow block:0.5" in capsys.readouterr().out

    def test_capacity_without_overflow_defaults_to_fail(self, tmp_path, capsys):
        code = self.run_main(
            ["--capacity", "4"], tmp_path, "CREATE STREAM s (x1 int)\nQUIT\n"
        )
        assert code == 0
        assert "overflow fail" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args",
        [
            ["--capacity"],            # missing value
            ["--capacity", "0"],       # must be positive
            ["--capacity", "nope"],    # not an integer
            ["--overflow", "bogus", "--capacity", "4"],   # unknown policy
            ["--overflow", "block"],                      # needs --capacity
            ["--frobnicate", "1"],     # unknown flag
        ],
    )
    def test_malformed_flags_exit_2(self, args, tmp_path, capsys):
        assert self.run_main(args, tmp_path) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["shed-oldest", "sample:0.5:7"])
    def test_removed_overflow_spec_is_refused(self, spec, tmp_path, capsys):
        code = self.run_main(
            ["--capacity", "4", "--overflow", spec],
            tmp_path,
            "CREATE STREAM s (x1 int)\nQUIT\n",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "was removed" in err and "DESIGN.md §7" in err


class TestServe:
    """`python -m repro serve --data-dir DIR` on an existing dir."""

    @staticmethod
    def write_dir(data_dir):
        from repro import DataCellEngine

        engine = DataCellEngine(data_dir=str(data_dir))
        engine.create_stream("s", [("x1", "int")])
        engine.checkpoint()
        engine.close()

    def serve(self, data_dir, monkeypatch):
        from repro.cli import main

        monkeypatch.setattr("sys.stdin", io.StringIO("QUIT\n"))
        return main(["serve", "--data-dir", str(data_dir)])

    @pytest.mark.parametrize("refusal", ["manifest-version", "format"])
    def test_refused_data_dir_exits_2_without_a_traceback(
        self, refusal, tmp_path, monkeypatch, capsys
    ):
        import json

        from repro import DataCellEngine

        data_dir = tmp_path / "dd"
        if refusal == "format":
            monkeypatch.setattr(DataCellEngine, "_meta", lambda self: {"format": 1})
            self.write_dir(data_dir)
            monkeypatch.undo()
        else:
            self.write_dir(data_dir)
            manifest = data_dir / "MANIFEST.json"
            manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "version": 9}))
        capsys.readouterr()
        assert self.serve(data_dir, monkeypatch) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert ("format 1" if refusal == "format" else "version 9") in err
        assert "Traceback" not in err

    def test_current_data_dir_recovers(self, tmp_path, monkeypatch, capsys):
        self.write_dir(tmp_path / "dd")
        assert self.serve(tmp_path / "dd", monkeypatch) == 0
        assert "recovered engine from" in capsys.readouterr().err
