import argparse
import builtins
import hashlib
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from barbilliard import (
    ConvexBody,
    DiskPoint,
    IdealPoint,
    OutOfTheoreticalRange,
    PreconditionFailed,
    TangentMap,
    cli,
    errors,
    pentagram,
)
from barbilliard.cli import CSV_HEADER, build_parser, main
from barbilliard.geometry import fmt
from barbilliard.svgfig import figure_svg
from conftest import SRC, src_env

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the sweep workers ``os.fork`` makes while a test runs;
    once it has run, none may be left unreaped.  A test that waits on its
    workers for a minute fails rather than hangs."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def overdue(signum, frame):
        pytest.fail("a sweep with forked workers ran for 60 s")

    monkeypatch.setattr(os, "fork", spy)
    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(60)
    yield pids
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "barbilliard", *args],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    return proc


class TestRho:
    def test_canonical_two_fifths(self, capsys):
        code = main(["rho", "--t", "0.9", "--r", "-0.0526315789473684", "--iters", "20000"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["condition_report"]["cond48"] is True
        assert out["rotation"]["rho_p"] == 2
        assert out["rotation"]["rho_q"] == 5
        assert out["rho_verdict"] == "equals"
        assert len(out["orbits"]) >= 1
        assert len(out["orbits"][0]) == 5

    def test_semi_stable_orbit_printed_once(self, capsys):
        # an ellipse-threshold triangle whose walked orbit misses its own
        # located tangency zeros by about 1.2e-7: one orbit, five zeros
        v = ("0.0,0.9217245505040526,0.0,-0.9217245505040526,"
             "0.002795080579365428,-0.5389184701775002")
        assert main(["rho", f"--vertices={v}"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (len(out["orbits"]), out["zero_count"]) == (1, 5)

    def test_equilateral_third(self, capsys):
        v = "-0.25,0.4330127018922193,-0.25,-0.4330127018922193,0.5,0"
        code = main(["rho", f"--vertices={v}", "--iters", "20000"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["rotation"]["rho_p"] == 1
        assert out["rotation"]["rho_q"] == 3
        assert "orbits" not in out

    def test_degenerate_vertices(self, capsys):
        # collinear vertices, and an apex so near the base that two
        # breakpoints fall 0.95e-12 turns apart
        for argv, message in [
            (["rho", "--vertices", "0,0.5,0,-0.5,0,0"],
             "triangle is degenerate (collinear vertices)"),
            (["rho", "--t", "0.5", "--r=1.5e-12"],
             "breakpoints collide; body is numerically degenerate"),
        ]:
            code = main(argv)
            out = json.loads(capsys.readouterr().out)
            assert code == 2
            assert out == {"error": "DegenerateBody", "message": message}

    def test_base_shorter_than_arccosh_resolves(self, capsys):
        # cosh(2e-9) rounds to 1, so the arccosh form read a zero-length base
        code = main(["rho", "--t", "1e-9", "--r=-0.5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        d_base = min(l["d_base"] for l in out["condition_report"]["labelings"])
        assert d_base == pytest.approx(2e-9, rel=1e-12)

    def test_invariant_breach_exits_4_with_json(self, capsys, monkeypatch):
        def breach(*args, **kwargs):
            raise OutOfTheoreticalRange("estimate escapes [1/3, 1/2); this is a bug")

        monkeypatch.setattr(cli, "conjecture_check", breach)
        assert main(["verify", "--t", "0.9", "--r=-0.02"]) == 4
        assert json.loads(capsys.readouterr().out) == {
            "error": "OutOfTheoreticalRange",
            "message": "estimate escapes [1/3, 1/2); this is a bug",
        }

    #: the JSON error name and exit code of each package error class
    OUTCOMES = {
        "InvalidArgument": ("InvalidArgument", 2),
        "InvalidBody": ("DegenerateBody", 2),
        "OutOfRange": ("OutOfRange", 2),
        "PointOnLine": ("PointOnLine", 2),
        "PreconditionFailed": ("PreconditionFailed", 2),
        "OutOfTheoreticalRange": ("OutOfTheoreticalRange", 4),
    }
    CLASSES = sorted(cls.__name__ for cls in errors.BarBilliardError.__subclasses__())
    #: the outcomes of two errors from outside the package: a fork that
    #: fails raises OSError, and a sweep worker that dies before it sends
    #: its rows a RuntimeError
    OTHER_OUTCOMES = {"OSError": ("IOFailure", 3), "RuntimeError": ("RuntimeError", 4)}

    def test_every_error_class_has_an_outcome(self):
        assert sorted(self.OUTCOMES) == self.CLASSES

    @pytest.mark.parametrize("name", CLASSES + sorted(OTHER_OUTCOMES))
    def test_exit_code_of_each_error_class(self, capsys, monkeypatch, name):
        cls = getattr(errors, name, None) or getattr(builtins, name)

        def fail(*args, **kwargs):
            raise cls("the check refused")

        monkeypatch.setattr(cli, "conjecture_check", fail)
        error, code = {**self.OUTCOMES, **self.OTHER_OUTCOMES}[name]
        assert main(["verify", "--t", "0.9", "--r=-0.02"]) == code
        assert json.loads(capsys.readouterr().out) == {
            "error": error, "message": "the check refused"}


class TestSweep:
    def test_small_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--t", "0.88:0.92:2", "--r=-0.03:-0.01:3",
                "--iters", "1500", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7
        summary = capsys.readouterr().out
        assert "rows=6" in summary
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 13
            assert fields[6] in ("true", "false")
            # sandwich rows certify 2/5 or are flagged, never contradicted
            if fields[6] == "true" and fields[11] != "uncertified":
                assert (fields[9], fields[10]) == ("2", "5")

    def test_jobs_parallel_identical(self, tmp_path, monkeypatch, forks):
        # 18 cells are three chunks, so --jobs 2 forks one worker
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--t", "0.86:0.9:3", "--r=-0.03:-0.02:6",
                "--iters", "1500", "--seed", "5"]
        assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
        assert forks == []
        assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
        assert len(forks) == 1
        assert a.read_bytes() == b.read_bytes()

    def test_relative_interval_mode(self, tmp_path, capsys):
        out = tmp_path / "rel.csv"
        code = main(
            [
                "sweep", "--t", "0.3:0.9:3", "--r", "0.1:0.9:3",
                "--r-mode", "relative_interval", "--iters", "1500",
                "--seed", "7", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()[1:]
        assert all(line.split(",")[6] == "true" for line in lines)
        assert all(line.split(",")[12] == "true" for line in lines)

    def test_single_cell_grid(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code = main(
            [
                "sweep", "--t", "0.9:0.9:1", "--r=-0.02:-0.02:1",
                "--iters", "1500", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0.9,-0.02,")

    def test_ranges_without_steps_take_ten(self, tmp_path, capsys):
        out = tmp_path / "ten.csv"
        assert main(["sweep", "--t", "0.88:0.9", "--r=-0.03:-0.02", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 10 * 10
        cells = [line.split(",")[:2] for line in lines[1:]]
        assert len({t for t, _ in cells}) == len({r for _, r in cells}) == 10
        assert cells[0] == ["0.88", "-0.03"] and cells[-1] == ["0.9", "-0.02"]
        assert "rows=100" in capsys.readouterr().out


class TestResourceFlags:
    """--iters and --jobs are checked before any work starts."""

    TRIANGLE = ["--t", "0.9", "--r=-0.02"]
    SWEEP = ["sweep", "--t", "0.88:0.92:2", "--r=-0.03:-0.01:2", "--iters", "1500"]

    @pytest.mark.parametrize("command", ["rho", "verify"])
    @pytest.mark.parametrize(
        "flags",
        [["--iters", "0"], ["--iters", "20000000"]],
    )
    def test_rho_and_verify_reject_out_of_range(self, capsys, command, flags):
        code = main([command, *self.TRIANGLE, *flags])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"] == "InvalidArgument"

    @pytest.mark.parametrize(
        "flags",
        [["--jobs", "0"], ["--jobs", "-3"], ["--iters", "0"], ["--iters", "20000000"]],
    )
    def test_sweep_rejects_out_of_range(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        code = main([*self.SWEEP, *flags, "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"] == "InvalidArgument"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["rho", "--vertices=a,0,0,0.5,0.5,0"],
            ["tau", "--pair=0,0.9,0,-0.9", "--point=x,0"],
            ["sweep", "--t", "0.8:0.9:x", "--r=-0.03:-0.01:2", "--iters", "1500"],
            [*SWEEP, "--seed", "-1"],
            ["rho", "--t", "abc", "--r=-0.02"],
            ["verify", "--t", "0.9", "--r=-0.0.2"],
            ["render", "--t", "0.9", "--r=-0.05", "--start", "x"],
        ],
    )
    def test_malformed_numbers_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        code = main([*argv, "--out", str(out)] if argv[0] in ("sweep", "render") else argv)
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"] == "InvalidArgument"
        assert not out.exists()

    def test_pool_capped_by_cpus_and_cells(self, tmp_path, monkeypatch, capsys, forks):
        """At most one worker per usable CPU and per chunk of cells: this
        process and the children it forks."""
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        out = tmp_path / "x.csv"
        children = []
        for t_range, r_range in [
            ("0.86:0.9:3", "-0.03:-0.02:6"),   # 18 cells, 3 chunks: 3 workers
            ("0.86:0.9:2", "-0.03:-0.02:8"),   # 16 cells, 2 chunks: 2 workers
            ("0.86:0.9:2", "-0.03:-0.02:4"),   # 8 cells, 1 chunk: this process
            ("0.9:0.9:1", "-0.03:-0.01:2"),    # 2 cells: this process
        ]:
            before = len(forks)
            assert main(["sweep", "--t", t_range, f"--r={r_range}", "--iters", "1500",
                         "--jobs", "64", "--out", str(out)]) == 0
            children.append(len(forks) - before)
        assert children == [2, 1, 0, 0]

    @pytest.mark.parametrize(
        "setup, t_range, r_range",
        [
            ("", "0.86:0.9:2", "-0.03:-0.02:2"),
            # 18 cells on one usable CPU, though os.cpu_count counts them all
            ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); ",
             "0.86:0.9:3", "-0.03:-0.02:6"),
        ],
        ids=["one-chunk", "one-cpu"],
    )
    def test_sweep_without_work_for_a_pool_imports_none(self, tmp_path, setup, t_range,
                                                        r_range):
        if setup and not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity on this platform")
        argv = ["sweep", "--t", t_range, f"--r={r_range}", "--iters", "1500",
                "--jobs", "2", "--out", str(tmp_path / "x.csv")]
        code = (f"import os, sys; {setup}from barbilliard.cli import main; "
                f"code = main({argv!r}); "
                "print(code, 'concurrent.futures.process' in sys.modules, 'pickle' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False False"

    def test_forked_sweep_loads_no_pool_and_raises_no_warning(self, tmp_path):
        """A sweep of several chunks at --jobs 2 forks with no other thread
        running, which Python 3.12 and later would warn of (an error under
        ``-W error``), and loads neither concurrent.futures nor
        multiprocessing; it loads pickle for its child's rows."""
        argv = ["sweep", "--t", "0.86:0.9:3", "--r=-0.03:-0.02:6", "--iters", "1500",
                "--jobs", "2", "--out", str(tmp_path / "x.csv")]
        code = ("import sys; from barbilliard import cli; cli._usable_cpus = lambda: 2; "
                f"code = cli.main({argv!r}); "
                "print(code, [m for m in sys.modules"
                " if m.split('.')[0] in ('concurrent', 'multiprocessing')],"
                " 'pickle' in sys.modules)")
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 [] True"


class TestInputChecks:
    """Malformed triangles, ranges and counts exit 2 with InvalidArgument,
    and a sweep rejected this way writes no file."""

    R = ["--r=-0.03:-0.01:2", "--iters", "1500"]

    @pytest.mark.parametrize("argv", [
        ["rho", "--vertices=0,0.5,0.5,0,-0.5"],
        ["verify", "--vertices=0,0.5,0.5,0,-0.5,0,0.1"],
        ["rho", "--t", "1.0", "--r=-0.02"],
        ["verify", "--t=-0.5", "--r=-0.02"],
        ["tau", "--pair=0,0.9,0", "--point=-0.02,0"],
        ["tau", "--pair=0,0.9,0,-0.9,0", "--point=-0.02,0"],
        ["tau", "--pair=0,0.9,0,-0.9", "--point=-0.02"],
        ["tau", "--pair=0,0.9,0,-0.9", "--point=-0.02,0,0"],
    ], ids=["vertices-5", "vertices-7", "t-1", "t-negative",
            "pair-3", "pair-5", "point-1", "point-3"])
    def test_triangle_and_tau_flags(self, capsys, argv):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "InvalidArgument"

    @pytest.mark.parametrize("command", ["rho", "verify", "render"])
    @pytest.mark.parametrize("flags", [["--t", "0.9"], ["--r=-0.02"], ["--t", "0.9", "--r=-0.02"]],
                             ids=["t", "r", "t-and-r"])
    def test_vertices_exclude_t_and_r(self, tmp_path, capsys, command, flags):
        """A triangle given both ways is refused, not read from --vertices alone."""
        out = tmp_path / "x.svg"
        argv = [command, "--vertices=-0.25,0.433,-0.25,-0.433,0.5,0", *flags]
        assert main(argv + (["--out", str(out)] if command == "render" else [])) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "InvalidArgument", "message": "give either --vertices or both --t and --r"}
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--r=-0.03:-0.01:2", "--iters", "1500"],
        ["--t", "0.88:0.92:2", "--iters", "1500"],
        ["--t", "0.88", *R],
        ["--t", "0.8:0.9:2:3", *R],
        ["--t", "0.92:0.88:2", *R],
        ["--t", "0.88:0.92:0", *R],
        # the base length 2t underflows to 0, so no threshold interval exists
        ["--t", "1e-300:1e-299:2", "--r", "0.1:0.9:2", "--r-mode", "relative_interval"],
        # the thresholds put the interpolated apex within rounding of the circle
        ["--t", "1e-20:1e-20:1", "--r", "0.5:0.5:1", "--r-mode", "relative_interval"],
        ["--t", "1e-12:1e-12:1", "--r", "0.5:0.5:1", "--r-mode", "relative_interval"],
    ], ids=["no-t", "no-r", "one-part", "four-parts", "t-lo-above-hi", "zero-steps",
            "relative-base-underflows", "relative-apex-on-circle-1e-20",
            "relative-apex-on-circle-1e-12"])
    def test_sweep_ranges(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "InvalidArgument"
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag, text", [
        (["rho", "--vertices=nan,0.5,-0.5,0,0,-0.5"], "--vertices", "nan"),
        (["verify", "--vertices=0,0.5,-0.5,inf,0,-0.5"], "--vertices", "inf"),
        (["tau", "--pair=0,0.9,0,-inf", "--point=-0.02,0"], "--pair", "-inf"),
        (["tau", "--pair=0,0.9,0,-0.9", "--point=nan,0"], "--point", "nan"),
        (["rho", "--t", "0.9", "--r=nan"], "--r", "nan"),
        (["verify", "--t", "inf", "--r=-0.02"], "--t", "inf"),
        (["rho", "--t", "0.9", "--r=-inf"], "--r", "-inf"),
        (["render", "--t", "0.9", "--r=-0.05", "--start", "inf", "--out", "{out}"],
         "--start", "inf"),
        (["render", "--t", "0.9", "--r=-0.05", "--start", "nan", "--out", "{out}"],
         "--start", "nan"),
    ])
    def test_flag_numbers_must_be_finite(self, tmp_path, capsys, argv, flag, text):
        out = tmp_path / "x.svg"
        assert main([str(out) if a == "{out}" else a for a in argv]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "InvalidArgument", "message": f"{flag}: not a finite number: {text!r}"}
        assert not out.exists()

    @pytest.mark.parametrize("r_mode", ["absolute", "relative_interval"])
    @pytest.mark.parametrize("flag, value, text", [
        ("--t", "nan:0.9:2", "nan"),
        ("--t", "0.8:inf:2", "inf"),
        ("--r", "nan:nan:1", "nan"),
        ("--r", "-0.02:nan:2", "nan"),
        ("--r", "-inf:0.1:2", "-inf"),
        ("--r", "0.1:inf", "inf"),
    ])
    def test_sweep_ranges_must_be_finite(self, tmp_path, capsys, monkeypatch, r_mode, flag,
                                         value, text):
        """A non-finite range end is refused before any cell runs."""
        cells = []
        monkeypatch.setattr(cli, "_sweep_cell", cells.append)
        ranges = {"--t": "0.88:0.9:2", "--r": "-0.03:-0.01:2", flag: value}
        out = tmp_path / "x.csv"
        assert main(["sweep", f"--t={ranges['--t']}", f"--r={ranges['--r']}",
                     "--r-mode", r_mode, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "InvalidArgument", "message": f"{flag}: not a finite number: {text!r}"}
        assert cells == []
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_names_the_cell_whose_scan_was_refused(self, tmp_path, capsys,
                                                         monkeypatch, forks, jobs):
        # ten cells are two chunks, so --jobs 2 forks one worker; the
        # five t = 1e-9 cells put an extremum of F^5 within SNAP of a cut
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--t", "1e-9:0.9:2", "--r", "0.5:0.5:5", "--r-mode",
                     "relative_interval", "--jobs", jobs, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "PreconditionFailed"
        assert err["message"].startswith("cell t=1e-09 r=-0.999999999: an extremum at ")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_names_the_cell_whose_triangle_is_degenerate(self, tmp_path, capsys,
                                                               monkeypatch, forks, jobs):
        # the r = 0 apex lies on the base; ten cells run two workers
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--t", "0.5:0.6:2", "--r=-0.1:0.1:5", "--iters", "1500",
                     "--jobs", jobs, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "DegenerateBody"
        assert err["message"] == "cell t=0.5 r=0: triangle is degenerate (collinear vertices)"
        assert not out.exists()

    #: 24 cells, three chunks of one t value each
    GRID = ["sweep", "--t", "0.86:0.9:3", "--r=-0.03:-0.01:8", "--iters", "1500"]

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    def test_sweep_reports_the_first_failing_cell_whatever_its_worker(
            self, tmp_path, capsys, monkeypatch, forks, jobs):
        """The last cell of the first and of the third chunk fail; whichever
        worker runs which chunk, the first of them in cell order is named."""
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        cell = cli._sweep_cell

        def sweep_cell(c):
            if c[1] > -0.0101 and abs(c[0] - 0.88) > 0.01:
                raise PreconditionFailed(f"refused t={fmt(c[0])}")
            return cell(c)

        monkeypatch.setattr(cli, "_sweep_cell", sweep_cell)
        out = tmp_path / "x.csv"
        assert main([*self.GRID, "--jobs", jobs, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "PreconditionFailed", "message": "refused t=0.86"}
        assert len(forks) == int(jobs) - 1
        assert not out.exists()

    def test_failing_cell_in_this_process_share_exits_2(self, tmp_path, capsys, monkeypatch,
                                                        forks):
        """A cell that fails in the sweep's own process keeps its error name,
        and its forked worker is reaped."""
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        parent, cell, slept = os.getpid(), cli._sweep_cell, []

        def sweep_cell(c):
            if os.getpid() == parent:
                raise PreconditionFailed("refused in the sweep's own process")
            if not slept:  # the child's first cell waits, so this process claims a chunk
                slept.append(True)
                time.sleep(0.2)
            return cell(c)

        monkeypatch.setattr(cli, "_sweep_cell", sweep_cell)
        out = tmp_path / "x.csv"
        assert main([*self.GRID, "--jobs", "2", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "PreconditionFailed", "message": "refused in the sweep's own process"}
        assert len(forks) == 1
        assert not out.exists()

    def test_sweep_worker_killed_by_a_signal_exits_4(self, tmp_path, capsys, monkeypatch,
                                                     forks):
        """A worker that dies before it sends its rows is an internal error."""
        fork = os.fork

        def fork_and_die():
            pid = fork()
            if pid == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return pid

        monkeypatch.setattr(os, "fork", fork_and_die)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        out = tmp_path / "x.csv"
        assert main([*self.GRID, "--jobs", "2", "--out", str(out)]) == 4
        assert json.loads(capsys.readouterr().out) == {
            "error": "RuntimeError", "message": f"sweep worker {forks[0]} ended without its rows"}
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["rho", "--t", "nan", "--r", "0.1"],
        ["rho", "--t", "0.5", "--r", "inf"],
        ["rho", "--t", "0.999999999", "--r=-0.1"],
        ["rho", "--t", "1e-300", "--r=-0.5"],
        ["rho", "--vertices=0.99999999,0,-0.5,0.5,-0.5,-0.5", "--iters", "20000"],
        ["rho", "--vertices=0,0.99999999,-0.99999999,0,0,-0.99999999"],
        ["rho", "--vertices=0,0.5,0,-0.5,1e-11,0", "--iters", "20000"],
        ["render", "--t", "0.9", "--r=-0.05", "--start", "nan", "--out", "{out}"],
        ["tau", "--pair=0,0.9,0,-0.9", "--point=-0.9999999995,0"],
        ["tau", "--pair=0,0.5,0,0.5", "--point=0.1,0"],
        ["sweep", "--t", "0.88:0.9:2", "--r", "nan:0.1:2", "--out", "{out}"],
        ["sweep", "--t", "1e-300:1e-299:2", "--r", "0.1:0.9:2",
         "--r-mode", "relative_interval", "--out", "{out}"],
    ], ids=["t-nan", "r-inf", "t-near-1", "t-tiny", "vertex-near-circle",
            "vertices-near-circle", "near-collinear", "render-start-nan",
            "tau-point-near-circle", "tau-pair-coincident", "sweep-r-nan",
            "sweep-relative-base-underflows"])
    def test_edge_inputs_never_exit_4(self, tmp_path, capsys, argv):
        """Extreme but well-formed inputs get a verdict or an input error,
        never an internal one."""
        out = str(tmp_path / "out")
        assert main([out if a == "{out}" else a for a in argv]) in (0, 2)


def test_sweep_reproduces_pinned_band_csv():
    """The 4x4 criterion-9-band cells of the pinned CSV, byte for byte as
    first committed.  Its cells were jittered by numpy's ``default_rng(3)``,
    so they are rebuilt from that stream; each row is the cell's own."""
    jitter = np.random.default_rng(3).random(8).tolist()
    ts = cli._grid_values(0.85, 0.95, 4, jitter[:4])
    rs = cli._grid_values(-0.04, -0.006, 4, jitter[4:])
    rows = [cli._sweep_cell((t, r, 2000))[0] for t in ts for r in rs]
    with open(os.path.join(DATA, "sweep_band_4x4_seed3.csv"), "rb") as fh:
        assert "\n".join([CSV_HEADER] + rows).encode() + b"\n" == fh.read()


#: the seeded 20x20 criterion-9-band sweep, whose bytes are pinned
BAND = ["sweep", "--t", "0.85:0.95:20", "--r=-0.04:-0.006:20", "--iters", "2000"]


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("seed", [21, 22])
def test_sweep_reproduces_pinned_20x20_band(tmp_path, capsys, monkeypatch, seed, jobs):
    """The seeded 20x20 criterion-9-band sweep, in one process and with
    one or two forked workers, byte for byte as pinned."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    out = tmp_path / "band.csv"
    assert main([*BAND, "--seed", str(seed), "--jobs", str(jobs), "--out", str(out)]) == 0
    with open(os.path.join(DATA, f"sweep_band_20x20_seed{seed}.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_rows_of_many_cells_come_back_in_cell_order(monkeypatch, forks):
    """Past 1024 chunks of CHUNK cells the chunks grow, so that the tickets
    fit in one pipe write; each worker's rows outgrow a pipe's buffer."""
    writes, write = [], os.write

    def spy(fd, data):
        writes.append(len(data))
        return write(fd, data)

    monkeypatch.setattr(os, "write", spy)
    monkeypatch.setattr(cli, "_sweep_cell", lambda c: (str(c), True, False))
    cells = list(range(20001))
    assert cli._rows(cells, 3) == [(str(c), True, False) for c in cells]
    assert len(forks) == 2
    assert len(writes) == 1 and writes[0] <= 4096


def test_sweep_without_fork_runs_one_worker(tmp_path, capsys, monkeypatch):
    """On a platform without ``os.fork``, a --jobs 4 sweep makes no pipe
    and writes the pinned bytes."""
    pipes = []
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(None))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    out = tmp_path / "band.csv"
    assert main([*BAND, "--seed", "21", "--jobs", "4", "--out", str(out)]) == 0
    assert pipes == []
    with open(os.path.join(DATA, "sweep_band_20x20_seed21.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("seed, t_steps, r_steps", [(0, 1, 1), (3, 4, 4), (22, 3, 5)])
def test_sweep_jitter_draws_t_then_r_from_random(tmp_path, capsys, seed, t_steps, r_steps):
    """A seeded sweep's cells: the t values take the first t_steps draws of
    ``random.Random(seed)``, the r values the next r_steps."""
    out = tmp_path / "s.csv"
    assert main(["sweep", "--t", f"0.85:0.95:{t_steps}", f"--r=-0.04:-0.006:{r_steps}",
                 "--seed", str(seed), "--out", str(out)]) == 0
    rng = random.Random(seed)
    ts = cli._grid_values(0.85, 0.95, t_steps, [rng.random() for _ in range(t_steps)])
    rs = cli._grid_values(-0.04, -0.006, r_steps, [rng.random() for _ in range(r_steps)])
    cells = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    assert cells == [[fmt(t), fmt(r)] for t in ts for r in rs]


with open(os.path.join(DATA, "cli_pinned.json")) as _fh:
    PINNED = json.load(_fh)


@pytest.mark.parametrize("case", PINNED, ids=lambda c: " ".join(c["argv"]))
def test_cli_reproduces_pinned_output(case, capsys):
    """rho/verify/tau output byte for byte as first recorded; a tangent
    (count 1) tau root sits in float noise, so only its count is pinned."""
    assert main(case["argv"]) == 0
    out = capsys.readouterr().out
    if "stdout" in case:
        assert out == case["stdout"]
    else:
        assert json.loads(out)["count"] == case["count"]


SWEEP_2X2 = ["sweep", "--t", "0.88:0.92:2", "--r=-0.03:-0.01:2", "--iters", "1500"]
OUT_CSV = ["--out", "{tmp}/x.csv"]


#: each refusal's argv, exit code and stdout line, ``{tmp}`` standing for a
#: temporary directory: one case per ``raise`` site in ``cli`` and per
#: package error class that a command reaches.  The sweep worker that dies
#: before it sends its rows is ``test_sweep_worker_killed_by_a_signal_exits_4``,
#: and ``OutOfTheoreticalRange``, which no input reaches, is
#: ``test_invariant_breach_exits_4_with_json``.
REFUSALS = {
    "iters-budget": (["rho", "--t", "0.9", "--r=-0.02", "--iters", "0"], 2,
                     '{"error": "InvalidArgument", "message": '
                     '"--iters must be in [1, 10000000], got 0"}'),
    "not-a-number": (["rho", "--t", "abc", "--r=-0.02"], 2,
                     '{"error": "InvalidArgument", "message": "--t: not a number: \'abc\'"}'),
    "not-finite": (["verify", "--t", "0.9", "--r=nan"], 2,
                   '{"error": "InvalidArgument", "message": "--r: not a finite number: \'nan\'"}'),
    "vertex-count": (["rho", "--vertices=0,0.5,0.5,0,-0.5"], 2,
                     '{"error": "InvalidArgument", "message": '
                     '"--vertices needs x1,y1,x2,y2,x3,y3"}'),
    "triangle-spec": (["rho", "--t", "0.9"], 2,
                      '{"error": "InvalidArgument", "message": '
                      '"give either --vertices or both --t and --r"}'),
    "t-range": (["verify", "--t", "1.0", "--r=-0.02"], 2,
                '{"error": "InvalidArgument", "message": "--t must be in (0, 1), got 1.0"}'),
    "sweep-jobs": ([*SWEEP_2X2, "--jobs", "0", *OUT_CSV], 2,
                   '{"error": "InvalidArgument", "message": "--jobs must be >= 1, got 0"}'),
    "sweep-t-order": (["sweep", "--t", "0.92:0.88:2", "--r=-0.03:-0.01:2", *OUT_CSV], 2,
                      '{"error": "InvalidArgument", "message": '
                      '"t range must satisfy 0 < lo <= hi < 1"}'),
    "sweep-steps": (["sweep", "--t", "0.88:0.92:0", "--r=-0.03:-0.01:2", *OUT_CSV], 2,
                    '{"error": "InvalidArgument", "message": "grid steps must be >= 1"}'),
    "sweep-iters": ([*SWEEP_2X2, "--iters", "10", *OUT_CSV], 2,
                    '{"error": "InvalidArgument", "message": "sweep needs --iters >= 1000"}'),
    "sweep-seed": ([*SWEEP_2X2, "--seed", "-1", *OUT_CSV], 2,
                   '{"error": "InvalidArgument", "message": "--seed must be >= 0, got -1"}'),
    "sweep-no-range": (["sweep", "--r=-0.03:-0.01:2", *OUT_CSV], 2,
                       '{"error": "InvalidArgument", "message": '
                       '"--t range is required (lo:hi[:steps])"}'),
    "sweep-range-shape": (["sweep", "--t", "0.88", "--r=-0.03:-0.01:2", *OUT_CSV], 2,
                          '{"error": "InvalidArgument", "message": '
                          '"--t must look like lo:hi or lo:hi:steps"}'),
    "sweep-apex-on-circle": (["sweep", "--t", "1e-20:1e-20:1", "--r", "0.5:0.5:1",
                              "--r-mode", "relative_interval", *OUT_CSV], 2,
                             '{"error": "InvalidArgument", "message": "--t 1e-20 with --r 0.5 '
                             'puts the apex on or outside the unit circle"}'),
    "render-steps": (["render", "--t", "0.5", "--r=-0.2", "--steps", "20000",
                      "--out", "{tmp}/x.svg"], 2,
                     '{"error": "InvalidArgument", "message": "--steps must be in [0, 10000]"}'),
    "sweep-unwritable": ([*SWEEP_2X2, "--out", "{tmp}/missing/x.csv"], 3,
                         '{"error": "IOFailure", "message": "cannot write {tmp}/missing/x.csv: '
                         '[Errno 2] No such file or directory: \'{tmp}/missing/x.csv\'"}'),
    "render-unwritable": (["render", "--t", "0.9", "--r=-0.02", "--out", "{tmp}/missing/x.svg"],
                          3, '{"error": "IOFailure", "message": "cannot write {tmp}/missing/x.svg: '
                          '[Errno 2] No such file or directory: \'{tmp}/missing/x.svg\'"}'),
    "degenerate-body": (["rho", "--vertices", "0,0.5,0,-0.5,0,0"], 2,
                        '{"error": "DegenerateBody", "message": '
                        '"triangle is degenerate (collinear vertices)"}'),
    "out-of-range": (["tau", "--pair=0,0.9,0,-0.9", "--point=-0.02,0", "--n", "33"], 2,
                     '{"error": "OutOfRange", "message": '
                     '"fold order must be an integer in [1, 32], got 33"}'),
    "point-on-line": (["tau", "--pair=0,0.9,0,-0.9", "--point=0,0.2"], 2,
                      '{"error": "PointOnLine", "message": "query point lies on the base line"}'),
    "precondition-failed": (["tau", "--pair=0,0.9,0,-0.9", "--point=-0.02,0", "--n", "9"], 2,
                            '{"error": "PreconditionFailed", "message": "an extremum at '
                            '0.749999999999 lies within 1e-12 turns of a cut, beyond float '
                            'resolution"}'),
    "cell-degenerate": (["sweep", "--t", "0.5:0.6:2", "--r=-0.1:0.1:5", "--iters", "1500",
                         *OUT_CSV], 2,
                        '{"error": "DegenerateBody", "message": '
                        '"cell t=0.5 r=0: triangle is degenerate (collinear vertices)"}'),
    "cell-precondition": (["sweep", "--t", "1e-9:0.9:2", "--r", "0.5:0.5:5",
                           "--r-mode", "relative_interval", *OUT_CSV], 2,
                          '{"error": "PreconditionFailed", "message": "cell t=1e-09 '
                          'r=-0.999999999: an extremum at 0.499999999841 lies within 1e-12 '
                          'turns of a cut, beyond float resolution"}'),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_exit_code_and_line(tmp_path, capsys, name):
    """Each refusal prints one JSON line, byte for byte as recorded, exits
    with its code and writes no file."""
    argv, code, line = REFUSALS[name]
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == code
    assert capsys.readouterr().out == line.replace("{tmp}", str(tmp_path)) + "\n"
    assert list(tmp_path.iterdir()) == []


class TestTauCmd:
    def test_counts(self, capsys):
        code = main(["tau", "--pair=0,0.9,0,-0.9", "--point=-0.02,0", "--n", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["count"] == 2
        assert len(out["roots"]) == 2

    def test_zero_case(self, capsys):
        code = main(["tau", "--pair=0,0.9,0,-0.9", "--point=-0.003,0", "--n", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["count"] == 0

    def test_past_float_resolution_exits_2(self, capsys):
        """The scan's resolution check refuses the segment map from n = 9."""
        argv = ["tau", "--pair=0,0.9,0,-0.9", "--point=-0.02,0", "--n"]
        assert main(argv + ["8"]) == 0
        assert len(json.loads(capsys.readouterr().out)["roots"]) == 2
        assert main(argv + ["9"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "PreconditionFailed"

    @pytest.mark.parametrize("n", ["0", "33", "100000000"])
    def test_fold_order_out_of_range_before_any_work(self, capsys, monkeypatch, n):
        def no_map(*args):
            raise AssertionError("a map was built")

        monkeypatch.setattr(pentagram, "TangentMap", no_map)
        code = main(["tau", "--pair=0,0.9,0,-0.9", "--point=-0.02,0", "--n", n])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"] == "OutOfRange"


class TestRender:
    def test_svg_content(self, tmp_path):
        out = tmp_path / "fig.svg"
        code = main(
            ["render", "--t", "0.9", "--r=-0.0526315789473684", "--steps", "5",
             "--out", str(out)]
        )
        assert code == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert 'viewBox="-1.1 -1.1 2.2 2.2"' in svg
        assert 'stroke-width="0.005"' in svg
        assert "<polygon" in svg and "<path" in svg

    def test_reproduces_pinned_svg(self, tmp_path):
        """Trajectory, breakpoint markers and pentagram overlay of the
        README figure, byte for byte as first recorded."""
        out = tmp_path / "fig.svg"
        assert main(["render", "--t", "0.9", "--r=-0.052631578947", "--steps", "5",
                     "--out", str(out)]) == 0
        with open(os.path.join(DATA, "render_t09_steps5.svg"), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["render", "--t", "0.7", "--r=-0.05", "--steps", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_steps_zero_minimal(self, tmp_path):
        out = tmp_path / "c.svg"
        assert main(["render", "--t", "0.5", "--r=-0.2", "--out", str(out)]) == 0
        assert "<path" not in out.read_text()

    def test_period_three_orbit_drawn_closed(self, tmp_path):
        # equilateral configuration, started on the periodic point (-1, 0):
        # six steps retrace the closed triangle twice
        v = "-0.25,0.4330127018922193,-0.25,-0.4330127018922193,0.5,0"
        out = tmp_path / "tri.svg"
        assert main(["render", f"--vertices={v}", "--steps", "6",
                     "--start", "0.5", "--out", str(out)]) == 0
        svg = out.read_text()
        token = svg.split('<path d="M ')[1].split('"')[0]
        coords = token.replace(" L ", " ").split()
        first = (float(coords[0]), float(coords[1]))
        fourth = (float(coords[6]), float(coords[7]))
        assert abs(first[0] - fourth[0]) < 1e-9
        assert abs(first[1] - fourth[1]) < 1e-9
        assert "crimson" not in svg  # no period-5 overlay here

    @pytest.mark.parametrize("body, steps, digest", [
        (ConvexBody.point(DiskPoint(0.2, -0.1)), 0,
         "5e0430ada35b3f615b42b9e26b327fb7f3f3d5335d3ab12854b1d935af6742be"),
        (ConvexBody.point(DiskPoint(0.2, -0.1)), 1,
         "2010a74f7da01801cd203cefb4f8198fc72ee3851ed896f4e320fffbf42b940f"),
        (ConvexBody.segment(DiskPoint(-0.3, 0.4), DiskPoint(0.2, -0.5)), 0,
         "c2017872ee55a64990fa7e5a6c03065061dad27014121bf97586f7fe14a04bfc"),
        (ConvexBody.segment(DiskPoint(-0.3, 0.4), DiskPoint(0.2, -0.5)), 1,
         "50e7f9921014fbc76d2ad5f359834961ce59f1d97113c0c81bbf39ff028108d5"),
    ], ids=["point-0", "point-1", "segment-0", "segment-1"])
    def test_point_and_segment_figures_pinned(self, body, steps, digest):
        """The CLI renders triangles only; a point body is drawn as a dot
        and a segment as a path, byte for byte as first recorded."""
        svg = figure_svg(TangentMap(body), steps, IdealPoint(0.1))
        assert hashlib.sha256(svg.encode()).hexdigest() == digest


class TestVerify:
    def test_consistent_verdict(self, capsys):
        code = main(["verify", "--t", "0.9", "--r=-0.02", "--iters", "20000"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["condition"] is True
        assert out["rho_verdict"] == "equals"
        assert out["consistent"] is True

    def test_below_verdict(self, capsys):
        code = main(["verify", "--t", "0.9", "--r=-0.3", "--iters", "20000"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["rho_verdict"] == "below"
        assert out["consistent"] is True


class TestSubprocessEntry:
    def test_console_invocation(self):
        proc = run_cli(["tau", "--pair=0,0.9,0,-0.9", "--point=-0.003,0"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] == 0


def test_verify_json_is_rho_json_restricted(capsys):
    flags = ["--t", "0.9", "--r=-0.0526315789473684", "--iters", "20000"]
    assert main(["rho", *flags]) == 0
    rho = json.loads(capsys.readouterr().out)
    assert main(["verify", *flags]) == 0
    verify = json.loads(capsys.readouterr().out)
    assert set(verify) == {"condition", "rho_verdict", "consistent", "condition_report",
                           "rotation"}
    assert verify == {key: rho[key] for key in verify}
    assert {"triangle", "t", "r", "orbits", "zero_count"} <= set(rho)


def _readme_command_section() -> str:
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as fh:
        return fh.read().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_documents_exactly_the_parsers_flags():
    """The README's command-line section names every option of every
    subcommand, and no option the parser does not register."""
    section = _readme_command_section()
    documented = set(re.findall(r"--[a-z](?:[a-z-]*[a-z])?", section))
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    registered = {opt for sub in subs.choices.values() for action in sub._actions
                  for opt in action.option_strings} - {"-h", "--help"}
    assert documented == registered


def test_readme_commands_run(tmp_path, capsys):
    """Every ``barbilliard`` line of the README's command block runs and
    exits 0, with its ``--out`` file written under tmp_path."""
    block = _readme_command_section().split("```", 2)[1].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("barbilliard ")]
    assert commands and len(commands) == block.count("barbilliard ")
    for argv in commands:
        argv = [str(tmp_path / a) if flag == "--out" else a for flag, a in zip([""] + argv, argv)]
        assert main(argv) == 0, argv


def test_cli_import_loads_no_scipy():
    """Nor numpy: the package runs on the standard library alone.  Nor a
    process pool, nor pickle, which only a sweep that forks workers uses.
    Nor the figure code, which only ``render`` uses.
    Nor dataclasses or the inspect module it loads, which cost most of
    the package's own import."""
    code = ("import sys, barbilliard.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')"
            " or m in ('concurrent.futures.process', 'pickle', 'barbilliard.svgfig',"
            " 'dataclasses',"
            " 'inspect')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: a child Python in which ``import numpy`` fails runs ``cli.main`` on its arguments
NO_NUMPY = ("import sys; sys.modules['numpy'] = None; "
            "from barbilliard.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize(
    "argv, pinned_file",
    [
        (["rho", "--t", "0.9", "--r=-0.02"], None),
        (["verify", "--t", "0.9", "--r=-0.02"], None),
        (["tau", "--pair=0,0.9,0,-0.9", "--point=-0.02,0", "--n", "2"], None),
        (["render", "--t", "0.9", "--r=-0.052631578947", "--steps", "5"],
         "render_t09_steps5.svg"),
        (["sweep", "--t", "0.85:0.95:4", "--r=-0.04:-0.006:4", "--iters", "2000",
          "--seed", "3"], None),
    ],
    ids=["rho", "verify", "tau", "render", "sweep"],
)
def test_cli_runs_without_numpy(argv, pinned_file, tmp_path, capsys):
    """Every subcommand, with numpy blocked, prints or writes its pinned
    bytes; the sweep writes the bytes of the same command run here."""
    out = tmp_path / "out"
    flags = ["--out", str(out)] if argv[0] in ("render", "sweep") else []
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY, *argv, *flags],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "sweep":
        here = tmp_path / "here"
        assert main(argv + ["--out", str(here)]) == 0
        assert proc.stdout == capsys.readouterr().out
        assert out.read_bytes() == here.read_bytes()
    elif pinned_file:
        with open(os.path.join(DATA, pinned_file), "rb") as fh:
            assert out.read_bytes() == fh.read()
    else:
        assert proc.stdout == next(c["stdout"] for c in PINNED if c["argv"] == argv)
