import json
import os
import subprocess
import sys

import numpy as np
import pytest

from barbilliard import cli
from barbilliard.cli import CSV_HEADER, main
from conftest import src_env

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


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

    def test_equilateral_third(self, capsys):
        v = "-0.25,0.4330127018922193,-0.25,-0.4330127018922193,0.5,0"
        code = main(["rho", f"--vertices={v}", "--iters", "20000"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["rotation"]["rho_p"] == 1
        assert out["rotation"]["rho_q"] == 3
        assert "orbits" not in out

    def test_degenerate_vertices(self, capsys):
        code = main(["rho", "--vertices", "0,0.5,0,-0.5,0,0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"] == "DegenerateBody"

    def test_missing_triangle_spec(self, capsys):
        code = main(["rho", "--t", "0.9"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"] == "InvalidArgument"


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

    def test_jobs_parallel_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--t", "0.86:0.9:2", "--r=-0.03:-0.02:2",
                "--iters", "1500", "--seed", "5"]
        assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
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

    def test_grid_flag_overrides_steps(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "sweep", "--t", "0.88:0.92", "--r=-0.03:-0.01", "--grid", "2x3",
                "--iters", "1500", "--out", str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 7

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

    def test_unwritable_path(self, capsys):
        code = main(
            [
                "sweep", "--t", "0.88:0.92:2", "--r=-0.03:-0.01:2",
                "--iters", "1500", "--out", "/nonexistent-dir/x.csv",
            ]
        )
        assert code == 3

    def test_bad_grid_rejected(self, capsys):
        code = main(
            [
                "sweep", "--t", "0.88:0.92:2", "--r=-0.03:-0.01:2",
                "--iters", "10", "--out", "/tmp/x.csv",
            ]
        )
        assert code == 2


class TestResourceFlags:
    """--iters, --qmax and --jobs are checked before any work starts."""

    TRIANGLE = ["--t", "0.9", "--r=-0.02"]
    SWEEP = ["sweep", "--t", "0.88:0.92:2", "--r=-0.03:-0.01:2", "--iters", "1500"]

    @pytest.mark.parametrize("command", ["rho", "verify"])
    @pytest.mark.parametrize(
        "flags",
        [["--iters", "0"], ["--iters", "20000000"], ["--qmax", "65"], ["--qmax", "1"]],
    )
    def test_rho_and_verify_reject_out_of_range(self, capsys, command, flags):
        code = main([command, *self.TRIANGLE, *flags])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"] == "InvalidArgument"

    @pytest.mark.parametrize(
        "flags",
        [["--jobs", "0"], ["--jobs", "-3"], ["--qmax", "65"], ["--iters", "20000000"]],
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
        ],
    )
    def test_malformed_numbers_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        code = main([*argv, "--out", str(out)] if argv[0] == "sweep" else argv)
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"] == "InvalidArgument"
        assert not out.exists()

    def test_pool_capped_by_cpus_and_cells(self, tmp_path, monkeypatch, capsys):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        out = tmp_path / "x.csv"
        assert main([*self.SWEEP, "--jobs", "64", "--out", str(out)]) == 0
        assert main(["sweep", "--t", "0.9:0.9:1", "--r=-0.03:-0.01:2", "--iters", "1500",
                     "--jobs", "64", "--out", str(out)]) == 0
        assert sizes == [3, 2]


def test_sweep_reproduces_pinned_band_csv(tmp_path, capsys):
    """A 4x4 criterion-9-band sweep, byte for byte as first committed."""
    out = tmp_path / "band.csv"
    code = main(["sweep", "--t", "0.85:0.95:4", "--r=-0.04:-0.006:4",
                 "--iters", "2000", "--seed", "3", "--out", str(out)])
    assert code == 0
    with open(os.path.join(DATA, "sweep_band_4x4_seed3.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


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

    def test_point_on_line(self, capsys):
        code = main(["tau", "--pair=0,0.9,0,-0.9", "--point=0,0.2", "--n", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"] == "PointOnLine"


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

    def test_steps_capped(self, capsys):
        code = main(["render", "--t", "0.5", "--r=-0.2", "--steps", "20000",
                     "--out", "/tmp/never.svg"])
        assert code == 2


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


def test_cli_import_loads_no_scipy():
    """Nor numpy: the package runs on the standard library alone."""
    code = ("import sys, barbilliard.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))")
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
          "--seed", "3"], "sweep_band_4x4_seed3.csv"),
    ],
    ids=["rho", "verify", "tau", "render", "sweep"],
)
def test_cli_runs_without_numpy(argv, pinned_file, tmp_path):
    """Every subcommand, with numpy blocked, prints or writes its pinned bytes."""
    out = tmp_path / "out"
    flags = ["--out", str(out)] if pinned_file else []
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY, *argv, *flags],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    if pinned_file:
        with open(os.path.join(DATA, pinned_file), "rb") as fh:
            assert out.read_bytes() == fh.read()
    else:
        assert proc.stdout == next(c["stdout"] for c in PINNED if c["argv"] == argv)


class TestUniforms:
    """``cli._uniforms``, the sweep jitter, against numpy's PCG64 stream."""

    def test_matches_default_rng(self):
        # 2**128 + 1 has five 32-bit words, one past SeedSequence's pool of four
        for seed in [*range(200), 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 1]:
            for n in range(1, 41):
                assert cli._uniforms(seed, n) == np.random.default_rng(seed).random(n).tolist()

    @pytest.mark.parametrize("t, r", [(1, 1), (4, 4), (20, 20), (3, 17), (40, 1)])
    def test_one_call_splits_like_two(self, t, r):
        for seed in (0, 3, 21, 22, 2**64):
            rng = np.random.default_rng(seed)
            both = rng.random(t).tolist() + rng.random(r).tolist()
            assert cli._uniforms(seed, t + r) == both
