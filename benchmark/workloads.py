"""The three workloads, untraced (end-to-end metrics) and traced (per-layer).

sweep     closed loop of ``barbilliard sweep`` processes over the band.
rho-cli   closed loop, one client, of fresh ``barbilliard rho`` processes.
certify   in process, warm, one thread: ``certify_rational(tmap, 2, 5)``
          verdicts (plus ``detect_period5`` when certified) and ``tau_n``.

Every workload returns a ``Run``: the gated metrics, the named report
lines, and the attempted/failed tally fed by ``checks``.  Workloads run
from the root of a checkout and import the program from ``src``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import checks
import inputs
import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3
#: rho-cli keeps going past --seconds until it has this many samples, so
#: that its tail percentile (p58 at 24 samples) has ten samples beyond it
MIN_RHO_SAMPLES = 24
#: seconds between kernel samples while a subprocess runs (a ~1.5 ms
#: kernel, so a duty cycle of about 3%)
PACE_PERIOD = 0.05
#: runs of each import probe in the traced run
IMPORT_REPEATS = 3
SWEEP_TIMEOUT = 170
RHO_TIMEOUT = 60

clock = time.perf_counter


@dataclass
class Run:
    metrics: dict = field(default_factory=dict)
    report: list = field(default_factory=list)   # (name, value, unit, note)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    fail_base: str = ""
    raw: dict = field(default_factory=dict)   # unscaled wall figures
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def tally(self, attempted: int, failed: int, problems, what: str) -> None:
        with self.lock:
            self.attempted += attempted
            self.failed += failed
            self.problems += [f"{what}: {p}" for p in problems]

    def show(self, name: str, value, unit: str, note: str = "") -> None:
        self.report.append((name, value, unit, note))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_process(cmd: list, timeout: float, pace=None, env=None) -> tuple[int, str, float]:
    """(exit code, stdout, wall seconds); a timeout reads as exit code -1.

    With a ``pace``, the calibration kernel is sampled every
    PACE_PERIOD seconds while the process runs.
    """
    t0 = clock()
    deadline = t0 + timeout
    proc = subprocess.Popen(cmd, env=env or child_env(), cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    while True:
        wait = PACE_PERIOD if pace is not None else max(0.0, deadline - clock())
        try:
            out, _ = proc.communicate(timeout=wait)
            return proc.returncode, out, clock() - t0
        except subprocess.TimeoutExpired:
            if clock() >= deadline:
                proc.kill()
                proc.communicate()
                return -1, "", clock() - t0
            if pace is not None:
                pace.sample()


def barbilliard(argv: list, timeout: float, trace_path: str | None = None, pace=None):
    if trace_path is None:
        cmd = [sys.executable, "-m", "barbilliard", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path, *argv]
    return run_process(cmd, timeout, pace)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# --- sweep --------------------------------------------------------------------

def _sweep_once(run: Run, seed: int, grid, jobs: int, out: str, reference=None,
                trace_path=None, pace=None):
    """One sweep command, checked; returns (CSV text, wall seconds)."""
    argv = inputs.sweep_argv(seed, grid) + ["--jobs", str(jobs), "--out", out]
    if os.path.exists(out):
        os.remove(out)
    code, _, wall = barbilliard(argv, SWEEP_TIMEOUT, trace_path, pace)
    expected = grid[0] * grid[1]
    if code != 0:
        run.tally(expected, expected, [f"exit code {code}"], "sweep")
        return None, wall
    text = _read(out)
    failed, problems = checks.check_sweep_csv(text, *grid)
    if reference is not None:
        mismatched = checks.csv_row_mismatches(text, reference)
        if mismatched:
            problems.append(f"{mismatched} rows differ from the reference CSV")
        failed = min(expected, failed + mismatched)
    run.tally(expected, failed, problems, "sweep")
    return text, wall


def sweep(seed: int, seconds: float) -> Run:
    run = Run(fail_base="sweep rows, warm-up rows included")
    jobs = measure.jobs()
    setup_pace, pace = measure.Pace(), measure.Pace()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out = os.path.join(tmp, "sweep.csv")
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            _sweep_once(run, seed, inputs.WARMUP_GRID, jobs, out, pace=setup_pace)
            setups.append(clock() - t0)
        rates, walls, reference = [], [], None
        start = clock()
        while clock() - start < seconds:
            text, wall = _sweep_once(run, seed, inputs.SWEEP_GRID, jobs, out, reference,
                                     pace=pace)
            if reference is None:
                reference = text
            rows = len(text.splitlines()) - 1 if text else 0
            rates.append(rows / wall)
            walls.append(wall)
    n_t, n_r = inputs.SWEEP_GRID
    _finish(run, setups, setup_pace, measure.median(rates), measure.median(walls), pace,
            measure.peak_rss_mb(children=True))
    run.show("setup_s", run.metrics["setup_s"], "s",
             f"median of {len(setups)} set-ups: a {inputs.WARMUP_GRID[0]}x"
             f"{inputs.WARMUP_GRID[1]} warm-up sweep at --jobs {jobs}")
    run.show("cells_per_s", run.metrics["ops_per_s"], "1/s",
             f"rows per second of sweep wall: median of {len(rates)} sweeps of "
             f"{n_t}x{n_r} cells at --jobs {jobs}")
    run.show("sweep_wall_p50_s", run.metrics["op_p50_s"], "s", f"n={len(walls)}")
    _show_raw(run, pace, setup_pace)
    run.show("peak_rss_mb", run.metrics["peak_rss_mb"], "MiB",
             "largest sweep or pool worker process (RUSAGE_CHILDREN)")
    return run


def sweep_traced(seed: int) -> Run:
    """Untraced --jobs N pass, then an untraced and a traced --jobs 1
    pass side by side (one core each), then a second traced pass for the
    count-repeat check.  Every CSV must equal the first byte for byte.

    The pool efficiency compares the first two phases, so each phase's
    times are scaled by its own pace."""
    run = Run(fail_base="sweep rows")
    jobs = measure.jobs()
    grid = inputs.SWEEP_GRID
    pace_n, pace_1 = measure.Pace(), measure.Pace()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        def path(name):
            return os.path.join(tmp, name)

        reference, wall_n = _sweep_once(run, seed, grid, jobs, path("jobsN.csv"), pace=pace_n)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            plain = pool.submit(_sweep_once, run, seed, grid, 1, path("jobs1.csv"), reference,
                                pace=pace_1)
            traced = pool.submit(_sweep_once, run, seed, grid, 1, path("traced1.csv"),
                                 reference, path("trace1.json"))
            _, wall_1 = plain.result()
            _, wall_t = traced.result()
        _sweep_once(run, seed, grid, 1, path("traced2.csv"), reference, path("trace2.json"))
        traces = [_load_json(path("trace1.json")), _load_json(path("trace2.json"))]
    overhead = wall_t / wall_1 - 1.0
    run.metrics = _layer_report(run, traces[:1], traces[1:], overhead)
    busy = run.metrics["cli.sweep.busy_s"] / (1.0 + overhead) * pace_1.factor()
    run.metrics["cli.pool.efficiency"] = busy / (jobs * wall_n * pace_n.factor())
    run.show("cli.pool.efficiency", run.metrics["cli.pool.efficiency"], "ratio",
             f"busy {busy:.3f} s (traced, scaled by the untraced/traced --jobs 1 wall) "
             f"over {jobs} x {wall_n * pace_n.factor():.3f} s untraced --jobs {jobs} wall, "
             "both at reference pace")
    return run


# --- rho-cli ------------------------------------------------------------------

def _rho_once(run: Run, item: dict, trace_path=None, pace=None) -> float:
    code, out, wall = barbilliard(item["argv"], RHO_TIMEOUT, trace_path, pace)
    problems = [f"exit code {code}"] if code != 0 else checks.check_rho_output(out, item["want"])
    run.tally(1, 1 if problems else 0, problems, f"rho {item['cls']}")
    return wall


def rho_cli(seed: int, seconds: float) -> Run:
    run = Run(fail_base="barbilliard rho processes, warm-ups included")
    setup_pace, pace = measure.Pace(), measure.Pace()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        items = inputs.rho_inputs(seed)
        _rho_once(run, items[0], pace=setup_pace)
        setups.append(clock() - t0)
    walls = []
    start = clock()
    while clock() - start < seconds or len(walls) < MIN_RHO_SAMPLES:
        walls.append(_rho_once(run, items[len(walls) % len(items)], pace=pace))
    _finish(run, setups, setup_pace, len(walls) / sum(walls), measure.median(walls), pace,
            measure.peak_rss_mb(children=True))
    pct, tail = measure.tail_percentile(walls)
    run.show("setup_s", run.metrics["setup_s"], "s",
             f"median of {len(setups)} set-ups: inputs plus one warm-up rho process")
    run.show("rho_p50_s", run.metrics["op_p50_s"], "s", f"n={len(walls)}")
    run.show("rho_tail_s", tail * pace.factor(), "s", f"p{pct}, n={len(walls)}")
    run.show("rho_per_s", run.metrics["ops_per_s"], "1/s", "one client, closed loop")
    _show_raw(run, pace, setup_pace)
    run.show("peak_rss_mb", run.metrics["peak_rss_mb"], "MiB",
             "largest rho process (RUSAGE_CHILDREN)")
    return run


def rho_cli_traced(seed: int) -> Run:
    """An untraced and a traced pass over the mix side by side (one core
    each), then a second traced pass for the count-repeat check."""
    run = Run(fail_base="barbilliard rho processes")
    items = inputs.rho_inputs(seed)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        def one_pass(tag):
            paths = [None] * len(items) if tag is None else \
                [os.path.join(tmp, f"{tag}-{i}.json") for i in range(len(items))]
            wall = sum(_rho_once(run, item, p) for item, p in zip(items, paths))
            return wall, [_load_json(p) for p in paths if p]

        with ThreadPoolExecutor(max_workers=measure.jobs()) as pool:
            plain = pool.submit(one_pass, None)
            traced = pool.submit(one_pass, "a")
            wall_u, _ = plain.result()
            wall_t, first = traced.result()
        _, second = one_pass("b")
    run.metrics = _layer_report(run, first, second, wall_t / wall_u - 1.0)
    run.metrics["cli.pool.efficiency"] = 0.0
    return run


# --- certify ------------------------------------------------------------------

def certify_setup(seed: int) -> list:
    """Import the library, build the batch's maps and run one warm-up
    verdict.  Returns the batch as (item, prepared input) pairs."""
    import barbilliard as bb

    prepared = []
    for item in inputs.certify_inputs(seed):
        if item["kind"] == "tau":
            arg = tuple(bb.DiskPoint(*item[k]) for k in ("p1", "p2", "pt"))
        elif "threshold" in item:
            th = item["threshold"]
            tri = bb.standard_pentagram(th["t"])[0] if th["family"] == "standard" else \
                bb.ellipse_pentagram(th["t"], th["v"], th["side"])[0]
            arg = bb.triangle_map(tri)
        else:
            arg = bb.triangle_map(bb.Triangle(*(bb.DiskPoint(*v) for v in item["verts"])))
        prepared.append((item, arg))
    warm = next(p for p in prepared if p[0]["kind"] == "verdict")
    _certify_op(warm)
    return prepared


def _certify_op(pair) -> tuple[float, list]:
    """Time one batch item; returns (seconds, problems)."""
    from barbilliard import certify_rational, detect_period5, tau_n

    item, arg = pair
    try:
        if item["kind"] == "verdict":
            t0 = clock()
            res = certify_rational(arg, 2, 5)
            orbits = detect_period5(arg) if res.certificate is not None else None
            dt = clock() - t0
            return dt, checks.check_verdict(res, orbits, item["want"])
        t0 = clock()
        res = tau_n(*arg, item["n"])
        dt = clock() - t0
        return dt, checks.check_tau(res, item["want"])
    except Exception as exc:  # a crash is a failed operation; the batch goes on
        return 0.0, [f"{type(exc).__name__}: {exc}"]


def _setup_in_child(seed: int, pace) -> float:
    """In-process set-up time of a fresh interpreter, from its first import."""
    code = ("import sys, time; t0 = time.perf_counter(); import workloads; "
            "workloads.certify_setup(int(sys.argv[1])); print(time.perf_counter() - t0)")
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join((HERE, env["PYTHONPATH"]))
    code, out, _ = run_process([sys.executable, "-c", code, str(seed)], RHO_TIMEOUT,
                               pace, env)
    if code != 0:
        raise RuntimeError(f"certify set-up exited with {code} in a fresh interpreter")
    return float(out.strip().splitlines()[-1])


def _batch(run: Run, batch: list, pace=None):
    """One pass over the batch; returns op wall seconds by kind.  With a
    ``pace``, the calibration kernel runs after every op."""
    times = {"verdict": [], "tau": []}
    for pair in batch:
        dt, problems = _certify_op(pair)
        run.tally(1, 1 if problems else 0, problems,
                  f"{pair[0]['kind']} {pair[0].get('cls', '')}".strip())
        times[pair[0]["kind"]].append(dt)
        if pace is not None:
            pace.sample()
    return times


def certify(seed: int, seconds: float) -> Run:
    run = Run(fail_base="verdicts and tau_n queries")
    setup_pace, pace = measure.Pace(), measure.Pace()
    # set-up cost is measured in fresh interpreters, where the import is
    # cold for the process; this process's own set-up is the last sample
    setups = [_setup_in_child(seed, setup_pace) for _ in range(SETUP_REPEATS - 1)]
    t0 = clock()
    batch = certify_setup(seed)
    setups.append(clock() - t0)
    rates, passes, op_times, verdict_t, tau_t = [], [], [], [], []
    start = clock()
    while clock() - start < seconds:
        times = _batch(run, batch, pace)
        ops = times["verdict"] + times["tau"]
        rates.append(len(ops) / sum(ops))
        passes.append(sum(ops))
        op_times += ops
        verdict_t += times["verdict"]
        tau_t += times["tau"]
    _finish(run, setups, setup_pace, measure.median(rates), measure.median(passes), pace,
            measure.peak_rss_mb(children=False))
    f = pace.factor()
    run.show("setup_s", run.metrics["setup_s"], "s",
             f"median of {len(setups)} set-ups: import, inputs, maps, one warm-up verdict")
    run.show("verdicts_per_s", len(verdict_t) / (sum(verdict_t) * f), "1/s",
             f"{len(verdict_t)} certify_rational(2,5) verdicts, detect_period5 included")
    run.show("tau_per_s", len(tau_t) / (sum(tau_t) * f), "1/s", f"{len(tau_t)} tau_n queries")
    run.show("ops_per_s", run.metrics["ops_per_s"], "1/s",
             f"verdicts and queries: median over {len(rates)} passes of the "
             f"{len(batch)}-item batch")
    run.show("batch_p50_s", run.metrics["op_p50_s"], "s", f"one pass, n={len(passes)}")
    run.show("item_p50_s", measure.median(op_times) * f, "s",
             f"one verdict or query, n={len(op_times)}")
    pct, tail = measure.tail_percentile(op_times)
    run.show("item_tail_s", tail * f, "s", f"p{pct}, n={len(op_times)}")
    _show_raw(run, pace, setup_pace)
    run.show("peak_rss_mb", run.metrics["peak_rss_mb"], "MiB", "this process (RUSAGE_SELF)")
    return run


def _finish(run: Run, setups, setup_pace, ops_per_s, op_p50_s, pace, rss) -> None:
    """Gated metrics from raw wall figures, scaled by each window's pace."""
    run.raw = {"setup_s": measure.median(setups), "ops_per_s": ops_per_s,
               "op_p50_s": op_p50_s}
    run.metrics = {
        "setup_s": run.raw["setup_s"] * setup_pace.factor(),
        "ops_per_s": ops_per_s / pace.factor(),
        "op_p50_s": op_p50_s * pace.factor(),
        "peak_rss_mb": rss,
    }


def _show_raw(run: Run, pace, setup_pace) -> None:
    for name, value in run.raw.items():
        run.show(f"{name}.raw", value, "1/s" if name == "ops_per_s" else "s",
                 "unscaled wall time")
    for name, p in (("pace", pace), ("pace.setup", setup_pace)):
        run.show(name, p.factor(), "ratio",
                 f"kernel median {1e3 * measure.median(p.samples):.3f} ms against "
                 f"{1e3 * measure.REFERENCE_S:.3f} ms, {len(p.samples)} samples")


def certify_traced(seed: int) -> Run:
    """Two untraced passes, then two traced passes, one after another; the
    overhead compares their op time at reference pace."""
    import tracing

    def one_pass():
        pace = measure.Pace()
        times = _batch(run, batch, pace)
        return sum(times["verdict"] + times["tau"]) * pace.factor()

    run = Run(fail_base="verdicts and tau_n queries")
    batch = certify_setup(seed)
    untraced = [one_pass() for _ in range(2)]
    traces, traced = [], []
    for _ in range(2):
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced.append(one_pass())
        finally:
            tracing.uninstall(undo)
        traces.append(tracer.to_dict())
    overhead = measure.median(traced) / measure.median(untraced) - 1.0
    run.metrics = _layer_report(run, [traces[0]], [traces[1]], overhead)
    run.metrics["cli.pool.efficiency"] = 0.0
    return run


# --- traced-run common part ---------------------------------------------------

def _import_seconds(statement: str) -> float:
    walls = []
    for _ in range(IMPORT_REPEATS):
        code, _, wall = run_process([sys.executable, "-c", statement], RHO_TIMEOUT)
        if code != 0:
            raise RuntimeError(f"`python -c {statement!r}` exited with {code}")
        walls.append(wall)
    return measure.median(walls)


def _layer_report(run: Run, first: list, second: list, overhead: float) -> dict:
    """Per-layer metrics of the first traced pass, the exact-count repeat
    check against the second, the import probes and the overhead."""
    import tracing

    missing = sum(1 for tr in first + second if tr is None)
    if missing:
        run.tally(0, 0, [f"{missing} traced processes wrote no trace"], "trace")
    first = tracing.merge([tr for tr in first if tr is not None])
    second = tracing.merge([tr for tr in second if tr is not None])
    metrics = tracing.layer_metrics(first)
    a, b = tracing.exact_counts(first), tracing.exact_counts(second)
    unrepeated = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    metrics["import.cli_s"] = _import_seconds("import barbilliard.cli")
    metrics["import.numpy_s"] = _import_seconds("import numpy")
    metrics["trace.overhead_ratio"] = overhead
    metrics["trace.unrepeated_counts"] = len(unrepeated)
    run.show("exact counts", len(a) - len(unrepeated), "count",
             f"repeat across two traced passes; not repeating: {unrepeated or 'none'}")
    return metrics


UNTRACED = {"sweep": sweep, "rho-cli": rho_cli, "certify": certify}
TRACED = {"sweep": sweep_traced, "rho-cli": rho_cli_traced, "certify": certify_traced}
