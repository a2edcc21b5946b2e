"""Spans and counts at the public boundaries of barbilliard's layers.

Used only by the traced run.  ``install`` rebinds each traced function
wherever a barbilliard module holds it (``from .rotation import
classify_rho`` makes a second binding in ``pentagram``), and the hot
methods of ``TangentMap`` on the class.  ``uninstall`` puts the originals
back.  Nothing in the program changes; an untraced run never imports
this module.

A span records its inclusive time and, through the stack of open spans,
its self time (inclusive time minus the time of traced spans it
caused).  Stage attribution uses the open spans: ``gap_angles`` under
``scan_winding_zeros`` is the scan's grid, ``brentq`` there its
bracketing and ``golden_min`` its extreme refinement.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

from measure import median, tail_percentile

#: suffixes of the counts that must repeat exactly for the same seed
EXACT_SUFFIXES = (".calls", ".steps", ".points", ".candidates_tried",
                  ".discarded_steps", ".zeros", ".roots", ".map_evals")

SCAN = "rotation.scan_winding_zeros"


class Tracer:
    def __init__(self):
        self.stack = []            # open spans: [name, child seconds, extra]
        self.active = Counter()    # name -> open spans with that name
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.eval_calls = [0]      # TangentMap.eval_angle calls

    def add(self, name: str, seconds: float) -> None:
        self.calls[name] += 1
        self.seconds[name] += seconds

    def parent(self, depth: int = 0):
        """Name of the open span `depth` levels out from the innermost one."""
        return self.stack[-1 - depth][0] if len(self.stack) > depth else None

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "counts": dict(self.counts, **{"circlemap.eval_angle.calls": self.eval_calls[0]}),
            "samples": dict(self.samples),
        }


def _span(tracer: Tracer, name: str, fn, after=None, sampled=False):
    """Wrap fn in a span; ``after(frame, args, kwargs, result, seconds)``
    runs once the span has closed, with the frame's ``extra`` list."""
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = [name, 0.0, []]
        tracer.stack.append(frame)
        tracer.active[name] += 1
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            tracer.stack.pop()
            tracer.active[name] -= 1
            tracer.add(name, dt)
            tracer.self_seconds[name] += dt - frame[1]
            if tracer.stack:
                tracer.stack[-1][1] += dt
            if sampled:
                tracer.samples[name].append(dt)
        if after is not None:
            after(frame, args, kwargs, result, dt)
        return result

    return wrapper


def _arg(fn, name: str):
    """Reader for argument `name` of fn from (args, kwargs), defaults applied."""
    params = list(inspect.signature(fn).parameters.values())
    index = [p.name for p in params].index(name)
    default = params[index].default

    def read(args, kwargs):
        return args[index] if len(args) > index else kwargs.get(name, default)

    return read


def install(tracer: Tracer) -> list:
    """Trace barbilliard's layers; returns the undo list for ``uninstall``."""
    from barbilliard import circlemap, cli, geometry, pentagram, rotation, search

    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "barbilliard" or n.startswith("barbilliard."))]
    c = tracer.counts

    def rebind(orig, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def method(cls, attr, wrapper):
        undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    tm = circlemap.TangentMap

    # eval_angle takes ~2 us, so it gets a bare count and no span; the
    # count is kept in a list cell and copied out by ``to_dict``
    eval_angle = tm.eval_angle
    evals = tracer.eval_calls

    def counted_eval_angle(self, a):
        evals[0] += 1
        return eval_angle(self, a)

    method(tm, "eval_angle", functools.wraps(eval_angle)(counted_eval_angle))

    def gap_angles_after(frame, args, kwargs, result, dt):
        c["circlemap.gap_angles.points"] += len(result)
        if tracer.active[SCAN]:
            tracer.add("rotation.scan.grid", dt)

    method(tm, "gap_angles", _span(tracer, "circlemap.gap_angles", tm.gap_angles,
                                   gap_angles_after))

    lift_n = _arg(tm.lift_iter, "n")

    def lift_after(frame, args, kwargs, result, dt):
        c["circlemap.lift_iter.steps"] += lift_n(args, kwargs)

    method(tm, "lift_iter", _span(tracer, "circlemap.lift_iter", tm.lift_iter, lift_after))

    est_n = _arg(rotation.estimate_rho, "n")

    def estimate_after(frame, args, kwargs, result, dt):
        n = est_n(args, kwargs)
        c["rotation.estimate_rho.steps"] += n
        # the estimate inside certify_rational, which classify_rho drops
        if tracer.parent(0) == "rotation.certify_rational" and \
                tracer.parent(1) == "rotation.classify_rho":
            c["rotation.estimate_rho.discarded_steps"] += n

    rebind(rotation.estimate_rho,
           _span(tracer, "rotation.estimate_rho", rotation.estimate_rho, estimate_after))

    def certify_after(frame, args, kwargs, result, dt):
        if tracer.stack and tracer.stack[-1][0] == "rotation.classify_rho":
            tracer.stack[-1][2].append(result)  # judged when classify_rho returns
        elif result.certificate is not None or result.comparison is not None:
            c["rotation.certify_rational.useful"] += 1

    rebind(rotation.certify_rational,
           _span(tracer, "rotation.certify_rational", rotation.certify_rational,
                 certify_after))

    def classify_after(frame, args, kwargs, result, dt):
        tried = frame[2]
        c["rotation.classify_rho.candidates_tried"] += len(tried)
        for i, res in enumerate(tried):
            # useful: its certificate is the verdict, or it is the final
            # 2/5 probe whose comparison is the verdict
            if (res.certificate is not None and res.certificate == result.certificate) or (
                i == len(tried) - 1 and res.comparison is not None
                and res.comparison == result.comparison
            ):
                c["rotation.certify_rational.useful"] += 1

    rebind(rotation.classify_rho,
           _span(tracer, "rotation.classify_rho", rotation.classify_rho, classify_after))

    def scan_after(frame, args, kwargs, result, dt):
        c["rotation.scan_winding_zeros.roots"] += len(result.roots)

    rebind(rotation.scan_winding_zeros,
           _span(tracer, SCAN, rotation.scan_winding_zeros, scan_after))

    def staged(stage):
        def after(frame, args, kwargs, result, dt):
            if tracer.active[SCAN]:
                tracer.add(stage, dt)
        return after

    rebind(rotation.brentq, _span(tracer, "brentq", rotation.brentq,
                                  staged("rotation.scan.bracket")))
    rebind(search.golden_min, _span(tracer, "search.golden_min", search.golden_min,
                                    staged("rotation.scan.refine")))

    def detect_after(frame, args, kwargs, result, dt):
        c["pentagram.detect_period5.zeros"] += result.zero_count

    rebind(pentagram.detect_period5,
           _span(tracer, "pentagram.detect_period5", pentagram.detect_period5, detect_after))
    tau_span = _span(tracer, "pentagram.tau_n", pentagram.tau_n)

    @functools.wraps(pentagram.tau_n)
    def tau_n(*args, **kwargs):
        before = evals[0]
        try:
            return tau_span(*args, **kwargs)
        finally:
            c["pentagram.tau_n.map_evals"] += evals[0] - before

    rebind(pentagram.tau_n, tau_n)
    for fn, name in ((pentagram.condition_report, "pentagram.condition_report"),
                     (pentagram.conjecture_check, "pentagram.conjecture_check"),
                     (geometry.foot_and_delta, "geometry.foot_and_delta")):
        rebind(fn, _span(tracer, name, fn))
    rebind(cli._sweep_cell, _span(tracer, "cli.sweep_cell", cli._sweep_cell, sampled=True))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def exact_counts(trace: dict) -> dict:
    """The counts that must repeat for the same seed, by metric name."""
    out = {f"{name}.calls": n for name, n in trace["calls"].items()}
    out.update(trace["counts"])
    return {k: v for k, v in out.items() if k.endswith(EXACT_SUFFIXES)}


def merge(traces: list) -> dict:
    """Sum several traces (one per traced process) into one."""
    total = {"calls": Counter(), "seconds": Counter(), "self_seconds": Counter(),
             "counts": Counter(), "samples": defaultdict(list)}
    for tr in traces:
        for key in ("calls", "seconds", "self_seconds", "counts"):
            total[key].update(tr[key])
        for name, values in tr["samples"].items():
            total["samples"][name].extend(values)
    return total


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one (merged) trace; 0 where a layer never ran."""
    calls, sec, self_sec, c = (trace[k] for k in ("calls", "seconds", "self_seconds", "counts"))
    steps = c.get("circlemap.lift_iter.steps", 0)
    certify_calls = calls.get("rotation.certify_rational", 0)
    cells = trace["samples"].get("cli.sweep_cell", [])
    tail = tail_percentile(cells)
    return {
        "circlemap.eval_angle.calls": c.get("circlemap.eval_angle.calls", 0),
        "circlemap.gap_angles.calls": calls.get("circlemap.gap_angles", 0),
        "circlemap.gap_angles.points": c.get("circlemap.gap_angles.points", 0),
        "circlemap.gap_angles.s": sec.get("circlemap.gap_angles", 0.0),
        "circlemap.lift_iter.steps": steps,
        "circlemap.lift_iter.s": sec.get("circlemap.lift_iter", 0.0),
        "circlemap.lift_iter.us_per_step":
            1e6 * sec.get("circlemap.lift_iter", 0.0) / steps if steps else 0.0,
        "rotation.estimate_rho.calls": calls.get("rotation.estimate_rho", 0),
        "rotation.estimate_rho.steps": c.get("rotation.estimate_rho.steps", 0),
        "rotation.estimate_rho.s": sec.get("rotation.estimate_rho", 0.0),
        "rotation.estimate_rho.discarded_steps": c.get("rotation.estimate_rho.discarded_steps", 0),
        "rotation.classify_rho.calls": calls.get("rotation.classify_rho", 0),
        "rotation.classify_rho.candidates_tried":
            c.get("rotation.classify_rho.candidates_tried", 0),
        "rotation.classify_rho.s": sec.get("rotation.classify_rho", 0.0),
        "rotation.certify_rational.calls": certify_calls,
        "rotation.certify_rational.s": sec.get("rotation.certify_rational", 0.0),
        "rotation.certify_rational.useful_ratio":
            c.get("rotation.certify_rational.useful", 0) / certify_calls if certify_calls else 0.0,
        "rotation.scan_winding_zeros.calls": calls.get(SCAN, 0),
        "rotation.scan_winding_zeros.s": sec.get(SCAN, 0.0),
        "rotation.scan_winding_zeros.self_s": self_sec.get(SCAN, 0.0),
        "rotation.scan_winding_zeros.roots": c.get("rotation.scan_winding_zeros.roots", 0),
        "rotation.scan.grid_s": sec.get("rotation.scan.grid", 0.0),
        "rotation.scan.bracket.calls": calls.get("rotation.scan.bracket", 0),
        "rotation.scan.bracket_s": sec.get("rotation.scan.bracket", 0.0),
        "rotation.scan.refine.calls": calls.get("rotation.scan.refine", 0),
        "rotation.scan.refine_s": sec.get("rotation.scan.refine", 0.0),
        "pentagram.detect_period5.calls": calls.get("pentagram.detect_period5", 0),
        "pentagram.detect_period5.s": sec.get("pentagram.detect_period5", 0.0),
        "pentagram.detect_period5.zeros": c.get("pentagram.detect_period5.zeros", 0),
        "pentagram.tau_n.calls": calls.get("pentagram.tau_n", 0),
        "pentagram.tau_n.s": sec.get("pentagram.tau_n", 0.0),
        "pentagram.tau_n.map_evals": c.get("pentagram.tau_n.map_evals", 0),
        "pentagram.condition_report.s": sec.get("pentagram.condition_report", 0.0),
        "pentagram.conjecture_check.s": sec.get("pentagram.conjecture_check", 0.0),
        "geometry.foot_and_delta.calls": calls.get("geometry.foot_and_delta", 0),
        "geometry.foot_and_delta.s": sec.get("geometry.foot_and_delta", 0.0),
        "search.golden_min.calls": calls.get("search.golden_min", 0),
        "search.golden_min.s": sec.get("search.golden_min", 0.0),
        "cli.sweep_cell.p50_s": median(cells) if cells else 0.0,
        "cli.sweep_cell.tail_s": tail[1] if tail else 0.0,
        "cli.sweep.busy_s": sum(cells, 0.0),
    }
