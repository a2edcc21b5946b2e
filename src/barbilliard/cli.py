"""Command line front end: rho, sweep, tau, render, verify.

Outputs are deterministic: floats are formatted to 12 significant
digits, CSV rows are emitted in t-major r-minor order regardless of the
worker count, and SVG bytes depend only on the inputs.

Exit codes: 0 ok, 2 invalid input, 3 I/O failure, 4 internal invariant
breach.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from .circlemap import ITERATION_BUDGET
from .errors import BarBilliardError, InvalidArgument, InvalidBody, OutOfTheoreticalRange
from .geometry import EPS_BOUNDARY, DiskPoint, IdealPoint, Triangle, delta_n, fmt, hyp_distance
from .pentagram import (
    conjecture_check,
    detect_period5,
    tau_n,
    triangle_map,
)


def _round12(x: float) -> float:
    return float(fmt(x))


def _check_budget(iters: int) -> None:
    """Reject an --iters value no run could honour, before any work."""
    if not 1 <= iters <= ITERATION_BUDGET:
        raise InvalidArgument(f"--iters must be in [1, {ITERATION_BUDGET}], got {iters}")


def _number(text: str, flag: str, kind=float):
    """One finite number of a flag's value; a malformed one, nan or inf is
    an InvalidArgument."""
    try:
        value = kind(text)
    except ValueError as exc:
        raise InvalidArgument(f"{flag}: not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise InvalidArgument(f"{flag}: not a finite number: {text!r}")
    return value


def _numbers(text: str, flag: str, shape: str) -> list[float]:
    """A flag's comma-separated numbers, as many as ``shape`` names."""
    vals = [_number(v, flag) for v in text.split(",")]
    if len(vals) != shape.count(",") + 1:
        raise InvalidArgument(f"{flag} needs {shape}")
    return vals


def _triangle_from_args(args) -> tuple[Triangle, Optional[float], Optional[float]]:
    given = (args.vertices is not None, args.t is not None, args.r is not None)
    if given not in ((True, False, False), (False, True, True)):
        raise InvalidArgument("give either --vertices or both --t and --r")
    if args.vertices is not None:
        v = _numbers(args.vertices, "--vertices", "x1,y1,x2,y2,x3,y3")
        return Triangle(*(DiskPoint(*v[i:i + 2]) for i in (0, 2, 4))), None, None
    t, r = _number(args.t, "--t"), _number(args.r, "--r")
    if not 0.0 < t < 1.0:
        raise InvalidArgument(f"--t must be in (0, 1), got {t}")
    tri = Triangle(DiskPoint(0.0, t), DiskPoint(0.0, -t), DiskPoint(r, 0.0))
    return tri, t, r


def _rotation_dict(rotation) -> dict:
    cert = rotation.certificate
    comp = rotation.comparison
    return {
        "rho_estimate": _round12(rotation.estimate),
        "n_iters": rotation.n_iters,
        "error_bound": _round12(rotation.error_bound),
        "rho_p": cert.p if cert else None,
        "rho_q": cert.q if cert else None,
        "certificate_kind": cert.kind if cert else "uncertified",
        "witness_x": _round12(cert.witness_x) if cert else None,
        "residual": _round12(cert.residual) if cert else None,
        "comparison": (
            {"p": comp.p, "q": comp.q, "relation": comp.relation} if comp else None
        ),
    }


def _report_dict(report) -> dict:
    return {
        "cond48": report.two_fifths_sandwich,
        "cond53": report.all_strictly_inside,
        "one_third": report.one_third,
        "isosceles_above": report.isosceles_above,
        "isosceles_below": report.isosceles_below,
        "labelings": [
            {
                "pair": list(l.pair),
                "apex": l.apex,
                "d_base": _round12(l.d_base),
                "delta": _round12(l.delta),
                "delta1": _round12(l.delta1),
                "delta2": _round12(l.delta2),
                "half_delta1": _round12(l.half_delta1),
                "sandwich": l.sandwich,
                "orientation": l.orientation,
                "one_third": l.one_third,
                "strict_inside": l.strict_inside,
                "isosceles": l.isosceles,
            }
            for l in report.labelings
        ],
    }


def cmd_verdict(args) -> int:
    """``verify`` prints the verdict; ``rho`` adds the triangle and its 2/5 orbits."""
    _check_budget(args.iters)
    tri, t, r = _triangle_from_args(args)
    verdict = conjecture_check(tri, n=args.iters)
    out = {
        "condition": verdict.condition,
        "rho_verdict": verdict.rho_verdict,
        "consistent": verdict.consistent,
        "condition_report": _report_dict(verdict.report),
        "rotation": _rotation_dict(verdict.rotation),
    }
    if args.command == "rho":
        out["triangle"] = [[_round12(v.x), _round12(v.y)] for v in tri.vertices]
        out["t"] = _round12(t) if t is not None else None
        out["r"] = _round12(r) if r is not None else None
        if verdict.rho_verdict == "equals":
            orbits = detect_period5(triangle_map(tri))
            out["orbits"] = [
                # an angle a last bit below 1 prints as 0, not as 1
                [_round12(p.angle) % 1.0 for p in pent.points] for pent in orbits.orbits
            ]
            out["zero_count"] = orbits.zero_count
    print(json.dumps(out, sort_keys=True))
    return 0


#: CSV schema, fixed: downstream tooling parses this exact header
CSV_HEADER = (
    "t,r,d_pq,delta,delta2,half_delta1,cond48,cond53,"
    "rho_estimate,rho_p,rho_q,certificate_kind,consistent"
)
#: the fewest cells a sweep worker claims at once; past 8192 cells chunks
#: grow, so that their 4-byte tickets fit in one pipe write that cannot block
CHUNK = 8


def _sweep_cell(cell: tuple[float, float, int]) -> tuple[str, bool, bool]:
    """One CSV row, then whether the cell is consistent and whether it is
    uncertified: the two values the sweep summary counts."""
    t, r, iters = cell
    try:
        apex = DiskPoint(r, 0.0)
        tri = Triangle(DiskPoint(0.0, t), DiskPoint(0.0, -t), apex)
        verdict = conjecture_check(tri, n=iters)
    except BarBilliardError as err:
        raise type(err)(f"cell t={fmt(t)} r={fmt(r)}: {err}") from err
    # Triangle may swap q and r, so find the labeling by the apex's position
    k = tri.vertices.index(apex)
    base = next(l for l in verdict.report.labelings if l.apex == k)
    cert = verdict.rotation.certificate
    kind = cert.kind if cert else "uncertified"
    row = ",".join(
        [
            *(fmt(v) for v in (t, r, base.d_base, base.delta, base.delta2, base.half_delta1)),
            "true" if verdict.report.two_fifths_sandwich else "false",
            "true" if verdict.report.all_strictly_inside else "false",
            fmt(verdict.rotation.estimate),
            str(cert.p) if cert else "",
            str(cert.q) if cert else "",
            kind,
            "true" if verdict.consistent else "false",
        ]
    )
    return row, verdict.consistent, kind == "uncertified"


def _grid_values(lo: float, hi: float, steps: int, jitter: Optional[list[float]]) -> list[float]:
    if jitter is None:
        if steps == 1:
            return [lo]
        return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
    return [lo + (i + jitter[i]) * (hi - lo) / steps for i in range(steps)]


def _relative_radius(t: float, frac: float) -> float:
    """The apex abscissa at ``frac`` of the way from the order-2 threshold
    to half the order-1 threshold of the base (0, +-t)."""
    d = hyp_distance(DiskPoint(0.0, t), DiskPoint(0.0, -t))
    # a base that underflows to 0 has infinite thresholds, whose tanh is 1
    x = 1.0
    if d > 0.0:
        x_inner = math.tanh(delta_n(d, 2))
        x = x_inner + frac * (math.tanh(0.5 * delta_n(d, 1)) - x_inner)
    if not x * x < 1.0 - EPS_BOUNDARY:  # as DiskPoint would reject the apex
        raise InvalidArgument(
            f"--t {t} with --r {frac} puts the apex on or outside the unit circle")
    return x


def _write(path: str, text: str) -> None:
    """Write a command's output file; a failure is an OSError that names
    the path, so an IOFailure (exit 3)."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, since ``os.cpu_count`` counts CPUs the mask excludes."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _work(cells: list, size: int, tickets) -> list:
    """``(chunk, rows)`` for each chunk of ``size`` cells that the
    ``tickets`` iterator yields.  A failing cell gives ``(chunk, error)``
    and takes the tickets left: they all come after its chunk, so no
    worker need run them."""
    pairs = []
    for k in tickets:
        try:
            # the module global, so that a rebinding of _sweep_cell holds
            pairs.append((k, [_sweep_cell(c) for c in cells[k * size:(k + 1) * size]]))
        except Exception as err:
            pairs.append((k, err))
            for _ in tickets:
                pass
    return pairs


def _rows(cells: list, workers: int) -> list:
    """``_sweep_cell`` of every cell, in cell order, from this process and
    ``workers - 1`` children forked before it starts, which claim chunks
    from one pipe of tickets and pickle their pairs into pipes of their
    own.  The error raised is the first failing cell's, as with one worker."""
    size = max(CHUNK, math.ceil(len(cells) / 1024))
    tickets = iter(range(math.ceil(len(cells) / size)))
    children = {}
    if workers > 1:
        import pickle
        import signal

        fd, w = os.pipe()
        os.write(w, b"".join(k.to_bytes(4, "little") for k in tickets))
        os.close(w)
        # a pipe read of 4 bytes is atomic, so no two workers claim one chunk
        tickets = (int.from_bytes(t, "little") for t in iter(lambda: os.read(fd, 4), b""))
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    with open(w, "wb") as fh:
                        pickle.dump(_work(cells, size, tickets), fh)
                finally:
                    os._exit(0)
            # the child's EOF comes once no process but the child holds this
            os.close(w)
            children[pid] = r
        pairs = _work(cells, size, tickets)
        for pid, r in children.items():
            try:
                with open(r, "rb", closefd=False) as fh:
                    pairs += pickle.load(fh)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise RuntimeError(f"sweep worker {pid} ended without its rows") from exc
    finally:
        for pid, r in children.items():
            os.close(r)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        if workers > 1:
            os.close(fd)
    rows = []
    for _, part in sorted(pairs):
        if isinstance(part, Exception):
            raise part
        rows += part
    return rows


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise InvalidArgument(f"--jobs must be >= 1, got {args.jobs}")
    t_lo, t_hi, t_steps = _parse_range(args.t_range, "--t")
    r_lo, r_hi, r_steps = _parse_range(args.r_range, "--r")
    if not 0.0 < t_lo <= t_hi < 1.0:
        raise InvalidArgument("t range must satisfy 0 < lo <= hi < 1")
    if t_steps < 1 or r_steps < 1:
        raise InvalidArgument("grid steps must be >= 1")
    if args.iters < 1000:
        raise InvalidArgument("sweep needs --iters >= 1000")
    if args.seed is not None and args.seed < 0:
        raise InvalidArgument(f"--seed must be >= 0, got {args.seed}")
    _check_budget(args.iters)

    if args.seed is not None:
        import random

        rng = random.Random(args.seed)
        t_jit = [rng.random() for _ in range(t_steps)]
        r_jit = [rng.random() for _ in range(r_steps)]
    else:
        t_jit = r_jit = None
    ts = _grid_values(t_lo, t_hi, t_steps, t_jit)
    rs = _grid_values(r_lo, r_hi, r_steps, r_jit)

    cells = []
    for t in ts:
        for rv in rs:
            r = -_relative_radius(t, rv) if args.r_mode == "relative_interval" else rv
            cells.append((t, r, args.iters))

    # a worker beyond the chunk count would get no cells, one beyond the
    # usable CPUs would only share a CPU; a platform without fork runs one
    workers = min(args.jobs, _usable_cpus(), math.ceil(len(cells) / CHUNK))
    rows = _rows(cells, workers if hasattr(os, "fork") else 1)

    _write(args.out, "\n".join([CSV_HEADER] + [row for row, _, _ in rows]) + "\n")

    n_cons = sum(1 for _, consistent, _ in rows if consistent)
    n_uncert = sum(1 for _, consistent, uncert in rows if uncert and not consistent)
    n_incons = len(rows) - n_cons - n_uncert
    print(f"rows={len(rows)} consistent={n_cons} inconsistent={n_incons} uncertified={n_uncert}")
    return 0


def _parse_range(text: Optional[str], flag: str) -> tuple[float, float, int]:
    if text is None:
        raise InvalidArgument(f"{flag} range is required (lo:hi[:steps])")
    parts = text.split(":")
    if len(parts) == 2:
        return _number(parts[0], flag), _number(parts[1], flag), 10
    if len(parts) == 3:
        return _number(parts[0], flag), _number(parts[1], flag), _number(parts[2], flag, int)
    raise InvalidArgument(f"{flag} must look like lo:hi or lo:hi:steps")


def cmd_tau(args) -> int:
    pair = _numbers(args.pair, "--pair", "x1,y1,x2,y2")
    point = _numbers(args.point, "--point", "x,y")
    result = tau_n(DiskPoint(*pair[:2]), DiskPoint(*pair[2:]), DiskPoint(*point), args.n)
    print(
        json.dumps(
            {
                "n": result.n,
                "count": result.count,
                "roots": [_round12(p.angle) for p in result.roots],
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_render(args) -> int:
    # only render draws, so only render imports the figure code
    from .svgfig import figure_svg

    tri, _, _ = _triangle_from_args(args)
    if args.steps < 0 or args.steps > 10_000:
        raise InvalidArgument("--steps must be in [0, 10000]")
    start = IdealPoint(_number(args.start, "--start"))
    tmap = triangle_map(tri)
    orbits = detect_period5(tmap).orbits
    _write(args.out, figure_svg(tmap, args.steps, start, orbits))
    return 0


def _add_triangle_flags(sub) -> None:
    # read by _number in the command, so a bad value is a JSON InvalidArgument
    sub.add_argument("--t", type=str, default=None, help="base half-height in (0,1)")
    sub.add_argument("--r", type=str, default=None, help="apex abscissa (nonzero)")
    sub.add_argument("--vertices", type=str, default=None,
                     help="x1,y1,x2,y2,x3,y3 triangle vertices")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barbilliard",
        description="Bar-billiard circle maps: rotation numbers and pentagram analysis",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    verdict_flags = argparse.ArgumentParser(add_help=False)
    _add_triangle_flags(verdict_flags)
    verdict_flags.add_argument("--iters", type=int, default=100_000)

    p_rho = subs.add_parser("rho", help="analyze one triangle (JSON report)",
                            parents=[verdict_flags])
    p_rho.set_defaults(func=cmd_verdict)

    p_sweep = subs.add_parser("sweep", help="sweep the (t, r) family to CSV")
    p_sweep.add_argument("--t", dest="t_range", type=str, default=None,
                         help="t range lo:hi[:steps]")
    p_sweep.add_argument("--r", dest="r_range", type=str, default=None,
                         help="r range lo:hi[:steps] (abscissa or interval fraction)")
    p_sweep.add_argument("--r-mode", type=str, default="absolute",
                         choices=("absolute", "relative_interval"))
    p_sweep.add_argument("--iters", type=int, default=2000)
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="jitter each grid value within its step by Python's "
                              "random.Random(seed), t values first (>= 0)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes, this one and forked children, "
                              f"capped at the usable CPUs and at one per {CHUNK} cells")
    p_sweep.add_argument("--out", type=str, required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_tau = subs.add_parser("tau", help="chord-incidence count for a segment map")
    p_tau.add_argument("--pair", type=str, required=True, help="x1,y1,x2,y2")
    p_tau.add_argument("--point", type=str, required=True, help="x,y")
    p_tau.add_argument("--n", type=int, default=2)
    p_tau.set_defaults(func=cmd_tau)

    p_render = subs.add_parser("render", help="SVG figure of a triangle system")
    _add_triangle_flags(p_render)
    p_render.add_argument("--steps", type=int, default=0, help="trajectory chords")
    p_render.add_argument("--start", type=str, default="0",
                          help="trajectory start angle in turns")
    p_render.add_argument("--out", type=str, required=True)
    p_render.set_defaults(func=cmd_render)

    p_verify = subs.add_parser("verify", help="condition vs rotation number verdict",
                               parents=[verdict_flags])
    p_verify.set_defaults(func=cmd_verdict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BarBilliardError, OSError, RuntimeError) as err:
        # a bad input exits 2, an I/O failure 3 and a bug 4
        if isinstance(err, OSError):
            name, code = "IOFailure", 3
        else:
            name = "DegenerateBody" if isinstance(err, InvalidBody) else type(err).__name__
            code = 4 if isinstance(err, (OutOfTheoreticalRange, RuntimeError)) else 2
        print(json.dumps({"error": name, "message": str(err)}, sort_keys=True))
        return code


if __name__ == "__main__":
    sys.exit(main())
