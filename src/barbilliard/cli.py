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
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from .circlemap import ITERATION_BUDGET
from .errors import (
    BarBilliardError,
    CoincidentPoints,
    InvalidBody,
    InvalidRational,
    NotInArc,
    OutOfRange,
    PointOnLine,
    PreconditionFailed,
)
from .geometry import DiskPoint, IdealPoint, Triangle, delta_n, hyp_distance
from .pentagram import (
    conjecture_check,
    detect_period5,
    tau_n,
    triangle_map,
)
from .rotation import MAX_Q
from .svgfig import figure_svg, fmt


def _round12(x: float) -> float:
    return float(fmt(x))


class CliError(Exception):
    def __init__(self, code: str, message: str, exit_code: int = 2):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


def _emit_error(err: CliError) -> int:
    print(json.dumps({"error": err.code, "message": str(err)}, sort_keys=True))
    return err.exit_code


def _check_budget(iters: int, q_max: int) -> None:
    """Reject --iters and --qmax values no run could honour, before any work."""
    if not 1 <= iters <= ITERATION_BUDGET:
        raise CliError(
            "InvalidArgument", f"--iters must be in [1, {ITERATION_BUDGET}], got {iters}"
        )
    if not 2 <= q_max <= MAX_Q:
        raise CliError("InvalidArgument", f"--qmax must be in [2, {MAX_Q}], got {q_max}")


def _number(text: str, flag: str, kind=float):
    """One number of a flag's value; a malformed one is an InvalidArgument."""
    try:
        return kind(text)
    except ValueError as exc:
        raise CliError("InvalidArgument", f"{flag}: not a number: {text!r}") from exc


def _triangle_from_args(args) -> tuple[Triangle, Optional[float], Optional[float]]:
    if args.vertices is not None:
        vals = [_number(v, "--vertices") for v in args.vertices.split(",")]
        if len(vals) != 6:
            raise CliError("InvalidArgument", "--vertices needs x1,y1,x2,y2,x3,y3")
        pts = [DiskPoint(vals[0], vals[1]), DiskPoint(vals[2], vals[3]),
               DiskPoint(vals[4], vals[5])]
        return Triangle(*pts), None, None
    if args.t is None or args.r is None:
        raise CliError("InvalidArgument", "give either --vertices or both --t and --r")
    t, r = args.t, args.r
    if not 0.0 < t < 1.0:
        raise CliError("InvalidArgument", f"--t must be in (0, 1), got {t}")
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
    _check_budget(args.iters, args.qmax)
    tri, t, r = _triangle_from_args(args)
    verdict = conjecture_check(tri, n=args.iters, q_max=args.qmax)
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
        cert = verdict.rotation.certificate
        if cert is not None and (cert.p, cert.q) == (2, 5):
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


def _sweep_cell(cell: tuple[float, float, int, int]) -> tuple[str, bool, bool]:
    """One CSV row, then whether the cell is consistent and whether it is
    uncertified: the two values the sweep summary counts."""
    t, r, iters, q_max = cell
    apex = DiskPoint(r, 0.0)
    tri = Triangle(DiskPoint(0.0, t), DiskPoint(0.0, -t), apex)
    verdict = conjecture_check(tri, n=iters, q_max=q_max)
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


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash, whose constant moves on at every call."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _seed_words(seed: int) -> list[int]:
    """Four 64-bit words from ``seed`` by NumPy's SeedSequence: the seed's
    32-bit words (least significant first) are hashed into a pool of four,
    the pool is mixed, and the pool is hashed out to eight 32-bit words."""

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[4:]:
        pool = [mix(p, hashmix(word)) for p in pool]
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [out(pool[i % 4]) for i in range(8)]
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _uniforms(seed: int, n: int) -> list[float]:
    """NumPy's ``default_rng(seed).random(n)``, bit for bit: PCG64, the
    128-bit LCG with the XSL-RR output (O'Neill, PCG, 2014), seeded through
    :func:`_seed_words`, each draw's top 53 bits scaled into [0, 1)."""
    w = _seed_words(seed)
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    state = (inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc & _MASK128
    out = []
    for _ in range(n):
        state = state * _PCG_MULT + inc & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        out.append((x >> 11) * 2.0**-53)
    return out


def _relative_radius(t: float, frac: float) -> float:
    d = hyp_distance(DiskPoint(0.0, t), DiskPoint(0.0, -t))
    x_inner = math.tanh(delta_n(d, 2))
    x_half = math.tanh(0.5 * delta_n(d, 1))
    return x_inner + frac * (x_half - x_inner)


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise CliError("InvalidArgument", f"--jobs must be >= 1, got {args.jobs}")
    t_lo, t_hi, t_steps = _parse_range(args.t_range, "--t")
    r_lo, r_hi, r_steps = _parse_range(args.r_range, "--r")
    if args.grid:
        try:
            a, b = args.grid.lower().split("x")
            t_steps, r_steps = int(a), int(b)
        except ValueError as exc:
            raise CliError("InvalidArgument", "--grid must look like 20x20") from exc
    if not 0.0 < t_lo <= t_hi < 1.0:
        raise CliError("InvalidArgument", "t range must satisfy 0 < lo <= hi < 1")
    if t_steps < 1 or r_steps < 1:
        raise CliError("InvalidArgument", "grid steps must be >= 1")
    if args.iters < 1000:
        raise CliError("InvalidArgument", "sweep needs --iters >= 1000")
    if args.seed is not None and args.seed < 0:
        raise CliError("InvalidArgument", f"--seed must be >= 0, got {args.seed}")
    _check_budget(args.iters, args.qmax)

    if args.seed is not None:
        jitter = _uniforms(args.seed, t_steps + r_steps)
        t_jit, r_jit = jitter[:t_steps], jitter[t_steps:]
    else:
        t_jit = r_jit = None
    ts = _grid_values(t_lo, t_hi, t_steps, t_jit)
    rs = _grid_values(r_lo, r_hi, r_steps, r_jit)

    cells = []
    for t in ts:
        for rv in rs:
            r = -_relative_radius(t, rv) if args.r_mode == "relative_interval" else rv
            cells.append((t, r, args.iters, args.qmax))

    workers = min(args.jobs, os.cpu_count() or 1, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells, chunksize=8))
    else:
        rows = [_sweep_cell(c) for c in cells]

    lines = [CSV_HEADER] + [row for row, _, _ in rows]
    payload = "\n".join(lines) + "\n"
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        raise CliError("IOFailure", f"cannot write {args.out}: {exc}", exit_code=3) from exc

    n_cons = sum(1 for _, consistent, _ in rows if consistent)
    n_uncert = sum(1 for _, consistent, uncert in rows if uncert and not consistent)
    n_incons = len(rows) - n_cons - n_uncert
    print(f"rows={len(rows)} consistent={n_cons} inconsistent={n_incons} uncertified={n_uncert}")
    return 0


def _parse_range(text: Optional[str], flag: str) -> tuple[float, float, int]:
    if text is None:
        raise CliError("InvalidArgument", f"{flag} range is required (lo:hi[:steps])")
    parts = text.split(":")
    if len(parts) == 2:
        return _number(parts[0], flag), _number(parts[1], flag), 10
    if len(parts) == 3:
        return _number(parts[0], flag), _number(parts[1], flag), _number(parts[2], flag, int)
    raise CliError("InvalidArgument", f"{flag} must look like lo:hi or lo:hi:steps")


def cmd_tau(args) -> int:
    vals = [_number(v, "--pair") for v in args.pair.split(",")]
    if len(vals) != 4:
        raise CliError("InvalidArgument", "--pair needs x1,y1,x2,y2")
    pv = [_number(v, "--point") for v in args.point.split(",")]
    if len(pv) != 2:
        raise CliError("InvalidArgument", "--point needs x,y")
    result = tau_n(
        DiskPoint(vals[0], vals[1]),
        DiskPoint(vals[2], vals[3]),
        DiskPoint(pv[0], pv[1]),
        args.n,
    )
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
    tri, _, _ = _triangle_from_args(args)
    if args.steps < 0 or args.steps > 10_000:
        raise CliError("InvalidArgument", "--steps must be in [0, 10000]")
    tmap = triangle_map(tri)
    orbits = detect_period5(tmap).orbits
    svg = figure_svg(tmap, args.steps, IdealPoint(args.start), orbits)
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(svg)
    except OSError as exc:
        raise CliError("IOFailure", f"cannot write {args.out}: {exc}", exit_code=3) from exc
    return 0


def _add_triangle_flags(sub) -> None:
    sub.add_argument("--t", type=float, default=None, help="base half-height in (0,1)")
    sub.add_argument("--r", type=float, default=None, help="apex abscissa (nonzero)")
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
    verdict_flags.add_argument("--qmax", type=int, default=64)

    p_rho = subs.add_parser("rho", help="analyze one triangle (JSON report)",
                            parents=[verdict_flags])
    p_rho.set_defaults(func=cmd_verdict)

    p_sweep = subs.add_parser("sweep", help="sweep the (t, r) family to CSV")
    p_sweep.add_argument("--t", dest="t_range", type=str, default=None,
                         help="t range lo:hi[:steps]")
    p_sweep.add_argument("--r", dest="r_range", type=str, default=None,
                         help="r range lo:hi[:steps] (abscissa or interval fraction)")
    p_sweep.add_argument("--grid", type=str, default=None, help="TxR step counts")
    p_sweep.add_argument("--r-mode", type=str, default="absolute",
                         choices=("absolute", "relative_interval"))
    p_sweep.add_argument("--iters", type=int, default=2000)
    p_sweep.add_argument("--qmax", type=int, default=64)
    p_sweep.add_argument("--seed", type=int, default=None, help="jitter seed")
    p_sweep.add_argument("--jobs", type=int, default=1)
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
    p_render.add_argument("--start", type=float, default=0.0,
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
    except CliError as err:
        return _emit_error(err)
    except (InvalidBody, CoincidentPoints) as err:
        return _emit_error(CliError("DegenerateBody", str(err)))
    except (OutOfRange, InvalidRational, PointOnLine, NotInArc, PreconditionFailed) as err:
        return _emit_error(CliError(type(err).__name__, str(err)))
    except OSError as err:
        return _emit_error(CliError("IOFailure", str(err), exit_code=3))
    except (BarBilliardError, RuntimeError) as err:
        return _emit_error(CliError(type(err).__name__, str(err), exit_code=4))


if __name__ == "__main__":
    sys.exit(main())
