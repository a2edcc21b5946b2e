"""Benchmark of barbilliard's three entry points, run from a checkout root.

    python3 benchmark/run.py --workload {sweep,rho-cli,certify} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics for S seconds; ``--trace 1``
runs fixed traced passes and reports the per-layer metrics (S is not
used there).  The lines before the last describe the run: environment,
each metric by name with its unit, the failure ratio with its base and
the first problems found.  The last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src`` of the current directory; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: gated metrics, reported by every workload: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: per-layer metrics of the traced run: (name, unit)
PER_LAYER = (
    ("import.cli_s", "s"),
    ("import.numpy_s", "s"),
    ("circlemap.eval_angle.calls", "count"),
    ("circlemap.gap_angles.calls", "count"),
    ("circlemap.gap_angles.points", "count"),
    ("circlemap.gap_angles.s", "s"),
    ("circlemap.lift_iter.steps", "count"),
    ("circlemap.lift_iter.s", "s"),
    ("circlemap.lift_iter.us_per_step", "us"),
    ("rotation.estimate_rho.calls", "count"),
    ("rotation.estimate_rho.steps", "count"),
    ("rotation.estimate_rho.s", "s"),
    ("rotation.estimate_rho.discarded_steps", "count"),
    ("rotation.classify_rho.calls", "count"),
    ("rotation.classify_rho.candidates_tried", "count"),
    ("rotation.classify_rho.s", "s"),
    ("rotation.certify_rational.calls", "count"),
    ("rotation.certify_rational.s", "s"),
    ("rotation.certify_rational.useful_ratio", "ratio"),
    ("rotation.scan_winding_zeros.calls", "count"),
    ("rotation.scan_winding_zeros.s", "s"),
    ("rotation.scan_winding_zeros.self_s", "s"),
    ("rotation.scan_winding_zeros.roots", "count"),
    ("rotation.scan.grid_s", "s"),
    ("rotation.scan.bracket.calls", "count"),
    ("rotation.scan.bracket_s", "s"),
    ("rotation.scan.refine.calls", "count"),
    ("rotation.scan.refine_s", "s"),
    ("pentagram.detect_period5.calls", "count"),
    ("pentagram.detect_period5.s", "s"),
    ("pentagram.detect_period5.zeros", "count"),
    ("pentagram.tau_n.calls", "count"),
    ("pentagram.tau_n.s", "s"),
    ("pentagram.tau_n.map_evals", "count"),
    ("pentagram.condition_report.s", "s"),
    ("pentagram.conjecture_check.s", "s"),
    ("geometry.foot_and_delta.calls", "count"),
    ("geometry.foot_and_delta.s", "s"),
    ("search.golden_min.calls", "count"),
    ("search.golden_min.s", "s"),
    ("cli.sweep_cell.p50_s", "s"),
    ("cli.sweep_cell.tail_s", "s"),
    ("cli.sweep.busy_s", "s"),
    ("cli.pool.efficiency", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unrepeated_counts", "count"),
)

WORKLOADS = ("sweep", "rho-cli", "certify")
SHOWN_PROBLEMS = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "barbilliard", "__init__.py")):
        print(f"benchmark: no barbilliard sources under {src}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import measure
    import workloads

    os.makedirs(workloads.WORK, exist_ok=True)
    if args.trace:
        run = workloads.TRACED[args.workload](args.seed)
        names = PER_LAYER
    else:
        run = workloads.UNTRACED[args.workload](args.seed, args.seconds)
        names = END_TO_END
    env = measure.environment()

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, value, unit, note in run.report:
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'fail_ratio':<40} {ratio:>14.6g} {'ratio':<6} "
          f"{run.failed} failed / {run.attempted} attempted ({run.fail_base})")
    for problem in run.problems[:SHOWN_PROBLEMS]:
        print(f"  problem: {problem}")
    if len(run.problems) > SHOWN_PROBLEMS:
        print(f"  ... {len(run.problems) - SHOWN_PROBLEMS} more problems")
    metrics = {name: {"value": run.metrics[name], "unit": unit} for name, unit in names}
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    print("record: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "report": [list(r) for r in run.report], "problems": run.problems,
    }))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
