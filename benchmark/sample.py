"""Run the benchmark over several seeds and summarise the spread.

    python3 benchmark/sample.py --workloads sweep,rho-cli,certify \\
        --seeds 1-10 --seconds 25 --trace 0 --out summary.json

Runs ``run.py`` once per (workload, seed), in that order, from the
current directory (a checkout root).  For each workload and metric it
reports the median, the quartiles and the spread: the distance between
the first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.  The summary, with
every run's result line and record, goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import measure

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-600:]}")
    record = next((json.loads(l[len("record: "):]) for l in lines if l.startswith("record: ")),
                  None)
    return {"seed": seed, "result": json.loads(lines[-1]), "record": record}


def summarise(runs: list) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        entry = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                 "median": measure.median(values), "values": values}
        if len(values) >= 2 and entry["median"]:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=measure.quartile_spread(values))
        summary[name] = entry
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="sweep,rho-cli,certify")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            res = runs[-1]["result"]
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        summary = summarise(runs)
        report["environment"] = runs[0]["record"]["environment"]
        report["workloads"][workload] = {
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "metrics": summary,
            "runs": runs,
        }
        for name, entry in summary.items():
            spread = entry.get("spread")
            print(f"  {workload:<8} {name:<40} median {entry['median']:<12.6g} "
                  f"{entry['unit']:<6} spread {'-' if spread is None else f'{spread:.4f}'}",
                  flush=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
