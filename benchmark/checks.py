"""Correctness checks for every operation that feeds the failure count.

Each checker returns a list of problems; an empty list means the
operation's output is correct.  The checkers read the program's output
formats (CSV text, JSON text, result objects by attribute) and compare
them with the known answers from ``inputs``.
"""

from __future__ import annotations

import json

#: the sweep's fixed 13-column CSV header
SWEEP_HEADER = (
    "t,r,d_pq,delta,delta2,half_delta1,cond48,cond53,"
    "rho_estimate,rho_p,rho_q,certificate_kind,consistent"
)
CERT_KINDS = ("sign_change", "tangency", "uncertified")
VERDICTS = ("equals", "above", "below", "uncertified")
MAX_ORBITS = 6


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"not a boolean: {text!r}")
    return text == "true"


def _opt_int(text: str):
    return None if text == "" else int(text)


def _parse_row(line: str):
    fields = line.split(",")
    if len(fields) != 13:
        raise ValueError(f"{len(fields)} fields")
    t, r = float(fields[0]), float(fields[1])
    for f in fields[2:6] + [fields[8]]:
        float(f)
    for f in fields[6:8]:
        _bool(f)
    for f in fields[9:11]:
        _opt_int(f)
    if fields[11] not in CERT_KINDS:
        raise ValueError(f"unknown certificate kind {fields[11]!r}")
    return t, r, _bool(fields[12])


def check_sweep_csv(text: str, n_t: int, n_r: int) -> tuple[int, list[str]]:
    """(failed rows, problems) for a sweep CSV over an n_t x n_r grid.

    A row fails when it does not parse, sits out of t-major r-minor
    order, or says consistent=false; missing rows fail too.  A wrong
    header fails every row.
    """
    expected = n_t * n_r
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return expected, ["CSV header differs from the fixed 13-column header"]
    rows = lines[1:]
    problems = []
    bad = set()
    parsed = {}
    for i, line in enumerate(rows):
        try:
            parsed[i] = _parse_row(line)
        except ValueError as exc:
            bad.add(i)
            problems.append(f"row {i + 1} malformed: {exc}")
            continue
        if not parsed[i][2]:
            bad.add(i)
            problems.append(f"row {i + 1} consistent=false")
    for i in range(len(rows)):
        if i >= expected:
            bad.add(i)
            continue
        ti, ri = divmod(i, n_r)
        first, prev, above = ti * n_r, i - 1, ri
        if i not in parsed or any(j not in parsed for j in (first, prev, above) if j >= 0):
            continue
        t, r, _ = parsed[i]
        ordered = (
            t == parsed[first][0]
            and r == parsed[above][1]
            and (ri == 0 or r > parsed[prev][1])
            and (ti == 0 or ri != 0 or t > parsed[prev][0])
        )
        if not ordered:
            bad.add(i)
            problems.append(f"row {i + 1} out of t-major order")
    missing = max(0, expected - len(rows))
    if missing or len(rows) > expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    return len(bad) + missing, problems


def csv_row_mismatches(text: str, reference: str) -> int:
    """Rows (header included) that differ between two CSV texts."""
    a, b = text.splitlines(), reference.splitlines()
    return sum(1 for x, y in zip(a, b) if x != y) + abs(len(a) - len(b))


def check_orbits(orbits) -> list[str]:
    """Period-5 orbits as angle lists in traversal order.

    At most six orbits, and each must advance by +2 in sorted order.
    """
    problems = []
    if len(orbits) > MAX_ORBITS:
        problems.append(f"{len(orbits)} period-5 orbits, at most {MAX_ORBITS} allowed")
    for angles in orbits:
        if len(angles) != 5:
            problems.append(f"orbit with {len(angles)} points")
            continue
        order = sorted(range(5), key=lambda i: angles[i])
        rank = {i: rk for rk, i in enumerate(order)}
        if any(rank[(i + 1) % 5] != (rank[i] + 2) % 5 for i in range(5)):
            problems.append("orbit whose sorted shift is not +2")
    return problems


def check_rho_output(stdout: str, want: dict) -> list[str]:
    """``barbilliard rho`` JSON against the class's known answer.

    ``want`` may hold ``rho_pq`` (the certified rational) and ``verdict``
    (the rho verdict against 2/5); an empty ``want`` checks the format
    only.  A 2/5 certificate must come with valid period-5 orbits.
    """
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        out = None
    if not isinstance(out, dict):
        return ["output is not a JSON object"]
    rot = out.get("rotation")
    if (
        out.get("rho_verdict") not in VERDICTS
        or not isinstance(out.get("consistent"), bool)
        or not isinstance(out.get("condition_report"), dict)
        or not isinstance(rot, dict)
        or not isinstance(rot.get("rho_estimate"), float)
    ):
        return ["JSON lacks the rho report fields"]
    problems = []
    if "rho_pq" in want and [rot.get("rho_p"), rot.get("rho_q")] != want["rho_pq"]:
        problems.append(f"certified {rot.get('rho_p')}/{rot.get('rho_q')}, "
                        f"expected {want['rho_pq'][0]}/{want['rho_pq'][1]}")
    if "verdict" in want and out["rho_verdict"] != want["verdict"]:
        problems.append(f"verdict {out['rho_verdict']}, expected {want['verdict']}")
    if (rot.get("rho_p"), rot.get("rho_q")) == (2, 5) and not out.get("orbits"):
        problems.append("2/5 certified but no period-5 orbit reported")
    problems += check_orbits(out.get("orbits", []))
    return problems


def check_verdict(result, orbit_set, want: str) -> list[str]:
    """``certify_rational(2, 5)`` result (and its ``detect_period5``)."""
    cert, comp = result.certificate, result.comparison
    if want == "certified":
        if cert is None or (cert.p, cert.q) != (2, 5):
            return [f"expected a 2/5 certificate, got {cert} / {comp}"]
        if orbit_set is None or not orbit_set.orbits:
            return ["2/5 certified but no period-5 orbit detected"]
        return check_orbits([[p.angle for p in pent.points] for pent in orbit_set.orbits])
    if cert is not None or comp is None or comp.relation != want:
        return [f"expected rho {want} than 2/5, got {cert} / {comp}"]
    return []


def check_tau(result, want: int) -> list[str]:
    if result.count != want:
        return [f"tau_n count {result.count}, expected {want}"]
    return []
