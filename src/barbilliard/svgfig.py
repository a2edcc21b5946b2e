"""Deterministic SVG figures of disk, body, trajectories and pentagrams.

Byte-stable output: every coordinate is formatted to 12 significant
digits with a '.' decimal separator, so identical inputs produce
identical files.
"""

from __future__ import annotations

from .circlemap import TangentMap
from .geometry import IdealPoint, fmt

VIEW_BOX = "-1.1 -1.1 2.2 2.2"
CIRCLE_STROKE = 0.005


def _dot(x: float, y: float, r: float, fill: str) -> str:
    return f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="{fmt(r)}" fill="{fill}"/>'


def _line(tag: str, pts, stroke: str, width: float) -> str:
    """A polygon (closed) or a path (open) through the points, unfilled."""
    if tag == "polygon":
        geom = 'points="' + " ".join(f"{fmt(x)},{fmt(y)}" for x, y in pts)
    else:
        geom = 'd="M ' + " L ".join(f"{fmt(x)} {fmt(y)}" for x, y in pts)
    return f'<{tag} {geom}" fill="none" stroke="{stroke}" stroke-width="{fmt(width)}"/>'


def figure_svg(
    tmap: TangentMap,
    steps: int,
    start: IdealPoint,
    orbits=(),
) -> str:
    """Unit circle, body, breakpoints, a trajectory and closing orbits.

    One element per line inside a y-flipped group: the circle, the body
    (a dot, a segment path or a polygon), the trajectory of ``steps``
    chords from ``start`` when steps > 0, a dot per breakpoint and a
    polygon per orbit.
    """
    elements = [f'<circle cx="0" cy="0" r="1" fill="none" stroke="black" '
                f'stroke-width="{fmt(CIRCLE_STROKE)}"/>']
    verts = [p.xy for p in tmap.body.vertices]
    if len(verts) == 1:
        elements.append(_dot(*verts[0], 0.012, "steelblue"))
    else:
        tag = "path" if len(verts) == 2 else "polygon"
        elements.append(_line(tag, verts, "steelblue", 0.008))
    if steps > 0:
        elements.append(_line("path", [p.xy for p in tmap.orbit(start, steps)], "gray", 0.004))
    elements += [_dot(*u.xy, 0.01, "darkorange") for u, _ in tmap.breakpoints]
    elements += [_line("polygon", [p.xy for p in pent.points], "crimson", 0.006)
                 for pent in orbits]
    body = "\n    ".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{VIEW_BOX}">\n'
        f'  <g transform="scale(1,-1)">\n'
        f"    {body}\n"
        f"  </g>\n"
        f"</svg>\n"
    )
