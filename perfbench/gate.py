"""Correctness gate for one certified packing, independent of the program.

It reads the program's outputs (the saturated centres and the report JSON
text) and checks them with its own geometry: its own neighbour grid for
pair distances and, on a torus, its own largest empty circle from Qhull.
It never calls into thuelab. A packing fails when any check fails.
"""

import hashlib
import json
import math

import numpy as np
from scipy.spatial import Delaunay

EPS_EQ = 1e-9  # thuelab's default coordinate tolerance
HEX_DENSITY = math.pi / (2.0 * math.sqrt(3.0))


def digest_centres(centres):
    """sha256 of the exact float values of the centres, in order."""
    text = "\n".join(f"{float(x).hex()} {float(y).hex()}" for x, y in centres)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def digest_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def min_pair_distance(centres, width, height, torus):
    """Smallest centre distance (minimum image on a torus), or inf, from a
    bucket grid with cells of side >= 2; pairs closer than 2 are therefore
    always found, farther ones may be skipped."""
    ncx, ncy = max(1, int(width // 2.0)), max(1, int(height // 2.0))
    cells = {}
    for i, (x, y) in enumerate(centres):
        key = (min(int(x / width * ncx), ncx - 1), min(int(y / height * ncy), ncy - 1))
        cells.setdefault(key, []).append(i)
    best = math.inf
    for (gx, gy), members in cells.items():
        seen = set()
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                hx, hy = gx + dx, gy + dy
                if torus:
                    hx, hy = hx % ncx, hy % ncy
                if (hx, hy) in seen:
                    continue
                seen.add((hx, hy))
                for i in members:
                    xi, yi = centres[i]
                    for j in cells.get((hx, hy), ()):
                        if j <= i:
                            continue
                        ddx, ddy = abs(xi - centres[j][0]), abs(yi - centres[j][1])
                        if torus:
                            ddx, ddy = min(ddx, width - ddx), min(ddy, height - ddy)
                        best = min(best, math.hypot(ddx, ddy))
    return best


def torus_largest_empty_circle(centres, width, height):
    """Largest circumradius of the Delaunay triangles of the 3x3 periodic
    copies whose circumcentre lies in the central rectangle. For a packing
    whose empty circles are smaller than the torus, that is the radius of
    the largest circle that fits between the centres."""
    pts = np.asarray(centres, dtype=float)
    copies = [pts + (sx * width, sy * height) for sx in (-1, 0, 1) for sy in (-1, 0, 1)]
    block = np.concatenate(copies)
    tri = block[Delaunay(block).simplices]
    a = tri[:, 0]
    b = tri[:, 1] - a
    c = tri[:, 2] - a
    d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    b2 = (b * b).sum(axis=1)
    c2 = (c * c).sum(axis=1)
    ux = (c[:, 1] * b2 - b[:, 1] * c2) / d
    uy = (b[:, 0] * c2 - c[:, 0] * b2) / d
    cx, cy = a[:, 0] + ux, a[:, 1] + uy
    central = (cx >= 0) & (cx < width) & (cy >= 0) & (cy < height)
    return float(np.hypot(ux, uy)[central].max())


def check(original, saturated, domain, report_text):
    """Messages of the failed checks, each starting with the check's name
    (an empty list when the packing is certified).

    original/saturated are lists of (x, y); domain is (kind, width, height);
    report_text is the report JSON the program wrote."""
    kind, width, height = domain
    torus = kind == "torus"
    failed = []
    report = json.loads(report_text)
    if [tuple(p) for p in saturated[: len(original)]] != [tuple(p) for p in original]:
        failed.append("retained: the input centres were changed")
    if not all(0.0 <= x < width and 0.0 <= y < height for x, y in saturated):
        failed.append("inside: a centre lies outside the domain")
    dmin = min_pair_distance(saturated, width, height, torus)
    if not dmin >= 2.0 - EPS_EQ:
        failed.append(f"pair_distance: {dmin!r} < 2")
    if report.get("n") != len(saturated):
        failed.append(f"report_n: {report.get('n')} != {len(saturated)}")
    if report.get("saturated") is not True:
        failed.append(f"saturated: report says {report.get('saturated')!r}")
    if report.get("verdict") is not True:
        bad = [c["id"] for c in report.get("checks", []) if not c.get("pass")]
        failed.append(f"verdict: FAIL in {','.join(bad)}")
    if torus:
        density = len(saturated) * math.pi / (width * height)
        # the hexagonal lattice meets the bound, up to rounding
        if not density <= HEX_DENSITY * (1.0 + 1e-12):
            failed.append(f"density: {density!r} > pi/(2 sqrt 3)")
        if not abs(density - float(report.get("density", math.nan))) <= 1e-12 * density:
            failed.append(f"density: report {report.get('density')!r} != {density!r}")
        radius = torus_largest_empty_circle(saturated, width, height)
        if not radius < 2.0 - EPS_EQ:
            failed.append(f"empty_circle: a circle of radius {radius!r} fits")
        extremal = {c["id"]: c["extremal"] for c in report.get("checks", [])}
        reported = extremal.get("saturation")
        if not (isinstance(reported, float) and abs(reported - radius) <= 1e-9):
            failed.append(f"empty_circle: report {reported!r} != {radius!r}")
    return failed
