"""Independent brute-force oracles for the test suite.

Everything here is deliberately written from scratch (no reuse of package
internals beyond plain data), so tests compare two independent routes to
the same quantity.
"""

import math
from fractions import Fraction


def orient2d_exact(ax, ay, bx, by, cx, cy):
    """Sign of the orientation determinant over exact rationals."""
    det = (Fraction(ax) - Fraction(cx)) * (Fraction(by) - Fraction(cy)) - (
        Fraction(ay) - Fraction(cy)
    ) * (Fraction(bx) - Fraction(cx))
    return (det > 0) - (det < 0)


def incircle_exact(ax, ay, bx, by, cx, cy, dx, dy):
    """Sign of the lifted in-circle determinant over exact rationals."""
    rows = []
    for (px, py) in ((ax, ay), (bx, by), (cx, cy)):
        ex = Fraction(px) - Fraction(dx)
        ey = Fraction(py) - Fraction(dy)
        rows.append((ex, ey, ex * ex + ey * ey))
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    det = (
        a0 * (b1 * c2 - c1 * b2)
        - a1 * (b0 * c2 - c0 * b2)
        + a2 * (b0 * c1 - c0 * b1)
    )
    return (det > 0) - (det < 0)


def clip_polygon_halfplane(poly, a, b):
    """Keep the part of `poly` at least as close to a as to b."""
    ax, ay = a
    bx, by = b
    mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
    nx, ny = bx - ax, by - ay
    out = []
    k = len(poly)
    for i in range(k):
        p = poly[i]
        q = poly[(i + 1) % k]
        dp = (p[0] - mx) * nx + (p[1] - my) * ny
        dq = (q[0] - mx) * nx + (q[1] - my) * ny
        if dp <= 0:
            out.append(p)
        if (dp < 0 < dq) or (dq < 0 < dp):
            t = dp / (dp - dq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def halfplane_cell_area(width, height, centers, i):
    """Area of the Voronoi cell of centers[i] clipped to the domain
    rectangle, via intersection with ALL n-1 bisector half-planes."""
    poly = [(0.0, 0.0), (width, 0.0), (width, height), (0.0, height)]
    for j, c in enumerate(centers):
        if j == i:
            continue
        poly = clip_polygon_halfplane(poly, centers[i], c)
        if len(poly) < 3:
            return 0.0
    area = 0.0
    for k in range(len(poly)):
        x0, y0 = poly[k]
        x1, y1 = poly[(k + 1) % len(poly)]
        area += 0.5 * (x0 * y1 - x1 * y0)
    return area


def brute_shortest_norm(b1, b2, zmax=5):
    """Minimal norm over nonzero integer combinations |z1|, |z2| <= zmax."""
    best = math.inf
    for z1 in range(-zmax, zmax + 1):
        for z2 in range(-zmax, zmax + 1):
            if z1 == 0 and z2 == 0:
                continue
            x = z1 * b1[0] + z2 * b2[0]
            y = z1 * b1[1] + z2 * b2[1]
            best = min(best, math.hypot(x, y))
    return best


def grid_search_empty_circle(centers, region, step=0.01):
    """Grid-search oracle for the largest empty circle over a rectangular
    region [x0, x1] x [y0, y1] (plain metric, box domains)."""
    import numpy as np

    x0, y0, x1, y1 = region
    xs = np.arange(x0, x1 + step / 2, step)
    ys = np.arange(y0, y1 + step / 2, step)
    gx, gy = np.meshgrid(xs, ys)
    best = None
    dmin = np.full(gx.shape, np.inf)
    for (cx, cy) in centers:
        d = np.hypot(gx - cx, gy - cy)
        dmin = np.minimum(dmin, d)
    idx = np.unravel_index(np.argmax(dmin), dmin.shape)
    best = (float(gx[idx]), float(gy[idx]), float(dmin[idx]))
    return best


def torus_block_rescan(tri, labels, domain):
    """Empty circles of a replicated torus block by a full rescan: for
    every alive triangle with a corner in the central copy (`labels[id]`
    is the (center, sx, sy) copy of kernel point id), the key (-r, rx, ry)
    of its circumradius and wrapped circumcenter, in lexicographic order,
    so the first key is the largest empty circle. Unlike the rest of this
    module it reuses the package's float formulas (`_circumdata`,
    `_wrap_arrays`) on purpose: an incremental scan must give the very
    same floats, so tests compare the two with ==."""
    import numpy as np

    from thuelab.tessellation import _circumdata, _wrap_arrays

    central = [
        t for t in tri.triangles() if any(labels[v][1:] == (0, 0) for v in t)
    ]
    px = np.array([[tri.point(v)[0] for v in t] for t in central])
    py = np.array([[tri.point(v)[1] for v in t] for t in central])
    cx, cy, r = _circumdata(px, py)
    rx, ry = _wrap_arrays(domain, cx, cy)
    order = np.lexsort((ry, rx, -r))
    return list(zip((-r[order]).tolist(), rx[order].tolist(), ry[order].tolist()))


def gauss_reduce_fraction(b1, b2):
    """Lagrange-Gauss reduction over `Fraction`: swap so |u| <= |v|, then
    subtract the rounded projection coefficient floor(<u,v>/|u|^2 + 1/2)
    and swap while |v| < |u|. Returns the reduced basis as floats and the
    unimodular map (rows for the output u and v)."""
    u = (Fraction(b1[0]), Fraction(b1[1]))
    v = (Fraction(b2[0]), Fraction(b2[1]))

    def norm2(p):
        return p[0] * p[0] + p[1] * p[1]

    mu, mv = (1, 0), (0, 1)
    if norm2(u) > norm2(v):
        u, v, mu, mv = v, u, mv, mu
    while True:
        nu = norm2(u)
        t = (2 * (u[0] * v[0] + u[1] * v[1]) + nu) // (2 * nu)
        if t != 0:
            v = (v[0] - t * u[0], v[1] - t * u[1])
            mv = (mv[0] - t * mu[0], mv[1] - t * mu[1])
        if norm2(v) < nu:
            u, v, mu, mv = v, u, mv, mu
        else:
            break
    return ((float(u[0]), float(u[1])), (float(v[0]), float(v[1]))), (mu, mv)
