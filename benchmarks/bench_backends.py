#!/usr/bin/env python3
"""Benchmark the compiled C kernel against the pure-Python fallback.

Times the two Triangulator implementations on identical inputs (a torus
packing's replicated block, the hot path of the whole pipeline) plus raw
predicate throughput, and verifies that both produce identical output:
the same triangles in the same list order. The C kernel is
`thuelab._core`, compiled from `src/thuelab/_core.c`; build it first with
`python setup.py build_ext --inplace`.

Run:  PYTHONPATH=src python3 benchmarks/bench_backends.py [n_centers]
"""

import math
import sys
import time

from thuelab import _core_py
from thuelab.packing import Domain, gen_random
from thuelab.tessellation import _spatial_order

try:
    from thuelab import _core
except ImportError:
    _core = None


def block_points(n_target):
    side = max(10.0, math.sqrt(n_target * math.pi / 0.5))
    domain = Domain("torus", side, side)
    config = gen_random(domain, seed=7)
    xs, ys = [], []
    for (x, y) in config.centers:
        for sx in (-1, 0, 1):
            for sy in (-1, 0, 1):
                xs.append(x + sx * side)
                ys.append(y + sy * side)
    order = _spatial_order(xs, ys)
    pts = [(xs[i], ys[i]) for i in order]
    bounds = (-1.5 * side, -1.5 * side, 2.5 * side, 2.5 * side)
    return pts, bounds


def time_triangulation(module, pts, bounds, repeats=3):
    best = math.inf
    triangles = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        tri = module.Triangulator(bounds)
        for (x, y) in pts:
            tri.add_point(x, y)
        best = min(best, time.perf_counter() - t0)
        triangles = tri.triangles()
    return best, triangles


def time_predicates(module, repeats=200_000):
    import random

    rng = random.Random(123)
    data = [tuple(rng.uniform(-10, 10) for _ in range(8)) for _ in range(1000)]
    t0 = time.perf_counter()
    acc = 0
    for i in range(repeats):
        d = data[i % 1000]
        acc += module.incircle(*d)
    dt = time.perf_counter() - t0
    return dt / repeats * 1e9, acc


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 250
    pts, bounds = block_points(n)
    print(f"block of {len(pts)} points (from {len(pts) // 9} torus centers)\n")

    rows = []
    py_time, py_tris = time_triangulation(_core_py, pts, bounds)
    rows.append(("python", py_time, len(py_tris)))
    if _core is not None:
        cy_time, cy_tris = time_triangulation(_core, pts, bounds)
        rows.append(("c", cy_time, len(cy_tris)))
        match = "identical" if cy_tris == py_tris else "DIFFERENT (bug!)"
        print(f"triangulations: {match}")
    else:
        print("compiled kernel not available; showing pure Python only")

    print(f"\n{'backend':<10} {'triangulate':>14} {'incircle/call':>14}")
    for name, dt, _count in rows:
        module = _core if name == "c" else _core_py
        ns, _ = time_predicates(module, repeats=50_000)
        print(f"{name:<10} {dt * 1e3:>11.1f} ms {ns:>11.0f} ns")
    if _core is not None:
        print(f"\nspeedup (triangulation): {py_time / cy_time:.1f}x")


if __name__ == "__main__":
    main()
