"""The compiled kernel and the pure-Python kernel must be interchangeable:
identical triangulations (the same triangles in the same list order, which
the tessellation depends on), identical created-slot reports after every
insertion (which torus saturation depends on), identical predicate signs,
on identical inputs."""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import thuelab
from thuelab import _core_py, _exact
from thuelab.tessellation import _spatial_order

try:
    from thuelab import _core
except ImportError:
    _core = None

needs_compiled = pytest.mark.skipif(_core is None, reason="compiled kernel not built")


def _random_block(seed, n=120):
    rng = random.Random(seed)
    pts = []
    seen = set()
    while len(pts) < n:
        p = (rng.uniform(-20, 20), rng.uniform(-20, 20))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    order = _spatial_order(xs, ys)
    return [(xs[i], ys[i]) for i in order]


def _triangulate(module, pts):
    tri = module.Triangulator((-25.0, -25.0, 25.0, 25.0))
    for (x, y) in pts:
        tri.add_point(x, y)
    return tri


def _replay(module, points, bounds=(-25.0, -25.0, 25.0, 25.0)):
    """Triangulate `points` one add_point at a time and return the
    triangulator and the created-slot report of every insertion.

    After each insertion the reports replayed so far must describe the
    whole triangulation: their finite slots are exactly the alive finite
    triangles of `triangle_slots()`, whose triples are `triangles()`
    element for element, and there are 2n + 1 of them with the synthetic
    corners counted (every slot a cavity frees is written again)."""
    tri = module.Triangulator(bounds)
    assert tri.created_slots() == []
    slots = {}
    reports = []
    for (x, y) in points:
        tri.add_point(x, y)
        report = tri.created_slots()
        reports.append(report)
        assert len({entry[0] for entry in report}) == len(report)
        slots.update((slot, (a, b, c)) for slot, a, b, c in report)
        listing = tri.triangle_slots()
        assert [entry[1:] for entry in listing] == tri.triangles()
        finite = {slot: abc for slot, abc in slots.items() if min(abc) >= 0}
        assert finite == {slot: (a, b, c) for slot, a, b, c in listing}
        assert len(slots) == 2 * tri.num_points + 1
    return tri, reports


def _assert_identical_replays(points, bounds=(-25.0, -25.0, 25.0, 25.0)):
    t_py, r_py = _replay(_core_py, points, bounds)
    t_cy, r_cy = _replay(_core, points, bounds)
    assert r_py == r_cy
    assert t_py.triangle_slots() == t_cy.triangle_slots()
    assert t_py.triangles() == t_cy.triangles()
    return t_py, t_cy


@needs_compiled
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_identical_triangulations_random(seed):
    _assert_identical_replays(_random_block(seed))


@needs_compiled
def test_identical_on_exact_grid():
    # exactly cocircular squares exercise the tie-breaking path
    pts = [(float(x), float(y)) for x in range(0, 12, 2) for y in range(0, 12, 2)]
    _assert_identical_replays(pts)


@needs_compiled
def test_identical_predicates():
    rng = random.Random(99)
    for _ in range(2000):
        args = [rng.uniform(-5, 5) for _ in range(6)]
        assert _core.orient2d(*args) == _core_py.orient2d(*args)
    for _ in range(2000):
        args = [rng.uniform(-5, 5) for _ in range(8)]
        assert _core.incircle(*args) == _core_py.incircle(*args)


@pytest.mark.parametrize(
    "module", [_core_py] + ([] if _core is None else [_core]), ids=lambda m: m.BACKEND_NAME
)
class TestTriangulatorContract:
    def test_delaunay_property_exact(self, module):
        pts = _random_block(7, n=60)
        tri = _triangulate(module, pts)
        stored = [tri.point(i) for i in range(tri.num_points)]
        for (a, b, c) in tri.triangles():
            pa, pb, pc = stored[a], stored[b], stored[c]
            assert module.orient2d(*pa, *pb, *pc) > 0  # CCW
            for d in range(len(stored)):
                if d in (a, b, c):
                    continue
                pd = stored[d]
                assert module.incircle(*pa, *pb, *pc, *pd) <= 0

    def test_duplicate_point_rejected(self, module):
        tri = module.Triangulator((0.0, 0.0, 10.0, 10.0))
        tri.add_point(1.0, 1.0)
        tri.add_point(2.0, 5.0)
        with pytest.raises(ValueError):
            tri.add_point(1.0, 1.0)
        # the rejected point is not stored
        assert tri.num_points == 2
        assert tri.add_point(3.0, 3.0) == 2
        assert tri.point(2) == (3.0, 3.0)
        assert {v for t in tri.triangles() for v in t} == {0, 1, 2}

    def test_underflowing_points_triangulate(self, module):
        # two points far below 1 on a line through (0, 0); the filtered
        # orient2d underflowed to 0 on them, and 6 of the 24 insertion
        # orders failed as a "degenerate insertion"
        pts = [
            (0.0, 0.0),
            (-1.292274289120069e-267, -2.261480005960121e-267),
            (-1.1898943099553189e-296, -2.082315042421808e-296),
            (-1.0, -1.75),
        ]
        bounds = (-25.0, -25.0, 25.0, 25.0)
        for order in itertools.permutations(pts):
            tri = _triangulate_with(module, order, bounds)
            assert tri.num_points == 4
            if _core is not None:
                assert tri.triangles() == _triangulate_with(_core_py, order, bounds).triangles()

    def test_outside_bounds_rejected(self, module):
        tri = module.Triangulator((0.0, 0.0, 1.0, 1.0))
        tri.add_point(0.5, 0.5)
        with pytest.raises(ValueError):
            tri.add_point(1e9, 1e9)

    def test_three_points_single_triangle(self, module):
        tri = module.Triangulator((-1.0, -1.0, 5.0, 5.0))
        tri.add_point(0.0, 0.0)
        tri.add_point(4.0, 0.0)
        tri.add_point(0.0, 4.0)
        assert sorted(tri.triangles()[0]) == [0, 1, 2]
        assert len(tri.triangles()) == 1

    def test_created_slots_report(self, module):
        tri, reports = _replay(module, _random_block(3, n=80))
        assert all(reports)
        # a duplicate insertion fails and leaves an empty report
        with pytest.raises(ValueError):
            tri.add_point(*tri.point(5))
        assert tri.created_slots() == []
        # so does a point outside the bounds, rejected before any cavity
        tri.add_point(0.125, 0.25)
        assert tri.created_slots()
        with pytest.raises(ValueError):
            tri.add_point(1e9, 1e9)
        assert tri.created_slots() == []

    def test_created_slots_name_synthetic_corners(self, module):
        # the first point splits the super triangle: three slots, each with
        # two synthetic corners among -3, -2, -1
        tri = module.Triangulator((0.0, 0.0, 10.0, 10.0))
        tri.add_point(5.0, 5.0)
        report = tri.created_slots()
        assert len(report) == 3
        assert sorted(v for _, *abc in report for v in abc if v < 0) == [-3, -3, -2, -2, -1, -1]
        assert tri.triangle_slots() == []

    def test_point_index_out_of_range(self, module):
        tri = module.Triangulator((0.0, 0.0, 10.0, 10.0))
        tri.add_point(1.0, 2.0)
        assert tri.point(0) == (1.0, 2.0)
        with pytest.raises(IndexError):
            tri.point(tri.num_points)


@needs_compiled
class TestAdversarialInsertionOrders:
    """Insertion orders that stress collinear runs, cocircular ties and
    degenerate walks; backends must stay identical and exactly Delaunay."""

    def _fuzz(self, points, bounds):
        t_py, _ = _assert_identical_replays(points, bounds)
        pts = [t_py.point(i) for i in range(t_py.num_points)]
        for (a, b, c) in t_py.triangles():
            pa, pb, pc = pts[a], pts[b], pts[c]
            for d, pd in enumerate(pts):
                if d in (a, b, c):
                    continue
                assert _core.incircle(*pa, *pb, *pc, *pd) <= 0

    def test_grid_lexicographic(self):
        # full collinear column inserted first, then cocircular quads
        grid = [(float(x), float(y)) for x in range(0, 16, 2) for y in range(0, 16, 2)]
        self._fuzz(grid, (-5.0, -5.0, 20.0, 20.0))
        self._fuzz(list(reversed(grid)), (-5.0, -5.0, 20.0, 20.0))

    def test_hex_lattice_row_major(self):
        s3 = math.sqrt(3.0)
        pts = [(i * 2.0 + (j % 2), j * s3) for i in range(8) for j in range(8)]
        self._fuzz(pts, (-5.0, -5.0, 25.0, 25.0))

    def test_collinear_rows_plus_random(self):
        rng = random.Random(5)
        pts = [(float(i), 0.0) for i in range(10)]
        pts += [(float(i), 1e-9) for i in range(10)]
        pts += [(rng.uniform(0, 9), rng.uniform(-3, 3)) for _ in range(60)]
        seen = set()
        uniq = [p for p in pts if not (p in seen or seen.add(p))]
        self._fuzz(uniq, (-5.0, -5.0, 15.0, 10.0))

    def test_near_cocircular_ring(self):
        rng = random.Random(6)
        pts = []
        for k in range(40):
            th = 2 * math.pi * k / 40
            pts.append(
                (
                    5 * math.cos(th) + rng.uniform(-1e-12, 1e-12),
                    5 * math.sin(th) + rng.uniform(-1e-12, 1e-12),
                )
            )
        pts.append((0.0, 0.0))
        self._fuzz(pts, (-10.0, -10.0, 10.0, 10.0))


def _triangulate_with(module, points, bounds):
    tri = module.Triangulator(bounds)
    for (x, y) in points:
        tri.add_point(x, y)
    return tri


def _distinct(points):
    seen = set()
    return [p for p in points if not (p in seen or seen.add(p))]


_coordinate = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
_random_points = st.lists(st.tuples(_coordinate, _coordinate), min_size=3, max_size=60)
_grid_points = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).map(
        lambda ij: (2.0 * ij[0], 2.0 * ij[1])
    ),
    min_size=3,
    max_size=60,
)
_near_collinear_points = st.builds(
    lambda slope, xs, noise: [
        (x, slope * x + e) for x, e in zip(xs, noise + [0.0] * len(xs))
    ],
    st.floats(-2.0, 2.0),
    st.lists(st.floats(-8.0, 8.0), min_size=3, max_size=40),
    st.lists(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -3e-9]), max_size=40),
)


@needs_compiled
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_random_points, _grid_points, _near_collinear_points))
def test_identical_on_generated_point_sets(points):
    points = _distinct(points)
    t_py, t_cy = _assert_identical_replays(points)
    assert [t_py.point(i) for i in range(len(points))] == [
        t_cy.point(i) for i in range(len(points))
    ]
    flat = [c for p in points for c in p]
    for i in range(len(points) - 2):
        args = flat[2 * i : 2 * i + 6]
        assert _core.orient2d(*args) == _core_py.orient2d(*args)
    for i in range(len(points) - 3):
        args = flat[2 * i : 2 * i + 8]
        assert _core.incircle(*args) == _core_py.incircle(*args)


# Replaces thuelab._exact's predicates by counters before thuelab.backend
# (and so the compiled kernel) is imported, the way perfbench's tracer
# does, then triangulates an exactly cocircular grid with each kernel.
_COUNT_EXACT_FALLBACKS = """
import importlib.util
import sys

spec = importlib.util.find_spec("thuelab")
package = importlib.util.module_from_spec(spec)
sys.modules["thuelab"] = package
from thuelab import _exact

counts = {"orient2d": 0, "incircle": 0}


def counting(name, fn):
    def wrapper(*args):
        counts[name] += 1
        return fn(*args)

    return wrapper


_exact.orient2d = counting("orient2d", _exact.orient2d)
_exact.incircle = counting("incircle", _exact.incircle)
spec.loader.exec_module(package)
assert "thuelab._core" in sys.modules
from thuelab import _core, _core_py

grid = [(float(x), float(y)) for x in range(0, 16, 2) for y in range(0, 16, 2)]
for module in (_core_py, _core):
    before = dict(counts)
    tri = module.Triangulator((-5.0, -5.0, 20.0, 20.0))
    for (x, y) in grid:
        tri.add_point(x, y)
    print(module.BACKEND_NAME, *(counts[k] - before[k] for k in ("orient2d", "incircle")))
"""


@needs_compiled
def test_exact_fallback_counted_when_wrapped_before_import():
    src = str(Path(thuelab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("THUE_LAB_BACKEND", None)
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_EXACT_FALLBACKS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == ["python", "c"]
    py_counts, c_counts = ([int(v) for v in row[1:]] for row in rows)
    assert c_counts == py_counts
    assert py_counts[1] > 0


@needs_compiled
def test_exact_fallback_counted_when_wrapped_after_import(monkeypatch):
    # Each fallback looks its predicate up on thuelab._exact, so a wrapper
    # installed after the kernels were imported sees every call too.
    counts = {"orient2d": 0, "incircle": 0}

    def counting(name):
        fn = getattr(_exact, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(_exact, name, wrapper)

    counting("orient2d")
    counting("incircle")
    grid = [(float(x), float(y)) for x in range(0, 16, 2) for y in range(0, 16, 2)]
    seen = []
    for module in (_core_py, _core):
        before = dict(counts)
        tri = module.Triangulator((-5.0, -5.0, 20.0, 20.0))
        for x, y in grid:
            tri.add_point(x, y)
        seen.append([counts[k] - before[k] for k in ("orient2d", "incircle")])
    assert seen[1] == seen[0]
    assert seen[0][1] > 0


def test_backend_selection_env(monkeypatch):
    import importlib

    import thuelab.backend as backend_mod

    monkeypatch.setenv("THUE_LAB_BACKEND", "python")
    mod = importlib.reload(backend_mod)
    assert mod.BACKEND_NAME == "python"
    monkeypatch.delenv("THUE_LAB_BACKEND")
    importlib.reload(backend_mod)


@pytest.mark.parametrize("value", ["compiled", "cython", "pure"])
def test_backend_selection_rejects_old_aliases(monkeypatch, value):
    import importlib

    import thuelab.backend as backend_mod

    monkeypatch.setenv("THUE_LAB_BACKEND", value)
    try:
        with pytest.raises(RuntimeError, match="expected 'auto', 'c' or 'python'"):
            importlib.reload(backend_mod)
    finally:
        monkeypatch.delenv("THUE_LAB_BACKEND")
        importlib.reload(backend_mod)


def test_pure_python_fallback_is_complete():
    # the pure kernel exposes the full kernel API
    for name in ("orient2d", "incircle", "Triangulator", "BACKEND_NAME"):
        assert hasattr(_core_py, name)
