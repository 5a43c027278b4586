import dataclasses
import math
import random

import pytest

from thuelab.geometry import DegenerateGeometryError, Point
from thuelab.packing import (
    Domain,
    PackingConfiguration,
    _NeighborGrid,
    gen_hexagonal,
    gen_random,
    gen_square,
    greedy_saturate,
    is_saturated,
    perturb,
    validate,
)
from thuelab.verifier import check_thue

SQRT3 = math.sqrt(3.0)


class TestDomain:
    def test_rejects_small(self):
        with pytest.raises(ValueError):
            Domain("torus", 4.0, 10.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Domain("sphere", 10.0, 10.0)

    def test_torus_distance_wraps(self):
        d = Domain("torus", 10.0, 10.0)
        assert d.distance((0.0, 0.0), (9.0, 0.0)) == pytest.approx(1.0)
        assert d.distance((0.5, 0.5), (9.5, 9.5)) == pytest.approx(math.sqrt(2))

    def test_box_distance_plain(self):
        d = Domain("box", 10.0, 10.0)
        assert d.distance((0.0, 0.0), (9.0, 0.0)) == pytest.approx(9.0)


class TestValidate:
    def test_distance_exactly_two_ok(self):
        cfg = PackingConfiguration(Domain("box", 10, 10), ((0, 0), (2, 0), (0, 5)))
        assert validate(cfg) == []

    def test_close_pair_flagged(self):
        cfg = PackingConfiguration(Domain("box", 10, 10), ((0, 0), (1, 0)))
        v = validate(cfg)
        assert len(v) == 1
        assert v[0].kind == "pair"
        assert v[0].indices == (0, 1)
        assert v[0].value == pytest.approx(1.0)

    def test_torus_wraparound_flagged(self):
        cfg = PackingConfiguration(Domain("torus", 10, 10), ((0, 0), (9, 0)))
        v = validate(cfg)
        assert len(v) == 1
        assert v[0].value == pytest.approx(1.0)

    def test_outside_flagged(self):
        cfg = PackingConfiguration(Domain("box", 10, 10), ((0, 0), (12, 0)))
        kinds = {x.kind for x in validate(cfg)}
        assert "outside" in kinds

    def test_torus_center_outside_rectangle_wraps(self):
        # (-3, 5) wraps to (17, 5), 1.5 from (15.5, 5): the pair must be
        # found although the first centre also lies outside the rectangle
        cfg = PackingConfiguration(Domain("torus", 20.0, 20.0), ((-3.0, 5.0), (15.5, 5.0)))
        v = validate(cfg)
        assert [(x.kind, x.indices) for x in v] == [("outside", (0,)), ("pair", (0, 1))]
        assert v[1].value == pytest.approx(1.5)


class TestGenerators:
    def test_hexagonal_golden(self, hex_torus):
        assert hex_torus.n == 36
        assert hex_torus.density == pytest.approx(math.pi / (2 * SQRT3), abs=1e-12)
        assert validate(hex_torus) == []

    def test_hexagonal_incommensurate(self):
        with pytest.raises(ValueError, match="nearest valid"):
            gen_hexagonal(Domain("torus", 11.0, 6 * SQRT3))
        with pytest.raises(ValueError):
            gen_hexagonal(Domain("torus", 12.0, 10.0))

    def test_hexagonal_box(self):
        cfg = gen_hexagonal(Domain("box", 12.0, 12.0, margin=4.0))
        assert validate(cfg) == []
        assert all(0 <= p.x < 12 and 0 <= p.y < 12 for p in cfg.centers)

    def test_square_golden(self, square_torus):
        assert square_torus.n == 36
        assert square_torus.density == pytest.approx(math.pi / 4, abs=1e-12)
        assert validate(square_torus) == []

    def test_square_incommensurate(self):
        with pytest.raises(ValueError):
            gen_square(Domain("torus", 12.0, 13.0))

    def test_square_box(self):
        cfg = gen_square(Domain("box", 8.0, 8.0, margin=2.0))
        assert cfg.n == 16
        assert all(p.x == int(p.x) and p.x % 2 == 0 for p in cfg.centers)

    def test_random_deterministic(self):
        dom = Domain("torus", 20.0, 20.0)
        a = gen_random(dom, seed=5)
        b = gen_random(dom, seed=5)
        assert a.centers == b.centers
        assert validate(a) == []

    def test_random_seed42_golden(self):
        cfg = gen_random(Domain("torus", 40.0, 40.0), seed=42)
        assert cfg.n == 239  # frozen from the documented draw scheme
        assert validate(cfg) == []

    def test_random_small_torus(self):
        cfg = gen_random(Domain("torus", 5.0, 5.0), seed=1)
        assert cfg.n >= 1
        assert validate(cfg) == []


class TestPerturb:
    def test_zero_magnitude_identity(self, square_torus):
        assert perturb(square_torus, seed=3, magnitude=0.0).centers == square_torus.centers

    def test_deterministic(self, loose_square_torus):
        a = perturb(loose_square_torus, seed=7, magnitude=0.15)
        b = perturb(loose_square_torus, seed=7, magnitude=0.15)
        assert a.centers == b.centers

    def test_result_valid(self, loose_square_torus):
        out = perturb(loose_square_torus, seed=7, magnitude=0.15)
        assert validate(out) == []
        moved = sum(1 for p, q in zip(loose_square_torus.centers, out.centers) if p != q)
        assert moved > 0

    def test_tight_lattice_immovable(self, square_torus):
        # at exact spacing 2 every displacement violates the distance bound,
        # so rejection leaves the configuration unchanged
        out = perturb(square_torus, seed=7, magnitude=0.05)
        assert out.centers == square_torus.centers


class TestSaturation:
    def test_hexagonal_saturated(self, hex_torus):
        cert = is_saturated(hex_torus)
        assert cert.saturated
        assert cert.witness is None

    def test_square_saturated(self, square_torus):
        assert is_saturated(square_torus).saturated

    def test_hex_minus_one_not_saturated(self, hex_minus_one, removed_center):
        cert = is_saturated(hex_minus_one)
        assert not cert.saturated
        pos, radius = cert.witness
        assert radius == pytest.approx(2.0, abs=1e-9)
        assert math.hypot(pos.x - removed_center.x, pos.y - removed_center.y) < 1e-9

    def test_saturate_restores_removed_center(self, hex_minus_one, hex_torus, removed_center):
        out = greedy_saturate(hex_minus_one)
        assert out.n == hex_torus.n
        added = out.centers[-1]
        assert math.hypot(added.x - removed_center.x, added.y - removed_center.y) < 1e-9

    def test_saturate_fixed_point(self, hex_torus):
        assert greedy_saturate(hex_torus) is hex_torus

    def test_saturate_idempotent_random(self):
        cfg = gen_random(Domain("torus", 20.0, 20.0), seed=9)
        once = greedy_saturate(cfg)
        twice = greedy_saturate(once)
        assert once.centers == twice.centers
        assert set(cfg.centers) <= set(once.centers)

    def test_saturate_random_is_saturated(self):
        for seed in (0, 1, 2):
            cfg = greedy_saturate(gen_random(Domain("torus", 20.0, 20.0), seed=seed))
            assert is_saturated(cfg).saturated
            assert validate(cfg) == []

    def test_saturate_count_bounded(self):
        dom = Domain("torus", 20.0, 20.0)
        cfg = gen_random(dom, seed=11, max_failures=50)  # deliberately sparse
        out = greedy_saturate(cfg)
        assert out.n - cfg.n <= math.ceil(dom.area / math.pi)
        assert is_saturated(out).saturated

    def test_sparse_torus_saturates(self):
        # a single center forces extra replication rings
        cfg = PackingConfiguration(Domain("torus", 5.0, 5.0), ((2.0, 2.0),))
        out = greedy_saturate(cfg)
        assert out.n > 1
        assert is_saturated(out).saturated

    def test_saturate_seam_witness_stays_in_rectangle(self):
        # A loose perturbed hex torus (8 x 8 sites of spacing 2.3, site 0
        # dropped) translated so that its largest empty circle sits 3e-16
        # left of x = 0. The circumcenter wraps to x = width unless the
        # wrap clamps it to 0, as Domain.wrap does; the saturated packing
        # then had a center outside the rectangle.
        spacing = 2.3
        dy = spacing * SQRT3 / 2.0
        dom = Domain("torus", 8 * spacing, 8 * dy)
        sites = [((i + 0.5 * (j % 2)) * spacing, j * dy) for j in range(8) for i in range(8)]
        loose = perturb(PackingConfiguration(dom, tuple(sites[1:])), seed=4, magnitude=0.12)
        x0 = is_saturated(loose).witness[0].x
        cfg = PackingConfiguration(
            dom, tuple(dom.wrap(x - x0 - 3e-16, y) for x, y in loose.centers)
        )
        witness = is_saturated(cfg).witness[0]
        assert 0.0 <= witness.x < dom.width
        out = greedy_saturate(cfg)
        assert validate(out) == []
        assert is_saturated(out).saturated
        assert check_thue(out).verdict

    def test_box_saturation(self):
        corners = PackingConfiguration(
            Domain("box", 14.0, 14.0, margin=4.0),
            ((3.0, 3.0), (11.0, 3.0), (3.0, 11.0), (11.0, 11.0)),
        )
        # a Voronoi edge crosses x = 4 here; shifting the clipped crossing
        # back by the margin once rounded it to x = 3.9999999999999996,
        # outside the analysis region
        sparse = gen_random(Domain("box", 20.0, 20.0, margin=4.0), seed=2, max_failures=5)
        for cfg in (corners, sparse):
            out = greedy_saturate(cfg)
            assert is_saturated(out).saturated
            assert set(cfg.centers) <= set(out.centers)
            m, w, h = cfg.domain.margin, cfg.domain.width, cfg.domain.height
            for x, y in out.centers[cfg.n:]:
                assert m <= x <= w - m and m <= y <= h - m

    def test_box_too_few_centers_raises(self):
        cfg = PackingConfiguration(Domain("box", 10.0, 10.0), ((1.0, 1.0), (5.0, 5.0)))
        with pytest.raises(DegenerateGeometryError):
            is_saturated(cfg)


class TestDensityProperty:
    def test_saturated_density_below_hexagonal(self):
        bound = math.pi / (2 * SQRT3)
        for seed in (3, 4):
            cfg = greedy_saturate(gen_random(Domain("torus", 24.0, 24.0), seed=seed))
            assert cfg.density <= bound + 1e-9


def _full_scan(domain, points, p, skip=-1):
    return min(
        ((domain.distance(p, q), i) for i, q in enumerate(points) if i != skip),
        default=(math.inf, -1),
    )


class TestNeighborGridNearest:
    """`_NeighborGrid.nearest` must return exactly what a scan over all
    points returns: the same distance bits and, on exact ties, the
    smallest index."""

    def _check(self, cfg, queries, rng):
        domain = cfg.domain
        grid = _NeighborGrid(domain, cfg.centers)
        for q in queries:
            for skip in (-1, rng.randrange(cfg.n)):
                assert grid.nearest(q, skip) == _full_scan(domain, cfg.centers, q, skip)

    def _queries(self, cfg, rng, count=1500):
        w, h = cfg.domain.width, cfg.domain.height
        grid = _NeighborGrid(cfg.domain)
        sx, sy = w / grid.ncx, h / grid.ncy
        queries = [(rng.uniform(-3.0, w + 3.0), rng.uniform(-3.0, h + 3.0)) for _ in range(count)]
        queries += list(cfg.centers)
        # points on cell boundaries, and centers moved one cell side
        queries += [(i * sx, j * sy) for i in range(grid.ncx + 1) for j in range(grid.ncy + 1)]
        queries += [(c[0] + sx, c[1]) for c in cfg.centers]
        return queries

    @pytest.mark.parametrize("kind", ["torus", "box"])
    def test_matches_full_scan(self, kind):
        rng = random.Random(7)
        cfg = gen_random(Domain(kind, 30.0, 26.0), seed=3)
        self._check(cfg, self._queries(cfg, rng), rng)

    def test_square_torus_ties_go_to_smaller_index(self, square_torus):
        # every center has 4 neighbors at exactly 2.0
        grid = _NeighborGrid(square_torus.domain, square_torus.centers)
        for i, c in enumerate(square_torus.centers):
            tied = [
                j
                for j, q in enumerate(square_torus.centers)
                if j != i and square_torus.domain.distance(c, q) == 2.0
            ]
            assert len(tied) == 4
            assert grid.nearest(c, skip=i) == (2.0, min(tied))
        rng = random.Random(2)
        self._check(square_torus, self._queries(square_torus, rng, 300), rng)

    @pytest.mark.parametrize("width,height", [(5.0, 5.5), (4.5, 40.0), (30.0, 5.9), (6.5, 9.0)])
    def test_small_torus_rings_wrap(self, width, height):
        # 2 to 4 cells on an axis: rings wrap around onto themselves, and
        # each cell must still be looked up at most once per query
        class RecordingCells(dict):
            keys = []

            def get(self, key, default=None):
                RecordingCells.keys.append(key)
                return super().get(key, default)

        rng = random.Random(5)
        cfg = gen_random(Domain("torus", width, height), seed=9)
        grid = _NeighborGrid(cfg.domain, cfg.centers)
        assert min(grid.ncx, grid.ncy) < 4
        grid.cells = RecordingCells(grid.cells)
        for q in self._queries(cfg, rng, 300):
            RecordingCells.keys = []
            assert grid.nearest(q) == _full_scan(cfg.domain, cfg.centers, q)
            assert len(set(RecordingCells.keys)) == len(RecordingCells.keys)
        self._check(cfg, self._queries(cfg, rng, 300), rng)

    def test_empty_and_single(self):
        domain = Domain("torus", 10.0, 10.0)
        grid = _NeighborGrid(domain)
        assert grid.nearest((1.0, 1.0)) == (math.inf, -1)
        grid.add((3.0, 4.0))
        assert grid.nearest((3.0, 4.0), skip=0) == (math.inf, -1)
        assert grid.nearest((9.0, 9.0)) == (domain.distance((9.0, 9.0), (3.0, 4.0)), 0)

