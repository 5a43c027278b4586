import math
import tracemalloc

import pytest

from thuelab.geometry import Point
from thuelab.lattice import Basis2, det, lagrange_bound_check
from thuelab.packing import Domain, PackingConfiguration, gen_random, greedy_saturate, perturb
from thuelab.tessellation import VoronoiVertex, build_diagram
from thuelab.verifier import (
    HEX_DENSITY,
    LTriangle,
    build_l_triangles,
    check_area_relation,
    check_empty_circle,
    check_nearest_edge,
    check_sector,
    check_thue,
    check_vertex_distance_angle,
    fan_l_triangles,
    local_density,
    related_parallelogram,
    report_pitteway,
)

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def hexm1_diagram(hex_minus_one):
    return build_diagram(hex_minus_one)


@pytest.fixture(scope="module")
def random42_saturated():
    return greedy_saturate(gen_random(Domain("torus", 40.0, 40.0), seed=42))


@pytest.fixture(scope="module")
def random42_diagram(random42_saturated):
    return build_diagram(random42_saturated)


def _mk_lt(apex, b1, b2, radius=0.0):
    return LTriangle(
        vertex_index=-1,
        apex_index=0,
        base_indices=(1, 2),
        apex_point=Point(*apex),
        base_points=(Point(*b1), Point(*b2)),
        circumradius=radius,
    )


class TestEmptyCircle:
    def test_hex(self, hex_diagram):
        res = check_empty_circle(hex_diagram)
        assert res.passed
        assert res.extremal == pytest.approx(4 / SQRT3, abs=1e-9)

    def test_square(self, square_diagram):
        res = check_empty_circle(square_diagram)
        assert res.passed
        assert res.extremal == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_hex_minus_one_fails(self, hexm1_diagram, removed_center):
        res = check_empty_circle(hexm1_diagram)
        assert not res.passed
        assert res.extremal == pytest.approx(4.0, abs=1e-9)
        assert any(
            math.hypot(v["pos"][0] - removed_center.x, v["pos"][1] - removed_center.y)
            < 1e-7
            for v in res.violations
        )


class TestVertexDistanceAngle:
    def test_hex(self, hex_diagram):
        res = check_vertex_distance_angle(hex_diagram)
        assert res.passed
        max_dist, min_angle = res.extremal
        assert max_dist == pytest.approx(2 / SQRT3, abs=1e-9)
        assert min_angle == pytest.approx(2 * math.pi / 3, abs=1e-9)

    def test_square(self, square_diagram):
        res = check_vertex_distance_angle(square_diagram)
        assert res.passed
        max_dist, min_angle = res.extremal
        assert max_dist == pytest.approx(math.sqrt(2), abs=1e-9)
        assert min_angle == pytest.approx(math.pi / 2, abs=1e-9)

    def test_hex_minus_one_fails_on_distance(self, hexm1_diagram):
        res = check_vertex_distance_angle(hexm1_diagram)
        assert not res.passed
        max_dist, _ = res.extremal
        assert max_dist == pytest.approx(2.0, abs=1e-9)
        assert all("distance" in v["loc"] for v in res.violations)


class TestNearestEdge:
    def test_hex(self, hex_diagram):
        res = check_nearest_edge(hex_diagram)
        assert res.passed
        assert len(res.violations) == 0

    def test_square(self, square_diagram):
        assert check_nearest_edge(square_diagram).passed

    def test_random(self, random42_diagram):
        assert check_nearest_edge(random42_diagram).passed


class TestPittewayReport:
    def test_hex_zero(self, hex_diagram):
        res = report_pitteway(hex_diagram)
        assert res.passed and res.extremal == 0.0

    def test_square_zero(self, square_diagram):
        assert report_pitteway(square_diagram).extremal == 0.0

    def test_constructed_instance_nonzero(self):
        from thuelab.packing import PackingConfiguration

        cfg = PackingConfiguration(
            Domain("box", 20.0, 20.0),
            ((8.0, 8.0), (11.0, 8.0), (9.5, 6.6), (9.5, 10.2)),
        )
        res = report_pitteway(build_diagram(cfg))
        assert res.passed  # informational
        assert res.extremal >= 1.0


class TestBuildLTriangles:
    def test_hex_count_and_area(self, hex_diagram):
        lts = build_l_triangles(hex_diagram)
        assert len(lts) == 72
        for lt in lts:
            assert lt.area == pytest.approx(SQRT3, abs=1e-9)
            for a, b in ((lt.apex_point, lt.base_points[0]),
                         (lt.apex_point, lt.base_points[1]),
                         (lt.base_points[0], lt.base_points[1])):
                assert math.hypot(a[0] - b[0], a[1] - b[1]) == pytest.approx(2.0, abs=1e-9)

    def test_square_count_and_area(self, square_diagram):
        lts = build_l_triangles(square_diagram)
        assert len(lts) == 72  # 36 degree-4 vertices, 2 fan triangles each
        for lt in lts:
            assert lt.area == pytest.approx(2.0, abs=1e-9)

    def test_corners_on_circumcircle(self, random42_diagram):
        tol = random42_diagram.tol
        for lt in build_l_triangles(random42_diagram):
            v = random42_diagram.vertices[lt.vertex_index]
            for p in (lt.apex_point, *lt.base_points):
                d = math.hypot(p[0] - v.position[0], p[1] - v.position[1])
                assert abs(d - v.circumradius) <= tol.eps_merge

    def test_degree_five_fan(self):
        # five cocircular generators at radius 1.9, angular gaps all large
        # enough that consecutive chords are >= 2
        r = 1.9
        min_gap = 2 * math.asin(1.0 / r)
        gaps = [min_gap * 1.01] * 4
        gaps.append(2 * math.pi - sum(gaps))
        assert gaps[-1] >= min_gap
        angles = [0.0]
        for g in gaps[:-1]:
            angles.append(angles[-1] + g)
        pts = [Point(r * math.cos(a), r * math.sin(a)) for a in angles]
        for i in range(5):
            for j in range(i + 1, 5):
                d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
                assert d >= 2.0 - 1e-12
        # order CCW starting at the lexicographically smallest point
        order = sorted(range(5), key=lambda i: math.atan2(pts[i][1], pts[i][0]))
        start = min(range(5), key=lambda k: (pts[order[k]][0], pts[order[k]][1]))
        order = order[start:] + order[:start]
        vertex = VoronoiVertex(
            index=0,
            position=Point(0.0, 0.0),
            generators=tuple(order),
            generator_shifts=tuple((0, 0) for _ in order),
            generator_points=tuple(pts[i] for i in order),
            circumradius=r,
        )
        fan = fan_l_triangles(vertex)
        assert len(fan) == 3
        from thuelab.geometry import polygon_area

        pentagon = polygon_area([pts[i] for i in order])
        assert sum(lt.area for lt in fan) == pytest.approx(pentagon, rel=1e-12)


class TestSector:
    def test_equilateral(self):
        lt = _mk_lt((0, 0), (2, 0), (1, SQRT3))
        res = check_sector(lt)
        assert res.passed
        assert res.extremal == pytest.approx(SQRT3)

    def test_square_corner(self):
        lt = _mk_lt((0, 0), (2, 0), (0, 2))
        res = check_sector(lt)
        assert res.passed
        assert res.extremal == pytest.approx(math.sqrt(2))

    def test_near_limit(self):
        # touching base circles on a circumcircle of radius 2 - delta: the
        # apex-to-chord distance is exactly 2/r, barely above 1
        r = 1.99
        delta_angle = 2 * math.asin(1.0 / r)
        base_angle = -math.pi / 2
        apex = (0.0, -r)
        b1 = (r * math.cos(base_angle - delta_angle), r * math.sin(base_angle - delta_angle))
        b2 = (r * math.cos(base_angle + delta_angle), r * math.sin(base_angle + delta_angle))
        lt = _mk_lt(apex, b1, b2, radius=r)
        res = check_sector(lt)
        assert res.passed
        assert res.extremal == pytest.approx(2.0 / r, abs=1e-12)
        assert res.extremal > 1.0

    def test_all_random_clear(self, random42_diagram):
        for lt in build_l_triangles(random42_diagram):
            assert check_sector(lt).passed


class TestRelatedParallelogram:
    def test_hexagonal(self):
        lt = _mk_lt((0, 0), (2, 0), (1, SQRT3))
        res = related_parallelogram(lt)
        assert res.fourth_point == pytest.approx((3.0, SQRT3))
        assert res.admissible
        assert abs(res.basis.b1[0] * res.basis.b2[1] - res.basis.b1[1] * res.basis.b2[0]) == pytest.approx(2 * SQRT3)

    def test_square(self):
        lt = _mk_lt((0, 0), (2, 0), (0, 2))
        res = related_parallelogram(lt)
        assert res.fourth_point == pytest.approx((2.0, 2.0))
        assert res.admissible

    def test_invalid_base_rejected(self):
        # base centers at distance 1.5: not reachable from a valid packing,
        # and the admissibility check must say no
        lt = _mk_lt((0, 0), (2, 0), (2 - 1.06, 1.06))
        b1, b2 = lt.basis
        gap = math.hypot(b2[0] - b1[0], b2[1] - b1[1])
        assert gap < 2.0
        res = related_parallelogram(lt)
        assert not res.admissible

    def test_all_random_admissible(self, random42_diagram):
        for lt in build_l_triangles(random42_diagram):
            assert related_parallelogram(lt).admissible


class TestAreaRelation:
    def test_hexagonal(self):
        res = check_area_relation(_mk_lt((0, 0), (2, 0), (1, SQRT3)))
        assert res.passed

    def test_square(self):
        res = check_area_relation(_mk_lt((0, 0), (2, 0), (0, 2)))
        assert res.passed

    def test_never_fails_on_generated(self, random42_diagram):
        count = 0
        for seed_diagram in (random42_diagram,):
            for lt in build_l_triangles(seed_diagram):
                assert check_area_relation(lt).passed
                count += 1
        assert count > 400


class TestLocalDensity:
    def test_hexagonal_equality(self, hex_diagram):
        for cell in hex_diagram.cells:
            assert local_density(cell) == pytest.approx(HEX_DENSITY, abs=1e-9)

    def test_square(self, square_diagram):
        for cell in square_diagram.cells:
            assert local_density(cell) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_random_bounded(self, random42_diagram):
        for cell in random42_diagram.cells:
            assert local_density(cell) <= HEX_DENSITY + 1e-9


class TestCheckThue:
    def test_hex_passes(self, hex_torus):
        rep = check_thue(hex_torus)
        assert rep.verdict
        assert rep.saturated
        assert rep.density == pytest.approx(HEX_DENSITY, abs=1e-9)
        assert rep.l_triangles["count"] == 72
        assert rep.l_triangles["min_area"] == pytest.approx(SQRT3, abs=1e-9)

    def test_square_passes(self, square_torus):
        rep = check_thue(square_torus)
        assert rep.verdict
        assert rep.density == pytest.approx(math.pi / 4, abs=1e-12)
        assert rep.l_triangles["min_area"] == pytest.approx(2.0, abs=1e-9)
        assert rep.l_triangles["min_area"] > SQRT3

    def test_random_passes(self, random42_saturated):
        rep = check_thue(random42_saturated)
        assert rep.verdict
        assert rep.l_triangles["min_area"] >= SQRT3 - 1e-9
        assert rep.density <= HEX_DENSITY + 1e-9

    def test_check_selection(self, hex_torus):
        rep = check_thue(hex_torus, checks=("saturation", "empty_circle"))
        assert {c.check_id for c in rep.checks} == {"saturation", "empty_circle"}
        assert rep.verdict

    def test_unknown_check_rejected(self, hex_torus):
        with pytest.raises(ValueError):
            check_thue(hex_torus, checks=("no_such_check",))

    def test_sparse_unconstructible_reports_saturation(self):
        # one center on a small torus: the diagram's cells are undefined, but
        # the report still records the saturation failure and skips the rest
        from thuelab.packing import Domain, PackingConfiguration

        cfg = PackingConfiguration(Domain("torus", 5.0, 5.0), ((2.0, 2.0),))
        rep = check_thue(cfg)
        assert not rep.verdict
        assert not rep.saturated
        assert rep.saturation_witness["radius"] >= 2.0
        assert not rep.check("saturation").passed
        assert rep.check("empty_circle").skipped
        assert rep.check("tiling").skipped

    def test_monotone_negative(self, hex_minus_one, removed_center):
        rep = check_thue(hex_minus_one)
        assert not rep.verdict
        assert not rep.saturated
        failing = {c.check_id for c in rep.checks if not c.passed}
        assert {"saturation", "empty_circle", "vertex_distance_angle"} <= failing
        # all three point at the removed center's location
        for cid in ("saturation", "empty_circle", "vertex_distance_angle"):
            check = rep.check(cid)
            assert any(
                v["pos"]
                and math.hypot(
                    v["pos"][0] - removed_center.x, v["pos"][1] - removed_center.y
                )
                <= 1e-6
                for v in check.violations
            )

    def test_apex_choice_invariance(self, random42_diagram):
        # a regular vertex yields one L-triangle with the lex-smallest
        # generator as apex; any of the three labelings spans the same
        # lattice, so every check's outcome is independent of the choice
        from thuelab.lattice import is_admissible, shortest_vector
        from thuelab.verifier import check_sector

        vertices = [v for v in random42_diagram.vertices if v.degree == 3][:40]
        for v in vertices:
            pts = v.generator_points
            variants = [
                _mk_lt(pts[a], pts[(a + 1) % 3], pts[(a + 2) % 3], v.circumradius)
                for a in range(3)
            ]
            areas = [lt.area for lt in variants]
            dets = [abs(det(lt.basis)) for lt in variants]
            norms = [
                math.hypot(*shortest_vector(lt.basis)) for lt in variants
            ]
            for x in areas[1:]:
                assert abs(x - areas[0]) <= 1e-12 * max(areas)
            for x in dets[1:]:
                assert abs(x - dets[0]) <= 1e-12 * max(dets)
            for x in norms[1:]:
                assert abs(x - norms[0]) <= 1e-9
            assert len({is_admissible(lt.basis) for lt in variants}) == 1
            # the sector bound holds for every apex labeling
            for lt in variants:
                assert check_sector(lt).passed

    def test_equality_analysis(self, hex_diagram, random42_diagram):
        # areas within 1e-6 of sqrt(3) only come from hexagonal bases, and
        # their circumcircles stay safely below diameter 4
        for dia in (hex_diagram, random42_diagram):
            for lt in build_l_triangles(dia):
                if abs(lt.area - SQRT3) <= 1e-6:
                    res = lagrange_bound_check(lt.basis)
                    assert res.hexagonal
                    assert 2.0 * lt.circumradius < 4.0 - 1e-3


def test_empty_circle_memory_stays_linear():
    # the 1512-center jittered hex torus of the verify-large benchmark
    # workload (36 x 42 sites of spacing 2.3); a dense vertex x center
    # distance matrix here traces about 140 MB
    dy = 2.3 * SQRT3 / 2.0
    sites = [((i + 0.5 * (j % 2)) * 2.3, j * dy) for j in range(42) for i in range(36)]
    loose = PackingConfiguration(Domain("torus", 36 * 2.3, 42 * dy), tuple(sites))
    diagram = build_diagram(perturb(loose, seed=1, magnitude=0.12))
    assert diagram.config.n == 1512
    tracemalloc.start()
    try:
        result = check_empty_circle(diagram)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 16e6
