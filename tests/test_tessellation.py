import math
import random

import pytest

import oracles
from thuelab import backend
from thuelab.geometry import DEFAULT_TOL, Point, polygon_area
from thuelab.packing import Domain, PackingConfiguration, gen_random, greedy_saturate, perturb
from thuelab.tessellation import (
    BoxScanner,
    TorusScanner,
    build_diagram,
    classify_edge_pitteway,
    classify_vertex,
    delaunay,
    euler_check,
    largest_empty_circle,
    locate_point,
    voronoi_dual,
)

SQRT3 = math.sqrt(3.0)


def _dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


@pytest.fixture(scope="module")
def rsa_diagrams():
    """Diagrams of a saturated random torus and a saturated random box."""
    torus = greedy_saturate(gen_random(Domain("torus", 40.0, 40.0), seed=1))
    box = greedy_saturate(gen_random(Domain("box", 24.0, 24.0, margin=2.0), seed=5))
    return build_diagram(torus), build_diagram(box)


def _jittered_hex_torus(seed, cols=16, rows=16, spacing=2.5, holes=10):
    """A loose hexagonal torus lattice with `holes` sites removed (even
    column and row indices, so no two holes touch), each center then moved
    by at most 0.12: every hole takes one insertion to fill."""
    dy = spacing * SQRT3 / 2.0
    domain = Domain("torus", cols * spacing, rows * dy)
    sites = {
        (i, j): ((i + 0.5 * (j % 2)) * spacing, j * dy)
        for j in range(rows)
        for i in range(cols)
    }
    rng = random.Random(seed)
    removed = set(rng.sample([k for k in sites if k[0] % 2 == 0 and k[1] % 2 == 0], holes))
    loose = PackingConfiguration(
        domain, tuple(p for k, p in sites.items() if k not in removed)
    )
    return perturb(loose, seed=seed, magnitude=0.12)


class TestDelaunayTorus:
    def test_hex_triangle_count(self, hex_torus):
        tri = delaunay(hex_torus)
        assert tri.n_triangles == 72

    def test_hex_triangles_equilateral(self, hex_torus):
        tri = delaunay(hex_torus)
        for pts in tri.points:
            sides = sorted(
                _dist(pts[i], pts[(i + 1) % 3]) for i in range(3)
            )
            for s in sides:
                assert s == pytest.approx(2.0, abs=1e-9)

    def test_square_diagonal_split(self, square_torus):
        tri = delaunay(square_torus)
        assert tri.n_triangles == 72
        for pts in tri.points:
            sides = sorted(_dist(pts[i], pts[(i + 1) % 3]) for i in range(3))
            assert sides[0] == pytest.approx(2.0, abs=1e-9)
            assert sides[1] == pytest.approx(2.0, abs=1e-9)
            assert sides[2] == pytest.approx(2.0 * math.sqrt(2), abs=1e-9)

    def test_neighbors_consistent(self, hex_torus):
        tri = delaunay(hex_torus)
        for t, nbrs in enumerate(tri.neighbors):
            for n in nbrs:
                assert 0 <= n < tri.n_triangles
                assert t in tri.neighbors[n]

    def test_tiling(self, hex_torus, square_torus):
        for cfg in (hex_torus, square_torus):
            tri = delaunay(cfg)
            area = cfg.domain.area
            assert tri.triangle_area_sum() == pytest.approx(area, rel=1e-12)


class TestDelaunayBox:
    def test_three_points_one_triangle(self):
        cfg = PackingConfiguration(
            Domain("box", 10.0, 10.0), ((0.0, 0.0), (4.0, 0.0), (0.0, 4.0))
        )
        tri = delaunay(cfg)
        assert tri.n_triangles == 1
        assert sorted(tri.triangles[0]) == [0, 1, 2]

    def test_collinear_raises(self):
        from thuelab.geometry import DegenerateGeometryError

        cfg = PackingConfiguration(
            Domain("box", 10.0, 10.0), ((0.0, 0.0), (2.0, 0.0), (4.0, 0.0))
        )
        with pytest.raises(DegenerateGeometryError):
            delaunay(cfg)

    def test_delaunay_property_exact(self):
        cfg = gen_random(Domain("box", 15.0, 15.0), seed=31, max_failures=200)
        tri = delaunay(cfg)
        pts = cfg.centers
        for (a, b, c) in tri.triangles:
            pa, pb, pc = pts[a], pts[b], pts[c]
            for d, pd in enumerate(pts):
                if d in (a, b, c):
                    continue
                s = backend.incircle(
                    pa[0], pa[1], pb[0], pb[1], pc[0], pc[1], pd[0], pd[1]
                )
                assert s <= 0


class TestDelaunayPropertyTorus:
    @pytest.mark.parametrize("which", ["hex", "square", "random"])
    def test_no_center_strictly_inside_circumcircle(self, which, hex_torus, square_torus):
        if which == "hex":
            cfg = hex_torus
        elif which == "square":
            cfg = square_torus
        else:
            cfg = gen_random(Domain("torus", 12.0, 12.0), seed=8)
        tri = delaunay(cfg)
        w, h = cfg.domain.width, cfg.domain.height
        for (idx, sh, pts) in zip(tri.triangles, tri.shifts, tri.points):
            own = set(zip(idx, sh))
            pa, pb, pc = pts
            for ci, c in enumerate(cfg.centers):
                for sx in (-1, 0, 1):
                    for sy in (-1, 0, 1):
                        if (ci, (sx, sy)) in own:
                            continue
                        qx, qy = c[0] + sx * w, c[1] + sy * h
                        s = backend.incircle(
                            pa[0], pa[1], pb[0], pb[1], pc[0], pc[1], qx, qy
                        )
                        assert s <= 0


class TestVoronoiDual:
    def test_hex_cells_regular_hexagons(self, hex_diagram):
        for cell in hex_diagram.cells:
            assert len(cell.boundary) == 6
            assert cell.area == pytest.approx(2 * SQRT3, abs=1e-9)
            for corner in cell.boundary:
                assert _dist(corner, cell.center) == pytest.approx(
                    2 / SQRT3, abs=1e-9
                )

    def test_hex_vertices_regular(self, hex_diagram):
        assert len(hex_diagram.vertices) == 72
        for v in hex_diagram.vertices:
            assert v.degree == 3
            assert classify_vertex(v) == "regular"
            assert v.circumradius == pytest.approx(2 / SQRT3, abs=1e-9)

    def test_square_vertices_degenerate(self, square_diagram):
        assert len(square_diagram.vertices) == 36
        for v in square_diagram.vertices:
            assert v.degree == 4
            assert classify_vertex(v) == "degenerate"

    def test_square_cells(self, square_diagram):
        for cell in square_diagram.cells:
            assert len(cell.boundary) == 4
            assert cell.area == pytest.approx(4.0, abs=1e-12)

    def test_cells_convex_and_contain_center(self, hex_diagram, square_diagram):
        from thuelab.geometry import orient2d

        for dia in (hex_diagram, square_diagram):
            for cell in dia.cells:
                b = cell.boundary
                k = len(b)
                for i in range(k):
                    assert orient2d(b[i], b[(i + 1) % k], b[(i + 2) % k]) >= 0
                    # center strictly inside every edge's left half-plane
                    assert orient2d(b[i], b[(i + 1) % k], cell.center) > 0
                assert cell.area > math.pi  # every cell holds its unit circle

    def test_vertex_generators_cocircular(self, hex_diagram, square_diagram):
        for dia in (hex_diagram, square_diagram):
            for v in dia.vertices:
                for gp in v.generator_points:
                    assert abs(_dist(gp, v.position) - v.circumradius) <= dia.tol.eps_merge

    def test_edges_on_bisectors(self, hex_diagram, square_diagram, rsa_diagrams):
        for dia in (hex_diagram, square_diagram, *rsa_diagrams):
            for e in dia.edges:
                g1, g2 = e.generator_points
                for ep in e.endpoints:
                    assert abs(_dist(ep, g1) - _dist(ep, g2)) <= dia.tol.eps_merge

    def test_cell_tiling(self, hex_diagram, square_diagram):
        for dia in (hex_diagram, square_diagram):
            area = dia.config.domain.area
            assert dia.cell_area_sum() == pytest.approx(area, rel=1e-12)
            assert dia.polygon_area_sum() == pytest.approx(area, rel=1e-12)

    def test_perturbed_square_disintegrates(self, loose_square_torus):
        cfg = perturb(loose_square_torus, seed=7, magnitude=0.15)
        dia = build_diagram(cfg)
        degrees = {v.degree for v in dia.vertices}
        assert degrees == {3}
        # short connecting edges appear where degenerate vertices split
        assert min(e.length for e in dia.edges) < 0.5


class TestPitteway:
    def test_hex_all_pitteway(self, hex_diagram):
        assert all(e.pitteway == "pitteway" for e in hex_diagram.edges)

    def test_square_all_pitteway(self, square_diagram):
        assert all(e.pitteway == "pitteway" for e in square_diagram.edges)

    def test_classify_matches_stored(self, hex_diagram):
        for e in hex_diagram.edges:
            assert classify_edge_pitteway(e) == e.pitteway

    def test_non_pitteway_instance(self):
        # two far generators whose shared edge sits entirely above the
        # segment between them: one adjoining triangle is obtuse at its apex,
        # so both circumcenters fall on the same side
        pts = (
            (8.0, 8.0),  # x1
            (11.0, 8.0),  # x2
            (9.5, 6.6),  # apex below, obtuse
            (9.5, 10.2),  # apex above, acute
        )
        cfg = PackingConfiguration(Domain("box", 20.0, 20.0), pts)
        dia = build_diagram(cfg)
        labels = {e.generators: e.pitteway for e in dia.edges}
        assert labels[(0, 1)] == "non_pitteway"
        # sanity: some pitteway edges exist too
        assert "pitteway" in labels.values()

    def test_midpoint_on_edge_is_pitteway(self, square_diagram):
        # square lattice: each edge contains its generators' midpoint
        for e in square_diagram.edges:
            g1, g2 = e.generator_points
            mid = Point(0.5 * (g1[0] + g2[0]), 0.5 * (g1[1] + g2[1]))
            from thuelab.geometry import Segment, dist_point_segment

            assert dist_point_segment(mid, Segment(*e.endpoints)) <= 1e-9


class TestLargestEmptyCircle:
    def test_hex(self, hex_torus):
        _, r = largest_empty_circle(hex_torus)
        assert r == pytest.approx(2 / SQRT3, abs=1e-9)

    def test_square(self, square_torus):
        _, r = largest_empty_circle(square_torus)
        assert r == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_hex_minus_one(self, hex_minus_one, removed_center):
        pos, r = largest_empty_circle(hex_minus_one)
        assert r == pytest.approx(2.0, abs=1e-9)
        assert _dist(pos, removed_center) < 1e-9

    def test_box_matches_grid_search(self):
        cfg = gen_random(Domain("box", 14.0, 14.0, margin=4.0), seed=17, max_failures=60)
        pos, r = largest_empty_circle(cfg)
        gx, gy, gr = oracles.grid_search_empty_circle(
            cfg.centers, (4.0, 4.0, 10.0, 10.0), step=0.01
        )
        assert abs(r - gr) <= 0.02


class TestLocatePoint:
    def test_center_is_interior(self, hex_diagram):
        loc = locate_point(hex_diagram, Point(0.0, 0.0))
        assert loc.kind == "interior"
        assert loc.centers == (0,)

    def test_edge_midpoint(self, hex_diagram):
        loc = locate_point(hex_diagram, Point(1.0, 0.0))
        assert loc.kind == "edge"
        assert loc.centers == (0, 1)

    def test_vertex(self, hex_diagram):
        loc = locate_point(hex_diagram, Point(1.0, 1 / SQRT3))
        assert loc.kind == "vertex"
        assert len(loc.centers) == 3
        assert loc.vertex is not None

    def test_square_degenerate_vertex(self, square_diagram):
        loc = locate_point(square_diagram, Point(1.0, 1.0))
        assert loc.kind == "vertex"
        assert len(loc.centers) == 4


class TestEuler:
    def test_hex(self, hex_diagram):
        assert (
            len(hex_diagram.vertices),
            len(hex_diagram.edges),
            len(hex_diagram.cells),
        ) == (72, 108, 36)
        assert euler_check(hex_diagram)

    def test_square(self, square_diagram):
        assert (
            len(square_diagram.vertices),
            len(square_diagram.edges),
            len(square_diagram.cells),
        ) == (36, 72, 36)
        assert euler_check(square_diagram)

    def test_random_saturated(self):
        from thuelab.packing import greedy_saturate

        cfg = greedy_saturate(gen_random(Domain("torus", 20.0, 20.0), seed=13))
        dia = build_diagram(cfg)
        assert euler_check(dia)

    def test_box_raises(self):
        cfg = PackingConfiguration(
            Domain("box", 10.0, 10.0), ((0.0, 0.0), (4.0, 0.0), (0.0, 4.0))
        )
        with pytest.raises(ValueError):
            euler_check(build_diagram(cfg))


class TestBoxOracleEquivalence:
    def test_cell_areas_match_halfplane_intersection(self):
        rng = random.Random(41)
        for trial in range(10):
            w = h = 14.0
            pts = []
            attempts = 0
            target = rng.randrange(4, 11)
            while len(pts) < target and attempts < 500:
                attempts += 1
                cand = (rng.uniform(0, w), rng.uniform(0, h))
                if all(_dist(cand, p) >= 2.0 for p in pts):
                    pts.append(cand)
            if len(pts) < 3:
                continue
            cfg = PackingConfiguration(Domain("box", w, h), tuple(pts))
            try:
                dia = build_diagram(cfg)
            except Exception:
                continue
            for cell in dia.cells:
                want = oracles.halfplane_cell_area(w, h, pts, cell.center_index)
                assert cell.area == pytest.approx(want, rel=1e-8)


class TestBoundaryStraddlingVertices:
    @pytest.mark.parametrize("delta", [1e-15, -1e-15, 0.3, -0.7])
    def test_translated_lattices_build(self, hex_torus, square_torus, delta):
        # translating a lattice puts Voronoi vertices within an ulp of the
        # periodic rectangle boundary; the canonical reduction must stay
        # consistent across periodic copies
        import dataclasses

        for base in (hex_torus, square_torus):
            dom = base.domain
            centers = tuple(
                dom.wrap(p[0] + delta, p[1] + delta) for p in base.centers
            )
            cfg = dataclasses.replace(base, centers=centers)
            dia = build_diagram(cfg)
            assert len(dia.vertices) == len(build_diagram(base).vertices)
            assert dia.cell_area_sum() == pytest.approx(dom.area, rel=1e-9)
            for v in dia.vertices:
                assert v.circumradius < 2.0


class TestBoxEndToEnd:
    def test_hex_box_interior_cells(self):
        from thuelab.packing import gen_hexagonal, is_saturated

        cfg = gen_hexagonal(Domain("box", 20.0, 20.0, margin=4.0))
        assert is_saturated(cfg).saturated
        dia = build_diagram(cfg)
        analyzable = [c for c in dia.cells if c.analyzable]
        assert analyzable
        assert dia.excluded_cells == len(dia.cells) - len(analyzable)
        for cell in analyzable:
            assert cell.area == pytest.approx(2 * SQRT3, abs=1e-9)
        # interior hexagonal edges are all Pitteway; boundary stubs are dropped
        assert all(e.pitteway == "pitteway" for e in dia.edges)

    def test_hex_box_verdict(self):
        from thuelab.packing import gen_hexagonal
        from thuelab.verifier import check_thue

        rep = check_thue(gen_hexagonal(Domain("box", 20.0, 20.0, margin=4.0)))
        assert rep.verdict
        assert rep.saturated
        assert rep.excluded_cells > 0

    def test_square_box_verdict(self):
        from thuelab.packing import gen_square
        from thuelab.verifier import check_thue

        rep = check_thue(gen_square(Domain("box", 20.0, 20.0, margin=4.0)))
        assert rep.verdict


class TestDuality:
    def test_edge_generators_are_delaunay_edges(self, hex_torus, square_torus, rsa_diagrams):
        # every Voronoi edge's generator pair occurs as a canonical triangle
        # edge (same pair at the same relative periodic offset), at
        # consecutive places in the generator ring of each vertex the edge
        # names; there the ring's generator points, moved with the vertex
        # onto the edge's endpoint (a torus edge may run to a periodic
        # translate), are the edge's generator points
        from thuelab.tessellation import _edge_key

        tori = [voronoi_dual(delaunay(cfg)) for cfg in (hex_torus, square_torus)]
        for dia in (*tori, *rsa_diagrams):
            tri = dia.triangulation
            torus = dia.config.domain.is_torus
            eps = dia.tol.eps_merge
            tri_edges = set()
            for idx, sh in zip(tri.triangles, tri.shifts):
                for k in range(3):
                    a, b = (k + 1) % 3, (k + 2) % 3
                    tri_edges.add(_edge_key(idx[a], sh[a], idx[b], sh[b]))
            for e in dia.edges:
                for vi, end in zip(e.vertex_indices, e.endpoints):
                    if vi < 0:
                        continue  # a box hull ray names one vertex
                    v = dia.vertices[vi]
                    tx, ty = (end[0] - v.position[0], end[1] - v.position[1]) if torus else (0, 0)
                    d = v.degree
                    matched = False
                    for t in range(d):
                        for p, q in ((t, (t + 1) % d), ((t + 1) % d, t)):
                            if (v.generators[p], v.generators[q]) != e.generators:
                                continue
                            gp, gq = v.generator_points[p], v.generator_points[q]
                            moved = ((gp[0] + tx, gp[1] + ty), (gq[0] + tx, gq[1] + ty))
                            if max(map(_dist, moved, e.generator_points)) > eps:
                                continue
                            key = _edge_key(
                                v.generators[p],
                                v.generator_shifts[p],
                                v.generators[q],
                                v.generator_shifts[q],
                            )
                            matched = matched or key in tri_edges
                    assert matched


class TestStructuralInvariantSweep:
    """The full invariant battery over a spread of random saturated tori."""

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_all_invariants(self, seed):
        from thuelab.geometry import orient2d
        from thuelab.packing import greedy_saturate
        from thuelab.verifier import build_l_triangles

        cfg = greedy_saturate(gen_random(Domain("torus", 16.0, 16.0), seed=seed))
        tri = delaunay(cfg)
        dia = voronoi_dual(tri)
        area = cfg.domain.area
        tol = dia.tol

        # tiling: triangles, cells and vertex polygons all cover the torus
        assert tri.triangle_area_sum() == pytest.approx(area, rel=1e-9)
        assert dia.cell_area_sum() == pytest.approx(area, rel=1e-9)
        assert dia.polygon_area_sum() == pytest.approx(area, rel=1e-9)

        # combinatorics
        assert euler_check(dia)
        assert len(tri.triangles) == sum(v.degree - 2 for v in dia.vertices)

        # vertices: cocircular generators, saturated radii
        for v in dia.vertices:
            assert v.degree >= 3
            assert v.circumradius < 2.0
            for gp in v.generator_points:
                assert abs(_dist(gp, v.position) - v.circumradius) <= tol.eps_merge

        # edges: positive length, bisector property, two distinct vertices
        for e in dia.edges:
            assert e.length > tol.eps_eq
            g1, g2 = e.generator_points
            for ep in e.endpoints:
                assert abs(_dist(ep, g1) - _dist(ep, g2)) <= tol.eps_merge

        # cells: convex, contain their center and their unit circle
        for cell in dia.cells:
            b = cell.boundary
            k = len(b)
            for i in range(k):
                assert orient2d(b[i], b[(i + 1) % k], b[(i + 2) % k]) >= 0
                assert orient2d(b[i], b[(i + 1) % k], cell.center) > 0
            assert cell.area > math.pi

        # L-triangles tile and sit on their vertex circles
        lts = build_l_triangles(dia)
        assert sum(lt.area for lt in lts) == pytest.approx(area, rel=1e-9)
        assert len(lts) == len(tri.triangles)


class TestTorusScanner:
    def test_incremental_matches_rebuild_stepwise(self):
        # drive a sparse packing to saturation, checking after every insert
        # that the incremental block agrees with a from-scratch build
        import dataclasses

        cfg = gen_random(Domain("torus", 10.0, 10.0), seed=77, max_failures=30)
        scanner = TorusScanner(cfg)
        centers = list(cfg.centers)
        for _ in range(200):
            pos, r = scanner.max_empty()
            fresh_pos, fresh_r = largest_empty_circle(
                dataclasses.replace(cfg, centers=tuple(centers))
            )
            assert r == pytest.approx(fresh_r, abs=1e-9)
            assert _dist(pos, fresh_pos) <= 1e-7
            if r < 2.0 - 1e-9:
                break
            scanner.insert(pos)
            centers.append(pos)
        else:
            pytest.fail("saturation loop did not converge")

    @pytest.mark.parametrize(
        "name",
        ["rsa40-0", "rsa40-1", "rsa40-2", "rsa40-3", "rsa40-4", "sparse10", "jittered-hex"],
    )
    def test_heap_matches_full_rescan_stepwise(self, name):
        # at every saturation step the heap's top is exactly the maximum of
        # a full rescan of the block, with the same tie-break, and the live
        # heap entries are exactly the rescan's keys
        if name.startswith("rsa40"):
            cfg = gen_random(Domain("torus", 40.0, 40.0), seed=int(name[-1]))
        elif name == "sparse10":
            cfg = gen_random(Domain("torus", 10.0, 10.0), seed=77, max_failures=30)
        else:
            cfg = _jittered_hex_torus(seed=5)
        scanner = TorusScanner(cfg)
        block = scanner._block
        added = []
        for _ in range(400):
            keys = oracles.torus_block_rescan(block.tri, block.labels, cfg.domain)
            pos, r = scanner.max_empty()
            assert (-r, pos[0], pos[1]) == keys[0]
            assert sorted(entry[:3] for entry in scanner._live.values()) == keys
            if r < 2.0 - DEFAULT_TOL.eps_eq:
                break
            scanner.insert(pos)
            added.append(pos)
        else:
            pytest.fail("saturation loop did not converge")
        assert added
        assert greedy_saturate(cfg).centers == cfg.centers + tuple(added)

    def test_incremental_matches_rebuild(self, hex_minus_one):
        scanner = TorusScanner(hex_minus_one)
        pos, r = scanner.max_empty()
        assert r == pytest.approx(2.0, abs=1e-9)
        scanner.insert(pos)
        _, r2 = scanner.max_empty()
        assert r2 < 2.0 - 1e-9
        # a fresh build of the augmented configuration agrees
        import dataclasses

        aug = dataclasses.replace(
            hex_minus_one, centers=hex_minus_one.centers + (pos,)
        )
        _, r3 = largest_empty_circle(aug)
        assert r3 == pytest.approx(r2, abs=1e-9)


def _jittered_hex_box(seed, cols=9, rows=11, spacing=2.5, holes=5):
    """A loose hexagonal lattice in a 24 x 24 box (margin 4) with `holes`
    sites of even column and row index removed inside [5, 19]^2, each
    center then moved by at most 0.12, like perfbench's box workload."""
    dy = spacing * SQRT3 / 2.0
    sites = {
        (i, j): (0.75 + (i + 0.5 * (j % 2)) * spacing, 0.75 + j * dy)
        for j in range(rows)
        for i in range(cols)
    }
    rng = random.Random(seed)
    inner = [
        k for k, (x, y) in sites.items()
        if k[0] % 2 == 0 and k[1] % 2 == 0 and 5.0 <= x <= 19.0 and 5.0 <= y <= 19.0
    ]
    removed = set(rng.sample(inner, holes))
    loose = PackingConfiguration(
        Domain("box", 24.0, 24.0, margin=4.0),
        tuple(p for k, p in sites.items() if k not in removed),
    )
    return perturb(loose, seed=seed, magnitude=0.12)


def _square3_box():
    """8 x 8 square grid of spacing 3 in a 24 x 24 box: 49 cocircular
    vertices, 25 of them empty circles of radius 3 / sqrt(2) to fill."""
    pts = [(1.5 + 3.0 * i, 1.5 + 3.0 * j) for j in range(8) for i in range(8)]
    return PackingConfiguration(Domain("box", 24.0, 24.0), tuple(pts))


class TestBoxScanner:
    """The incremental box scan answers exactly what a full build of the
    current packing answers, at every saturation step."""

    @staticmethod
    def _drive(cfg):
        """Saturate through a BoxScanner; at every step compare its answer
        with `_diagram_largest_empty_circle` of a fresh build and, while it
        scans incrementally, its live candidates with the build's."""
        from dataclasses import replace

        from thuelab.tessellation import _box_candidate_keys, _diagram_largest_empty_circle

        scanner = BoxScanner(cfg)
        centers = list(cfg.centers)
        for _ in range(400):
            diagram = build_diagram(replace(cfg, centers=tuple(centers)))
            pos, r = scanner.max_empty()
            assert (pos, r) == _diagram_largest_empty_circle(diagram)
            if not scanner._rebuild:
                live = sorted((-c[2], c[0], c[1]) for c in scanner._cand.values())
                assert live == sorted(_box_candidate_keys(diagram))
            if r < 2.0 - DEFAULT_TOL.eps_eq:
                break
            scanner.insert(pos)
            centers.append(pos)
        else:
            pytest.fail("saturation loop did not converge")
        return tuple(centers)

    @pytest.mark.parametrize(
        "name",
        [
            "rsa20-m2-s0", "rsa20-m2-s1", "rsa20-m2-s2",
            "rsa24-m4-s0", "rsa24-m4-s1", "rsa24-m4-s2",
            "jittered-hex", "square3",
        ],
    )
    def test_matches_rebuild_stepwise(self, name, monkeypatch):
        from thuelab import tessellation

        rebuilds = []
        real = tessellation.build_diagram

        def counting(config, tol=DEFAULT_TOL):
            rebuilds.append(config.n)
            return real(config, tol)

        # counts the scanner's full builds only: the test's own oracle
        # builds go through the name imported at the top of this module
        monkeypatch.setattr(tessellation, "build_diagram", counting)
        if name.startswith("rsa"):
            side, margin, seed = name[3:].split("-")
            cfg = gen_random(
                Domain("box", float(side), float(side), margin=float(margin[1:])),
                seed=int(seed[1:]),
            )
        elif name == "jittered-hex":
            cfg = _jittered_hex_box(seed=3)
        else:
            cfg = _square3_box()
        centers = self._drive(cfg)
        added = len(centers) - cfg.n
        assert added > 0
        if name == "square3":
            # cocircular from the start: every step is a full build
            assert (cfg.n, added) == (64, 25)
            assert len(rebuilds) == added + 1
        else:
            assert rebuilds == []
        assert greedy_saturate(cfg).centers == centers

    def test_hull_changing_insertion_retriangulates(self, monkeypatch):
        # a sparse box: some insertions land outside the hull of the
        # centers, and the kernel reports triangles with a synthetic corner
        seeds = []
        real = BoxScanner._seed

        def counting(scanner):
            seeds.append(len(scanner._centers))
            return real(scanner)

        monkeypatch.setattr(BoxScanner, "_seed", counting)
        cfg = gen_random(Domain("box", 30.0, 30.0, margin=2.0), seed=0, max_failures=15)
        centers = self._drive(cfg)
        assert len(centers) - cfg.n > 30
        assert len(seeds) >= 2 and seeds[0] == cfg.n
        assert greedy_saturate(cfg).centers == centers

    def test_invalid_insertion_raises_like_a_build(self):
        # with margin 0 a region corner can be the largest empty circle;
        # the far corner lies outside the half-open box, and the next
        # answer comes from a build, whose validation rejects it
        cfg = gen_random(Domain("box", 20.0, 20.0, margin=0.0), seed=3, max_failures=30)
        with pytest.raises(ValueError, match="outside"):
            greedy_saturate(cfg)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_corner_zero_comes_last_in_spatial_order(self, seed):
        # the scanner's circumcenter anchor: in a fresh box triangulation
        # every triangle's kernel corner 0 is its corner of highest
        # spatial rank
        from thuelab.tessellation import _box_triangulate, _spatial_grid, _spatial_rank

        cfg = gen_random(Domain("box", 30.0, 30.0), seed=seed)
        xs = [p[0] for p in cfg.centers]
        ys = [p[1] for p in cfg.centers]
        rank = _spatial_rank(_spatial_grid(xs, ys), xs, ys)
        _, _, _, tri, perm = _box_triangulate(cfg)
        rows = tri.triangle_slots()
        assert rows
        for _, a, b, c in rows:
            assert rank(perm[a]) > max(rank(perm[b]), rank(perm[c]))

    def test_two_vertex_edges_run_from_smaller_endpoint(self):
        cfg = greedy_saturate(gen_random(Domain("box", 30.0, 30.0), seed=4))
        dia = build_diagram(cfg)
        both = [e for e in dia.edges if min(e.vertex_indices) >= 0]
        assert both
        for e in both:
            va, vb = e.vertex_indices
            assert dia.vertices[va].position < dia.vertices[vb].position

    def test_requires_box(self, hex_torus):
        with pytest.raises(ValueError):
            BoxScanner(hex_torus)


class TestSharedAssembly:
    """Torus and box share the vertex assembly, the center -> vertex
    incidence and the largest-empty-circle routine of a built diagram."""

    def test_box_check_thue_triangulates_once(self, monkeypatch):
        from thuelab.packing import gen_hexagonal
        from thuelab.verifier import check_thue

        built = []
        real = backend.Triangulator

        def counting(bounds):
            built.append(bounds)
            return real(bounds)

        cfg = gen_hexagonal(Domain("box", 20.0, 20.0, margin=4.0))
        monkeypatch.setattr(backend, "Triangulator", counting)
        assert check_thue(cfg).verdict
        assert len(built) == 1

    def test_box_saturation_extremal_is_largest_empty_circle(self):
        from thuelab.verifier import check_thue

        cfg = gen_random(Domain("box", 14.0, 14.0, margin=4.0), seed=17, max_failures=60)
        sat = next(c for c in check_thue(cfg).checks if c.check_id == "saturation")
        assert sat.extremal == largest_empty_circle(cfg)[1]

    def test_torus_largest_empty_circle_is_scanner(self, hex_minus_one):
        cfg = gen_random(Domain("torus", 16.0, 16.0), seed=5)
        for c in (cfg, hex_minus_one):
            assert largest_empty_circle(c) == TorusScanner(c).max_empty()

    def test_perturbed_square_box_corners_name_incident_vertices(self):
        pts = [(1.0 + 2.2 * i, 1.0 + 2.2 * j) for j in range(9) for i in range(9)]
        square = PackingConfiguration(Domain("box", 20.0, 20.0, margin=4.0), tuple(pts))
        cfg = perturb(square, seed=1, magnitude=1e-6)
        dia = build_diagram(cfg)
        named = 0
        for cell in dia.cells:
            for vi in cell.vertex_indices:
                if vi >= 0:
                    assert cell.center_index in dia.vertices[vi].generators
                    named += 1
        assert named > 0

    def test_box_nearest_center_grid_matches_full_scan(self):
        from thuelab.packing import _NeighborGrid, gen_square

        rng = random.Random(11)
        configs = [
            gen_random(Domain("box", 30.0, 30.0), seed=3),
            gen_square(Domain("box", 20.0, 20.0, margin=4.0)),
        ]
        for cfg in configs:
            grid = _NeighborGrid(cfg.domain, cfg.centers)
            side = cfg.domain.width / grid.ncx
            queries = [(rng.uniform(-5.0, 35.0), rng.uniform(-5.0, 35.0)) for _ in range(2000)]
            # the centers, and points one cell from them (on cell
            # boundaries for the square grid)
            queries += list(cfg.centers)
            queries += [(c[0] + side, c[1]) for c in cfg.centers]
            for q in queries:
                full = min(cfg.domain.distance(q, c) for c in cfg.centers)
                assert grid.nearest(q)[0] == full

    def test_box_nearest_center_grid_bounded_far_from_clustered_centers(self):
        from thuelab.packing import _NeighborGrid

        class CountingBuckets(dict):
            lookups = 0

            def get(self, key, default=None):
                CountingBuckets.lookups += 1
                return super().get(key, default)

        # Three centers about 2 apart in the middle of a 2000-wide box: the
        # cell side is 2, so a corner query is ~700 empty rings away.
        cfg = PackingConfiguration(
            Domain("box", 2000.0, 2000.0), [(1000.0, 1000.0), (1002.0, 1000.5), (1001.0, 1002.0)]
        )
        grid = _NeighborGrid(cfg.domain, cfg.centers)
        grid.cells = CountingBuckets(grid.cells)
        for q in [(0.0, 0.0), (2000.0, 0.0), (0.0, 2000.0), (2000.0, 2000.0), (1001.0, 1001.0)]:
            CountingBuckets.lookups = 0
            full = min(cfg.domain.distance(q, c) for c in cfg.centers)
            assert grid.nearest(q)[0] == full
            assert CountingBuckets.lookups <= cfg.n


class TestBoxDelaunayCheck:
    """The box triangulation is verified exactly at every size: each
    interior edge locally Delaunay, plus hull coverage."""

    def test_runs_above_256_centers(self, monkeypatch):
        # a perturbed 16 x 17 hex lattice: triangulated within bounds as
        # tight as its bounding box, these 272 centres lose a hull
        # triangle, which only the check notices; the default bounds
        # triangulate them once
        from thuelab import tessellation

        sites = [
            (0.75 + (i + 0.5 * (j % 2)) * 2.5, 0.75 + j * 2.5 * SQRT3 / 2.0)
            for j in range(17)
            for i in range(16)
        ]
        loose = PackingConfiguration(Domain("box", 40.0, 40.0, margin=4.0), tuple(sites))
        cfg = perturb(loose, seed=18, magnitude=0.12)
        verdicts = []
        real = tessellation._verify_box_delaunay

        def recording(*args):
            verdicts.append(real(*args))
            return verdicts[-1]

        monkeypatch.setattr(tessellation, "_verify_box_delaunay", recording)
        assert delaunay(cfg).triangles
        assert verdicts == [True]
        verdicts.clear()
        monkeypatch.setattr(tessellation, "_BOX_INFLATE", 1.0)
        tri = delaunay(cfg)
        assert verdicts == [False, True]

        def half_hull(points):
            hull = []
            for p in points:
                while len(hull) >= 2 and backend.orient2d(*hull[-2], *hull[-1], *p) <= 0:
                    hull.pop()
                hull.append(p)
            return hull[:-1]

        pts = sorted(cfg.centers)
        hull = half_hull(pts) + half_hull(pts[::-1])
        assert tri.triangle_area_sum() == pytest.approx(polygon_area(hull), rel=1e-12)
        assert tri.n_triangles == 2 * cfg.n - 2 - len(hull)

    def test_rejects_one_flipped_edge(self):
        from thuelab.tessellation import _ZERO_SHIFTS, _triangle_neighbors, _verify_box_delaunay

        cfg = gen_random(Domain("box", 15.0, 15.0), seed=31, max_failures=200)
        pts = cfg.centers

        def edge_map(tris):
            return _triangle_neighbors(tris, [_ZERO_SHIFTS] * len(tris), closed=False)[1]

        def check(tris):
            return _verify_box_delaunay(cfg, tris, edge_map(tris))

        tris = delaunay(cfg).triangles
        assert check(tris)
        # flipping any interior edge of a convex quadrilateral keeps the hull
        # covered, so only the local test can notice
        flipped = 0
        for uses in edge_map(tris).values():
            if len(uses) != 2:
                continue
            (t, k), (u, l) = uses
            p, e1, e2 = tris[t][k], tris[t][(k + 1) % 3], tris[t][(k + 2) % 3]
            q = tris[u][l]
            new = [(p, e1, q), (q, e2, p)]
            if any(
                backend.orient2d(*pts[a], *pts[b], *pts[c]) <= 0 for (a, b, c) in new
            ):
                continue  # not a convex quadrilateral: the flip is not a triangulation
            bad = [x for s, x in enumerate(tris) if s not in (t, u)] + new
            assert not check(bad)
            flipped += 1
        assert flipped > 10


class TestOneBuildProduct:
    """A build returns one diagram; the triangulation is a view on it, and
    neither holds the other in a reference cycle."""

    def test_delaunay_and_voronoi_dual_share_one_diagram(self, hex_torus):
        tri = delaunay(hex_torus)
        dia = voronoi_dual(tri)
        assert dia.triangulation.triangles is tri.triangles
        assert voronoi_dual(dia.triangulation) is dia

    @pytest.mark.parametrize("kind", ["torus", "box"])
    def test_no_reference_cycle(self, kind):
        import gc
        import weakref

        from thuelab.verifier import check_thue

        if kind == "torus":
            cfg = gen_random(Domain("torus", 16.0, 16.0), seed=5)
        else:
            cfg = gen_random(Domain("box", 15.0, 15.0), seed=31, max_failures=200)
        gc.disable()
        try:
            dia = build_diagram(cfg)
            check_thue(cfg, diagram=dia)  # fills the diagram's caches
            dia_ref = weakref.ref(dia)
            del dia
            assert dia_ref() is None

            tri = delaunay(cfg)
            tri.triangle_area_sum()
            behind_ref = weakref.ref(voronoi_dual(tri))
            del tri
            assert behind_ref() is None
        finally:
            gc.enable()
