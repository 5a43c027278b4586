"""Per-packing verification pipeline.

Runs the structural checks that hold around every Voronoi vertex of a
saturated packing (empty circumcircle with diameter below 4, vertex
distance below 2, vertex angles above pi/3, nearest-neighbor edge
crossing), dissects the cocircular polygon of every vertex into
L-triangles (apex plus two base centers on one circumcircle), relates each
L-triangle to a lattice fundamental parallelogram, and chains the results
into the density certificate: every L-triangle area is at least sqrt(3),
the L-triangles tile the torus, hence the packing density is at most
pi / (2 * sqrt(3)).
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from thuelab import lattice
from thuelab.geometry import (
    DEFAULT_TOL,
    DegenerateGeometryError,
    Point,
    Segment,
    ToleranceConfig,
    dist_point_segment,
    polygon_area,
)
from thuelab.lattice import Basis2, HEX_MIN_DET
from thuelab.packing import PackingConfiguration, _NeighborGrid
from thuelab.tessellation import (
    VoronoiCell,
    VoronoiDiagram,
    _diagram_largest_empty_circle,
    _in_analysis_region,
    build_diagram,
    largest_empty_circle,
)

__all__ = [
    "LTriangle",
    "CheckResult",
    "Report",
    "ParallelogramResult",
    "ALL_CHECKS",
    "check_empty_circle",
    "check_vertex_distance_angle",
    "check_nearest_edge",
    "report_pitteway",
    "build_l_triangles",
    "check_sector",
    "related_parallelogram",
    "check_area_relation",
    "local_density",
    "check_thue",
]

#: density of the hexagonal lattice packing, the bound being certified
HEX_DENSITY = math.pi / HEX_MIN_DET


@dataclass(frozen=True)
class LTriangle:
    """Fan triangle of a Voronoi vertex's cocircular generator polygon.

    The apex is the polygon's lexicographically smallest generator; the
    basis spans the related fundamental parallelogram (base1 - apex,
    base2 - apex). All three corners lie on the vertex's circumcircle."""

    vertex_index: int
    apex_index: int
    base_indices: tuple
    apex_point: Point
    base_points: tuple
    circumradius: float

    @property
    def basis(self) -> Basis2:
        ax, ay = self.apex_point
        (b1x, b1y), (b2x, b2y) = self.base_points
        return Basis2((b1x - ax, b1y - ay), (b2x - ax, b2y - ay))

    @property
    def area(self) -> float:
        return polygon_area([self.apex_point, *self.base_points])


class ParallelogramResult(NamedTuple):
    basis: Basis2
    fourth_point: Point
    admissible: bool


@dataclass
class CheckResult:
    """Outcome of one check: pass/fail, the extremal measured quantity, and
    the failing locations (empty iff passed). A check is `skipped` when the
    structures it needs could not be built (then passed is False too)."""

    check_id: str
    passed: bool
    extremal: object  # float or tuple of floats
    violations: list = field(default_factory=list)
    skipped: bool = False

    def add_violation(self, loc: str, value: float, pos=None):
        self.violations.append(
            {"loc": loc, "value": value, "pos": [pos[0], pos[1]] if pos else None}
        )
        self.passed = False


@dataclass
class Report:
    n: int
    domain: dict
    density: float
    saturated: bool
    saturation_witness: Optional[dict]
    checks: list
    l_triangles: dict
    verdict: bool
    tolerances: dict
    excluded_cells: int = 0

    def check(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "domain": self.domain,
            "density": self.density,
            "saturated": self.saturated,
            "saturation_witness": self.saturation_witness,
            "checks": [
                {
                    "id": c.check_id,
                    "pass": c.passed,
                    "extremal": list(c.extremal)
                    if isinstance(c.extremal, tuple)
                    else c.extremal,
                    "violations": c.violations,
                    "skipped": c.skipped,
                }
                for c in self.checks
            ],
            "l_triangles": self.l_triangles,
            "verdict": self.verdict,
            "tolerances": self.tolerances,
            "excluded_cells": self.excluded_cells,
        }


ALL_CHECKS = (
    "saturation",
    "empty_circle",
    "vertex_distance_angle",
    "nearest_neighbor_edge",
    "pitteway",
    "sector_clearance",
    "parallelogram_admissible",
    "area_identity",
    "determinant_bound",
    "tiling",
    "local_density",
    "density_bound",
)


def _analysis_vertices(diagram: VoronoiDiagram):
    """Vertices taking part in the checks: all of them on a torus; on a box
    only those whose circumdisk stays inside the margin-shrunk rectangle."""
    domain = diagram.config.domain
    if domain.is_torus:
        return list(diagram.vertices)
    return [v for v in diagram.vertices if _in_analysis_region(domain, v)]


def _analysis_cells(diagram: VoronoiDiagram):
    return [c for c in diagram.cells if c.analyzable]


def check_empty_circle(diagram: VoronoiDiagram) -> CheckResult:
    """Every vertex circumcircle must contain no center strictly inside and
    have diameter < 4; a diameter of 4 would leave room for one more unit
    circle, contradicting saturation. The nearest center of each vertex
    comes from a `_NeighborGrid` ring search, so memory stays linear."""
    tol = diagram.tol
    vertices = _analysis_vertices(diagram)
    result = CheckResult("empty_circle", True, 0.0)
    if not vertices:
        return result
    config = diagram.config
    nearest = _NeighborGrid(config.domain, config.centers).nearest
    max_diam = 0.0
    for v in vertices:
        dmin = nearest(v.position)[0]
        diam = 2.0 * v.circumradius
        max_diam = max(max_diam, diam)
        if dmin < v.circumradius - tol.eps_merge:
            result.add_violation(
                f"vertex:{v.index}:invaded", float(dmin), v.position
            )
        if not diam < 4.0 - tol.eps_eq:
            result.add_violation(f"vertex:{v.index}:diameter", diam, v.position)
    result.extremal = max_diam
    return result


def check_vertex_distance_angle(diagram: VoronoiDiagram) -> CheckResult:
    """Every cell corner lies at distance < 2 from the cell center, and the
    interior angle between the two incident cell edges exceeds pi/3."""
    tol = diagram.tol
    result = CheckResult("vertex_distance_angle", True, (0.0, math.pi))
    max_dist = 0.0
    min_angle = math.pi
    for cell in _analysis_cells(diagram):
        boundary = cell.boundary
        k = len(boundary)
        cx, cy = cell.center
        for t in range(k):
            px, py = boundary[t]
            d = math.hypot(px - cx, py - cy)
            max_dist = max(max_dist, d)
            if not d < 2.0 - tol.eps_eq:
                result.add_violation(
                    f"cell:{cell.center_index}:corner:{t}:distance", d, boundary[t]
                )
            prev = boundary[(t - 1) % k]
            nxt = boundary[(t + 1) % k]
            ux, uy = prev[0] - px, prev[1] - py
            vx, vy = nxt[0] - px, nxt[1] - py
            c = (ux * vx + uy * vy) / (math.hypot(ux, uy) * math.hypot(vx, vy))
            ang = math.acos(max(-1.0, min(1.0, c)))
            min_angle = min(min_angle, ang)
            if not ang >= math.pi / 3.0 - tol.eps_eq:
                result.add_violation(
                    f"cell:{cell.center_index}:corner:{t}:angle", ang, boundary[t]
                )
    result.extremal = (max_dist, min_angle)
    return result


def check_nearest_edge(diagram: VoronoiDiagram) -> CheckResult:
    """The nearest neighbor of every center contributes an edge to its cell,
    and the segment between the two centers crosses that edge (tested via
    the midpoint, which is where the segment meets the bisector). The
    neighbor comes from a `_NeighborGrid` ring search; ties resolve to the
    smallest index."""
    tol = diagram.tol
    config = diagram.config
    domain = config.domain
    result = CheckResult("nearest_neighbor_edge", True, 0.0)
    worst_gap = 0.0
    if config.n < 2:
        return result
    nearest = _NeighborGrid(domain, config.centers).nearest
    for cell in _analysis_cells(diagram):
        i = cell.center_index
        ci = config.centers[i]
        d_nn, j = nearest(ci, skip=i)
        cj = config.centers[j]
        # minimum-image position of the nearest neighbor relative to ci
        dx, dy = cj[0] - ci[0], cj[1] - ci[1]
        if domain.is_torus:
            w, h = domain.width, domain.height
            if dx > 0.5 * w:
                dx -= w
            elif dx < -0.5 * w:
                dx += w
            if dy > 0.5 * h:
                dy -= h
            elif dy < -0.5 * h:
                dy += h
        nn = Point(ci[0] + dx, ci[1] + dy)
        found = None
        for edge, endpoints, other in diagram.edges_of_cell(i):
            if math.hypot(other[0] - nn[0], other[1] - nn[1]) <= 1e-6:
                found = (edge, endpoints)
                break
        if found is None:
            result.add_violation(f"cell:{i}:no-edge-to-nearest", d_nn, ci)
            continue
        edge, endpoints = found
        if not edge.length > tol.eps_eq:
            result.add_violation(f"cell:{i}:edge-degenerate", edge.length, ci)
            continue
        mid = Point(0.5 * (ci[0] + nn[0]), 0.5 * (ci[1] + nn[1]))
        gap = dist_point_segment(mid, Segment(*endpoints))
        worst_gap = max(worst_gap, gap)
        if gap > tol.eps_eq:
            result.add_violation(f"cell:{i}:midpoint-off-edge", gap, mid)
    result.extremal = worst_gap
    return result


def report_pitteway(diagram: VoronoiDiagram) -> CheckResult:
    """Counts Pitteway vs non-Pitteway edges; informational, never fails."""
    non = sum(1 for e in diagram.edges if e.pitteway == "non_pitteway")
    return CheckResult("pitteway", True, float(non))


def fan_l_triangles(vertex):
    """L-triangle fan of one vertex's cocircular generator polygon, fanned
    from the lexicographically smallest generator (the polygon's first)."""
    gens = vertex.generators
    pts = vertex.generator_points
    return [
        LTriangle(
            vertex_index=vertex.index,
            apex_index=gens[0],
            base_indices=(gens[k], gens[k + 1]),
            apex_point=pts[0],
            base_points=(pts[k], pts[k + 1]),
            circumradius=vertex.circumradius,
        )
        for k in range(1, len(gens) - 1)
    ]


def build_l_triangles(diagram: VoronoiDiagram):
    """Dissect every analysis vertex's cocircular generator polygon into a
    fan of L-triangles from its lexicographically smallest generator.

    For a regular (degree-3) vertex the fan is the single triangle of its
    three generators; higher degrees yield degree - 2 triangles. Over all
    vertices of a torus the fans tile the whole rectangle."""
    out = []
    for v in _analysis_vertices(diagram):
        out.extend(fan_l_triangles(v))
    return out


def check_sector(lt: LTriangle, tol: ToleranceConfig = DEFAULT_TOL) -> CheckResult:
    """The base chord stays at distance >= 1 from the apex, so the apex's
    unit-circle sector cannot be cut by the chord."""
    d = dist_point_segment(lt.apex_point, Segment(*lt.base_points))
    result = CheckResult("sector_clearance", True, d)
    if not d >= 1.0 - tol.eps_eq:
        result.add_violation(
            f"vertex:{lt.vertex_index}:apex:{lt.apex_index}", d, lt.apex_point
        )
    return result


def related_parallelogram(
    lt: LTriangle, tol: ToleranceConfig = DEFAULT_TOL
) -> ParallelogramResult:
    """Complete the L-triangle to its fundamental parallelogram: the fourth
    point is the apex reflected through the base midpoint. The spanned
    lattice must be admissible (unit circles at its points do not overlap)."""
    basis = lt.basis
    ax, ay = lt.apex_point
    fourth = Point(ax + basis.b1[0] + basis.b2[0], ay + basis.b1[1] + basis.b2[1])
    return ParallelogramResult(basis, fourth, lattice.is_admissible(basis, tol))


def check_area_relation(lt: LTriangle) -> CheckResult:
    """Shoelace area of the L-triangle equals half the basis determinant
    (an arithmetic identity; any failure is an implementation bug)."""
    area = lt.area
    half_det = 0.5 * abs(lattice.det(lt.basis))
    rel = abs(area - half_det) / max(abs(area), abs(half_det), 1e-300)
    result = CheckResult("area_identity", True, rel)
    if rel > 1e-12:
        result.add_violation(
            f"vertex:{lt.vertex_index}:apex:{lt.apex_index}", rel, lt.apex_point
        )
    return result


def local_density(cell: VoronoiCell) -> float:
    """pi / cell area: the fraction of the cell covered by its unit circle."""
    if not cell.area > 0.0:
        raise ValueError(f"cell of center {cell.center_index} has no positive area")
    return math.pi / cell.area


def _merge(into: CheckResult, single: CheckResult, reduce_max: bool):
    if single.violations:
        into.violations.extend(single.violations)
        into.passed = False
    if reduce_max:
        into.extremal = max(into.extremal, single.extremal)
    else:
        into.extremal = min(into.extremal, single.extremal)


def _report_header(config, tol) -> dict:
    """The `n`, `domain`, `density` and `tolerances` fields of a report."""
    domain = config.domain
    return {
        "n": config.n,
        "domain": {
            "kind": domain.kind,
            "width": domain.width,
            "height": domain.height,
            "margin": domain.margin,
        },
        "density": config.density,
        "tolerances": {
            "eps_eq": tol.eps_eq,
            "eps_merge": tol.eps_merge,
            "eps_area": tol.eps_area,
        },
    }


def _unconstructible_report(config, tol, selected, pos, radius) -> Report:
    checks = []
    if "saturation" in selected:
        sat = CheckResult("saturation", False, radius)
        sat.add_violation("largest-empty-circle", radius, pos)
        checks.append(sat)
    for cid in ALL_CHECKS:
        if cid != "saturation" and cid in selected:
            checks.append(CheckResult(cid, False, None, skipped=True))
    return Report(
        **_report_header(config, tol),
        saturated=False,
        saturation_witness={"pos": [pos[0], pos[1]], "radius": radius},
        checks=checks,
        l_triangles={"count": 0, "min_area": 0.0, "max_area": 0.0},
        verdict=False,
    )


def check_thue(
    config: PackingConfiguration,
    tol: ToleranceConfig = DEFAULT_TOL,
    checks=None,
    diagram: Optional[VoronoiDiagram] = None,
) -> Report:
    """Full verification pipeline for one packing.

    Builds the tessellation, re-checks saturation, runs the structural
    checks, dissects into L-triangles, verifies the per-triangle facts and
    the lattice determinant bound, and closes the density chain. `checks`
    may select a subset of ALL_CHECKS; construction and saturation always
    run."""
    selected = set(ALL_CHECKS if checks is None else checks)
    unknown = selected - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    domain = config.domain
    if diagram is None:
        try:
            diagram = build_diagram(config, tol)
        except DegenerateGeometryError:
            # far-from-saturated torus configurations can defeat the cell
            # assembly (a cell may wrap around onto itself); the saturation
            # verdict is still well defined through the block scan of
            # `largest_empty_circle`, so report that failure and mark
            # everything else skipped
            pos, radius = largest_empty_circle(config, tol)
            if radius < 2.0 - tol.eps_eq:
                raise  # genuinely broken construction, not just sparsity
            return _unconstructible_report(config, tol, selected, pos, radius)

    results = []

    lec_pos, lec_radius = _diagram_largest_empty_circle(diagram)
    saturated = lec_radius < 2.0 - tol.eps_eq
    witness = (
        None
        if saturated
        else {"pos": [lec_pos[0], lec_pos[1]], "radius": lec_radius}
    )
    sat_check = CheckResult("saturation", saturated, lec_radius)
    if not saturated:
        sat_check.add_violation("largest-empty-circle", lec_radius, lec_pos)
        sat_check.passed = False
    if "saturation" in selected:
        results.append(sat_check)

    if "empty_circle" in selected:
        results.append(check_empty_circle(diagram))
    if "vertex_distance_angle" in selected:
        results.append(check_vertex_distance_angle(diagram))
    if "nearest_neighbor_edge" in selected:
        results.append(check_nearest_edge(diagram))
    if "pitteway" in selected:
        results.append(report_pitteway(diagram))

    lts = build_l_triangles(diagram)
    stats = {
        "count": len(lts),
        "min_area": min((lt.area for lt in lts), default=0.0),
        "max_area": max((lt.area for lt in lts), default=0.0),
    }

    if "sector_clearance" in selected:
        agg = CheckResult("sector_clearance", True, math.inf if lts else 0.0)
        for lt in lts:
            _merge(agg, check_sector(lt, tol), reduce_max=False)
        results.append(agg)

    # one Gauss reduction per L-triangle feeds both lattice-backed checks
    lattice_checks = {"parallelogram_admissible", "determinant_bound"} & selected
    if lattice_checks:
        adm = CheckResult("parallelogram_admissible", True, math.inf if lts else 0.0)
        bound = CheckResult("determinant_bound", True, math.inf if lts else 0.0)
        for lt in lts:
            res = lattice.lagrange_bound_check(lt.basis, tol)
            loc = f"vertex:{lt.vertex_index}:apex:{lt.apex_index}"
            adm.extremal = min(adm.extremal, res.shortest_norm)
            if not res.admissible:
                adm.add_violation(loc, res.shortest_norm, lt.apex_point)
            bound.extremal = min(bound.extremal, res.det_abs)
            if not res.bound_ok:
                bound.add_violation(loc, res.det_abs, lt.apex_point)
        if "parallelogram_admissible" in selected:
            results.append(adm)

    if "area_identity" in selected:
        agg = CheckResult("area_identity", True, 0.0)
        for lt in lts:
            _merge(agg, check_area_relation(lt), reduce_max=True)
        results.append(agg)

    if "determinant_bound" in selected and lattice_checks:
        results.append(bound)

    if "tiling" in selected and domain.is_torus:
        area = domain.area
        sums = {
            "cells": diagram.cell_area_sum(),
            "triangles": diagram.triangulation.triangle_area_sum(),
            "l_triangles": sum(lt.area for lt in lts),
        }
        agg = CheckResult("tiling", True, 0.0)
        for name, total in sums.items():
            rel = abs(total - area) / area
            agg.extremal = max(agg.extremal, rel)
            if rel > tol.eps_area:
                agg.add_violation(f"tiling:{name}", rel, None)
        results.append(agg)

    if "local_density" in selected:
        agg = CheckResult("local_density", True, 0.0)
        for cell in _analysis_cells(diagram):
            d = local_density(cell)
            agg.extremal = max(agg.extremal, d)
            if d > HEX_DENSITY + tol.eps_eq:
                agg.add_violation(f"cell:{cell.center_index}", d, cell.center)
        results.append(agg)

    if "density_bound" in selected and domain.is_torus:
        density = config.density
        agg = CheckResult("density_bound", True, density)
        if density > HEX_DENSITY + tol.eps_eq:
            agg.add_violation("global-density", density, None)
        results.append(agg)

    verdict = all(c.passed for c in results)
    return Report(
        **_report_header(config, tol),
        saturated=saturated,
        saturation_witness=witness,
        checks=results,
        l_triangles=stats,
        verdict=verdict,
        excluded_cells=diagram.excluded_cells,
    )
