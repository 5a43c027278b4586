"""Delaunay triangulation and Voronoi diagram of a packing.

Torus configurations are triangulated by replicating the centers over a
(2k+1) x (2k+1) block of periodic copies, running incremental
Bowyer-Watson (exact predicates) on the block, and keeping one canonical
representative of each periodic structure. Correctness of the replication
is *checked*, not assumed: every collected circumradius must stay below
k * min(width, height) / 2, and the canonical cocircular polygons must tile
the torus rectangle exactly; if either fails, k grows and the block is
rebuilt. Box configurations are triangulated directly, and the result is
verified with exact predicates at every size: each interior edge must be
locally Delaunay and the triangles must cover the convex hull.

Both domains then share one vertex assembly (`_assemble_vertices`): each
Delaunay triangle is a triple of labelled centers (center index plus
lattice shift; the shift is zero on a box) with its circumcenter.
Circumcenters closer than eps_merge are merged into a single Voronoi
vertex whose generator set is the union, which is what turns exactly
cocircular configurations (square grids) into degenerate vertices of
degree >= 4. The center -> vertex incidence of the merged vertices gives
the torus cells directly and names the corners of the clipped box cells.
Both domains also share one edge routine (`_voronoi_edges`): each
Delaunay edge whose two triangles belong to two distinct merged vertices
is one Voronoi edge between them, and on a box a hull edge is a ray. Box
edges are clipped to the rectangle by `_box_edge_segment`, which the box
scanner uses too.

A build has one product, the `VoronoiDiagram`. It keeps the triangle
lists of its Delaunay dual, and a `Triangulation` is a view on them:
`delaunay` returns the view of a fresh diagram and `voronoi_dual` the
diagram behind a view, so the two never refer to each other in a cycle.

The largest empty circle has two routes. A scanner, `TorusScanner` or
`BoxScanner`, triangulates once without assembling edges and cells and
keeps the kernel alive, so saturation inserts centers incrementally. Each
keeps a max-heap of its candidates keyed (-radius, position), the
lexicographic tie-break of a full scan, and after an insertion pushes
only what the triangles the kernel reports it created give, so a
saturation step costs the size of the insertion's cavity, not of the
packing. The torus candidates are the central triangles of the validated
block (`_validated_block`); the box candidates are the Voronoi vertices,
the edge crossings of the analysis-region boundary and the region
corners, scored by their nearest-center distance.
`_diagram_largest_empty_circle` reads the circle off a diagram that is
already built (the verifier's), for either domain; `largest_empty_circle`
asks a fresh scanner.
"""

import heapq
import math
from array import array
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Optional

import numpy as np

from thuelab import backend
from thuelab.geometry import (
    DEFAULT_TOL,
    DegenerateGeometryError,
    Point,
    Segment,
    ToleranceConfig,
    polygon_area,
    segments_intersect,
)
from thuelab.packing import Domain, PackingConfiguration, _NeighborGrid, _require_usable

__all__ = [
    "Triangulation",
    "VoronoiVertex",
    "VoronoiEdge",
    "VoronoiCell",
    "VoronoiDiagram",
    "TorusScanner",
    "BoxScanner",
    "delaunay",
    "voronoi_dual",
    "build_diagram",
    "classify_vertex",
    "classify_edge_pitteway",
    "largest_empty_circle",
    "locate_point",
    "euler_check",
    "PointLocation",
]

_MAX_RINGS = 8
_BOX_INFLATE = 1024.0  # first bounds of a box triangulation, in bounding boxes
_ZERO_SHIFTS = ((0, 0), (0, 0), (0, 0))  # lattice shifts of a box triangle


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class VoronoiVertex:
    """Merged circumcenter with its cocircular generator polygon.

    `generators` are center indices in CCW order around `position`,
    starting at the generator with lexicographically smallest coordinates;
    `generator_points` are their coordinates placed around `position`
    (torus: the periodic copy at lattice offset `generator_shifts`)."""

    index: int
    position: Point
    generators: tuple
    generator_shifts: tuple
    generator_points: tuple
    circumradius: float

    @property
    def degree(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class VoronoiEdge:
    """Voronoi edge between two merged vertices.

    `endpoints` and `generator_points` share one local frame (the frame of
    the first incident vertex); on a torus the second endpoint may be a
    periodic translate of its vertex's canonical position."""

    index: int
    generators: tuple  # pair of center indices
    vertex_indices: tuple
    endpoints: tuple  # pair of Point
    generator_points: tuple  # pair of Point, same frame
    pitteway: str  # "pitteway" | "non_pitteway"
    clipped: bool = False

    @property
    def length(self) -> float:
        (ax, ay), (bx, by) = self.endpoints
        return math.hypot(bx - ax, by - ay)


@dataclass(frozen=True)
class VoronoiCell:
    center_index: int
    center: Point
    boundary: tuple  # CCW corners, cell-local frame
    vertex_indices: tuple  # aligned with boundary; -1 where no merged vertex
    area: float
    analyzable: bool


class Triangulation:
    """Delaunay triangles as CCW center-index triples.

    On a torus each triple carries per-vertex integer lattice shifts (the
    torus lift) and concrete coordinates near the Voronoi vertex it
    belongs to; `neighbors[t][k]` is the triangle across the edge opposite
    vertex k (-1 on a box hull edge). A view on the triangle lists of the
    diagram it came from, which `voronoi_dual` returns."""

    def __init__(self, diagram: "VoronoiDiagram"):
        self._diagram = diagram
        self.config = diagram.config
        self.tol = diagram.tol
        self.triangles, self.shifts, self.points, self.neighbors = diagram._triangles

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_area_sum(self) -> float:
        return _triangle_area_sum(self.points)


@dataclass
class VoronoiDiagram:
    """The one product of a build: Voronoi vertices, edges and cells, plus
    the (triples, shifts, points, neighbors) lists of the dual Delaunay
    triangulation that `.triangulation` views."""

    config: PackingConfiguration
    tol: ToleranceConfig
    vertices: list
    edges: list
    cells: list
    _triangles: tuple = field(repr=False)
    excluded_cells: int = 0
    _incidence: dict = field(default=None, repr=False)

    @property
    def triangulation(self) -> Triangulation:
        return Triangulation(self)

    def cell_area_sum(self) -> float:
        return sum(c.area for c in self.cells)

    def polygon_area_sum(self) -> float:
        """Total area of the cocircular generator polygons of all vertices."""
        return _polygon_area_sum(self.vertices)

    def edges_of_cell(self, center_index: int):
        """Incident edges translated into the cell's local frame.

        Yields (edge, endpoints, other_generator_point): segment endpoints
        and the opposite generator position, both relative to the cell's
        actual center coordinates."""
        if self._incidence is None:
            incidence = {}
            for e in self.edges:
                for slot in (0, 1):
                    incidence.setdefault(e.generators[slot], []).append((e, slot))
            self._incidence = incidence
        cx, cy = self.config.centers[center_index]
        for e, slot in self._incidence.get(center_index, ()):
            gx, gy = e.generator_points[slot]
            tx, ty = cx - gx, cy - gy
            endpoints = (
                Point(e.endpoints[0][0] + tx, e.endpoints[0][1] + ty),
                Point(e.endpoints[1][0] + tx, e.endpoints[1][1] + ty),
            )
            ox, oy = e.generator_points[1 - slot]
            yield e, endpoints, Point(ox + tx, oy + ty)


# ---------------------------------------------------------------------------
# small helpers


def _spatial_grid(xs, ys):
    """(minx, miny, cell side, cells per side) of the serpentine sweep
    over these points: a square grid of int(sqrt(n)) cells per side on
    their bounding box."""
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny, 1e-30)
    ncell = max(1, int(math.sqrt(len(xs))))
    return minx, miny, span / ncell, ncell


def _spatial_rank(grid, xs, ys):
    """Sort key of point i in the serpentine sweep over `grid`; it reads
    the coordinate lists when called, so points appended later get keys
    too."""
    minx, miny, cell, ncell = grid

    def key(i):
        gx = min(int((xs[i] - minx) / cell), ncell - 1)
        gy = min(int((ys[i] - miny) / cell), ncell - 1)
        return (gy, gx if gy % 2 == 0 else -gx, xs[i], ys[i], i)

    return key


def _spatial_order(xs, ys):
    """Insertion order with spatial locality (serpentine grid sweep)."""
    n = len(xs)
    if n <= 2:
        return list(range(n))
    return sorted(range(n), key=_spatial_rank(_spatial_grid(xs, ys), xs, ys))


def _circumdata(px, py):
    """Vectorized circumcenters and radii of triangles whose corner
    coordinates are the rows of the (m, 3) arrays px, py."""
    ax, ay = px[:, 0], py[:, 0]
    bx, by = px[:, 1] - ax, py[:, 1] - ay
    cx, cy = px[:, 2] - ax, py[:, 2] - ay
    d = 2.0 * (bx * cy - by * cx)
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    return ax + ux, ay + uy, np.hypot(ux, uy)


def _wrap_arrays(domain, xs, ys):
    """Reduce coordinate arrays into the half-open torus rectangle, like
    `Domain.wrap`: a coordinate a few ulps below 0 reduces to the side
    length itself, which is clamped to 0."""
    w, h = domain.width, domain.height
    rx = xs - w * np.floor(xs / w)
    ry = ys - h * np.floor(ys / h)
    return np.where(rx >= w, 0.0, rx), np.where(ry >= h, 0.0, ry)


def _triangle_area_sum(point_triples):
    """Total unsigned area of triangles given by their corner coordinates,
    each computed relative to its first corner."""
    total = 0.0
    for (a, b, c) in point_triples:
        total += 0.5 * abs(
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        )
    return total


def _polygon_area_sum(vertices):
    return sum(polygon_area(v.generator_points) for v in vertices)


def _pitteway_label(generator_points, endpoints) -> str:
    seg = Segment(*generator_points)
    return "pitteway" if segments_intersect(seg, Segment(*endpoints)) else "non_pitteway"


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _cluster_points(xs, ys, eps, torus: Optional[Domain]):
    """Group points whose pairwise distance (torus metric if periodic) is
    below eps. Returns a list of index lists."""
    n = len(xs)
    uf = _UnionFind(n)
    order = sorted(range(n), key=lambda i: (xs[i], ys[i]))

    def close(i, j):
        if torus is not None:
            return torus.distance((xs[i], ys[i]), (xs[j], ys[j])) <= eps
        return math.hypot(xs[i] - xs[j], ys[i] - ys[j]) <= eps

    for a in range(n):
        i = order[a]
        for b in range(a + 1, n):
            j = order[b]
            if xs[j] - xs[i] > eps:
                break
            if close(i, j):
                uf.union(i, j)
    if torus is not None:
        w = torus.width
        left = [i for i in range(n) if xs[i] <= eps]
        right = [i for i in range(n) if xs[i] >= w - eps]
        for i in left:
            for j in right:
                if close(i, j):
                    uf.union(i, j)
    groups = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return list(groups.values())


def _ccw_start_lex(points):
    """Order positions CCW around their frame and rotate so the
    lexicographically smallest comes first. Returns the permutation."""
    # caller guarantees a strictly convex (cocircular) polygon around its
    # circumcenter, so angular order is well defined
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    idx = sorted(
        range(len(points)),
        key=lambda i: (math.atan2(points[i][1] - cy, points[i][0] - cx),),
    )
    start = min(range(len(idx)), key=lambda k: (points[idx[k]][0], points[idx[k]][1]))
    return idx[start:] + idx[:start]


def _edge_key(i, si, j, sj):
    """Translation-invariant identity of the (torus) edge between centers
    i and j at relative lattice offset sj - si."""
    a = (i, j, sj[0] - si[0], sj[1] - si[1])
    b = (j, i, si[0] - sj[0], si[1] - sj[1])
    return a if a <= b else b


# ---------------------------------------------------------------------------
# shared vertex assembly


def _assemble_vertices(config, tol, tris, labels, ccx, ccy):
    """Merged Voronoi vertices of labelled Delaunay triangles.

    `tris` are triples of kernel point ids, `labels[id]` is the
    (center index, sx, sy) copy that id stands for (zero shifts on a box),
    and ccx/ccy are the triangles' circumcenters in kernel coordinates. On
    a torus the circumcenters are reduced into the rectangle and merged in
    the torus metric. Returns the vertices sorted by position and the
    triangle -> vertex index map."""
    domain = config.domain
    torus = domain.is_torus
    w, h = domain.width, domain.height
    centers = config.centers
    rx, ry = _wrap_arrays(domain, ccx, ccy) if torus else (ccx, ccy)

    clusters = _cluster_points(
        rx.tolist(), ry.tolist(), tol.eps_merge, domain if torus else None
    )
    drafts = []
    for members in clusters:
        pos_idx = min(members, key=lambda t: (rx[t], ry[t]))
        pos = Point(float(rx[pos_idx]), float(ry[pos_idx]))
        gens = {}
        for t in members:
            tmx = tmy = 0
            if torus:
                # reduce relative to the cluster representative: a floor-based
                # reduction could disagree between periodic copies when the
                # circumcenter sits within an ulp of the rectangle boundary
                tmx = round((float(ccx[t]) - pos[0]) / w)
                tmy = round((float(ccy[t]) - pos[1]) / h)
            for kid in tris[t]:
                i, sx, sy = labels[kid]
                key = (i, sx - tmx, sy - tmy)
                if key not in gens:
                    # a box keeps the input coordinates exactly (adding a
                    # zero shift would turn -0.0 into 0.0)
                    gens[key] = (
                        Point(centers[i][0] + key[1] * w, centers[i][1] + key[2] * h)
                        if torus
                        else centers[i]
                    )
        items = sorted(gens.items())
        perm = _ccw_start_lex([p for _, p in items])
        ordered = [items[j] for j in perm]
        gen_idx = tuple(key[0] for key, _ in ordered)
        gen_shift = tuple((key[1], key[2]) for key, _ in ordered)
        gen_pts = tuple(p for _, p in ordered)
        radius = max(math.hypot(p[0] - pos[0], p[1] - pos[1]) for p in gen_pts)
        drafts.append((pos, gen_idx, gen_shift, gen_pts, radius, members))

    drafts.sort(key=lambda d: (d[0][0], d[0][1]))
    vertices = []
    tri_vertex = [-1] * len(tris)
    for vi, (pos, gen_idx, gen_shift, gen_pts, radius, members) in enumerate(drafts):
        vertices.append(VoronoiVertex(vi, pos, gen_idx, gen_shift, gen_pts, radius))
        for t in members:
            tri_vertex[t] = vi
    return vertices, tri_vertex


def _incident_vertices(config, vertices):
    """Per center, the (vertex, lattice shift) pairs of the vertices it
    generates, in vertex index order."""
    incident = [[] for _ in range(config.n)]
    for v in vertices:
        seen = set()
        for i, shift in zip(v.generators, v.generator_shifts):
            if i in seen:
                raise DegenerateGeometryError(
                    "cell touches the same vertex through two periodic copies; "
                    "domain too small relative to the empty circles"
                )
            seen.add(i)
            incident[i].append((v, shift))
    return incident


def _in_analysis_region(domain, v) -> bool:
    """Whether the circumdisk of vertex v lies inside the box shrunk by the
    margin: only such vertices, and the cells all of whose corners are
    such, take part in the checks."""
    m, r = domain.margin, v.circumradius
    x, y = v.position
    return (
        m <= x - r
        and x + r <= domain.width - m
        and m <= y - r
        and y + r <= domain.height - m
    )


# ---------------------------------------------------------------------------
# torus construction


class _TorusBlock:
    """Replicated-block triangulation of a torus configuration.

    Keeps the kernel triangulator alive so saturation can insert points
    incrementally (each torus insertion adds all (2k+1)^2 copies), and the
    block coordinates (as doubles, which numpy reads without a copy) and
    labels of its points in kernel order."""

    def __init__(self, config: PackingConfiguration, k: int):
        self.config = config
        self.k = k
        domain = config.domain
        w, h = domain.width, domain.height
        shifts = [(sx, sy) for sx in range(-k, k + 1) for sy in range(-k, k + 1)]
        self.shifts = shifts
        xs, ys, labels = [], [], []
        for i, (x, y) in enumerate(config.centers):
            for (sx, sy) in shifts:
                xs.append(x + sx * w)
                ys.append(y + sy * h)
                labels.append((i, sx, sy))
        order = _spatial_order(xs, ys)
        bounds = (-(k + 0.5) * w, -(k + 0.5) * h, (k + 1.5) * w, (k + 1.5) * h)
        tri = backend.Triangulator(bounds)
        self.xs = array("d", [xs[pos] for pos in order])
        self.ys = array("d", [ys[pos] for pos in order])
        self.labels = [labels[pos] for pos in order]
        for x, y in zip(self.xs, self.ys):
            tri.add_point(x, y)
        self.tri = tri
        self.n_centers = len(config.centers)

    def insert_center(self, p: Point):
        """Insert a new torus center (canonical coordinates) and all its
        periodic copies. Returns the kernel slots they wrote, each with its
        last triple of point ids: a later copy may rewrite a slot."""
        w = self.config.domain.width
        h = self.config.domain.height
        i = self.n_centers
        self.n_centers += 1
        written = {}
        for (sx, sy) in self.shifts:
            x, y = p[0] + sx * w, p[1] + sy * h
            self.tri.add_point(x, y)
            self.xs.append(x)
            self.ys.append(y)
            self.labels.append((i, sx, sy))
            for slot, a, b, c in self.tri.created_slots():
                written[slot] = (a, b, c)
        return written

    def central_triangles(self):
        """Kernel slots and point-id triples of the triangles with at least
        one vertex in the central copy, plus their circumcenters/radii
        (block coordinates)."""
        rows = self.tri.triangle_slots()
        listing = np.fromiter(chain.from_iterable(rows), dtype=np.int32, count=4 * len(rows))
        del rows  # the tuples outweigh the array; free them first
        listing = listing.reshape(-1, 4)
        ids = listing[:, 1:]
        in_center = np.fromiter(
            (sx == 0 and sy == 0 for _, sx, sy in self.labels),
            dtype=bool,
            count=len(self.labels),
        )
        central = in_center[ids].any(axis=1)
        if not central.any():
            raise DegenerateGeometryError("replicated triangulation is empty")
        slots, ids = listing[central, 0].tolist(), ids[central]
        cx, cy, r = _circumdata(np.frombuffer(self.xs)[ids], np.frombuffer(self.ys)[ids])
        return slots, ids.tolist(), cx, cy, r

    def radius_bound(self) -> float:
        return self.k * min(self.config.domain.width, self.config.domain.height) / 2.0


def _torus_vertices(config, tol, block):
    """Merged Voronoi vertices of the torus from the replicated block, and
    the slots and circumcenters/radii of the `central_triangles` listing
    they came from.

    Returns None when the block's canonical polygons fail to tile the
    torus rectangle, which signals that k must grow."""
    slots, central, ccx, ccy, rad = block.central_triangles()
    if float(np.max(rad)) >= block.radius_bound():
        return None
    vertices, _ = _assemble_vertices(config, tol, central, block.labels, ccx, ccy)
    # tiling validation: the canonical cocircular polygons must cover the
    # torus exactly once
    area = config.domain.area
    if abs(_polygon_area_sum(vertices) - area) > 1e-9 * max(1.0, area):
        return None
    return vertices, (slots, ccx, ccy, rad)


def _fan_triangulation(vertices):
    """Canonical triangles: fan every vertex's generator polygon from its
    lexicographically smallest generator. Returns their triples, shifts
    and points, and the triangle -> vertex index map."""
    triples, shifts, points, tri_vertex = [], [], [], []
    for v in vertices:
        gi, gs, gp = v.generators, v.generator_shifts, v.generator_points
        for k in range(1, len(gi) - 1):
            triples.append((gi[0], gi[k], gi[k + 1]))
            shifts.append((gs[0], gs[k], gs[k + 1]))
            points.append((gp[0], gp[k], gp[k + 1]))
            tri_vertex.append(v.index)
    return triples, shifts, points, tri_vertex


def _triangle_neighbors(triples, shifts, closed: bool):
    """Adjacency from translation-invariant edge keys. On a torus (closed)
    every edge must appear exactly twice. Returns the neighbor triples and
    the edge map: key -> [(triangle, index of the opposite corner)], in
    triangle order."""
    edge_map = {}
    for t, (tri, sh) in enumerate(zip(triples, shifts)):
        for k in range(3):
            a, b = (k + 1) % 3, (k + 2) % 3
            key = _edge_key(tri[a], sh[a], tri[b], sh[b])
            edge_map.setdefault(key, []).append((t, k))
    neighbors = [[-1, -1, -1] for _ in triples]
    for key, uses in edge_map.items():
        if len(uses) == 2:
            (t1, k1), (t2, k2) = uses
            neighbors[t1][k1] = t2
            neighbors[t2][k2] = t1
        elif closed or len(uses) != 1:
            raise DegenerateGeometryError(
                f"inconsistent triangle adjacency at edge {key}"
            )
    return [tuple(nb) for nb in neighbors], edge_map


def _voronoi_edges(config, tol, vertices, tri_vertex, tris, points, edge_map):
    """Voronoi edges of both domains, one per key of the Delaunay edge map
    (`_triangle_neighbors`), in sorted key order.

    A key whose two triangles merged into one vertex is a diagonal of a
    cocircular polygon and gives no edge. Otherwise the edge runs from the
    vertex of smaller index, and its generators are the side the key names
    in that vertex's triangle: in the triangle's CCW order on a torus, in
    key order on a box. On a torus the other vertex moves into the first
    one's frame by the offset between the two triangles' copies of the
    first generator (the second triangle runs the side the other way). On
    a box a key with one triangle is a hull ray, and every edge is clipped
    to the rectangle by `_box_edge_segment`."""
    torus = config.domain.is_torus
    w, h = config.domain.width, config.domain.height
    edges = []
    for key in sorted(edge_map):
        uses = edge_map[key]
        t1, k1 = uses[0]
        va, vb = tri_vertex[t1], -1
        if len(uses) == 2:
            t2, k2 = uses[1]
            vb = tri_vertex[t2]
            if va == vb:
                continue  # diagonal inside a cocircular polygon, zero length
            if vb < va:
                va, vb, t1, k1, t2, k2 = vb, va, t2, k2, t1, k1
        a, b = (k1 + 1) % 3, (k1 + 2) % 3
        if not torus and tris[t1][a] > tris[t1][b]:
            a, b = b, a  # a box edge names its generators in key order
        gens = (tris[t1][a], tris[t1][b])
        gpts = (points[t1][a], points[t1][b])
        p1 = vertices[va].position
        p2 = vertices[vb].position if vb >= 0 else None
        clipped = False
        if torus:
            partner = points[t2][(k2 + 2) % 3]
            tx, ty = gpts[0][0] - partner[0], gpts[0][1] - partner[1]
            endpoints = (p1, Point(p2[0] + tx, p2[1] + ty))
        else:
            clip = _box_edge_segment(p1, p2, *gpts, points[t1][k1], w, h, tol.eps_eq)
            if clip is None:
                continue
            e1, e2, side0, side1 = clip
            endpoints = (Point(*e1), Point(*e2))
            clipped = vb < 0 or side0 is not None or side1 is not None
        edges.append(
            VoronoiEdge(
                index=len(edges),
                generators=gens,
                vertex_indices=(va, vb),
                endpoints=endpoints,
                generator_points=gpts,
                pitteway=_pitteway_label(gpts, endpoints),
                clipped=clipped,
            )
        )
    return edges


def _torus_cells(config, vertices):
    w, h = config.domain.width, config.domain.height
    cells = []
    for i, incident in enumerate(_incident_vertices(config, vertices)):
        cx, cy = config.centers[i]
        items = [
            (Point(v.position[0] - sx * w, v.position[1] - sy * h), v.index)
            for v, (sx, sy) in incident
        ]
        if len(items) < 3:
            raise DegenerateGeometryError(f"cell of center {i} has fewer than 3 corners")
        items.sort(key=lambda it: math.atan2(it[0][1] - cy, it[0][0] - cx))
        start = min(range(len(items)), key=lambda k: (items[k][0][0], items[k][0][1]))
        items = items[start:] + items[:start]
        boundary = tuple(it[0] for it in items)
        vidx = tuple(it[1] for it in items)
        cells.append(
            VoronoiCell(
                center_index=i,
                center=Point(cx, cy),
                boundary=boundary,
                vertex_indices=vidx,
                area=polygon_area(boundary),
                analyzable=True,
            )
        )
    return cells


def _validated_block(config: PackingConfiguration, tol: ToleranceConfig):
    """The replicated block, the merged Voronoi vertices of a torus and the
    block's validating `central_triangles` listing, growing the
    replication ring count until the construction validates.
    Saturation scans stop here: edges and cells stay undefined while a
    cell of a sparse configuration can wrap around the torus onto itself."""
    last_error = None
    for k in range(1, _MAX_RINGS + 1):
        block = _TorusBlock(config, k)
        try:
            validated = _torus_vertices(config, tol, block)
        except DegenerateGeometryError as exc:
            last_error = exc
            continue
        if validated is not None:
            return (block, *validated)
    raise DegenerateGeometryError(
        f"could not validate a periodic triangulation with up to {_MAX_RINGS} "
        f"replication rings{f': {last_error}' if last_error else ''}"
    )


def _build_torus(config: PackingConfiguration, tol: ToleranceConfig) -> VoronoiDiagram:
    # only the vertices: holding the 9n-point block (or its listing) through
    # the edges and cells would raise the build's peak memory
    vertices = _validated_block(config, tol)[1]
    triples, shifts, points, tri_vertex = _fan_triangulation(vertices)
    neighbors, edge_map = _triangle_neighbors(triples, shifts, closed=True)
    edges = _voronoi_edges(config, tol, vertices, tri_vertex, triples, points, edge_map)
    del edge_map  # the cells do not need it; free it before they are built
    return VoronoiDiagram(
        config=config,
        tol=tol,
        vertices=vertices,
        edges=edges,
        cells=_torus_cells(config, vertices),
        _triangles=(triples, shifts, points, neighbors),
    )


# ---------------------------------------------------------------------------
# box construction


def _clip_halfplane(poly, px, py, nx, ny):
    """Keep the part of a convex polygon with (q - p) . n <= 0."""
    out = []
    n = len(poly)
    for idx in range(n):
        a = poly[idx]
        b = poly[(idx + 1) % n]
        da = (a[0] - px) * nx + (a[1] - py) * ny
        db = (b[0] - px) * nx + (b[1] - py) * ny
        if da <= 0.0:
            out.append(a)
        if (da < 0.0 < db) or (db < 0.0 < da):
            t = da / (da - db)
            out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return out


def _clip_segment_rect(ax, ay, bx, by, w, h):
    """Liang-Barsky clip of segment (a,b) to [0,w] x [0,h]; None if outside.
    Returns the two clipped ends and, for each, the rectangle side it was
    cut at (0: x = 0, 1: x = w, 2: y = 0, 3: y = h), or None where the end
    is a or b itself."""
    dx, dy = bx - ax, by - ay
    t0, t1 = 0.0, 1.0
    side0 = side1 = None
    for side, p, q in ((0, -dx, ax), (1, dx, w - ax), (2, -dy, ay), (3, dy, h - ay)):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return None
            if r > t0:
                t0, side0 = r, side
        else:
            if r < t0:
                return None
            if r < t1:
                t1, side1 = r, side
    return (ax + t0 * dx, ay + t0 * dy), (ax + t1 * dx, ay + t1 * dy), side0, side1


def _verify_box_delaunay(config, tris, edge_map):
    """Exact Delaunay verification: every interior edge is locally Delaunay
    (the far corner of its second triangle is not strictly inside the
    circumcircle of its first), and the triangles cover the convex hull.
    By the Delaunay lemma the two together make every circumcircle empty."""
    centers = config.centers
    for uses in edge_map.values():
        if len(uses) == 2:
            (t, _), (u, k) = uses
            pa, pb, pc = (centers[i] for i in tris[t])
            pd = centers[tris[u][k]]
            if (
                backend.incircle(
                    pa[0], pa[1], pb[0], pb[1], pc[0], pc[1], pd[0], pd[1]
                )
                > 0
            ):
                return False
    # coverage: triangle areas must sum to the convex hull area
    pts = sorted(set((p[0], p[1]) for p in centers))
    if len(pts) < 3:
        return False

    def half_hull(seq):
        hull = []
        for p in seq:
            while (
                len(hull) >= 2
                and backend.orient2d(
                    hull[-2][0], hull[-2][1], hull[-1][0], hull[-1][1], p[0], p[1]
                )
                <= 0
            ):
                hull.pop()
            hull.append(p)
        return hull

    lower = half_hull(pts)
    upper = half_hull(reversed(pts))
    hull_area = polygon_area(lower[:-1] + upper[:-1])
    tri_area = _triangle_area_sum(
        (centers[a], centers[b], centers[c]) for (a, b, c) in tris
    )
    return abs(tri_area - hull_area) <= 1e-9 * max(1.0, hull_area)


def _box_edge_segment(p1, p2, ci, cj, ck, w, h, eps_eq):
    """The part inside the box rectangle of the Voronoi edge of the
    Delaunay edge (ci, cj), as `_clip_segment_rect` gives it, or None when
    nothing or only a zero-length stub on the boundary is left.

    p1 and p2 are the circumcenters of the edge's two triangles. The edge
    runs from the lexicographically smaller one, so the clipped floats do
    not depend on which triangle the kernel listed first. A hull edge
    (p2 None) is the ray from p1 away from ck, the third corner of its one
    triangle, long enough to traverse the rectangle from wherever p1
    landed."""
    if p2 is None:
        dx, dy = -(cj[1] - ci[1]), cj[0] - ci[0]
        norm = math.hypot(dx, dy)
        dx, dy = dx / norm, dy / norm
        mx, my = 0.5 * (ci[0] + cj[0]), 0.5 * (ci[1] + cj[1])
        if (mx - ck[0]) * dx + (my - ck[1]) * dy < 0.0:
            dx, dy = -dx, -dy
        reach = math.hypot(p1[0] - 0.5 * w, p1[1] - 0.5 * h) + 2.0 * (w + h)
        p2 = (p1[0] + reach * dx, p1[1] + reach * dy)
    elif p2 < p1:
        p1, p2 = p2, p1
    clip = _clip_segment_rect(p1[0], p1[1], p2[0], p2[1], w, h)
    if clip is None:
        return None
    (e1, e2, _, _) = clip
    if math.hypot(e2[0] - e1[0], e2[1] - e1[1]) <= eps_eq:
        return None
    return clip


def _analysis_region(domain):
    """(x0, y0, x1, y1) of the margin-shrunk box rectangle."""
    m = domain.margin
    region = (m, m, domain.width - m, domain.height - m)
    if not (region[0] < region[2] and region[1] < region[3]):
        raise DegenerateGeometryError("margin leaves no analysis region")
    return region


def _region_crossings(e1, e2, region):
    """Points where the (box-clipped) edge segment e1 -> e2 crosses the
    boundary of the analysis region. The crossed side's coordinate is its
    exact bound: adding the region's origin back to a clipped coordinate
    near 0 can round it just outside."""
    x0, y0, x1, y1 = region
    clip = _clip_segment_rect(e1[0] - x0, e1[1] - y0, e2[0] - x0, e2[1] - y0, x1 - x0, y1 - y0)
    if clip is None or clip[2:] == (None, None):
        return []  # outside the region, or inside it without a crossing
    bounds = (x0, x1, y0, y1)  # per side of `_clip_segment_rect`
    out = []
    for (cx, cy), side in ((clip[0], clip[2]), (clip[1], clip[3])):
        if side is not None:
            crossing = [cx + x0, cy + y0]
            crossing[side // 2] = bounds[side]
            out.append(tuple(crossing))
    return out


def _box_triangulate(config):
    """Verified Delaunay triangles of a box configuration, with their
    neighbors and edge map (see `_triangle_neighbors`), the live kernel
    triangulator and the kernel id -> center index map.

    The kernel's bounds start `_BOX_INFLATE` times wider than the centers'
    bounding box: with tight bounds about one box in twelve lost a hull
    triangle and had to be triangulated again. Verification still guards
    every attempt."""
    xs = [p[0] for p in config.centers]
    ys = [p[1] for p in config.centers]
    inflate = _BOX_INFLATE
    for _attempt in range(3):
        minx, maxx = min(xs), max(xs)
        miny, maxy = min(ys), max(ys)
        cx, cy = 0.5 * (minx + maxx), 0.5 * (miny + maxy)
        half = 0.5 * max(maxx - minx, maxy - miny, 1.0) * inflate
        bounds = (cx - half, cy - half, cx + half, cy + half)
        order = _spatial_order(xs, ys)
        tri = backend.Triangulator(bounds)
        perm = []
        for pos in order:
            tri.add_point(xs[pos], ys[pos])
            perm.append(pos)
        raw = tri.triangles()
        tris = [(perm[a], perm[b], perm[c]) for (a, b, c) in raw]
        neighbors, edge_map = _triangle_neighbors(
            tris, [_ZERO_SHIFTS] * len(tris), closed=False
        )
        if _verify_box_delaunay(config, tris, edge_map):
            return tris, neighbors, edge_map, tri, perm
        inflate *= 1024.0
    raise DegenerateGeometryError("could not build a verified Delaunay triangulation")


def _build_box(config: PackingConfiguration, tol: ToleranceConfig) -> VoronoiDiagram:
    domain = config.domain
    w, h = domain.width, domain.height
    centers = config.centers
    tris, neighbors, edge_map, _, _ = _box_triangulate(config)
    points = [
        (centers[a], centers[b], centers[c]) for (a, b, c) in tris
    ]

    tri_ids = np.asarray(tris, dtype=np.intp)
    ccx, ccy, _ = _circumdata(
        np.array([p[0] for p in centers])[tri_ids],
        np.array([p[1] for p in centers])[tri_ids],
    )
    labels = [(i, 0, 0) for i in range(config.n)]
    vertices, tri_vertex = _assemble_vertices(config, tol, tris, labels, ccx, ccy)

    edges = _voronoi_edges(config, tol, vertices, tri_vertex, tris, points, edge_map)

    # cells: domain rectangle intersected with the bisector half-planes of
    # the Delaunay neighbors
    neighbor_sets = [set() for _ in range(config.n)]
    for i, j, _, _ in edge_map:
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)
    incident = _incident_vertices(config, vertices)
    cells = []
    excluded = 0
    for i in range(config.n):
        ci = centers[i]
        poly = [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)]
        for j in sorted(neighbor_sets[i]):
            cj = centers[j]
            mx, my = 0.5 * (ci[0] + cj[0]), 0.5 * (ci[1] + cj[1])
            nx, ny = cj[0] - ci[0], cj[1] - ci[1]
            poly = _clip_halfplane(poly, mx, my, nx, ny)
            if len(poly) < 3:
                raise DegenerateGeometryError(f"cell of center {i} collapsed")
        dedup = []
        for q in poly:
            if not dedup or math.hypot(q[0] - dedup[-1][0], q[1] - dedup[-1][1]) > tol.eps_eq:
                dedup.append(q)
        if len(dedup) > 1 and math.hypot(
            dedup[0][0] - dedup[-1][0], dedup[0][1] - dedup[-1][1]
        ) <= tol.eps_eq:
            dedup.pop()
        start = min(range(len(dedup)), key=lambda k: (dedup[k][0], dedup[k][1]))
        dedup = dedup[start:] + dedup[:start]
        vidx = []
        analyzable = True
        for q in dedup:
            # a corner of this cell can only be a vertex this center generates
            best, bestd = -1, tol.eps_merge * 8.0
            for v, _shift in incident[i]:
                d = math.hypot(q[0] - v.position[0], q[1] - v.position[1])
                if d < bestd:
                    best, bestd = v.index, d
            vidx.append(best)
            if best < 0 or not _in_analysis_region(domain, vertices[best]):
                analyzable = False
        if not analyzable:
            excluded += 1
        cells.append(
            VoronoiCell(
                center_index=i,
                center=Point(*ci),
                boundary=tuple(Point(*q) for q in dedup),
                vertex_indices=tuple(vidx),
                area=polygon_area(dedup),
                analyzable=analyzable,
            )
        )

    return VoronoiDiagram(
        config=config,
        tol=tol,
        vertices=vertices,
        edges=edges,
        cells=cells,
        _triangles=(tris, [_ZERO_SHIFTS] * len(tris), points, neighbors),
        excluded_cells=excluded,
    )


# ---------------------------------------------------------------------------
# public API


def build_diagram(
    config: PackingConfiguration, tol: ToleranceConfig = DEFAULT_TOL
) -> VoronoiDiagram:
    """Validate the packing and build its Voronoi diagram together with
    the dual Delaunay triangulation (canonical torus triangles on a
    periodic domain)."""
    _require_usable(config, tol)
    if config.domain.is_torus:
        return _build_torus(config, tol)
    return _build_box(config, tol)


def delaunay(
    config: PackingConfiguration, tol: ToleranceConfig = DEFAULT_TOL
) -> Triangulation:
    """Delaunay triangulation of the configuration, a view on its diagram."""
    return build_diagram(config, tol).triangulation


def voronoi_dual(tri: Triangulation) -> VoronoiDiagram:
    """Voronoi diagram dual to a triangulation: the diagram it was built
    with, whose vertices are circumcenters merged within eps_merge."""
    return tri._diagram


def classify_vertex(v: VoronoiVertex) -> str:
    """'regular' for exactly three generators, 'degenerate' for more."""
    return "regular" if v.degree == 3 else "degenerate"


def classify_edge_pitteway(e: VoronoiEdge) -> str:
    """An edge is a Pitteway edge when the closed segment between its two
    generating centers meets the closed edge segment."""
    return _pitteway_label(e.generator_points, e.endpoints)


class TorusScanner:
    """Incremental largest-empty-circle scans for torus saturation.

    Validates the packing and builds a validated periodic triangulation
    (`_validated_block`) once, then supports insert/scan cycles without
    rebuilding. Each answer equals a full scan of the block, ties
    included.

    The largest empty circle comes from a max-heap of the central
    triangles (those with a corner in the central copy) keyed
    (-circumradius, wrapped circumcenter, slot), the lexicographic
    tie-break of a full scan. The listing that validated the block seeds
    it; after that each insertion pushes only the central triangles the
    kernel reports as created. A cavity of c triangles has c + 2 boundary
    edges and the kernel reuses freed slots first, so every slot an
    insertion kills is written again by that insertion and shows up in its
    report. `_live` maps each slot to its current heap entry, so an entry
    whose slot was rewritten (or reborn without a central corner) goes
    stale and is dropped when it reaches the top."""

    def __init__(self, config: PackingConfiguration, tol: ToleranceConfig = DEFAULT_TOL):
        if not config.domain.is_torus:
            raise ValueError("TorusScanner requires a torus domain")
        _require_usable(config, tol)
        self._block, _, (slots, cx, cy, r) = _validated_block(config, tol)
        self._live = {}
        self._heap = self._entries(slots, cx, cy, r)
        heapq.heapify(self._heap)

    def max_empty(self):
        """Largest circumradius over torus Voronoi vertices, with its
        canonical position; ties break lexicographically."""
        heap, live = self._heap, self._live
        while live.get(heap[0][3]) is not heap[0]:
            heapq.heappop(heap)
        neg_r, x, y, _ = heap[0]
        if -neg_r >= self._block.radius_bound():
            raise DegenerateGeometryError(
                "circumradius exceeds the replication guarantee"
            )
        return Point(x, y), -neg_r

    def insert(self, p: Point):
        """Insert a center and push the central triangles its copies
        create."""
        block = self._block
        lab, xs, ys = block.labels, block.xs, block.ys
        slots, px, py = [], [], []
        for slot, t in block.insert_center(p).items():
            self._live.pop(slot, None)
            if min(t) >= 0 and any(lab[v][1] == 0 and lab[v][2] == 0 for v in t):
                slots.append(slot)
                px.append([xs[v] for v in t])
                py.append([ys[v] for v in t])
        if slots:
            cx, cy, r = _circumdata(np.array(px), np.array(py))
            for entry in self._entries(slots, cx, cy, r):
                heapq.heappush(self._heap, entry)

    def _entries(self, slots, cx, cy, r):
        """Heap entries (-r, rx, ry, slot), each made the live one of its
        slot."""
        rx, ry = _wrap_arrays(self._block.config.domain, cx, cy)
        entries = list(zip((-r).tolist(), rx.tolist(), ry.tolist(), slots))
        live = self._live
        for entry in entries:
            live[entry[3]] = entry
        return entries


_BIN = 2.0  # side of the BoxScanner candidate buckets


class BoxScanner:
    """Incremental largest-empty-circle scans for box saturation.

    Validates and triangulates the packing once (`_box_triangulate`) and
    keeps the kernel alive across insertions. The candidates of
    `_box_candidate_keys` sit in a max-heap keyed (-r, x, y), r being the
    distance to the nearest center: the circumcenters inside the analysis
    region (one per triangle slot), the crossings of the region boundary
    by the clipped Voronoi edges (per Delaunay edge), and the four region
    corners. An insertion drops the candidates of the slots the kernel
    rewrote and of the Delaunay edges of those triangles, pushes the new
    ones, and lowers r to the distance d to the new center for each
    surviving candidate with d < r; every such candidate lies within the
    top radius of the new center, so only the buckets there are searched.

    A fresh build computes each circumcenter from the triangle corner that
    comes last in `_spatial_order` (the kernel's corner 0). The scanner
    anchors at the same corner through the spatial rank and recomputes
    every circumcenter when the rank's grid changes, so each answer equals
    `_diagram_largest_empty_circle(build_diagram(...))` of the current
    packing, ties included.

    Guards: every edge of every created triangle is tested exactly. A
    strictly violated edge (a wrong triangulation) or a created triangle
    with a synthetic corner (the hull changed) makes the scanner
    triangulate the packing again. An exactly cocircular edge, or two
    circumcenters within eps_merge, would make a build merge vertices,
    which the scanner does not reproduce: from then on every answer comes
    from a full build, as does the validation of an insertion the packing
    would not accept."""

    def __init__(self, config: PackingConfiguration, tol: ToleranceConfig = DEFAULT_TOL):
        if config.domain.is_torus:
            raise ValueError("BoxScanner requires a box domain")
        _require_usable(config, tol)
        self.config = config
        self.tol = tol
        self._region = _analysis_region(config.domain)
        self._centers = list(config.centers)
        self._xs = [p[0] for p in self._centers]
        self._ys = [p[1] for p in self._centers]
        self._grid = _NeighborGrid(config.domain, self._centers)
        self._rebuild = False
        self._next_cid = 0
        self._seed()

    def max_empty(self):
        if self._rebuild:
            current = replace(self.config, centers=tuple(self._centers))
            return _diagram_largest_empty_circle(build_diagram(current, self.tol))
        heap, cand = self._heap, self._cand
        while True:
            neg_r, x, y, cid = heap[0]
            c = cand.get(cid)
            if c is not None and c[2] == -neg_r:
                return Point(x, y), -neg_r
            heapq.heappop(heap)

    def insert(self, p: Point):
        if self._rebuild:
            self._append(p)
            return
        radius = self.max_empty()[1]
        if not self.config.domain.contains(p) or (
            self._grid.nearest(p)[0] < 2.0 - self.tol.eps_eq
        ):
            self._append(p)
            return self._give_up()
        self._append(p)
        try:
            self._tri.add_point(p[0], p[1])
        except (ValueError, RuntimeError):
            return self._seed()
        perm = self._perm
        perm.append(len(self._centers) - 1)
        created = self._tri.created_slots()
        if any(min(row) < 0 for row in created):
            return self._seed()  # the hull changed
        new = {slot: (perm[a], perm[b], perm[c]) for slot, a, b, c in created}
        touched = set()
        for slot in new:
            old = self._tris.pop(slot, None)
            if old is not None:
                self._forget(slot, old)
                touched.update(_undirected_edges(old))
        for slot, t in new.items():
            self._add_triangle(slot, t)
            touched.update(_undirected_edges(t))
        for t in new.values():
            for i, j in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                twin = self._dedge.get((j, i))
                if twin is not None:
                    side = self._incircle(t, twin[1])
                    if side > 0:
                        return self._seed()
                    if side == 0:
                        return self._give_up()
        if _spatial_grid(self._xs, self._ys) != self._spatial:
            return self._rescan()
        self._rank.append(self._rank_of(len(self._xs) - 1))
        if not self._place_circumcenters(new):
            return self._give_up()
        for slot in new:
            self._push_vertex(slot)
        for i, j in touched:
            for cid in self._edge_cand.pop((i, j), ()):
                del self._cand[cid]
            self._push_edge(i, j)
        self._rescore(p, radius)

    # -- state --------------------------------------------------------------

    def _append(self, p):
        self._centers.append(p)
        self._xs.append(p[0])
        self._ys.append(p[1])
        self._grid.add(p)

    def _give_up(self):
        """Answer every later step with a full build."""
        self._rebuild = True

    def _seed(self):
        """Triangulate the current packing from scratch."""
        current = replace(self.config, centers=tuple(self._centers))
        _, _, _, self._tri, self._perm = _box_triangulate(current)
        perm = self._perm
        self._tris, self._dedge = {}, {}
        for slot, a, b, c in self._tri.triangle_slots():
            self._add_triangle(slot, (perm[a], perm[b], perm[c]))
        # verification rules out violated edges, not cocircular ones
        for (i, j), (slot, _) in self._dedge.items():
            twin = self._dedge.get((j, i))
            if i < j and twin is not None and self._incircle(self._tris[slot], twin[1]) == 0:
                return self._give_up()
        self._rescan()

    def _add_triangle(self, slot, t):
        a, b, c = t
        self._tris[slot] = t
        dedge = self._dedge  # directed CCW edge -> (slot, opposite corner)
        dedge[(a, b)] = (slot, c)
        dedge[(b, c)] = (slot, a)
        dedge[(c, a)] = (slot, b)

    def _forget(self, slot, t):
        a, b, c = t
        dedge = self._dedge
        del dedge[(a, b)], dedge[(b, c)], dedge[(c, a)]
        cid = self._vertex_cand.pop(slot, None)
        if cid is not None:
            del self._cand[cid]
        x, y = self._cc.pop(slot)
        eps = self.tol.eps_merge
        self._cc_bins[(math.floor(x / eps), math.floor(y / eps))].remove(slot)

    def _incircle(self, t, d):
        c = self._centers
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = c[t[0]], c[t[1]], c[t[2]], c[d]
        return backend.incircle(ax, ay, bx, by, cx, cy, dx, dy)

    def _rescan(self):
        """Spatial ranks, circumcenters and candidates of the live
        triangulation, all computed afresh."""
        xs, ys = self._xs, self._ys
        self._spatial = _spatial_grid(xs, ys)
        self._rank_of = _spatial_rank(self._spatial, xs, ys)
        self._rank = [self._rank_of(i) for i in range(len(xs))]
        self._cc, self._cc_bins = {}, {}
        self._cand, self._bins, self._heap = {}, {}, []
        self._vertex_cand, self._edge_cand = {}, {}
        if not self._place_circumcenters(self._tris):
            return self._give_up()
        for slot in self._tris:
            self._push_vertex(slot)
        for i, j in self._dedge:
            if i < j or (j, i) not in self._dedge:
                self._push_edge(min(i, j), max(i, j))
        x0, y0, x1, y1 = self._region
        for x, y in ((x0, y0), (x1, y0), (x0, y1), (x1, y1)):
            self._push(x, y)

    def _place_circumcenters(self, tris):
        """Circumcenters of `tris` (slot -> triple), each from its corner of
        highest spatial rank. False when one is not finite or lies within
        eps_merge of another live one."""
        rank, xs, ys = self._rank, self._xs, self._ys
        slots, rows = [], []
        for slot, (a, b, c) in tris.items():
            ra, rb, rc = rank[a], rank[b], rank[c]
            if ra > rb and ra > rc:
                rows.append((a, b, c))
            elif rb > rc:
                rows.append((b, c, a))
            else:
                rows.append((c, a, b))
            slots.append(slot)
        ids = np.array(rows, dtype=np.intp)
        cx, cy, _ = _circumdata(np.array(xs)[ids], np.array(ys)[ids])
        eps = self.tol.eps_merge
        cc, bins = self._cc, self._cc_bins
        for slot, x, y in zip(slots, cx.tolist(), cy.tolist()):
            if not (math.isfinite(x) and math.isfinite(y)):
                return False
            bx, by = math.floor(x / eps), math.floor(y / eps)
            for kx in (bx - 1, bx, bx + 1):
                for ky in (by - 1, by, by + 1):
                    for other in bins.get((kx, ky), ()):
                        ox, oy = cc[other]
                        if math.hypot(x - ox, y - oy) <= eps:
                            return False
            bins.setdefault((bx, by), []).append(slot)
            cc[slot] = (x, y)
        return True

    # -- candidates ---------------------------------------------------------

    def _push(self, x, y):
        r = self._grid.nearest((x, y))[0]
        cid = self._next_cid
        self._next_cid += 1
        self._cand[cid] = (x, y, r)
        self._bins.setdefault((int(x // _BIN), int(y // _BIN)), []).append(cid)
        heapq.heappush(self._heap, (-r, x, y, cid))
        return cid

    def _push_vertex(self, slot):
        x, y = self._cc[slot]
        x0, y0, x1, y1 = self._region
        if x0 <= x <= x1 and y0 <= y <= y1:
            self._vertex_cand[slot] = self._push(x, y)

    def _push_edge(self, i, j):
        """Region crossings of the Voronoi edge of Delaunay edge (i, j),
        i < j, as `_build_box` clips it; nothing if the edge is gone."""
        first, second = self._dedge.get((i, j)), self._dedge.get((j, i))
        if first is None and second is None:
            return
        domain, cc, c = self.config.domain, self._cc, self._centers
        slot, k = first or second
        p2 = None if first is None or second is None else cc[second[0]]
        clip = _box_edge_segment(
            cc[slot], p2, c[i], c[j], c[k], domain.width, domain.height, self.tol.eps_eq
        )
        if clip is not None:
            crossings = _region_crossings(clip[0], clip[1], self._region)
            if crossings:
                self._edge_cand[(i, j)] = [self._push(x, y) for x, y in crossings]

    def _rescore(self, p, radius):
        """Lower r to the distance to the new center p where that is
        nearer; such candidates lie within `radius`, the top radius
        before p was inserted. When that square spans more buckets than
        exist, the existing ones are filtered instead."""
        cand, bins, heap = self._cand, self._bins, self._heap
        distance = self.config.domain.distance
        span_x = range(int((p[0] - radius) // _BIN), int((p[0] + radius) // _BIN) + 1)
        span_y = range(int((p[1] - radius) // _BIN), int((p[1] + radius) // _BIN) + 1)
        if len(span_x) * len(span_y) > len(bins):
            keys = [k for k in bins if k[0] in span_x and k[1] in span_y]
        else:
            keys = [(bx, by) for bx in span_x for by in span_y if (bx, by) in bins]
        for key in keys:
            bucket = bins[key]
            bucket[:] = [cid for cid in bucket if cid in cand]
            for cid in bucket:
                x, y, r = cand[cid]
                d = distance((x, y), p)
                if d < r:
                    cand[cid] = (x, y, d)
                    heapq.heappush(heap, (-d, x, y, cid))


def _undirected_edges(t):
    a, b, c = t
    return ((min(a, b), max(a, b)), (min(b, c), max(b, c)), (min(c, a), max(c, a)))


def largest_empty_circle(
    config: PackingConfiguration, tol: ToleranceConfig = DEFAULT_TOL
):
    """Center and radius of the largest circle empty of configuration
    points, over the analysis region (see `_diagram_largest_empty_circle`),
    from a fresh `TorusScanner` or `BoxScanner`; neither assembles edges
    and cells."""
    scanner = TorusScanner if config.domain.is_torus else BoxScanner
    return scanner(config, tol).max_empty()


def _box_candidate_keys(diagram: VoronoiDiagram):
    """(-r, x, y) of every largest-empty-circle candidate of a built box
    diagram: the Voronoi vertices in the analysis region, the crossings of
    the region boundary by the edges, and the region corners, each with
    its nearest-center distance r from a `_NeighborGrid` ring search."""
    config = diagram.config
    region = _analysis_region(config.domain)
    x0, y0, x1, y1 = region
    candidates = []
    for v in diagram.vertices:
        px, py = v.position
        if x0 <= px <= x1 and y0 <= py <= y1:
            candidates.append((px, py))
    for e in diagram.edges:
        candidates.extend(_region_crossings(e.endpoints[0], e.endpoints[1], region))
    candidates.extend([(x0, y0), (x1, y0), (x0, y1), (x1, y1)])
    nearest = _NeighborGrid(config.domain, config.centers).nearest
    return [(-nearest((px, py))[0], px, py) for (px, py) in candidates]


def _diagram_largest_empty_circle(diagram: VoronoiDiagram):
    """Largest empty circle of an already built diagram.

    Torus: the maximum sits at a Voronoi vertex; ties break to the
    lexicographically smallest canonical position. Box: the search region
    is the margin-shrunk rectangle, where the maximum sits at a Voronoi
    vertex, at an edge crossing of the region boundary, or at a region
    corner (`_box_candidate_keys`); ties break the same way."""
    config = diagram.config
    if config.domain.is_torus:
        best = min(
            diagram.vertices,
            key=lambda v: (-v.circumradius, v.position[0], v.position[1]),
        )
        return best.position, best.circumradius
    best = min(_box_candidate_keys(diagram))
    return Point(best[1], best[2]), -best[0]


@dataclass(frozen=True)
class PointLocation:
    kind: str  # "interior" | "edge" | "vertex"
    centers: tuple  # indices of the nearest centers (1, 2, or >= 3)
    vertex: Optional[VoronoiVertex] = None


def locate_point(diagram_or_config, y, tol: ToleranceConfig = DEFAULT_TOL):
    """Classify a query point by its set of nearest centers: one nearest
    center means the interior of that cell, two means a cell edge, three or
    more means a Voronoi vertex (ties within eps_merge)."""
    if isinstance(diagram_or_config, VoronoiDiagram):
        diagram = diagram_or_config
        config = diagram.config
        tol = diagram.tol
    else:
        diagram = None
        config = diagram_or_config
    dists = [config.domain.distance(y, c) for c in config.centers]
    dmin = min(dists)
    near = tuple(i for i, d in enumerate(dists) if d <= dmin + tol.eps_merge)
    if len(near) == 1:
        return PointLocation("interior", near)
    if len(near) == 2:
        return PointLocation("edge", near)
    vertex = None
    if diagram is not None:
        for v in diagram.vertices:
            if config.domain.distance(y, v.position) <= tol.eps_merge * 8.0:
                vertex = v
                break
    return PointLocation("vertex", near, vertex)


def euler_check(diagram: VoronoiDiagram) -> bool:
    """V - E + F == 0 for the merged diagram on a torus."""
    if not diagram.config.domain.is_torus:
        raise ValueError("euler_check applies to torus diagrams")
    v = len(diagram.vertices)
    e = len(diagram.edges)
    f = len(diagram.cells)
    return v - e + f == 0
