"""Circle-packing configurations: generators, validation, saturation.

A configuration is a finite set of unit-circle centers with pairwise
distance >= 2, living either on a torus (periodic rectangle, the default
experiment domain: no boundary effects) or in a box (finite rectangle,
where only cells far enough from the boundary are analyzed).

Randomness is stdlib `random.Random` (Mersenne Twister), which is stable
across platforms and Python versions; the candidate draw order for each
generator is documented in its docstring so seeded outputs are reproducible
golden values.
"""

import math
from dataclasses import dataclass, replace
from random import Random
from typing import NamedTuple, Optional

from thuelab.geometry import (
    DEFAULT_TOL,
    DegenerateGeometryError,
    Point,
    ToleranceConfig,
)

__all__ = [
    "Domain",
    "PackingConfiguration",
    "SaturationCertificate",
    "Violation",
    "validate",
    "gen_hexagonal",
    "gen_square",
    "gen_random",
    "perturb",
    "greedy_saturate",
    "is_saturated",
]

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Domain:
    """Analysis domain: a periodic rectangle (torus) or a finite box.

    For a box, `margin` shrinks the analysis region: only Voronoi cells
    whose vertex circumcircles stay inside the shrunk rectangle take part
    in the checks, so the boundary cannot fake a violation.
    """

    kind: str
    width: float
    height: float
    margin: float = 4.0

    def __post_init__(self):
        if self.kind not in ("torus", "box"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not (self.width > 4.0 and self.height > 4.0):
            raise ValueError("domain must be larger than 4 in both directions")
        if self.margin < 0.0:
            raise ValueError("margin must be nonnegative")

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    @property
    def area(self) -> float:
        return self.width * self.height

    def wrap(self, x: float, y: float) -> Point:
        """Reduce a point into [0, width) x [0, height) (torus only)."""
        x -= self.width * math.floor(x / self.width)
        y -= self.height * math.floor(y / self.height)
        if x >= self.width:
            x = 0.0
        if y >= self.height:
            y = 0.0
        return Point(x, y)

    def distance(self, p, q) -> float:
        """Distance between two points, minimum-image on a torus."""
        dx = abs(p[0] - q[0])
        dy = abs(p[1] - q[1])
        if self.is_torus:
            if dx > 0.5 * self.width:
                dx = self.width - dx
            if dy > 0.5 * self.height:
                dy = self.height - dy
        return math.hypot(dx, dy)

    def contains(self, p) -> bool:
        return 0.0 <= p[0] < self.width and 0.0 <= p[1] < self.height


@dataclass(frozen=True)
class PackingConfiguration:
    """Unit-circle centers in a domain. The circle radius is fixed at 1."""

    domain: Domain
    centers: tuple

    radius = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "centers", tuple(Point(float(p[0]), float(p[1])) for p in self.centers)
        )

    @property
    def n(self) -> int:
        return len(self.centers)

    @property
    def density(self) -> float:
        """n * pi / (width * height); exact coverage fraction on a torus."""
        return self.n * math.pi / self.domain.area


class SaturationCertificate(NamedTuple):
    saturated: bool
    witness: Optional[tuple]  # (Point, radius) of an insertable empty circle


class Violation(NamedTuple):
    kind: str  # "pair" (centers too close) or "outside" (center not in domain)
    indices: tuple
    value: Optional[float]


class _NeighborGrid:
    """Uniform bucket grid of points, indexed in insertion order.

    The cell size is at least 2, so any two points closer than 2 share a
    3x3 cell neighborhood (wrapping on a torus), which `neighbors_within`
    searches. `nearest` searches rings of cells outward: O(1) cells per
    query on a packing, and never more work than a scan of all points."""

    def __init__(self, domain: Domain, points=()):
        self.domain = domain
        self.torus = domain.is_torus
        self.ncx = max(1, int(domain.width // 2.0))
        self.ncy = max(1, int(domain.height // 2.0))
        self.cells = {}
        self.points = []
        # a point more than r cells from a query's cell is more than
        # r * side away, up to the rounding in `_cell`, which slack covers
        self.side = min(domain.width / self.ncx, domain.height / self.ncy)
        self.slack = 1e-9 * (domain.width + domain.height)
        for p in points:
            self.add(p)

    def _cell(self, x, y):
        domain = self.domain
        if self.torus and not (0.0 <= x < domain.width and 0.0 <= y < domain.height):
            # a torus point outside the rectangle belongs to its wrapped cell
            x, y = domain.wrap(x, y)
        ncx, ncy = self.ncx, self.ncy
        cx = int(x / domain.width * ncx)
        cy = int(y / domain.height * ncy)
        # clamped by conditionals, which cost less than min/max calls
        return (
            0 if cx < 0 else ncx - 1 if cx >= ncx else cx,
            0 if cy < 0 else ncy - 1 if cy >= ncy else cy,
        )

    def _offsets(self, x, y):
        """The cell of (x, y), and per axis the least and greatest offset
        from it of a distinct cell: clipped to a box; on a torus every
        cell once, at its shortest offset (so rings that wrap around the
        torus visit no cell twice)."""
        cx, cy = self._cell(x, y)
        ncx, ncy = self.ncx, self.ncy
        if self.torus:
            return cx, cy, -(ncx // 2), (ncx - 1) // 2, -(ncy // 2), (ncy - 1) // 2
        return cx, cy, -cx, ncx - 1 - cx, -cy, ncy - 1 - cy

    def add(self, p):
        idx = len(self.points)
        self.points.append(p)
        self.cells.setdefault(self._cell(p[0], p[1]), []).append(idx)
        return idx

    def move(self, idx, p):
        old = self._cell(*self.points[idx])
        new = self._cell(p[0], p[1])
        self.points[idx] = p
        if old != new:
            self.cells[old].remove(idx)
            self.cells.setdefault(new, []).append(idx)

    def neighbors_within(self, p, r, skip=-1):
        """Indices of stored points at distance strictly below r (r <= 2)."""
        cx, cy, lo_x, hi_x, lo_y, hi_y = self._offsets(p[0], p[1])
        ncx, ncy = self.ncx, self.ncy
        span_y = range(-1 if lo_y < 0 else 0, 2 if hi_y > 0 else 1)
        out = []
        distance = self.domain.distance
        points = self.points
        get = self.cells.get
        for kx in range(-1 if lo_x < 0 else 0, 2 if hi_x > 0 else 1):
            gx = (cx + kx) % ncx
            for ky in span_y:
                for idx in get((gx, (cy + ky) % ncy), ()):
                    if idx != skip and distance(p, points[idx]) < r:
                        out.append(idx)
        return out

    def nearest(self, p, skip=-1):
        """(distance, index) of the stored point nearest to p other than
        `skip`, in `Domain.distance`; exact ties go to the smaller index,
        and (inf, -1) means there is none.

        Rings of cells are searched outward from p's cell, rings 0 and 1
        together. After ring r every point not yet seen is more than r
        cell sides away, so the search stops once the best distance is
        within that, less the slack. Once the cells visited would outnumber
        the points, it scans all points instead."""
        cx, cy, lo_x, hi_x, lo_y, hi_y = self._offsets(p[0], p[1])
        ncx, ncy = self.ncx, self.ncy
        points = self.points
        distance = self.domain.distance
        get = self.cells.get
        best, best_i = math.inf, -1
        r = 1
        while True:
            span_x = range(-r if -r > lo_x else lo_x, (r if r < hi_x else hi_x) + 1)
            span_y = range(-r if -r > lo_y else lo_y, (r if r < hi_y else hi_y) + 1)
            if len(span_x) * len(span_y) > len(points):
                break
            # ring r: all of span_y in its outer columns, else its ends
            ends_y = span_y if r == 1 else [k for k in (-r, r) if k in span_y]
            for kx in span_x:
                gx = (cx + kx) % ncx
                for ky in span_y if kx == r or kx == -r else ends_y:
                    for i in get((gx, (cy + ky) % ncy), ()):
                        if i != skip:
                            d = distance(p, points[i])
                            if d < best or (d == best and i < best_i):
                                best, best_i = d, i
            if best <= r * self.side - self.slack or (
                len(span_x) == ncx and len(span_y) == ncy
            ):
                return best, best_i
            r += 1
        best, best_i = math.inf, -1
        for i, q in enumerate(points):
            if i != skip:
                d = distance(p, q)
                if d < best:
                    best, best_i = d, i
        return best, best_i


def validate(config: PackingConfiguration, tol: ToleranceConfig = DEFAULT_TOL):
    """All packing violations: center pairs closer than 2 (with eps_eq
    slack) and centers outside the half-open domain rectangle."""
    domain = config.domain
    violations = []
    grid = _NeighborGrid(domain)
    for i, p in enumerate(config.centers):
        if not domain.contains(p):
            violations.append(Violation("outside", (i,), None))
    for i, p in enumerate(config.centers):
        for j in grid.neighbors_within(p, 2.0 - tol.eps_eq):
            violations.append(Violation("pair", (j, i), domain.distance(p, config.centers[j])))
        grid.add(p)
    return violations


def _nearest_even_multiple(value, unit):
    return unit * max(2, round(value / unit))


def gen_hexagonal(domain: Domain) -> PackingConfiguration:
    """Hexagonal lattice packing: rows spaced sqrt(3) apart, columns spaced
    2 apart, odd rows offset by 1; every nearest-neighbor distance is 2.

    On a torus the sides must be multiples of the lattice periods (2
    horizontally, 2*sqrt(3) vertically); the generated spacings divide the
    requested sides exactly so the wrap is seamless.
    """
    w, h = domain.width, domain.height
    if domain.is_torus:
        ncols = round(w / 2.0)
        npairs = round(h / (2.0 * _SQRT3))
        if (
            ncols < 1
            or npairs < 1
            or abs(w - 2.0 * ncols) > 1e-9
            or abs(h - 2.0 * _SQRT3 * npairs) > 1e-9
        ):
            raise ValueError(
                "torus sides must be multiples of 2 and 2*sqrt(3); nearest valid "
                f"dimensions are {_nearest_even_multiple(w, 2.0):.17g} x "
                f"{_nearest_even_multiple(h, 2.0 * _SQRT3):.17g}"
            )
        nrows = 2 * npairs
        dx = w / ncols
        dy = h / nrows
        centers = []
        for j in range(nrows):
            off = 0.5 * dx if j % 2 else 0.0
            y = j * dy
            centers.extend(Point(i * dx + off, y) for i in range(ncols))
        return PackingConfiguration(domain, tuple(centers))
    centers = []
    j = 0
    while j * _SQRT3 < h:
        y = j * _SQRT3
        off = 1.0 if j % 2 else 0.0
        i = 0
        while i * 2.0 + off < w:
            centers.append(Point(i * 2.0 + off, y))
            i += 1
        j += 1
    return PackingConfiguration(domain, tuple(centers))


def gen_square(domain: Domain) -> PackingConfiguration:
    """Square grid packing with spacing 2 (torus coverage pi/4)."""
    w, h = domain.width, domain.height
    if domain.is_torus:
        ncols = round(w / 2.0)
        nrows = round(h / 2.0)
        if abs(w - 2.0 * ncols) > 1e-9 or abs(h - 2.0 * nrows) > 1e-9:
            raise ValueError(
                "torus sides must be multiples of 2; nearest valid dimensions "
                f"are {_nearest_even_multiple(w, 2.0):.17g} x "
                f"{_nearest_even_multiple(h, 2.0):.17g}"
            )
        dx = w / ncols
        dy = h / nrows
        centers = [
            Point(i * dx, j * dy) for j in range(nrows) for i in range(ncols)
        ]
        return PackingConfiguration(domain, tuple(centers))
    centers = [
        Point(float(x), float(y))
        for y in range(0, int(math.ceil(h)), 2)
        if y < h
        for x in range(0, int(math.ceil(w)), 2)
        if x < w
    ]
    return PackingConfiguration(domain, tuple(centers))


def gen_random(
    domain: Domain, seed: int, max_failures: int = 1000
) -> PackingConfiguration:
    """Random sequential adsorption.

    Draws uniform candidates (x first, then y, from ``random.Random(seed)``),
    accepts a candidate iff it keeps pairwise distance >= 2, and stops after
    `max_failures` consecutive rejections.
    """
    if max_failures < 1:
        raise ValueError("max_failures must be positive")
    rng = Random(seed)
    grid = _NeighborGrid(domain)
    w, h = domain.width, domain.height
    failures = 0
    while failures < max_failures:
        x = (rng.random() * w) % w
        y = (rng.random() * h) % h
        p = Point(x, y)
        if grid.neighbors_within(p, 2.0):
            failures += 1
            continue
        grid.add(p)
        failures = 0
    return PackingConfiguration(domain, tuple(grid.points))


def perturb(
    config: PackingConfiguration, seed: int, magnitude: float
) -> PackingConfiguration:
    """Displace each center by a uniform random vector of norm <= magnitude.

    Centers are processed in index order; a displacement is rejected (the
    center stays put) when the moved point would come closer than 2 (with
    eps_eq slack) to any other center at its current position, so the
    result is always a valid packing. Displacements are drawn by rejection
    sampling in the square [-magnitude, magnitude]^2 (x first, then y).
    """
    if magnitude < 0:
        raise ValueError("magnitude must be nonnegative")
    rng = Random(seed)
    domain = config.domain
    grid = _NeighborGrid(domain, config.centers)
    eps = DEFAULT_TOL.eps_eq
    for i in range(len(grid.points)):
        while True:
            dx = rng.uniform(-magnitude, magnitude)
            dy = rng.uniform(-magnitude, magnitude)
            if dx * dx + dy * dy <= magnitude * magnitude:
                break
        p = grid.points[i]
        q = Point(p[0] + dx, p[1] + dy)
        if domain.is_torus:
            q = domain.wrap(q[0], q[1])
        elif not domain.contains(q):
            continue
        if not grid.neighbors_within(q, 2.0 - eps, skip=i):
            grid.move(i, q)
    return replace(config, centers=tuple(grid.points))


def _require_usable(config: PackingConfiguration, tol: ToleranceConfig):
    bad = validate(config, tol)
    if bad:
        raise ValueError(f"invalid packing: {len(bad)} violation(s), first {bad[0]}")
    if config.domain.is_torus:
        if config.n < 1:
            raise DegenerateGeometryError("torus packing needs at least one center")
        return
    if config.n < 3:
        raise DegenerateGeometryError("box packing needs at least 3 centers")
    from thuelab.geometry import orient2d

    a, b = config.centers[0], config.centers[1]
    if all(orient2d(a, b, c) == 0 for c in config.centers[2:]):
        raise DegenerateGeometryError("all centers are collinear")


def is_saturated(
    config: PackingConfiguration, tol: ToleranceConfig = DEFAULT_TOL
) -> SaturationCertificate:
    """Certificate of saturation: saturated iff the largest empty circle
    (over the analysis region) has radius < 2 - eps_eq; otherwise the
    certificate carries that circle as an insertion witness."""
    from thuelab import tessellation

    center, radius = tessellation.largest_empty_circle(config, tol)
    if radius < 2.0 - tol.eps_eq:
        return SaturationCertificate(True, None)
    return SaturationCertificate(False, (center, radius))


def greedy_saturate(
    config: PackingConfiguration, tol: ToleranceConfig = DEFAULT_TOL
) -> PackingConfiguration:
    """Insert centers at the largest empty circle until none of radius >= 2
    (with eps_eq slack) remains. Ties on the radius break to the
    lexicographically smallest position, so the result is deterministic.
    All original centers are retained."""
    from thuelab import tessellation

    domain = config.domain
    cap = int(math.ceil(domain.area / math.pi))
    threshold = 2.0 - tol.eps_eq
    # the scanner validates the packing
    scanner = (tessellation.TorusScanner if domain.is_torus else tessellation.BoxScanner)(
        config, tol
    )
    added = []
    while True:
        center, radius = scanner.max_empty()
        if radius < threshold:
            break
        if len(added) >= cap:
            raise RuntimeError("saturation exceeded the area bound on insertions")
        scanner.insert(center)
        added.append(center)
    if not added:
        return config
    return replace(config, centers=config.centers + tuple(added))
