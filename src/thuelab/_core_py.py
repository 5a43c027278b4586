"""Pure-Python triangulation kernel.

Mirror of the compiled extension `thuelab._core` (`_core.c`): the same
filtered exact predicates and the same incremental Bowyer-Watson
triangulator, kept in lockstep so either backend can be selected at import
time. Floating-point operations are ordered identically in both, and dead
triangle slots are reused in the same order, so they produce bit-identical
results: the same triangles in the same slots and list order.
"""

from thuelab import _exact

BACKEND_NAME = "python"

# Static filter bounds for the first (direct float) evaluation stage.
# If |det| exceeds the bound the float sign is provably correct; otherwise
# we re-evaluate exactly over rationals.
_EPSILON = 2.0 ** -53
_CCW_ERRBOUND = (3.0 + 16.0 * _EPSILON) * _EPSILON
_ICC_ERRBOUND = (10.0 + 96.0 * _EPSILON) * _EPSILON
# The bounds hold only while no product underflows. orient2d re-evaluates
# exactly when a product of nonzero factors rounded to zero, or when the
# products sum below _CCW_MIN_DETSUM; incircle when a nonzero coordinate
# difference is below _ICC_MIN_DIFF, so that every product, lift and term
# stays a normal number.
_CCW_MIN_DETSUM = 2.0 ** -960
_ICC_MIN_DIFF = 2.0 ** -240


def orient2d(ax, ay, bx, by, cx, cy):
    """Sign of det(b - a, c - a): +1 if (a,b,c) is CCW, -1 if CW, 0 collinear.

    The returned sign is exact for any finite double inputs.
    """
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright

    if (detleft == 0.0 and ax != cx and by != cy) or (
        detright == 0.0 and ay != cy and bx != cx
    ):
        return _exact.orient2d(ax, ay, bx, by, cx, cy)
    if detleft > 0.0:
        if detright <= 0.0:
            # Signs disagree; a single product's sign is exact.
            return (det > 0.0) - (det < 0.0)
        detsum = detleft + detright
    elif detleft < 0.0:
        if detright >= 0.0:
            return (det > 0.0) - (det < 0.0)
        detsum = -detleft - detright
    else:
        return (detright < 0.0) - (detright > 0.0)

    errbound = _CCW_ERRBOUND * detsum
    if (det >= errbound or -det >= errbound) and detsum >= _CCW_MIN_DETSUM:
        return (det > 0.0) - (det < 0.0)
    return _exact.orient2d(ax, ay, bx, by, cx, cy)


def incircle(ax, ay, bx, by, cx, cy, dx, dy):
    """Sign of the in-circle determinant for CCW (a,b,c): +1 iff d strictly
    inside the circumcircle, 0 iff cocircular, -1 iff outside. Exact.
    """
    adx = ax - dx
    bdx = bx - dx
    cdx = cx - dx
    ady = ay - dy
    bdy = by - dy
    cdy = cy - dy
    t = _ICC_MIN_DIFF
    if (
        -t < adx < t or -t < ady < t or -t < bdx < t
        or -t < bdy < t or -t < cdx < t or -t < cdy < t
    ) and any(d and -t < d < t for d in (adx, ady, bdx, bdy, cdx, cdy)):
        return _exact.incircle(ax, ay, bx, by, cx, cy, dx, dy)

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady

    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy

    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )
    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    errbound = _ICC_ERRBOUND * permanent
    if det > errbound or -det > errbound:
        return (det > 0.0) - (det < 0.0)
    return _exact.incircle(ax, ay, bx, by, cx, cy, dx, dy)


class Triangulator:
    """Incremental Bowyer-Watson Delaunay triangulation with exact predicates.

    Points are inserted one at a time into a triangulation seeded with a
    large enclosing triangle (three synthetic vertices). Cocircular points
    are never treated as inside a circumcircle (exact incircle == 0 leaves
    the existing diagonal in place), so exactly-degenerate inputs such as
    square grids triangulate deterministically given the insertion order.

    All inserted points must be pairwise distinct and lie inside `bounds`.
    """

    #: walk/step budget multiplier before declaring the walk stuck
    _WALK_LIMIT = 1 << 22

    def __init__(self, bounds):
        minx, miny, maxx, maxy = bounds
        if not (minx <= maxx and miny <= maxy):
            raise ValueError("empty bounds")
        cx = 0.5 * (minx + maxx)
        cy = 0.5 * (miny + maxy)
        halfspan = 0.5 * max(maxx - minx, maxy - miny)
        # Far enough that no circumcircle of interest can reach a synthetic
        # vertex (callers verify this; see tessellation).
        d = 4096.0 * (halfspan + 1.0)
        self._px = [cx - d, cx + d, cx]
        self._py = [cy - d, cy - d, cy + d]
        self._tv = [0, 1, 2]
        self._tn = [-1, -1, -1]
        self._alive = bytearray([1])
        self._free = []
        self._mark = [0]
        self._stamp = 0
        self._hint = 0
        self._created = ()  # slots written by the last successful add_point

    # -- queries ---------------------------------------------------------

    @property
    def num_points(self):
        """Number of user points inserted so far."""
        return len(self._px) - 3

    def point(self, i):
        """Coordinates of user point i."""
        return self._px[i + 3], self._py[i + 3]

    def triangles(self):
        """Alive finite triangles as CCW triples of user point indices."""
        return [entry[1:] for entry in self.triangle_slots()]

    def triangle_slots(self):
        """The triangles() list with each triangle's slot: (slot, a, b, c)."""
        tv = self._tv
        alive = self._alive
        out = []
        for t in range(len(alive)):
            if not alive[t]:
                continue
            a = tv[3 * t]
            b = tv[3 * t + 1]
            c = tv[3 * t + 2]
            if a < 3 or b < 3 or c < 3:
                continue
            out.append((t, a - 3, b - 3, c - 3))
        return out

    def created_slots(self):
        """(slot, a, b, c) of every triangle slot the last successful
        add_point wrote, synthetic corners as negative ids; empty after
        construction and after a failed add_point."""
        tv = self._tv
        return [
            (t, tv[3 * t] - 3, tv[3 * t + 1] - 3, tv[3 * t + 2] - 3) for t in self._created
        ]

    # -- construction ----------------------------------------------------

    def add_point(self, x, y):
        """Insert a point and restore the Delaunay property. Returns its index."""
        px = self._px
        py = self._py
        pid = len(px)
        self._created = ()
        t0 = self._locate(x, y)
        px.append(x)
        py.append(y)
        try:
            self._created = self._insert(pid, x, y, t0)
        except (ValueError, RuntimeError):
            # every failure comes before a triangle changes: drop the point
            del px[pid], py[pid]
            raise
        return pid - 3

    def _locate(self, x, y):
        tv = self._tv
        tn = self._tn
        px = self._px
        py = self._py
        t = self._hint
        steps = 0
        while True:
            steps += 1
            if steps > self._WALK_LIMIT:
                raise RuntimeError("point location walk did not terminate")
            base = 3 * t
            v0 = tv[base]
            v1 = tv[base + 1]
            v2 = tv[base + 2]
            if orient2d(px[v0], py[v0], px[v1], py[v1], x, y) < 0:
                t = tn[base + 2]
            elif orient2d(px[v1], py[v1], px[v2], py[v2], x, y) < 0:
                t = tn[base]
            elif orient2d(px[v2], py[v2], px[v0], py[v0], x, y) < 0:
                t = tn[base + 1]
            else:
                return t
            if t < 0:
                raise ValueError("point lies outside the triangulation bounds")

    def _in_circum(self, t, x, y):
        base = 3 * t
        tv = self._tv
        px = self._px
        py = self._py
        a = tv[base]
        b = tv[base + 1]
        c = tv[base + 2]
        return incircle(px[a], py[a], px[b], py[b], px[c], py[c], x, y)

    def _insert(self, pid, x, y, t0):
        """Insert point pid, located in triangle t0; returns the slots of
        the triangles it wrote, in the order written."""
        tv = self._tv
        tn = self._tn
        alive = self._alive
        mark = self._mark

        if self._in_circum(t0, x, y) <= 0:
            raise ValueError("degenerate insertion (duplicate point?)")

        # Grow the cavity: every triangle whose circumcircle strictly
        # contains the new point. mark = stamp+1 in cavity, stamp outside.
        self._stamp += 2
        stamp = self._stamp
        mark[t0] = stamp + 1
        stack = [t0]
        cavity = [t0]
        # (a, b, outer, slot): directed boundary edge with the cavity on its
        # left; `slot` is the index inside `outer` pointing back at the
        # cavity, resolved now because cavity ids are recycled below.
        boundary = []

        def back_slot(outer, owner):
            obase = 3 * outer
            for j in range(3):
                if tn[obase + j] == owner:
                    return j
            raise RuntimeError("adjacency invariant broken")

        while stack:
            t = stack.pop()
            base = 3 * t
            v0 = tv[base]
            v1 = tv[base + 1]
            v2 = tv[base + 2]
            for k, (ea, eb) in ((0, (v1, v2)), (1, (v2, v0)), (2, (v0, v1))):
                n = tn[base + k]
                if n < 0:
                    boundary.append((ea, eb, -1, -1))
                    continue
                m = mark[n]
                if m == stamp + 1:
                    continue
                if m == stamp:
                    boundary.append((ea, eb, n, back_slot(n, t)))
                    continue
                if self._in_circum(n, x, y) > 0:
                    mark[n] = stamp + 1
                    stack.append(n)
                    cavity.append(n)
                else:
                    mark[n] = stamp
                    boundary.append((ea, eb, n, back_slot(n, t)))

        # The boundary of a Bowyer-Watson cavity is a single simple cycle.
        start_of = {}
        for idx, edge in enumerate(boundary):
            if edge[0] in start_of:
                raise RuntimeError("pinched cavity boundary")
            start_of[edge[0]] = idx
        order = []
        first = boundary[0][0]
        v = first
        for _ in range(len(boundary)):
            idx = start_of[v]
            order.append(idx)
            v = boundary[idx][1]
        if v != first or len(set(order)) != len(boundary):
            raise RuntimeError("cavity boundary is not a single cycle")

        for t in cavity:
            alive[t] = 0
            self._free.append(t)

        new_ids = []
        for idx in order:
            a, b, outer, slot = boundary[idx]
            if self._free:
                t = self._free.pop()
                base = 3 * t
                tv[base] = pid
                tv[base + 1] = a
                tv[base + 2] = b
                alive[t] = 1
                mark[t] = 0
            else:
                t = len(alive)
                tv.extend((pid, a, b))
                tn.extend((-1, -1, -1))
                alive.append(1)
                mark.append(0)
            new_ids.append(t)

        nnew = len(new_ids)
        for pos, idx in enumerate(order):
            a, b, outer, slot = boundary[idx]
            t = new_ids[pos]
            base = 3 * t
            tn[base] = outer
            tn[base + 1] = new_ids[(pos + 1) % nnew]
            tn[base + 2] = new_ids[(pos - 1) % nnew]
            if outer >= 0:
                tn[3 * outer + slot] = t
        self._hint = new_ids[-1]
        return new_ids
