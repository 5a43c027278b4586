/* Compiled triangulation kernel: the CPython extension `thuelab._core`.
 *
 * Mirror of `thuelab._core_py`: the same filtered predicates, the same
 * incremental Bowyer-Watson triangulator and the same floating-point
 * evaluation order, so both backends produce bit-identical triangulations
 * (the same triangles, in the same list order). The filter constants and
 * the structure of the predicates follow Shewchuk, "Adaptive Precision
 * Floating-Point Arithmetic and Fast Robust Geometric Predicates" (1997).
 *
 * When the float filter cannot certify a sign, the predicates call
 * `thuelab._exact.orient2d` / `thuelab._exact.incircle`. The module is
 * imported once, with this one, and each fallback looks the function up on
 * it, as `_core_py` does, so a wrapper installed on `_exact` before or
 * after that import sees every exact fallback.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add or a reassociated sum would change the filtered values and
 * break the bit-identity with the pure-Python kernel.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

static PyObject *exact_module;

static double ccw_errbound;
static double icc_errbound;
/* The bounds hold only while no product underflows; see _core_py. */
#define CCW_MIN_DETSUM 0x1p-960
#define ICC_MIN_DIFF 0x1p-240

/* Predicates return -1, 0 or +1, and ERR with a Python exception set when
 * the exact fallback fails. */
#define ERR (-2)

static int
sign_of(double det)
{
    return (det > 0.0) - (det < 0.0);
}

/* Call the exact predicate `name` of `thuelab._exact` on n doubles. */
static int
exact_sign(const char *name, const double *v, int n)
{
    PyObject *args[8];
    PyObject *fn, *res = NULL;
    long s = ERR;
    int k, made = 0;

    fn = PyObject_GetAttrString(exact_module, name);
    if (fn == NULL)
        return ERR;
    for (; made < n; made++) {
        args[made] = PyFloat_FromDouble(v[made]);
        if (args[made] == NULL)
            goto done;
    }
    res = PyObject_Vectorcall(fn, args, n, NULL);
    if (res != NULL) {
        s = PyLong_AsLong(res);
        if (s == -1 && PyErr_Occurred())
            s = ERR;
    }
done:
    Py_XDECREF(res);
    for (k = 0; k < made; k++)
        Py_DECREF(args[k]);
    Py_DECREF(fn);
    return (int)s;
}

static int
exact_orient2d(double ax, double ay, double bx, double by, double cx, double cy)
{
    const double v[6] = {ax, ay, bx, by, cx, cy};
    return exact_sign("orient2d", v, 6);
}

static int
exact_incircle(double ax, double ay, double bx, double by,
               double cx, double cy, double dx, double dy)
{
    const double v[8] = {ax, ay, bx, by, cx, cy, dx, dy};
    return exact_sign("incircle", v, 8);
}

static int
orient2d(double ax, double ay, double bx, double by, double cx, double cy)
{
    double detleft = (ax - cx) * (by - cy);
    double detright = (ay - cy) * (bx - cx);
    double det = detleft - detright;
    double detsum, errbound;

    if ((detleft == 0.0 && ax != cx && by != cy)
        || (detright == 0.0 && ay != cy && bx != cx))
        return exact_orient2d(ax, ay, bx, by, cx, cy); /* a product underflowed */
    if (detleft > 0.0) {
        if (detright <= 0.0)
            /* Signs disagree; a single product's sign is exact. */
            return sign_of(det);
        detsum = detleft + detright;
    }
    else if (detleft < 0.0) {
        if (detright >= 0.0)
            return sign_of(det);
        detsum = -detleft - detright;
    }
    else {
        return (detright < 0.0) - (detright > 0.0);
    }

    errbound = ccw_errbound * detsum;
    if ((det >= errbound || -det >= errbound) && detsum >= CCW_MIN_DETSUM)
        return sign_of(det);
    return exact_orient2d(ax, ay, bx, by, cx, cy);
}

static int
tiny_nonzero(double d)
{
    return fabs(d) < ICC_MIN_DIFF && d != 0.0;
}

static int
incircle(double ax, double ay, double bx, double by,
         double cx, double cy, double dx, double dy)
{
    double adx = ax - dx;
    double bdx = bx - dx;
    double cdx = cx - dx;
    double ady = ay - dy;
    double bdy = by - dy;
    double cdy = cy - dy;

    if (tiny_nonzero(adx) || tiny_nonzero(ady) || tiny_nonzero(bdx)
        || tiny_nonzero(bdy) || tiny_nonzero(cdx) || tiny_nonzero(cdy))
        return exact_incircle(ax, ay, bx, by, cx, cy, dx, dy);

    double bdxcdy = bdx * cdy;
    double cdxbdy = cdx * bdy;
    double alift = adx * adx + ady * ady;

    double cdxady = cdx * ady;
    double adxcdy = adx * cdy;
    double blift = bdx * bdx + bdy * bdy;

    double adxbdy = adx * bdy;
    double bdxady = bdx * ady;
    double clift = cdx * cdx + cdy * cdy;

    double det = alift * (bdxcdy - cdxbdy)
                 + blift * (cdxady - adxcdy)
                 + clift * (adxbdy - bdxady);
    double permanent = (fabs(bdxcdy) + fabs(cdxbdy)) * alift
                       + (fabs(cdxady) + fabs(adxcdy)) * blift
                       + (fabs(adxbdy) + fabs(bdxady)) * clift;
    double errbound = icc_errbound * permanent;

    if (det > errbound || -det > errbound)
        return sign_of(det);
    return exact_incircle(ax, ay, bx, by, cx, cy, dx, dy);
}

/* Convert n positional arguments to doubles; -1 with an exception set on
 * a wrong count or a non-number. */
static int
parse_doubles(const char *name, PyObject *const *args, Py_ssize_t nargs,
              double *out, Py_ssize_t n)
{
    Py_ssize_t k;

    if (nargs != n) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                     name, n, nargs);
        return -1;
    }
    for (k = 0; k < n; k++) {
        out[k] = PyFloat_AsDouble(args[k]);
        if (out[k] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static PyObject *
py_orient2d(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double v[6];
    int s;

    if (parse_doubles("orient2d", args, nargs, v, 6) < 0)
        return NULL;
    s = orient2d(v[0], v[1], v[2], v[3], v[4], v[5]);
    return s == ERR ? NULL : PyLong_FromLong(s);
}

static PyObject *
py_incircle(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double v[8];
    int s;

    if (parse_doubles("incircle", args, nargs, v, 8) < 0)
        return NULL;
    s = incircle(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]);
    return s == ERR ? NULL : PyLong_FromLong(s);
}

/* ------------------------------------------------------------------------
 * Growable arrays */

typedef struct {
    char *data;
    Py_ssize_t len;
    Py_ssize_t cap;
} Vec;

#define AT(vec, type) ((type *)(vec).data)

/* Make room for `extra` more elements of `size` bytes; -1 on MemoryError. */
static int
vec_reserve(Vec *v, Py_ssize_t extra, size_t size)
{
    Py_ssize_t need = v->len + extra;
    Py_ssize_t cap;
    char *data;

    if (need <= v->cap)
        return 0;
    cap = v->cap < 16 ? 16 : v->cap;
    while (cap < need)
        cap *= 2;
    data = PyMem_Realloc(v->data, (size_t)cap * size);
    if (data == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    v->data = data;
    v->cap = cap;
    return 0;
}

static int
push_int(Vec *v, int value)
{
    if (vec_reserve(v, 1, sizeof(int)) < 0)
        return -1;
    AT(*v, int)[v->len++] = value;
    return 0;
}

/* ------------------------------------------------------------------------
 * Triangulator */

typedef struct {
    double x, y;
} Pt;

/* Triangle slot: CCW vertices v, and n[k] the neighbour across the edge
 * opposite v[k] (-1 on the hull of the super triangle). */
typedef struct {
    int v[3];
    int n[3];
    long long mark;
    char alive;
} Tri;

/* Directed cavity boundary edge (a, b) with the cavity on its left; `slot`
 * is the index inside `outer` pointing back at the cavity, resolved when
 * the edge is found because cavity slots are recycled. */
typedef struct {
    int a, b, outer, slot;
} BEdge;

/* Walk budget before the point location is declared stuck. */
#define WALK_LIMIT (1LL << 22)

typedef struct {
    PyObject_HEAD
    Vec pts;       /* Pt, the three synthetic vertices first */
    Vec tris;      /* Tri */
    Vec free_list; /* int, dead triangle slots, reused last-in first-out */
    long long stamp;
    int hint;
    /* scratch of one insertion; new_ids also holds the slots the last
     * successful insertion wrote, which created_slots reports */
    Vec stack, cavity, order, new_ids; /* int */
    Vec boundary;                      /* BEdge */
    Vec start_of;                      /* int per point: boundary edge leaving it, or -1 */
} Triangulator;

static void
Triangulator_dealloc(Triangulator *self)
{
    Vec *vecs[] = {&self->pts, &self->tris, &self->free_list, &self->stack,
                   &self->cavity, &self->order, &self->new_ids,
                   &self->boundary, &self->start_of};
    size_t k;

    for (k = 0; k < sizeof(vecs) / sizeof(vecs[0]); k++)
        PyMem_Free(vecs[k]->data);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Append a point (and its start_of entry); -1 on MemoryError. */
static int
push_point(Triangulator *self, double x, double y)
{
    if (vec_reserve(&self->pts, 1, sizeof(Pt)) < 0
        || vec_reserve(&self->start_of, 1, sizeof(int)) < 0)
        return -1;
    AT(self->pts, Pt)[self->pts.len++] = (Pt){x, y};
    AT(self->start_of, int)[self->start_of.len++] = -1;
    return 0;
}

static PyObject *
Triangulator_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"bounds", NULL};
    PyObject *bounds, *seq;
    double b[4], cx, cy, spanx, spany, d;
    Triangulator *self;
    Tri *t;
    int k;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:Triangulator", kwlist, &bounds))
        return NULL;
    seq = PySequence_Fast(bounds, "bounds must be a sequence");
    if (seq == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(seq) != 4) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, "bounds must be (minx, miny, maxx, maxy)");
        return NULL;
    }
    for (k = 0; k < 4; k++) {
        b[k] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(seq, k));
        if (b[k] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
    }
    Py_DECREF(seq);
    if (!(b[0] <= b[2] && b[1] <= b[3])) {
        PyErr_SetString(PyExc_ValueError, "empty bounds");
        return NULL;
    }

    self = (Triangulator *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    cx = 0.5 * (b[0] + b[2]);
    cy = 0.5 * (b[1] + b[3]);
    spanx = b[2] - b[0];
    spany = b[3] - b[1];
    /* Far enough that no circumcircle of interest can reach a synthetic
     * vertex (callers verify this; see tessellation). */
    d = 4096.0 * (0.5 * (spany > spanx ? spany : spanx) + 1.0);
    if (push_point(self, cx - d, cy - d) < 0
        || push_point(self, cx + d, cy - d) < 0
        || push_point(self, cx, cy + d) < 0
        || vec_reserve(&self->tris, 1, sizeof(Tri)) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    t = &AT(self->tris, Tri)[self->tris.len++];
    *t = (Tri){{0, 1, 2}, {-1, -1, -1}, 0, 1};
    return (PyObject *)self;
}

/* Sign of incircle(triangle t, (x, y)), or ERR. */
static int
in_circum(Triangulator *self, int t, double x, double y)
{
    const Pt *p = AT(self->pts, Pt);
    const int *v = AT(self->tris, Tri)[t].v;

    return incircle(p[v[0]].x, p[v[0]].y, p[v[1]].x, p[v[1]].y,
                    p[v[2]].x, p[v[2]].y, x, y);
}

/* Walk from the hint to a triangle containing (x, y); -1 with an
 * exception set when the walk leaves the triangulation or gets stuck. */
static int
locate(Triangulator *self, double x, double y)
{
    const Pt *p = AT(self->pts, Pt);
    const Tri *tris = AT(self->tris, Tri);
    long long steps = 0;
    int t = self->hint;
    int s;

    for (;;) {
        const int *v = tris[t].v;
        const int *n = tris[t].n;

        if (++steps > WALK_LIMIT) {
            PyErr_SetString(PyExc_RuntimeError, "point location walk did not terminate");
            return -1;
        }
        if ((s = orient2d(p[v[0]].x, p[v[0]].y, p[v[1]].x, p[v[1]].y, x, y)) < 0) {
            if (s == ERR)
                return -1;
            t = n[2];
        }
        else if ((s = orient2d(p[v[1]].x, p[v[1]].y, p[v[2]].x, p[v[2]].y, x, y)) < 0) {
            if (s == ERR)
                return -1;
            t = n[0];
        }
        else if ((s = orient2d(p[v[2]].x, p[v[2]].y, p[v[0]].x, p[v[0]].y, x, y)) < 0) {
            if (s == ERR)
                return -1;
            t = n[1];
        }
        else {
            return t;
        }
        if (t < 0) {
            PyErr_SetString(PyExc_ValueError, "point lies outside the triangulation bounds");
            return -1;
        }
    }
}

static int
push_edge(Triangulator *self, int a, int b, int outer, int owner)
{
    BEdge *e;
    int slot = -1;

    if (outer >= 0) {
        const int *n = AT(self->tris, Tri)[outer].n;
        for (slot = 0; slot < 3 && n[slot] != owner; slot++)
            ;
        if (slot == 3) {
            PyErr_SetString(PyExc_RuntimeError, "adjacency invariant broken");
            return -1;
        }
    }
    if (vec_reserve(&self->boundary, 1, sizeof(BEdge)) < 0)
        return -1;
    e = &AT(self->boundary, BEdge)[self->boundary.len++];
    *e = (BEdge){a, b, outer, slot};
    return 0;
}

/* Grow the cavity of (x, y) from t0: every triangle whose circumcircle
 * strictly contains the point. mark = stamp + 1 inside, stamp outside. */
static int
grow_cavity(Triangulator *self, double x, double y, int t0)
{
    /* no triangle is added while the cavity grows, so tris stays valid */
    Tri *tris = AT(self->tris, Tri);
    long long stamp = (self->stamp += 2);
    int t, k;

    self->stack.len = self->cavity.len = self->boundary.len = 0;
    tris[t0].mark = stamp + 1;
    if (push_int(&self->stack, t0) < 0 || push_int(&self->cavity, t0) < 0)
        return -1;
    while (self->stack.len > 0) {
        t = AT(self->stack, int)[--self->stack.len];
        for (k = 0; k < 3; k++) {
            int ea = tris[t].v[(k + 1) % 3];
            int eb = tris[t].v[(k + 2) % 3];
            int n = tris[t].n[k];
            int s;

            if (n < 0) {
                if (push_edge(self, ea, eb, -1, t) < 0)
                    return -1;
                continue;
            }
            if (tris[n].mark == stamp + 1)
                continue;
            if (tris[n].mark != stamp) {
                s = in_circum(self, n, x, y);
                if (s == ERR)
                    return -1;
                if (s > 0) {
                    tris[n].mark = stamp + 1;
                    if (push_int(&self->stack, n) < 0 || push_int(&self->cavity, n) < 0)
                        return -1;
                    continue;
                }
                tris[n].mark = stamp;
            }
            if (push_edge(self, ea, eb, n, t) < 0)
                return -1;
        }
    }
    return 0;
}

/* Order the boundary edges into the single simple cycle a Bowyer-Watson
 * cavity boundary must be, starting at the first edge found. */
static int
chain_boundary(Triangulator *self)
{
    const BEdge *edges = AT(self->boundary, BEdge);
    int *start_of = AT(self->start_of, int);
    Py_ssize_t nb = self->boundary.len, i;
    const char *error = NULL;
    int idx, first, v;

    self->order.len = 0;
    if (vec_reserve(&self->order, nb, sizeof(int)) < 0)
        return -1;
    for (i = 0; i < nb && error == NULL; i++) {
        if (start_of[edges[i].a] >= 0)
            error = "pinched cavity boundary";
        else
            start_of[edges[i].a] = (int)i;
    }
    if (error == NULL) {
        first = v = edges[0].a;
        for (i = 0; i < nb; i++) {
            idx = start_of[v];
            if (idx < 0)
                break;
            start_of[v] = -1; /* visited; also resets the table */
            AT(self->order, int)[self->order.len++] = idx;
            v = edges[idx].b;
        }
        if (v != first || self->order.len != nb)
            error = "cavity boundary is not a single cycle";
    }
    for (i = 0; i < nb; i++)
        start_of[edges[i].a] = -1;
    if (error != NULL) {
        PyErr_SetString(PyExc_RuntimeError, error);
        return -1;
    }
    return 0;
}

/* Insert point pid = (x, y), located in triangle t0, and restore the
 * Delaunay property. */
static int
insert(Triangulator *self, int pid, double x, double y, int t0)
{
    Py_ssize_t nb, pos, i;
    Tri *tris;
    int s, t;

    s = in_circum(self, t0, x, y);
    if (s == ERR)
        return -1;
    if (s <= 0) {
        PyErr_SetString(PyExc_ValueError, "degenerate insertion (duplicate point?)");
        return -1;
    }
    if (grow_cavity(self, x, y, t0) < 0 || chain_boundary(self) < 0)
        return -1;
    nb = self->boundary.len;
    self->new_ids.len = 0;
    /* reserve everything first so no allocation fails halfway through */
    if (vec_reserve(&self->tris, nb, sizeof(Tri)) < 0
        || vec_reserve(&self->free_list, self->cavity.len, sizeof(int)) < 0
        || vec_reserve(&self->new_ids, nb, sizeof(int)) < 0)
        return -1;
    tris = AT(self->tris, Tri);

    for (i = 0; i < self->cavity.len; i++) {
        t = AT(self->cavity, int)[i];
        tris[t].alive = 0;
        AT(self->free_list, int)[self->free_list.len++] = t;
    }

    for (pos = 0; pos < nb; pos++) {
        const BEdge *e = &AT(self->boundary, BEdge)[AT(self->order, int)[pos]];

        if (self->free_list.len > 0)
            t = AT(self->free_list, int)[--self->free_list.len];
        else
            t = (int)self->tris.len++;
        tris[t].v[0] = pid;
        tris[t].v[1] = e->a;
        tris[t].v[2] = e->b;
        tris[t].alive = 1;
        tris[t].mark = 0;
        AT(self->new_ids, int)[self->new_ids.len++] = t;
    }

    for (pos = 0; pos < nb; pos++) {
        const BEdge *e = &AT(self->boundary, BEdge)[AT(self->order, int)[pos]];
        const int *ids = AT(self->new_ids, int);

        t = ids[pos];
        tris[t].n[0] = e->outer;
        tris[t].n[1] = ids[(pos + 1) % nb];
        tris[t].n[2] = ids[(pos + nb - 1) % nb];
        if (e->outer >= 0)
            tris[e->outer].n[e->slot] = t;
    }
    self->hint = AT(self->new_ids, int)[nb - 1];
    return 0;
}

static PyObject *
add_point(Triangulator *self, double x, double y)
{
    int pid, t0;

    if (self->pts.len >= INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "too many points");
        return NULL;
    }
    pid = (int)self->pts.len;
    self->new_ids.len = 0; /* a failed insertion reports no slot */
    t0 = locate(self, x, y);
    if (t0 < 0)
        return NULL;
    if (push_point(self, x, y) < 0)
        return NULL;
    if (insert(self, pid, x, y, t0) < 0) {
        /* every failure comes before a triangle changes: drop the point */
        self->pts.len = pid;
        return NULL;
    }
    return PyLong_FromLong(pid - 3);
}

static PyObject *
Triangulator_add_point(Triangulator *self, PyObject *const *args, Py_ssize_t nargs)
{
    double v[2];

    if (parse_doubles("add_point", args, nargs, v, 2) < 0)
        return NULL;
    return add_point(self, v[0], v[1]);
}

static PyObject *
Triangulator_point(Triangulator *self, PyObject *arg)
{
    /* index like the pure kernel's list: point i is stored at i + 3 */
    Py_ssize_t i = PyNumber_AsSsize_t(arg, PyExc_IndexError);

    if (i == -1 && PyErr_Occurred())
        return NULL;
    if (i < PY_SSIZE_T_MAX - 3)
        i += 3;
    if (i < 0)
        i += self->pts.len;
    if (i < 0 || i >= self->pts.len) {
        PyErr_SetString(PyExc_IndexError, "point index out of range");
        return NULL;
    }
    return Py_BuildValue("(dd)", AT(self->pts, Pt)[i].x, AT(self->pts, Pt)[i].y);
}

/* Append (slot, a, b, c) of slot t to out, or (a, b, c) without the slot;
 * user point ids, so the synthetic corners read -3, -2 and -1. */
static int
append_triangle(PyObject *out, const Tri *tris, Py_ssize_t t, int with_slot)
{
    const int *v = tris[t].v;
    PyObject *item = with_slot
        ? Py_BuildValue("(niii)", t, v[0] - 3, v[1] - 3, v[2] - 3)
        : Py_BuildValue("(iii)", v[0] - 3, v[1] - 3, v[2] - 3);
    int status;

    if (item == NULL)
        return -1;
    status = PyList_Append(out, item);
    Py_DECREF(item);
    return status;
}

/* Alive finite triangles in slot order, with or without their slots. */
static PyObject *
list_triangles(Triangulator *self, int with_slot)
{
    const Tri *tris = AT(self->tris, Tri);
    PyObject *out = PyList_New(0);
    Py_ssize_t t;

    if (out == NULL)
        return NULL;
    for (t = 0; t < self->tris.len; t++) {
        const int *v = tris[t].v;

        if (!tris[t].alive || v[0] < 3 || v[1] < 3 || v[2] < 3)
            continue;
        if (append_triangle(out, tris, t, with_slot) < 0) {
            Py_DECREF(out);
            return NULL;
        }
    }
    return out;
}

static PyObject *
Triangulator_triangles(Triangulator *self, PyObject *unused)
{
    return list_triangles(self, 0);
}

static PyObject *
Triangulator_triangle_slots(Triangulator *self, PyObject *unused)
{
    return list_triangles(self, 1);
}

static PyObject *
Triangulator_created_slots(Triangulator *self, PyObject *unused)
{
    const Tri *tris = AT(self->tris, Tri);
    PyObject *out = PyList_New(0);
    Py_ssize_t i;

    if (out == NULL)
        return NULL;
    for (i = 0; i < self->new_ids.len; i++) {
        if (append_triangle(out, tris, AT(self->new_ids, int)[i], 1) < 0) {
            Py_DECREF(out);
            return NULL;
        }
    }
    return out;
}

static PyObject *
Triangulator_num_points(Triangulator *self, void *closure)
{
    return PyLong_FromSsize_t(self->pts.len - 3);
}

static PyMethodDef Triangulator_methods[] = {
    {"add_point", (PyCFunction)(void (*)(void))Triangulator_add_point, METH_FASTCALL,
     "add_point($self, x, y, /)\n--\n\nInsert a point and restore the Delaunay property. "
     "Returns its index."},
    {"point", (PyCFunction)Triangulator_point, METH_O,
     "point($self, i, /)\n--\n\nCoordinates of user point i."},
    {"triangles", (PyCFunction)Triangulator_triangles, METH_NOARGS,
     "Alive finite triangles as CCW triples of user point indices."},
    {"triangle_slots", (PyCFunction)Triangulator_triangle_slots, METH_NOARGS,
     "The triangles() list with each triangle's slot: (slot, a, b, c)."},
    {"created_slots", (PyCFunction)Triangulator_created_slots, METH_NOARGS,
     "(slot, a, b, c) of every triangle slot the last successful add_point "
     "wrote, synthetic corners as negative ids; empty after construction and "
     "after a failed add_point."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Triangulator_getset[] = {
    {"num_points", (getter)Triangulator_num_points, NULL,
     "Number of user points inserted so far.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject TriangulatorType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "thuelab._core.Triangulator",
    .tp_basicsize = sizeof(Triangulator),
    .tp_dealloc = (destructor)Triangulator_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Triangulator(bounds)\n--\n\n"
              "Incremental Bowyer-Watson Delaunay triangulation with exact predicates.\n\n"
              "Same contract as `thuelab._core_py.Triangulator`.",
    .tp_methods = Triangulator_methods,
    .tp_getset = Triangulator_getset,
    .tp_new = Triangulator_new,
};

/* ------------------------------------------------------------------------
 * Module */

static PyMethodDef core_methods[] = {
    {"orient2d", (PyCFunction)(void (*)(void))py_orient2d, METH_FASTCALL,
     "orient2d($module, ax, ay, bx, by, cx, cy, /)\n--\n\n"
     "Sign of det(b - a, c - a): +1 if (a,b,c) is CCW, -1 if CW, 0 collinear."},
    {"incircle", (PyCFunction)(void (*)(void))py_incircle, METH_FASTCALL,
     "incircle($module, ax, ay, bx, by, cx, cy, dx, dy, /)\n--\n\n"
     "+1 iff d strictly inside the circumcircle of CCW (a,b,c); exact sign."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "thuelab._core",
    .m_doc = "Compiled triangulation kernel; mirror of thuelab._core_py.",
    .m_size = -1,
    .m_methods = core_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    double epsilon = ldexp(1.0, -53);
    PyObject *module;

    ccw_errbound = (3.0 + 16.0 * epsilon) * epsilon;
    icc_errbound = (10.0 + 96.0 * epsilon) * epsilon;

    if (PyType_Ready(&TriangulatorType) < 0)
        return NULL;
    Py_XSETREF(exact_module, PyImport_ImportModule("thuelab._exact"));
    if (exact_module == NULL)
        return NULL;

    module = PyModule_Create(&core_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddStringConstant(module, "BACKEND_NAME", "c") < 0
        || PyModule_AddObjectRef(module, "Triangulator", (PyObject *)&TriangulatorType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
