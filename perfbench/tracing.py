"""Spans and counters for the traced benchmark run.

The program has no tracing of its own, so the traced run replaces the
public names of each layer module with wrappers, at the place where the
caller looks the name up:

* module functions are replaced on their module (callers inside thuelab
  reach them as ``module.name`` or as a global of that module);
* ``verifier.build_diagram`` is a copy bound at import, so it is wrapped
  there as well as on ``tessellation``;
* ``TorusScanner`` methods are wrapped on the class;
* ``backend.Triangulator`` becomes a proxy class whose ``add_point`` and
  ``triangles`` record spans and whose ``point`` only counts calls;
* ``_exact.orient2d``/``incircle`` become counters. They must be replaced
  before ``thuelab.backend`` is imported, because a compiled kernel binds
  them once at import (see ``load_thuelab``).

Spans are kept in memory as ``[name, start, end, parent]`` and written out
when the run ends; self times are derived from them afterwards.
"""

import functools
import importlib
import importlib.util
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, attribute, span name). A class attribute is written "Class.method".
LAYER_FUNCTIONS = (
    ("packing", "gen_random", "packing.generate"),
    ("packing", "gen_hexagonal", "packing.generate"),
    ("packing", "gen_square", "packing.generate"),
    ("packing", "perturb", "packing.generate"),
    ("packing", "validate", "packing.validate"),
    ("packing", "greedy_saturate", "packing.greedy_saturate"),
    ("tessellation", "build_diagram", "tessellation.build"),
    ("verifier", "build_diagram", "tessellation.build"),
    ("tessellation", "TorusScanner.__init__", "tessellation.scanner_init"),
    ("tessellation", "TorusScanner.max_empty", "tessellation.scan"),
    ("tessellation", "TorusScanner.insert", "tessellation.insert"),
    ("tessellation", "largest_empty_circle", "tessellation.lec"),
    ("verifier", "check_thue", "verifier.check_thue"),
    ("verifier", "check_empty_circle", "verifier.empty_circle"),
    ("verifier", "check_vertex_distance_angle", "verifier.vertex_distance_angle"),
    ("verifier", "check_nearest_edge", "verifier.nearest_edge"),
    ("verifier", "report_pitteway", "verifier.pitteway"),
    ("verifier", "build_l_triangles", "verifier.l_triangles"),
    ("verifier", "check_sector", "verifier.sector"),
    ("verifier", "check_area_relation", "verifier.area_identity"),
    ("lattice", "lagrange_bound_check", "lattice.reduce"),
    ("io", "packing_from_json", "io.packing_json"),
    ("io", "report_to_json", "io.report_json"),
    ("render", "render_svg", "render.svg"),
)

# per-layer metric -> (span name, "s" for summed duration or "calls")
_SPAN_METRICS = {
    "kernel.add_point_calls": ("kernel.add_point", "calls"),
    "kernel.add_point_s": ("kernel.add_point", "s"),
    "kernel.triangles_calls": ("kernel.triangles", "calls"),
    "kernel.triangles_s": ("kernel.triangles", "s"),
    "packing.generate_s": ("packing.generate", "s"),
    "packing.validate_calls": ("packing.validate", "calls"),
    "packing.validate_s": ("packing.validate", "s"),
    "tessellation.build_s": ("tessellation.build", "s"),
    "tessellation.scanner_init_s": ("tessellation.scanner_init", "s"),
    "tessellation.scan_calls": ("tessellation.scan", "calls"),
    "tessellation.scan_s": ("tessellation.scan", "s"),
    "tessellation.insert_s": ("tessellation.insert", "s"),
    "tessellation.lec_calls": ("tessellation.lec", "calls"),
    "tessellation.lec_s": ("tessellation.lec", "s"),
    "verifier.empty_circle_s": ("verifier.empty_circle", "s"),
    "verifier.vertex_distance_angle_s": ("verifier.vertex_distance_angle", "s"),
    "verifier.nearest_edge_s": ("verifier.nearest_edge", "s"),
    "verifier.pitteway_s": ("verifier.pitteway", "s"),
    "verifier.l_triangles_s": ("verifier.l_triangles", "s"),
    "verifier.sector_s": ("verifier.sector", "s"),
    "verifier.area_identity_s": ("verifier.area_identity", "s"),
    "lattice.reduce_calls": ("lattice.reduce", "calls"),
    "lattice.reduce_s": ("lattice.reduce", "s"),
    "io.packing_json_s": ("io.packing_json", "s"),
    "io.report_json_s": ("io.report_json", "s"),
    "render.svg_s": ("render.svg", "s"),
}

# metrics the wrappers accumulate themselves
_COUNTER_METRICS = {
    "kernel.point_calls": "count",
    "kernel.triangulators": "count",
    "kernel.exact_orient2d": "count",
    "kernel.exact_incircle": "count",
    "packing.insertions": "count",
    "tessellation.vertices": "count",
    "tessellation.degenerate_vertices": "count",
    "verifier.empty_circle_rss_mb": "MB",
    "verifier.l_triangle_count": "count",
    "verifier.violations": "count",
    "render.svg_bytes": "bytes",
}


def maxrss_mb():
    """High-water mark of this process's resident set, in MB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original, replacement)

    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span; after(result, *args) may
        update counters from the call's arguments and result."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so each call only increments counts[name]."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute), replacement))
        setattr(owner, attribute, replacement)

    def uninstall(self):
        """Put every original back. A compiled kernel keeps the exact-path
        counters it bound at import; they then cost one call each."""
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)

    def reinstall(self):
        for owner, attribute, _, replacement in self._patches:
            setattr(owner, attribute, replacement)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- installation -----------------------------------------------------

    def install_exact(self, exact):
        self.patch(exact, "orient2d", self.counter("kernel.exact_orient2d", exact.orient2d))
        self.patch(exact, "incircle", self.counter("kernel.exact_incircle", exact.incircle))

    def install_layers(self, modules):
        """Wrap the layer functions of the imported thuelab modules
        (a dict from short module name to module)."""
        hooks = {
            "packing.greedy_saturate": self._after_saturate,
            "tessellation.build": self._after_build,
            "verifier.l_triangles": self._after_l_triangles,
            "verifier.check_thue": self._after_check_thue,
            "render.svg": self._after_svg,
        }
        for module_name, attribute, span_name in LAYER_FUNCTIONS:
            owner = modules[module_name]
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
            wrapped = self.span(span_name, getattr(owner, attribute), hooks.get(span_name))
            if span_name == "verifier.empty_circle":
                wrapped = self._rss_rise("verifier.empty_circle_rss_mb", wrapped)
            self.patch(owner, attribute, wrapped)
        backend = modules["backend"]
        self.patch(backend, "Triangulator", self._triangulator_proxy(backend.Triangulator))

    def _triangulator_proxy(self, real):
        tracer = self
        counts = self.counts

        class TracedTriangulator:
            """Delegates to the kernel triangulator, recording its calls."""

            def __init__(self, bounds):
                counts["kernel.triangulators"] += 1
                self._tri = real(bounds)

            add_point = tracer.span(
                "kernel.add_point", lambda self, x, y: self._tri.add_point(x, y)
            )
            triangles = tracer.span("kernel.triangles", lambda self: self._tri.triangles())

            def point(self, i):
                counts["kernel.point_calls"] += 1
                return self._tri.point(i)

            def __getattr__(self, name):
                return getattr(self._tri, name)

        return TracedTriangulator

    def _rss_rise(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = maxrss_mb()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[name] += maxrss_mb() - before

        return wrapper

    def _after_saturate(self, result, config, *rest):
        self.counts["packing.insertions"] += result.n - config.n

    def _after_build(self, diagram, *args):
        self.counts["tessellation.vertices"] += len(diagram.vertices)
        self.counts["tessellation.degenerate_vertices"] += sum(
            1 for v in diagram.vertices if v.degree > 3
        )
        self.counts["tessellation.build_centres"] += diagram.config.n

    def _after_l_triangles(self, triangles, *args):
        self.counts["verifier.l_triangle_count"] += len(triangles)

    def _after_check_thue(self, report, *args):
        self.counts["verifier.violations"] += sum(len(c.violations) for c in report.checks)

    def _after_svg(self, svg, *args):
        self.counts["render.svg_bytes"] += len(svg.encode("utf-8"))

    # -- results ----------------------------------------------------------

    def layer_metrics(self, overhead_s):
        """Every per-layer metric as {name: {"value", "unit"}}."""
        calls, seconds = Counter(), Counter()
        for name, start, end, _parent in self.spans:
            calls[name] += 1
            seconds[name] += end - start
        out = {}
        for metric, (span_name, kind) in _SPAN_METRICS.items():
            if kind == "calls":
                out[metric] = {"value": calls[span_name], "unit": "count"}
            else:
                out[metric] = {"value": seconds[span_name], "unit": "s"}
        for metric, unit in _COUNTER_METRICS.items():
            out[metric] = {"value": self.counts[metric], "unit": unit}
        own = self_times(self.spans)
        out["verifier.check_thue_self_s"] = {
            "value": sum(
                t for t, rec in zip(own, self.spans) if rec[0] == "verifier.check_thue"
            ),
            "unit": "s",
        }
        centres = self.counts["tessellation.build_centres"]
        out["tessellation.replication_ratio"] = {
            "value": points_added_in(self.spans, "tessellation.build") / centres
            if centres
            else 0.0,
            "unit": "1",
        }
        out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        return out

    def write(self, path):
        """Write the spans, with self times, and the counters as JSON."""
        own = self_times(self.spans)
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "self_s"],
            "spans": [rec + [t] for rec, t in zip(self.spans, own)],
            "counts": dict(self.counts),
        }
        Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus that of its children.

    Spans come from one thread and nest properly, so the children of a span
    cover disjoint parts of its interval."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def points_added_in(spans, ancestor_name):
    """Number of kernel.add_point spans that run inside an ancestor_name
    span (parents always precede their children in the list)."""
    inside = [False] * len(spans)
    total = 0
    for i, (name, _start, _end, parent) in enumerate(spans):
        inside[i] = name == ancestor_name or (parent >= 0 and inside[parent])
        if name == "kernel.add_point" and inside[i]:
            total += 1
    return total


def load_thuelab(src, tracer=None):
    """Import thuelab from src and return its layer modules by short name.

    With a tracer, ``thuelab._exact`` is imported and wrapped before the
    package body runs, i.e. before ``thuelab.backend`` picks a kernel, and
    the layer wrappers are installed afterwards."""
    src = str(src)
    if src not in sys.path:
        sys.path.insert(0, src)
    if tracer is not None:
        init = Path(src, "thuelab", "__init__.py")
        spec = importlib.util.spec_from_file_location(
            "thuelab", init, submodule_search_locations=[str(init.parent)]
        )
        package = importlib.util.module_from_spec(spec)
        sys.modules["thuelab"] = package
        tracer.install_exact(importlib.import_module("thuelab._exact"))
        spec.loader.exec_module(package)
    thuelab = importlib.import_module("thuelab")
    names = ("backend", "packing", "tessellation", "verifier", "lattice", "io", "render")
    modules = {name: importlib.import_module(f"thuelab.{name}") for name in names}
    modules["thuelab"] = thuelab
    if tracer is not None:
        tracer.install_layers(modules)
    return modules
