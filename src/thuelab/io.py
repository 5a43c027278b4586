"""Packing and report serialization.

JSON is the interchange format. Floats are written with 17 significant
digits, which round-trips IEEE doubles bit-exactly; the emitter below is
deterministic (fixed key order, no locale surprises). A bare CSV of `x,y`
lines is accepted as packing input for convenience and normalized to the
JSON schema on load.
"""

import json
import math

from thuelab.geometry import Point
from thuelab.packing import Domain, PackingConfiguration

__all__ = [
    "dumps_json",
    "packing_to_json",
    "packing_from_json",
    "load_packing",
    "save_packing",
    "report_to_json",
]


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize non-finite number")
    if x == int(x) and abs(x) < 1e16:
        # keep integral values readable; still parses to the same double
        return f"{x:.1f}"
    return format(x, ".17g")


def dumps_json(obj, indent=0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_json(v, indent + 2) for v in obj]
        if all(isinstance(v, (int, float)) for v in obj) and len(obj) <= 4:
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(k))}: {dumps_json(v, indent + 2)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def packing_to_json(config: PackingConfiguration) -> str:
    doc = {
        "radius": 1.0,
        "domain": {
            "kind": config.domain.kind,
            "width": config.domain.width,
            "height": config.domain.height,
            "margin": config.domain.margin,
        },
        "centers": [[p[0], p[1]] for p in config.centers],
    }
    return dumps_json(doc) + "\n"


def _number(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {json.dumps(value)}") from None


def packing_from_json(text: str) -> PackingConfiguration:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("packing JSON must be an object")
    radius = doc.get("radius", 1.0)
    if abs(_number(radius, "radius") - 1.0) > 1e-12:
        raise ValueError("only unit-radius packings are supported")
    dom = doc.get("domain")
    if not isinstance(dom, dict):
        raise ValueError("packing JSON needs a 'domain' object")
    domain = Domain(
        kind=dom.get("kind", "torus"),
        width=_number(dom["width"], "domain width"),
        height=_number(dom["height"], "domain height"),
        margin=_number(dom.get("margin", 4.0), "domain margin"),
    )
    centers = doc.get("centers")
    if not isinstance(centers, list):
        raise ValueError("packing JSON needs a 'centers' array")
    pts = []
    for row in centers:
        if not (isinstance(row, list) and len(row) == 2):
            raise ValueError(f"each center must be an [x, y] pair, got {json.dumps(row)}")
        x, y = _number(row[0], "center coordinate"), _number(row[1], "center coordinate")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("center coordinates must be finite")
        pts.append(Point(x, y))
    return PackingConfiguration(domain, tuple(pts))


def _parse_csv(text: str, domain: Domain) -> PackingConfiguration:
    pts = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'x,y'")
        x, y = float(parts[0]), float(parts[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"line {lineno}: non-finite coordinate")
        pts.append(Point(x, y))
    return PackingConfiguration(domain, tuple(pts))


def load_packing(path: str, domain: Domain = None) -> PackingConfiguration:
    """Load a packing from JSON, or from CSV when a domain is supplied
    (or guessable from the .csv extension plus explicit domain flags)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".csv"):
        if domain is None:
            raise ValueError("CSV input needs explicit domain flags")
        return _parse_csv(text, domain)
    return packing_from_json(text)


def save_packing(config: PackingConfiguration, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(packing_to_json(config))


def report_to_json(report) -> str:
    return dumps_json(report.to_json_dict()) + "\n"
