#!/usr/bin/env python3
"""thuelab certification benchmark.

Run from the root of a thuelab source tree:

    python3 perfbench/run.py --workload torus-saturate --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27 --trace 1

The benchmark builds the package in place (``setup.py build_ext
--inplace``), imports it from ``src/`` and certifies generated packings
for ``--seconds`` seconds, one case after another in this one process.
Every packing goes through the correctness gate in ``gate.py``. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, timed at reference speed (``speed.py``);
with ``--trace 1`` they are the per-layer ones from ``tracing.py``. See
README.md for every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer, load_thuelab, maxrss_mb  # noqa: E402
from workloads import SVG_LAYERS, WORKLOADS, case_seed, make_case  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5

_PROBE = """\
import sys, time
sys.path.insert(0, {here!r})
from speed import SpeedProbe
with SpeedProbe(interval=0.005) as probe:
    t0 = time.perf_counter()
    sys.path.insert(0, {src!r})
    import thuelab
    from thuelab import io, packing, render, tessellation, verifier
    thuelab.BACKEND_NAME
    t1 = time.perf_counter()
print(repr(probe.at_reference_speed(t0, t1, probe.speed_factor(t0, t1))), repr(t1 - t0))
"""

# timed steps of certify(), as (first, last) indices into its time stamps
STEPS = {"certify_s": (0, 4), "saturate_s": (1, 2), "verify_s": (2, 3)}


def fail(message):
    """Exit with status 2 and no result line."""
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def build():
    """Build the package in place; a compiled kernel lands next to the
    sources when the build can make one."""
    if not (ROOT / "setup.py").is_file() or not (SRC / "thuelab" / "__init__.py").is_file():
        fail(f"no thuelab source tree (setup.py, src/thuelab) in {ROOT}")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(OUT / "build")],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("setup.py build_ext failed")


def measure_setup():
    """Medians over fresh interpreters of the time to import thuelab and
    let it select its kernel backend: (at reference speed, wall)."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE.format(here=str(HERE), src=str(SRC))],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail("importing thuelab failed")
        samples.append([float(v) for v in proc.stdout.split()[-2:]])
    return tuple(statistics.median(column) for column in zip(*samples))


def src_digest():
    """sha256 over the package sources, naming the code that ran."""
    h = hashlib.sha256()
    for path in sorted((SRC / "thuelab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c", ".cpp", ".h"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD commit of the tree, or None when it is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def certify(mods, workload, text):
    """The timed pipeline for one packing: packing JSON in, saturate,
    verify, report JSON (and the analyze-style SVG on verify-large)."""
    io, packing, verifier = mods["io"], mods["packing"], mods["verifier"]
    t0 = perf_counter()
    config = io.packing_from_json(text)
    t1 = perf_counter()
    saturated = packing.greedy_saturate(config)
    t2 = perf_counter()
    if workload == "verify-large":
        diagram = mods["tessellation"].build_diagram(saturated)
        report = verifier.check_thue(saturated, diagram=diagram)
    else:
        report = verifier.check_thue(saturated)
    report_text = io.report_to_json(report)
    t3 = perf_counter()
    if workload == "verify-large":
        render = mods["render"]
        render.render_svg(
            saturated,
            render.RenderSpec(layers=SVG_LAYERS),
            diagram=diagram,
            report=report.to_json_dict(),
        )
    t4 = perf_counter()
    return saturated, report_text, (t0, t1, t2, t3, t4)


def run_case(mods, workload, seed, index, probe=None):
    """Certify every packing of one case and gate each of them. The case
    records its wall times and, with a speed probe, the same times at
    reference speed."""
    case = {"case_seed": case_seed(seed, index), "packings": []}
    inputs = make_case(mods["packing"], workload, seed, index)
    timed = []  # time stamps of each packing certified without an exception
    for config in inputs:
        text = mods["io"].packing_to_json(config)
        doc = json.loads(text)
        original = [tuple(p) for p in doc["centers"]]
        domain = (doc["domain"]["kind"], doc["domain"]["width"], doc["domain"]["height"])
        item = {
            "input_sha256": gate.digest_text(text),
            "n_before": len(original),
            "n_after": None,
            "failures": [],
            "digests": None,
        }
        try:
            saturated, report_text, stamps = certify(mods, workload, text)
        except Exception as exc:  # noqa: BLE001 - any exception is a failed certificate
            item["failures"].append(f"exception: {type(exc).__name__}: {exc}")
        else:
            centres = [tuple(p) for p in saturated.centers]
            item["n_after"] = len(centres)
            item["failures"] = gate.check(original, centres, domain, report_text)
            item["digests"] = [gate.digest_centres(centres), gate.digest_text(report_text)]
            timed.append(stamps)
        case["packings"].append(item)
    case["wall"] = {
        key: sum(t[last] - t[first] for t in timed) for key, (first, last) in STEPS.items()
    }
    if probe is not None:
        case["reference"] = {
            key: sum(
                probe.at_reference_speed(
                    t[first], t[last], probe.speed_factor(t[first], t[last])
                )
                for t in timed
            )
            for key, (first, last) in STEPS.items()
        }
    return case


class DigestBook:
    """Digests of earlier runs of the same code on the same input, kept in
    the build directory; a digest that differs from a recorded one is a
    failure."""

    def __init__(self, path, code):
        self.path = path
        self.code = code
        try:
            self.all = json.loads(path.read_text())
        except (OSError, ValueError):
            self.all = {}
        self.book = self.all.setdefault(code, {})

    def check(self, case):
        for item in case["packings"]:
            if item["digests"] is None:
                continue
            known = self.book.setdefault(item["input_sha256"], item["digests"])
            if known != item["digests"]:
                item["failures"].append("digest: differs from an earlier run of the same code")

    def save(self):
        self.path.write_text(json.dumps(self.all, indent=0, sort_keys=True) + "\n")


def tally(cases):
    items = [item for case in cases for item in case["packings"]]
    return len(items), sum(1 for item in items if item["failures"])


def run_timed(mods, args, book):
    """Untraced run: cases until the next one would end past --seconds."""
    cases = []
    start = perf_counter()
    with SpeedProbe() as probe:
        while True:
            case = run_case(mods, args.workload, args.seed, len(cases), probe)
            book.check(case)
            cases.append(case)
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(cases) > args.seconds:
                return cases


def run_traced(mods, tracer, args, book, spans_path):
    """Traced run of case 0 in three passes: traced, untraced, traced.

    The first pass gives the per-layer metrics and the spans, so the RSS
    high-water rise it sees is the program's own. The last two passes are
    warm, and their time difference is the tracing overhead. All three
    must give the same digests, and both traced passes the same counts."""
    traced = run_case(mods, args.workload, args.seed, 0)
    metrics = tracer.layer_metrics(overhead_s=None)
    tracer.write(spans_path)
    tracer.uninstall()
    plain = run_case(mods, args.workload, args.seed, 0)
    tracer.reset()
    tracer.reinstall()
    again = run_case(mods, args.workload, args.seed, 0)
    tracer.uninstall()
    repeat = tracer.layer_metrics(overhead_s=None)
    for name, m in metrics.items():
        if m["unit"] == "count" and repeat[name]["value"] != m["value"]:
            print(f"note: {name} differs between traced passes: "
                  f"{m['value']} vs {repeat[name]['value']}")
    for other in (plain, again):
        for a, b in zip(traced["packings"], other["packings"]):
            if a["digests"] != b["digests"]:
                a["failures"].append("digest: traced and untraced passes differ")
            a["failures"].extend(f for f in b["failures"] if f not in a["failures"])
    book.check(traced)
    metrics["trace.overhead_s"]["value"] = (
        again["wall"]["certify_s"] - plain["wall"]["certify_s"]
    )
    return [traced], metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args):
    """Every workload, each in its own process so peak RSS stays per workload."""
    rows, attempted, failed = [], 0, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {workload} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(f"[{workload}] {line}" for line in lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        rows.append((workload, result))
    print(f"\n{'workload':<20} {'metric':<34} {'value':>14}  unit")
    for workload, result in rows:
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:<20} {'failed_ratio':<34} {ratio:>14.6g}  1")
        for name, m in result["metrics"].items():
            print(f"{workload:<20} {name:<34} {m['value']:>14.6g}  {m['unit']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {f"{w}/{k}": m for w, r in rows for k, m in r["metrics"].items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    build()
    OUT.mkdir(parents=True, exist_ok=True)
    setup = None if args.trace else measure_setup()
    tracer = Tracer() if args.trace else None
    mods = load_thuelab(SRC, tracer)
    if not Path(mods["thuelab"].__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported thuelab from {mods['thuelab'].__file__}, not from {SRC}")
    book = DigestBook(OUT / "digests.json", src_digest())

    wall = None
    if tracer is None:
        cases = run_timed(mods, args, book)
        metrics = {
            name: {"value": statistics.median(c["reference"][name] for c in cases), "unit": "s"}
            for name in STEPS
        }
        metrics["peak_rss_mb"] = {"value": maxrss_mb(), "unit": "MB"}
        metrics["setup_s"] = {"value": setup[0], "unit": "s"}
        wall = {name: statistics.median(c["wall"][name] for c in cases) for name in STEPS}
        wall["setup_s"] = setup[1]
    else:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        cases, metrics = run_traced(mods, tracer, args, book, spans_path)
    book.save()

    attempted, failed = tally(cases)
    labels = {
        "backend": mods["thuelab"].BACKEND_NAME,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": book.code,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    for case in cases:
        for item in case["packings"]:
            status = "FAILED " + "; ".join(item["failures"]) if item["failures"] else "ok"
            print(f"case {case['case_seed']}: n {item['n_before']} -> {item['n_after']}: "
                  f"{status}")
        times = f"wall {case['wall']['certify_s']:.3f} s"
        if "reference" in case:
            times += f", at reference speed {case['reference']['certify_s']:.3f} s"
        print(f"case {case['case_seed']}: certify {times}")
    if wall is not None:
        print("wall-clock medians " + json.dumps(wall))
    record = {"labels": labels, "cases": cases, "metrics": metrics, "wall_medians": wall}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("labels " + json.dumps(labels))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
