"""Tests of the benchmark's own code: wrappers, span arithmetic and gate.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, load_thuelab, points_added_in, self_times  # noqa: E402

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def mods():
    return load_thuelab(SRC)


@pytest.fixture(scope="module")
def packings(mods):
    packing = mods["packing"]
    Domain = packing.Domain
    hex_torus = packing.gen_hexagonal(Domain("torus", 12.0, 6 * SQRT3))
    return {
        "hex": hex_torus,
        "square": packing.gen_square(Domain("torus", 12.0, 12.0)),
        "random": packing.gen_random(Domain("torus", 20.0, 20.0), seed=3),
        "box": packing.gen_random(Domain("box", 20.0, 20.0, margin=4.0), seed=5),
        "hex_minus_one": dataclasses.replace(
            hex_torus, centers=hex_torus.centers[:14] + hex_torus.centers[15:]
        ),
    }


def certify_all(mods, packings):
    out = {}
    for name in ("hex", "square", "random", "box"):
        text = mods["io"].packing_to_json(packings[name])
        for workload in ("torus-saturate", "verify-large"):
            saturated, report_text, _ = run.certify(mods, workload, text)
            out[name, workload] = (
                gate.digest_centres(saturated.centers),
                gate.digest_text(report_text),
            )
    return out


def test_wrappers_return_what_the_unwrapped_calls_return(mods, packings):
    plain = certify_all(mods, packings)
    originals = {
        (module, attribute): getattr(mods[module], attribute)
        for module, attribute, _ in tracing.LAYER_FUNCTIONS
        if "." not in attribute
    }
    tracer = Tracer()
    tracer.install_exact(mods["thuelab"]._exact)
    tracer.install_layers(mods)
    try:
        traced = certify_all(mods, packings)
        metrics = tracer.layer_metrics(overhead_s=0.0)
        tri = mods["backend"].Triangulator((-10.0, -10.0, 20.0, 20.0))
    finally:
        tracer.uninstall()
    assert traced == plain
    for (module, attribute), fn in originals.items():
        assert getattr(mods[module], attribute) is fn
    assert metrics["kernel.exact_incircle"]["value"] > 0  # the lattices
    assert metrics["tessellation.build_s"]["value"] > 0
    assert metrics["render.svg_bytes"]["value"] > 0
    assert metrics["tessellation.replication_ratio"]["value"] > 1

    real = mods["backend"].Triangulator((-10.0, -10.0, 20.0, 20.0))
    for x, y in [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0), (4.0, 4.0), (2.0, 2.0)]:
        tri.add_point(x, y)
        real.add_point(x, y)
    assert tri.triangles() == real.triangles()
    assert [tri.point(i) for i in range(5)] == [real.point(i) for i in range(5)]
    exact = mods["thuelab"]._exact
    counted = Tracer().counter("kernel.exact_incircle", exact.incircle)
    args = (0.0, 0.0, 2.0, 0.0, 2.0, 2.0, 0.0, 2.0)
    assert counted(*args) == exact.incircle(*args) == 0


def test_exact_is_wrapped_before_the_backend_is_imported():
    code = f"""
import sys
sys.path[:0] = [{str(BENCH)!r}]
import tracing
seen = []
class Probe(tracing.Tracer):
    def install_exact(self, exact):
        seen.append("thuelab.backend" in sys.modules)
        super().install_exact(exact)
tracer = Probe()
mods = tracing.load_thuelab({str(SRC)!r}, tracer)
mods["backend"].incircle(0.0, 0.0, 2.0, 0.0, 2.0, 2.0, 0.0, 2.0)
print(seen, tracer.counts["kernel.exact_incircle"])
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[False]", "1"]


def test_self_times_on_a_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["other_root", 11.0, 12.5, -1],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])


def test_points_added_in_counts_only_inside_the_ancestor():
    spans = [
        ["tessellation.build", 0.0, 5.0, -1],
        ["x", 1.0, 4.0, 0],
        ["kernel.add_point", 2.0, 2.5, 1],
        ["kernel.add_point", 3.0, 3.5, 0],
        ["kernel.add_point", 6.0, 6.5, -1],
    ]
    assert points_added_in(spans, "tessellation.build") == 2


def test_reference_speed_removes_the_probe_time_and_rescales():
    probe = speed.SpeedProbe()
    probe.starts = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 5.0]
    probe.durations = [2e-4, 2e-4, 2e-4, 2e-4, 2e-4, 2e-4, 1e-4]
    # six samples at half the reference speed inside [1, 2]
    factor = probe.speed_factor(1.0, 2.0)
    assert factor == pytest.approx(0.5)
    assert probe.at_reference_speed(1.0, 2.0, factor) == pytest.approx((1.0 - 12e-4) / 2)
    # too few samples inside: the mean of all samples is used
    mean = sum(probe.durations) / 7
    assert probe.speed_factor(5.5, 6.0) == pytest.approx(speed.REFERENCE_S / mean)
    assert probe.at_reference_speed(4.0, 6.0, 2.0) == pytest.approx((2.0 - 1e-4) * 2.0)


def test_speed_probe_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.005) as probe:
        start = run.perf_counter()
        while run.perf_counter() - start < 0.2:
            sum(range(1000))
        end = run.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.durations) >= 5
    factor = probe.speed_factor(start, end)
    assert 0 < probe.at_reference_speed(start, end, factor) < 1.0


def test_gate_passes_a_certified_packing(mods, packings):
    config = packings["hex"]
    report = mods["io"].report_to_json(mods["verifier"].check_thue(config))
    domain = ("torus", config.domain.width, config.domain.height)
    assert gate.check(config.centers, config.centers, domain, report) == []


def test_gate_fails_an_overlapping_pair(mods, packings):
    config = packings["hex"]
    report = mods["io"].report_to_json(mods["verifier"].check_thue(config))
    moved = list(config.centers)
    moved[0] = (moved[1][0] - 1.5, moved[1][1])
    domain = ("torus", config.domain.width, config.domain.height)
    failures = gate.check(moved, moved, domain, report)
    assert any(f.startswith("pair_distance") for f in failures)


def test_gate_fails_the_unsaturated_hex_minus_one(mods, packings):
    config = packings["hex_minus_one"]
    report = mods["io"].report_to_json(mods["verifier"].check_thue(config))
    domain = ("torus", config.domain.width, config.domain.height)
    failures = gate.check(config.centers, config.centers, domain, report)
    names = {f.split(":")[0] for f in failures}
    assert {"saturated", "verdict", "empty_circle"} <= names


def test_digest_book_flags_a_changed_digest(tmp_path):
    def case(digests):
        return {"packings": [{"input_sha256": "in", "digests": digests, "failures": []}]}

    first = run.DigestBook(tmp_path / "d.json", "code")
    first.check(case(["a", "b"]))
    first.save()
    same, changed = case(["a", "b"]), case(["a", "c"])
    second = run.DigestBook(tmp_path / "d.json", "code")
    second.check(same)
    second.check(changed)
    assert same["packings"][0]["failures"] == []
    assert changed["packings"][0]["failures"]
    other_code = case(["a", "c"])
    run.DigestBook(tmp_path / "d.json", "other").check(other_code)
    assert other_code["packings"][0]["failures"] == []
