#!/usr/bin/env python3
"""Print sha256 digests of saturated packings and their verification reports.

For each fixed input the script saturates the packing, verifies it, and
prints one line: the input name, the digest of the saturated packing JSON
and the digest of the report JSON. Run it before and after a change and
diff the two outputs; identical lines mean byte-identical results.
`tests/data/report_digests.txt` keeps the expected lines, and
`tests/test_report_digests.py` compares them on every test run.

Run:  PYTHONPATH=src python3 benchmarks/report_digests.py
"""

import hashlib
import math

from thuelab import io
from thuelab.packing import (
    Domain,
    PackingConfiguration,
    gen_hexagonal,
    gen_random,
    gen_square,
    greedy_saturate,
    perturb,
)
from thuelab.verifier import check_thue


def loose_square_box():
    """9 x 9 square grid of spacing 2.2 in a 20 x 20 box: every vertex is
    cocircular, and the slack lets `perturb` move each centre."""
    pts = [(1.0 + 2.2 * i, 1.0 + 2.2 * j) for j in range(9) for i in range(9)]
    return PackingConfiguration(Domain("box", 20.0, 20.0, margin=4.0), tuple(pts))


def inputs():
    hex_height = 6 * math.sqrt(3.0)
    yield "hex-torus", gen_hexagonal(Domain("torus", 12.0, hex_height))
    yield "square-torus", gen_square(Domain("torus", 12.0, 12.0))
    yield "hex-box", gen_hexagonal(Domain("box", 20.0, 20.0, margin=4.0))
    yield "square-box", gen_square(Domain("box", 20.0, 20.0, margin=4.0))
    for seed in range(1, 6):
        yield f"random-torus-40-seed{seed}", gen_random(Domain("torus", 40.0, 40.0), seed=seed)
    yield "random-box-15-seed31", gen_random(
        Domain("box", 15.0, 15.0), seed=31, max_failures=200
    )
    yield "random-box-14-seed17", gen_random(
        Domain("box", 14.0, 14.0, margin=4.0), seed=17, max_failures=60
    )
    for magnitude in (1e-7, 1e-6):
        yield f"square-box-perturbed-{magnitude:g}", perturb(
            loose_square_box(), seed=1, magnitude=magnitude
        )


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_lines():
    """One output line per input, computed from `inputs()`."""
    for name, config in inputs():
        saturated = greedy_saturate(config)
        report = io.report_to_json(check_thue(saturated))
        yield f"{name:28s} {digest(io.packing_to_json(saturated))} {digest(report)}"


def main():
    for line in digest_lines():
        print(line)


if __name__ == "__main__":
    main()
