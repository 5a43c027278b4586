"""The four benchmark workloads and their input generators.

A case is the unit a run times: one packing, or for lattice-degenerate the
pair of lattices. Case ``index`` of a run with seed ``seed`` is made from
the case seed ``seed * 1000 + index``, so the same seed gives the same
inputs and distinct seeds give distinct ones. The inputs come from
thuelab's own generators (the lattices and ``perturb``), which is what
``packing.generate_s`` times in a traced run; the program then receives
them as packing JSON.

The saturation workloads start from a jittered loose hexagonal lattice
with seed-chosen holes rather than from random sequential adsorption.
Each hole is one missing site whose six neighbours are present, so it
takes exactly one insertion to fill, and every case of a workload does
the same number of insertions on the same number of centres. With random
sequential adsorption the insertion count varied between seeds (18 to 29
on the box), and the saturation time varied with it.
"""

import math
from random import Random

SQRT3 = math.sqrt(3.0)

WORKLOADS = ("torus-saturate", "box-saturate", "lattice-degenerate", "verify-large")

# verify-large runs the `thuelab analyze` steps; these are its SVG layers.
SVG_LAYERS = ("circles", "voronoi", "violations")


def case_seed(seed, index):
    return seed * 1000 + index


def jittered_hex(packing, domain, spacing, cols, rows, origin, holes, seed):
    """Hexagonal lattice of the given spacing, minus `holes` sites drawn by
    the seed, each centre then moved by at most 0.12 (``packing.perturb``).

    Holes are drawn from the sites with even column and row indices whose
    position lies in [lo, hi] on both axes (``holes`` is (count, lo, hi)),
    so no two holes are neighbours. The result is a valid packing with
    every pair >= spacing - 0.24 > 2 apart, and away from the holes every
    empty circle has radius <= spacing / sqrt3 + 0.12 < 2."""
    count, lo, hi = holes
    dy = spacing * SQRT3 / 2.0
    sites = {
        (i, j): (origin + (i + 0.5 * (j % 2)) * spacing, origin + j * dy)
        for j in range(rows)
        for i in range(cols)
    }
    candidates = [
        key
        for key, (x, y) in sites.items()
        if key[0] % 2 == 0 and key[1] % 2 == 0 and lo <= x <= hi and lo <= y <= hi
    ]
    rng = Random(seed)
    removed = set(rng.sample(candidates, count))
    loose = packing.PackingConfiguration(
        domain, tuple(p for key, p in sites.items() if key not in removed)
    )
    return packing.perturb(loose, seed=seed, magnitude=0.12)


def make_case(packing, workload, seed, index):
    """Input packings of one case, built with the thuelab packing module."""
    s = case_seed(seed, index)
    Domain = packing.Domain
    if workload == "torus-saturate":
        # 32 x 36 sites with spacing 2.5 on an 80 x 77.9 torus; the even
        # column and row counts keep the lattice and the holes periodic.
        domain = Domain("torus", 32 * 2.5, 36 * 2.5 * SQRT3 / 2.0)
        return [jittered_hex(packing, domain, 2.5, 32, 36, 0.0, (120, 0.0, 80.0), s)]
    if workload == "box-saturate":
        # 16 x 17 sites; the holes stay 2.5 inside the margin-4 analysis region
        domain = Domain("box", 40.0, 40.0, margin=4.0)
        return [jittered_hex(packing, domain, 2.5, 16, 17, 0.75, (12, 6.5, 33.5), s)]
    if workload == "lattice-degenerate":
        rng = Random(s)
        out = []
        for lattice in (
            packing.gen_hexagonal(Domain("torus", 40.0, 20.0 * SQRT3)),
            packing.gen_square(Domain("torus", 40.0, 40.0)),
        ):
            centres = list(lattice.centers)
            rng.shuffle(centres)
            out.append(packing.PackingConfiguration(lattice.domain, tuple(centres)))
        return out
    if workload == "verify-large":
        # 36 columns x 42 rows of spacing 2.3, no holes: saturated by
        # construction (2.3 / sqrt3 + 0.12 < 2). The side stays near 83:
        # LTriangle.area runs the shoelace formula in absolute coordinates,
        # and from a side of about 96 its rounding error on a valid packing
        # nears the area_identity bound of 1e-12 (a false FAIL on about one
        # packing in ten at side 120).
        domain = Domain("torus", 36 * 2.3, 42 * 2.3 * SQRT3 / 2.0)
        return [jittered_hex(packing, domain, 2.3, 36, 42, 0.0, (0, 0.0, 0.0), s)]
    raise ValueError(f"unknown workload {workload!r}")
