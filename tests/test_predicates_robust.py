"""Adversarial robustness of the filtered predicates.

Inputs are built to sit within a few ulps of degeneracy, exactly where a
plain floating-point evaluation gives wrong signs. The filtered kernels
must agree with an independent exact rational evaluation on every single
case, for both backends.
"""

import math
import random

import pytest

import oracles
from thuelab import _core_py, _exact

backends = [pytest.param(_core_py, id="python")]
try:
    from thuelab import _core

    backends.append(pytest.param(_core, id="c"))
except ImportError:
    _core = None


def _nudge(rng, x, ulps=3):
    for _ in range(rng.randrange(ulps + 1)):
        x = math.nextafter(x, x + rng.choice((-1.0, 1.0)))
    return x


def _near_collinear_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        ax, ay = rng.uniform(-10, 10), rng.uniform(-10, 10)
        dx, dy = rng.uniform(-1, 1), rng.uniform(-1, 1)
        t1, t2 = rng.uniform(-4, 4), rng.uniform(-4, 4)
        bx, by = ax + t1 * dx, ay + t1 * dy
        cx, cy = ax + t2 * dx, ay + t2 * dy
        yield tuple(_nudge(rng, v) for v in (ax, ay, bx, by, cx, cy))


def _near_cocircular_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        cx, cy = rng.uniform(-5, 5), rng.uniform(-5, 5)
        r = rng.uniform(0.5, 5.0)
        pts = []
        for _ in range(4):
            th = rng.uniform(0, 2 * math.pi)
            pts.extend((cx + r * math.cos(th), cy + r * math.sin(th)))
        yield tuple(_nudge(rng, v) for v in pts)


@pytest.mark.parametrize("kernel", backends)
def test_orient2d_adversarial(kernel):
    for args in _near_collinear_cases(5000, seed=11):
        assert kernel.orient2d(*args) == oracles.orient2d_exact(*args)


@pytest.mark.parametrize("kernel", backends)
def test_incircle_adversarial(kernel):
    for args in _near_cocircular_cases(5000, seed=12):
        a = (args[0], args[1])
        b = (args[2], args[3])
        c = (args[4], args[5])
        if oracles.orient2d_exact(a[0], a[1], b[0], b[1], c[0], c[1]) == 0:
            continue
        # both sides compute the raw CCW-relative determinant sign
        assert kernel.incircle(*args) == oracles.incircle_exact(*args)


@pytest.mark.parametrize("kernel", backends)
def test_exactly_degenerate(kernel):
    # exactly representable degeneracies must classify as zero
    assert kernel.orient2d(0.0, 0.0, 1.0, 1.0, 2.0, 2.0) == 0
    assert kernel.incircle(0.0, 0.0, 2.0, 0.0, 0.0, 2.0, 2.0, 2.0) == 0
    assert kernel.incircle(0.0, 0.0, 2.0, 0.0, 2.0, 2.0, 0.0, 2.0) == 0


@pytest.mark.parametrize("kernel", backends)
def test_tiny_offsets_from_line(kernel):
    # points displaced one ulp off a diagonal
    up = math.nextafter(1.0, 2.0)
    down = math.nextafter(1.0, 0.0)
    assert kernel.orient2d(0.0, 0.0, 1.0, 1.0, 2.0, 2.0 * up) != 0
    s1 = kernel.orient2d(0.0, 0.0, 1.0, 1.0, 2.0, 2.0 * up)
    s2 = kernel.orient2d(0.0, 0.0, 1.0, 1.0, 2.0, 2.0 * down)
    assert s1 == -s2 != 0


def _scaled(args, rng):
    """Scale each point by its own power of two, deep enough that the
    filter's products fall into the subnormal range or underflow."""
    out = []
    for k in range(0, len(args), 2):
        e = rng.choice((-480, -520, -560, -600, -1000, -1040, -1070)) + rng.choice((0, 0, 300, 600))
        out.extend((math.ldexp(args[k], e), math.ldexp(args[k + 1], e)))
    return tuple(out)


@pytest.mark.parametrize("kernel", backends)
def test_predicates_under_underflow(kernel):
    # a=(0,0) with b and c far below 1 on one line through a: the filter's
    # products underflow to zero although the exact sign is -1
    b = (-1.292274289120069e-267, -2.261480005960121e-267)
    c = (-1.1898943099553189e-296, -2.082315042421808e-296)
    assert _exact.orient2d(0.0, 0.0, *b, *c) == -1
    assert kernel.orient2d(0.0, 0.0, *b, *c) == -1
    # one product is exactly zero and the other underflows to zero
    t = 1e-170
    for args, sign in (((0.0, 0.0, 0.0, t, t, 0.0), -1), ((0.0, 0.0, t, 5.0, 0.0, t), 1)):
        assert _exact.orient2d(*args) == sign
        assert kernel.orient2d(*args) == sign
    rng = random.Random(13)
    for args in _near_collinear_cases(400, seed=14):
        args = _scaled(args, rng)
        assert kernel.orient2d(*args) == _exact.orient2d(*args)
    for args in _near_cocircular_cases(400, seed=15):
        args = _scaled(args, rng)
        assert kernel.incircle(*args) == _exact.incircle(*args)
