import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thuelab.geometry import DEFAULT_TOL, DegenerateGeometryError
from thuelab.lattice import (
    HEX_MIN_DET,
    Basis2,
    det,
    gauss_reduce,
    is_admissible,
    lagrange_bound_check,
    shortest_vector,
)

SQRT3 = math.sqrt(3.0)


def _norm(v):
    return math.hypot(v[0], v[1])


class TestDet:
    def test_hexagonal(self):
        assert det(Basis2((2, 0), (1, SQRT3))) == pytest.approx(2 * SQRT3)

    def test_identity(self):
        assert det(Basis2((1, 0), (0, 1))) == 1.0

    def test_dependent(self):
        assert det(Basis2((2, 0), (4, 0))) == 0.0


class TestGaussReduce:
    def test_one_step(self):
        red = gauss_reduce(Basis2((2, 0), (3, SQRT3)))
        n1, n2 = _norm(red.basis.b1), _norm(red.basis.b2)
        assert n1 == pytest.approx(2.0, abs=1e-12)
        assert n2 == pytest.approx(2.0, abs=1e-12)
        assert abs(det(red.basis)) == pytest.approx(2 * SQRT3, abs=1e-12)

    def test_already_reduced(self):
        red = gauss_reduce(Basis2((2, 0), (0, 2)))
        assert red.basis == Basis2((2.0, 0.0), (0.0, 2.0))
        assert red.unimodular_map == ((1, 0), (0, 1))

    def test_size_reduction(self):
        red = gauss_reduce(Basis2((1, 0), (100, 1)))
        assert _norm(red.basis.b1) == pytest.approx(1.0)
        assert _norm(red.basis.b2) == pytest.approx(1.0)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateGeometryError):
            gauss_reduce(Basis2((1, 1), (2, 2)))

    def test_reduced_conditions_and_unimodularity(self):
        rng = random.Random(21)
        for _ in range(1000):
            b = Basis2(
                (rng.uniform(-5, 5), rng.uniform(-5, 5)),
                (rng.uniform(-5, 5), rng.uniform(-5, 5)),
            )
            if abs(det(b)) < 1e-3:
                continue
            red = gauss_reduce(b)
            b1, b2 = red.basis
            n1, n2 = _norm(b1), _norm(b2)
            plus = _norm((b2[0] + b1[0], b2[1] + b1[1]))
            minus = _norm((b2[0] - b1[0], b2[1] - b1[1]))
            assert n1 <= n2 * (1 + 1e-12)
            assert n2 <= min(plus, minus) * (1 + 1e-12)
            # unimodular map reproduces the output and preserves |det|
            (m00, m01), (m10, m11) = red.unimodular_map
            assert abs(m00 * m11 - m01 * m10) == 1
            out1 = (m00 * b.b1[0] + m01 * b.b2[0], m00 * b.b1[1] + m01 * b.b2[1])
            out2 = (m10 * b.b1[0] + m11 * b.b2[0], m10 * b.b1[1] + m11 * b.b2[1])
            assert out1 == pytest.approx(b1, abs=1e-9)
            assert out2 == pytest.approx(b2, abs=1e-9)
            assert abs(abs(det(red.basis)) - abs(det(b))) <= 1e-12 * abs(det(b))

    def test_scaling_covariance(self):
        rng = random.Random(22)
        for _ in range(200):
            b = Basis2(
                (rng.uniform(-5, 5), rng.uniform(-5, 5)),
                (rng.uniform(-5, 5), rng.uniform(-5, 5)),
            )
            if abs(det(b)) < 1e-3:
                continue
            s = rng.uniform(0.1, 10.0)
            red = gauss_reduce(b)
            scaled = gauss_reduce(Basis2(
                (s * b.b1[0], s * b.b1[1]), (s * b.b2[0], s * b.b2[1])
            ))
            assert scaled.unimodular_map == red.unimodular_map
            for v, w in zip(red.basis, scaled.basis):
                assert w[0] == pytest.approx(s * v[0], rel=1e-12, abs=1e-12)
                assert w[1] == pytest.approx(s * v[1], rel=1e-12, abs=1e-12)


def _coordinate():
    """Doubles of either sign with binary exponents from -40 to 40."""
    return st.builds(
        lambda m, e: math.ldexp(m, e),
        st.floats(-1.0, 1.0, allow_nan=False),
        st.integers(-40, 40),
    )


@st.composite
def _bases(draw):
    """Random bases, and hexagonal or square lattice bases (whose
    reduction meets the ties |b2 + b1| == |b2 - b1| and <u, v> = |u|^2 / 2)
    scaled by a power of two and skewed by a unimodular map."""
    kind = draw(st.sampled_from(["random", "hex", "square"]))
    if kind == "random":
        return Basis2((draw(_coordinate()), draw(_coordinate())),
                      (draw(_coordinate()), draw(_coordinate())))
    s = math.ldexp(1.0, draw(st.integers(-20, 20)))
    u, v = ((2.0 * s, 0.0), (s, SQRT3 * s)) if kind == "hex" else ((s, 0.0), (0.0, s))
    for k in draw(st.lists(st.integers(-4, 4), max_size=4)):
        u, v = v, (v[0] + k * u[0], v[1] + k * u[1])
    return Basis2(u, v)


@settings(max_examples=500, deadline=None)
@given(_bases())
def test_gauss_reduce_matches_fraction_oracle(b):
    # the integer reduction gives the very floats and map of the rational one
    exact_det = Fraction(b.b1[0]) * Fraction(b.b2[1]) - Fraction(b.b1[1]) * Fraction(b.b2[0])
    if exact_det == 0 or abs(det(b)) <= DEFAULT_TOL.eps_eq ** 2:
        with pytest.raises(DegenerateGeometryError):
            gauss_reduce(b)
        return
    basis, unimodular = oracles.gauss_reduce_fraction(b.b1, b.b2)
    red = gauss_reduce(b)
    assert (tuple(red.basis.b1), tuple(red.basis.b2)) == basis
    assert red.unimodular_map == unimodular


def test_gauss_reduce_hex_tie_rounds_half_up():
    # <u, v> / |u|^2 == 1/2 exactly: the coefficient rounds to 1
    red = gauss_reduce(Basis2((2.0, 0.0), (1.0, 5.0)))
    assert red.basis == Basis2((2.0, 0.0), (-1.0, 5.0))
    assert red.unimodular_map == ((1, 0), (-1, 1))


class TestShortestVector:
    def test_hexagonal(self):
        assert _norm(shortest_vector(Basis2((2, 0), (1, SQRT3)))) == pytest.approx(2.0)

    def test_square(self):
        assert _norm(shortest_vector(Basis2((2, 0), (0, 2)))) == pytest.approx(2.0)

    def test_skewed(self):
        assert _norm(shortest_vector(Basis2((2, 0), (3, SQRT3)))) == pytest.approx(2.0)

    def test_matches_brute_force(self):
        # |z_i| <= 2 provably covers the shortest vector of a reduced basis;
        # searching to 5 adds margin. The raw-basis search only bounds from
        # above (a skewed basis can need huge raw coefficients).
        rng = random.Random(23)
        checked = 0
        while checked < 1000:
            b = Basis2(
                (rng.uniform(-5, 5), rng.uniform(-5, 5)),
                (rng.uniform(-5, 5), rng.uniform(-5, 5)),
            )
            if abs(det(b)) < 1e-2:
                continue
            checked += 1
            got = _norm(shortest_vector(b))
            reduced = gauss_reduce(b).basis
            want = oracles.brute_shortest_norm(reduced.b1, reduced.b2, zmax=5)
            assert abs(got - want) <= 1e-12 * max(1.0, want)
            raw = oracles.brute_shortest_norm(b.b1, b.b2, zmax=5)
            assert got <= raw + 1e-12


class TestAdmissibility:
    def test_hexagonal_admissible(self):
        assert is_admissible(Basis2((2, 0), (1, SQRT3)))

    def test_short_vector_inadmissible(self):
        # (-1, 1) has norm sqrt(2) < 2
        assert not is_admissible(Basis2((2, 0), (1, 1)))

    def test_coarse_admissible(self):
        assert is_admissible(Basis2((3, 0), (0, 3)))


class TestLagrangeBound:
    def test_hexagonal_equality_case(self):
        res = lagrange_bound_check(Basis2((2, 0), (1, SQRT3)))
        assert res.admissible
        assert res.det_abs == pytest.approx(2 * SQRT3, abs=1e-12)
        assert res.bound_ok
        assert res.hexagonal

    def test_square_not_hexagonal(self):
        res = lagrange_bound_check(Basis2((2, 0), (0, 2)))
        assert res.admissible
        assert res.det_abs == pytest.approx(4.0)
        assert res.bound_ok
        assert not res.hexagonal

    def test_inadmissible_vacuous(self):
        res = lagrange_bound_check(Basis2((2, 0), (1, 1)))
        assert not res.admissible
        assert res.bound_ok

    def test_obtuse_hexagonal_variant(self):
        # same lattice, reduced angle 2pi/3; sign normalization must still
        # recognize the equality case
        res = lagrange_bound_check(Basis2((2, 0), (-1, SQRT3)))
        assert res.hexagonal

    def test_randomized_bound(self):
        rng = random.Random(24)
        admissible_seen = 0
        while admissible_seen < 2000:
            b = Basis2(
                (rng.uniform(-6, 6), rng.uniform(-6, 6)),
                (rng.uniform(-6, 6), rng.uniform(-6, 6)),
            )
            if abs(det(b)) < 1e-6:
                continue
            res = lagrange_bound_check(b)
            if not res.admissible:
                continue
            admissible_seen += 1
            assert res.det_abs >= HEX_MIN_DET - 1e-9
            if res.det_abs <= HEX_MIN_DET + 1e-6:
                assert res.hexagonal

    def test_transformed_hexagonal_bases_hit_equality(self):
        # unimodular images of the hexagonal basis keep det = 2*sqrt(3) and
        # must always trip both the bound equality and the hexagonal flag
        rng = random.Random(25)
        base = ((2.0, 0.0), (1.0, SQRT3))
        for _ in range(200):
            a, b, c, d = 1, 0, 0, 1
            for _ in range(rng.randrange(1, 6)):
                k = rng.randrange(-3, 4)
                if rng.random() < 0.5:
                    a, b = a + k * c, b + k * d
                else:
                    c, d = c + k * a, d + k * b
            if a * d - b * c not in (-1, 1):
                continue
            phi = rng.uniform(0, 2 * math.pi)
            cs, sn = math.cos(phi), math.sin(phi)

            def rot(v):
                return (cs * v[0] - sn * v[1], sn * v[0] + cs * v[1])

            v1 = rot((a * base[0][0] + b * base[1][0], a * base[0][1] + b * base[1][1]))
            v2 = rot((c * base[0][0] + d * base[1][0], c * base[0][1] + d * base[1][1]))
            res = lagrange_bound_check(Basis2(v1, v2))
            assert res.admissible
            assert res.det_abs == pytest.approx(2 * SQRT3, abs=1e-9)
            assert res.hexagonal
