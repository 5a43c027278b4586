"""Rank-2 lattice bases: Lagrange-Gauss reduction and packing admissibility.

Reduction runs exactly, on integers: the four coordinates are doubles, so
they share a power-of-two denominator D, and the loop runs on the integer
numerators. The reduced-basis conditions therefore hold exactly, the
unimodular transform is exact integer data, and each output coordinate is
the correctly rounded int / D. A lattice is admissible for unit circles
when its shortest nonzero vector has length at least 2; among admissible
lattices the fundamental-parallelogram area is at least 2*sqrt(3), with
equality exactly for the hexagonal lattice. That minimum is what the
verifier leans on, and `lagrange_bound_check` records it per basis.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from thuelab.geometry import DEFAULT_TOL, DegenerateGeometryError, ToleranceConfig

__all__ = [
    "Basis2",
    "ReducedBasis",
    "LagrangeBoundResult",
    "det",
    "gauss_reduce",
    "shortest_vector",
    "is_admissible",
    "lagrange_bound_check",
    "HEX_MIN_DET",
]

#: minimal fundamental-parallelogram area of an admissible lattice
HEX_MIN_DET = 2.0 * math.sqrt(3.0)


class Basis2(NamedTuple):
    b1: tuple
    b2: tuple


@dataclass(frozen=True)
class ReducedBasis:
    """Gauss-reduced basis with the unimodular map that produced it.

    basis satisfies |b1| <= |b2| <= |b2 +- b1|; unimodular_map is the
    integer matrix ((m00, m01), (m10, m11)) with determinant +-1 such that
    out_b1 = m00*in_b1 + m01*in_b2 and out_b2 = m10*in_b1 + m11*in_b2.
    """

    basis: Basis2
    unimodular_map: tuple


class LagrangeBoundResult(NamedTuple):
    admissible: bool
    det_abs: float
    bound_ok: bool
    hexagonal: bool
    shortest_norm: float  # length of the reduced basis' first vector


def det(b: Basis2) -> float:
    """Signed area of the fundamental parallelogram."""
    return b.b1[0] * b.b2[1] - b.b1[1] * b.b2[0]


def _scaled_integers(b: Basis2):
    """(u, v, D): the basis vectors as integer pairs over their common
    denominator D, a power of two (every double is an integer over a power
    of two, and the largest of the four is a multiple of the others)."""
    ratios = [
        x.as_integer_ratio() if isinstance(x, float) else Fraction(x).as_integer_ratio()
        for x in (*b.b1, *b.b2)
    ]
    d = max(den for _, den in ratios)
    ux, uy, vx, vy = (num * (d // den) for num, den in ratios)
    return (ux, uy), (vx, vy), d


def _check_independent(b: Basis2, tol: ToleranceConfig):
    u, v, _ = _scaled_integers(b)
    if u[0] * v[1] - u[1] * v[0] == 0:
        raise DegenerateGeometryError("basis vectors are linearly dependent")
    if abs(det(b)) <= tol.eps_eq * tol.eps_eq:
        # |det| > eps_eq^2 guards against numerically useless bases.
        raise DegenerateGeometryError("basis is numerically degenerate")


def gauss_reduce(b: Basis2, tol: ToleranceConfig = DEFAULT_TOL) -> ReducedBasis:
    """Lagrange-Gauss reduction of a rank-2 basis.

    The loop subtracts the rounded projection coefficient and swaps until
    |b1| <= |b2| <= |b2 - t*b1| for every integer t. Exact arithmetic makes
    the tie cases (|b2 + b1| == |b2 - b1|) unambiguous: a zero projection
    coefficient simply stops the loop. The coefficient and every
    comparison are invariant under the common scale D, so the integer
    numerators reduce exactly as the rationals would.
    """
    _check_independent(b, tol)
    (ux, uy), (vx, vy), d = _scaled_integers(b)
    # rows of the unimodular map, kept alongside (u, v)
    mu = (1, 0)
    mv = (0, 1)
    nu, nv = ux * ux + uy * uy, vx * vx + vy * vy
    if nu > nv:
        ux, uy, vx, vy, nu, nv = vx, vy, ux, uy, nv, nu
        mu, mv = mv, mu
    while True:
        # t = floor(<u,v>/<u,u> + 1/2), exact
        t = (2 * (ux * vx + uy * vy) + nu) // (2 * nu)
        if t != 0:
            vx, vy = vx - t * ux, vy - t * uy
            mv = (mv[0] - t * mu[0], mv[1] - t * mu[1])
            nv = vx * vx + vy * vy
        if nv < nu:
            ux, uy, vx, vy, nu, nv = vx, vy, ux, uy, nv, nu
            mu, mv = mv, mu
        else:
            break
    # int / int is correctly rounded, as float(Fraction) is
    out = Basis2((ux / d, uy / d), (vx / d, vy / d))
    return ReducedBasis(basis=out, unimodular_map=(mu, mv))


def shortest_vector(b: Basis2, tol: ToleranceConfig = DEFAULT_TOL) -> tuple:
    """A nonzero lattice vector of minimal Euclidean norm.

    Equals the first vector of the Gauss-reduced basis.
    """
    return gauss_reduce(b, tol).basis.b1


def is_admissible(b: Basis2, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff the lattice plus unit circles is a valid packing
    (shortest vector length >= 2, within eps_eq slack)."""
    v = shortest_vector(b, tol)
    return math.hypot(v[0], v[1]) >= 2.0 - tol.eps_eq


def lagrange_bound_check(
    b: Basis2,
    tol: ToleranceConfig = DEFAULT_TOL,
    hex_tol: float = 1e-6,
) -> LagrangeBoundResult:
    """Check the minimal-determinant bound for an admissible basis.

    bound_ok is vacuously true for inadmissible bases; otherwise it asserts
    |det| >= 2*sqrt(3) - eps_eq. The hexagonal flag fires on the equality
    case: both reduced vectors of length 2 and an angle of pi/3 between
    them, within hex_tol. (hex_tol is looser than eps_eq because a
    determinant within 1e-6 of the bound only forces the norms and angle to
    within a few 1e-7.)
    """
    reduced = gauss_reduce(b, tol).basis
    (ux, uy), (vx, vy) = reduced.b1, reduced.b2
    # Normalize the sign of b2 so the angle lies in [pi/3, pi/2].
    if ux * vx + uy * vy < 0.0:
        vx, vy = -vx, -vy
    n1 = math.hypot(ux, uy)
    n2 = math.hypot(vx, vy)
    admissible = n1 >= 2.0 - tol.eps_eq
    det_abs = abs(det(b))
    bound_ok = (not admissible) or det_abs >= HEX_MIN_DET - tol.eps_eq
    angle = math.acos(max(-1.0, min(1.0, (ux * vx + uy * vy) / (n1 * n2))))
    hexagonal = (
        admissible
        and abs(n1 - 2.0) <= hex_tol
        and abs(n2 - 2.0) <= hex_tol
        and abs(angle - math.pi / 3.0) <= hex_tol
    )
    return LagrangeBoundResult(admissible, det_abs, bound_ok, hexagonal, n1)
