"""The degree-d power identity and its coefficients.

The sum of all degree-d Walsh characters rewrites as a polynomial in the
coordinate sum: d! * sum_{|S|=d} x^S = (sum x_i)^d - sum_k C_{d,k,N} *
(that same character sum at degree d-2k).  The integer coefficients
C_{d,k,N} count even multi-indices of order 2k merged into a fixed
square-free one.  This module computes them from a generating series,
checks the identity at every cube point, gives the level sums, and expands
them in a Hermite basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import CubeError, SizeGuardError, character_sum_table
from .hermite import hermite_poly

MAX_C_DEGREE = 10
_BECKNER_RESIDUAL_CAP = 1e-8


def _series_pow(series: list[Fraction], exponent: int, order: int) -> list[Fraction]:
    """series**exponent truncated beyond `order`, exponent >= 0 small."""
    out = [Fraction(1)] + [Fraction(0)] * order
    base = series[: order + 1] + [Fraction(0)] * max(0, order + 1 - len(series))
    for _ in range(exponent):
        nxt = [Fraction(0)] * (order + 1)
        for i, a in enumerate(out):
            if a == 0:
                continue
            for j in range(order + 1 - i):
                nxt[i + j] += a * base[j]
        out = nxt
    return out


def c_coefficient(d: int, k: int, n: int) -> int:
    """C_{d,k,N}, exact, in closed form: polynomial in N, for any N >= d.

    Split the even index beta (order k) into the part overlapping the fixed
    square-free support (t = d-2k coordinates, per-coordinate weight
    z^b/(1+2b)!) and the rest (weight z^b/(2b)!).  Summing over placements
    off the support uses only binomials C(N-t, j), so N enters polynomially:

        C_{d,k,N} = d! * [z^k]  A(z)^t * sum_j C(N-t, j) (B(z)-1)^j

    with A(z) = sum z^b/(1+2b)!, B(z) = sum z^b/(2b)!.
    """
    if not 1 <= k <= d // 2:
        raise CubeError(f"k={k} must satisfy 1 <= k <= floor(d/2)={d // 2}")
    if not d <= n:
        raise CubeError(f"need d <= N, got d={d}, N={n}")
    if d > MAX_C_DEGREE:
        raise SizeGuardError(f"d={d} exceeds {MAX_C_DEGREE}")
    t = d - 2 * k
    a_series = [Fraction(1, math.factorial(1 + 2 * b)) for b in range(k + 1)]
    b_minus_one = [Fraction(0)] + [Fraction(1, math.factorial(2 * b)) for b in range(1, k + 1)]
    acc = _series_pow(a_series, t, k)
    total = Fraction(0)
    bj = [Fraction(1)] + [Fraction(0)] * k  # (B-1)^j, truncated
    for j in range(k + 1):
        if j > 0:
            bj = [
                sum((bj[i] * b_minus_one[m - i] for i in range(m + 1)), Fraction(0))
                for m in range(k + 1)
            ]
        weight = math.comb(n - t, j)
        total += weight * sum((acc[i] * bj[k - i] for i in range(k + 1)), Fraction(0))
    value = total * math.factorial(d)
    if value.denominator != 1:
        raise CubeError("C coefficient came out non-integral; broken identity")
    return int(value)


def c_coefficient_bounds(d: int, k: int, n: int) -> tuple[int, int]:
    """[lower, upper] with C_{d,k,N} - C(N-d+2k, k) d!/2^k in [0, N^{k-1} 2d d!]."""
    main = math.comb(n - d + 2 * k, k) * math.factorial(d) // 2**k
    return main, main + n ** (k - 1) * 2 * d * math.factorial(d)


def level_sum_at(n: int, d: int, m: int) -> int:
    """Value of sum_{|S|=d} x^S at any point with m coordinates equal to +1.

    Choosing j elements of S among the +1 coordinates and d-j among the -1
    ones contributes (-1)^{d-j} C(m,j) C(n-m,d-j).
    """
    if not 0 <= m <= n or not 0 <= d <= n:
        raise CubeError(f"need 0 <= d,m <= N; got d={d}, m={m}, N={n}")
    return sum(
        (-1) ** (d - j) * math.comb(m, j) * math.comb(n - m, d - j)
        for j in range(max(0, d - (n - m)), min(d, m) + 1)
    )


@dataclass(frozen=True)
class PowerIdentityReport:
    d: int
    n: int
    passed: bool
    max_discrepancy: int
    points_checked: int


def verify_power_identity(d: int, n: int) -> PowerIdentityReport:
    """Check d! * E_d(x) = (sum x_i)^d - sum_k C_{d,k,N} E_{d-2k}(x) at every
    cube point, where E_j(x) = sum_{|S|=j} x^S; exact integers throughout."""
    if not d <= n:
        raise CubeError(f"need d <= N, got d={d}, N={n}")
    if n > 14 or d > 6:
        raise SizeGuardError(f"power identity check capped at N=14, d=6; got N={n}, d={d}")
    points = np.arange(1 << n, dtype=np.uint64)
    weights = np.bitwise_count(points)
    # E_j(x) for every point mask x; |E_j| <= C(N, j), so int64 is exact
    level_values = {
        j: character_sum_table(points[weights == j], n) for j in range(d % 2, d + 1, 2)
    }
    coord_sum = n - 2 * weights.astype(np.int64)
    rhs = coord_sum ** d
    for k in range(1, d // 2 + 1):
        rhs = rhs - c_coefficient(d, k, n) * level_values[d - 2 * k]
    lhs = math.factorial(d) * level_values[d]
    max_disc = int(np.max(np.abs(lhs - rhs)))
    return PowerIdentityReport(d, n, max_disc == 0, max_disc, 1 << n)


@dataclass(frozen=True)
class BecknerFit:
    d: int
    n: int
    a: tuple[float, ...]  # a_{d,k,N}, k = 1..floor(d/2)
    residual: float
    context: dict = field(default_factory=dict, compare=False)


def beckner_coefficients(d: int, n: int) -> BecknerFit:
    """Fit N^{-d/2} sum_{|S|=d} x^S = (1/d!)(h_d(s) + (1/N) sum_k a_k h_{d-2k}(s))
    over the attainable s = (2m-N)/sqrt(N), m = 0..N.

    The left side is a degree-d polynomial in s with the parity of d, so the
    identity is exact with constant a_k; the least-squares fit plus residual
    certificate recovers them without working in Q(sqrt(N)).
    """
    if not 2 <= d <= MAX_C_DEGREE:
        raise CubeError(f"need 2 <= d <= {MAX_C_DEGREE}, got d={d}")
    if not d <= n <= 200:
        raise CubeError(f"need d <= N <= 200, got N={n}")
    m_values = np.arange(n + 1)
    s_values = (2 * m_values - n) / math.sqrt(n)
    lhs = np.array([level_sum_at(n, d, int(m)) for m in m_values], dtype=float)
    lhs *= float(n) ** (-d / 2)
    h = {
        j: np.array([float(hermite_poly(j)(float(s))) for s in s_values])
        for j in range(d % 2, d + 1, 2)
    }
    d_fact = math.factorial(d)
    target = d_fact * lhs - h[d]
    k_range = range(1, d // 2 + 1)
    design = np.column_stack([h[d - 2 * k] / n for k in k_range])
    a, *_ = np.linalg.lstsq(design, target, rcond=None)
    reconstructed = (h[d] + design @ a) / d_fact
    residual = float(np.max(np.abs(reconstructed - lhs)))
    if residual > _BECKNER_RESIDUAL_CAP:
        raise CubeError(f"Beckner fit residual {residual:.3e} above {_BECKNER_RESIDUAL_CAP:.1e}")
    return BecknerFit(d, n, tuple(float(v) for v in a), residual, {"points": n + 1})
