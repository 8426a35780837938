"""Probabilist's Hermite polynomials, their rescaled companions, and the
absolute Gaussian moments E|p(Z)| that appear as dimension-normalized limits
of the projection constants.

h_0 = 1, h_1 = t, h_{n+1} = t*h_n - n*h_{n-1} (orthogonal for the standard
Gaussian weight).  P_d = h_d / d! satisfies the recursion
P_d = t^d/d! - sum_{k=1}^{floor(d/2)} P_{d-2k} / (k! 2^k), which is how it is
built here; the equality with h_d/d! is a test, not an assumption.

The absolute moments need no quadrature: since
h_k = t*h_{k-1} - h_{k-1}', the Gaussian density phi satisfies
(h_{k-1} phi)' = -h_k phi, so the integral of h_k phi between two points is a
difference of h_{k-1} phi, and |p| is integrated piece by piece between the
real roots of p.

The limit constants take one route for every degree: a sum over the roots of
h_d, which are the eigenvalues of its Jacobi matrix, tridiagonal with zero
diagonal and off-diagonal sqrt(1..d-1) (Golub & Welsch, Math. Comp. 23,
1969).  A root error delta moves that sum only by O(delta^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import SizeGuardError

MAX_POLY_DEGREE = 200
MAX_MOMENT_DEGREE = 60


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense univariate polynomial, exact rational coefficients, lowest first."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = tuple(Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, t):
        acc = 0 if not isinstance(t, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + (float(c) if isinstance(t, float) else c)
        return acc

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(tuple(out))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "RationalPolynomial":
        f = Fraction(factor)
        return RationalPolynomial(tuple(c * f for c in self.coeffs))

    def shifted_up(self, k: int) -> "RationalPolynomial":
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return RationalPolynomial((Fraction(0),) * k + self.coeffs)

    def times_t(self) -> "RationalPolynomial":
        return self.shifted_up(1)


def monomial(d: int, coeff=1) -> RationalPolynomial:
    return RationalPolynomial((Fraction(0),) * d + (Fraction(coeff),))


_hermite_cache: list[RationalPolynomial] = [
    RationalPolynomial((Fraction(1),)),
    RationalPolynomial((Fraction(0), Fraction(1))),
]


def hermite_poly(d: int) -> RationalPolynomial:
    """h_d via the three-term recurrence; integer coefficients."""
    if not 0 <= d <= MAX_POLY_DEGREE:
        raise SizeGuardError(f"hermite degree {d} outside [0, {MAX_POLY_DEGREE}]")
    while len(_hermite_cache) <= d:
        n = len(_hermite_cache) - 1
        h_n, h_prev = _hermite_cache[n], _hermite_cache[n - 1]
        _hermite_cache.append(h_n.times_t() - h_prev.scaled(n))
    return _hermite_cache[d]


_p_cache: list[RationalPolynomial] = [
    RationalPolynomial((Fraction(1),)),
    RationalPolynomial((Fraction(0), Fraction(1))),
]


def p_poly(d: int) -> RationalPolynomial:
    """P_d from its defining recursion (independent of hermite_poly)."""
    if not 0 <= d <= MAX_POLY_DEGREE:
        raise SizeGuardError(f"P degree {d} outside [0, {MAX_POLY_DEGREE}]")
    while len(_p_cache) <= d:
        n = len(_p_cache)
        p = monomial(n, Fraction(1, math.factorial(n)))
        for k in range(1, n // 2 + 1):
            p = p - _p_cache[n - 2 * k].scaled(Fraction(1, math.factorial(k) * 2**k))
        _p_cache.append(p)
    return _p_cache[d]


def hermite_value_normalized(d: int, t: float) -> float:
    """h_d(t)/sqrt(d!) by the orthonormal recurrence; stable for large d."""
    if d == 0:
        return 1.0
    prev, cur = 1.0, t
    for n in range(1, d):
        prev, cur = cur, (t * cur - math.sqrt(n) * prev) / math.sqrt(n + 1)
    return cur


def hermite_roots(d: int) -> list[float]:
    """The d real roots of h_d, ascending.  The orthonormal recurrence
    t h~_n = sqrt(n+1) h~_{n+1} + sqrt(n) h~_{n-1} makes h_d the
    characteristic polynomial of the Jacobi matrix."""
    if not 1 <= d <= MAX_MOMENT_DEGREE:
        raise SizeGuardError(f"degree {d} outside [1, {MAX_MOMENT_DEGREE}]")
    off = np.sqrt(np.arange(1.0, d))
    return np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1)).tolist()


def _real_roots(p: RationalPolynomial) -> list[float]:
    """Real roots of p, ascending, from the companion matrix.

    Good enough as cuts for abs_gaussian_moment: an error delta in a root
    moves the integral by O(delta^2), since the integrand vanishes there.
    """
    roots = np.polynomial.polynomial.polyroots([float(c) for c in p.coeffs])
    return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-8 * (1 + abs(r)))


def _gaussian_density(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)


def _hermite_coefficients(p: RationalPolynomial) -> list[Fraction]:
    """c with p = sum_k c_k h_k, exactly: peel off the leading term (h_k is monic)."""
    c = [Fraction(0)] * (p.degree() + 1)
    while not p.is_zero():
        k = p.degree()
        c[k] = p.coeffs[k]
        p = p - hermite_poly(k).scaled(c[k])
    return c


def abs_gaussian_moment(p: RationalPolynomial) -> float:
    """E|p(Z)| for standard normal Z, in closed form.

    (h_{k-1} phi)' = -h_k phi, so with p = sum_k c_k h_k an antiderivative of
    p phi is F = c_0 Phi - phi sum_{k>=1} c_k h_{k-1}, with F(-inf) = 0 and
    F(+inf) = c_0.  p keeps one sign between consecutive real roots, so
    E|p| = sum |F(r_{i+1}) - F(r_i)| over the cuts -inf < r_1 < ... < +inf.
    A spurious or repeated root only splits an interval of one sign, and a
    missed root of even multiplicity is no sign change.
    """
    if p.is_zero():
        return 0.0
    c = [float(ck) for ck in _hermite_coefficients(p)]

    def antiderivative(t: float) -> float:
        # sum_k c_k h_{k-1}(t), h by the three-term recurrence
        acc, h_prev, h = 0.0, 0.0, 1.0
        for k in range(1, len(c)):
            acc += c[k] * h
            h_prev, h = h, t * h - (k - 1) * h_prev
        return 0.5 * c[0] * math.erfc(-t / math.sqrt(2)) - _gaussian_density(t) * acc

    values = [0.0, *(antiderivative(r) for r in _real_roots(p)), c[0]]
    return math.fsum(abs(b - a) for a, b in zip(values, values[1:]))


def normalized_limit_constant(d: int) -> float:
    """E|h_d(Z)|/sqrt(d!) = (2/sqrt d) sum_r |h~_{d-1}(r)| phi(r) over the roots r of h_d.

    Here h~_k = h_k/sqrt(k!).  The antiderivative -h_{d-1} phi of h_d phi
    vanishes at +-inf and alternates in sign over the roots, so each root
    contributes twice.
    """
    roots = hermite_roots(d)  # owns the degree guard of this module's limits
    total = math.fsum(
        abs(hermite_value_normalized(d - 1, r)) * _gaussian_density(r)
        for r in roots
    )
    return 2.0 * total / math.sqrt(d)


def limit_constant(d: int) -> float:
    """lim_N lambda(homogeneous degree-d space)/N^{d/2} = E|P_d(Z)| = E|h_d(Z)|/d!."""
    return normalized_limit_constant(d) / math.sqrt(math.factorial(d))


def larsson_cohn_ratio(d: int) -> float:
    """E|h_d|/sqrt(d!) divided by its asymptote 2^{7/4} pi^{-5/4} d^{-1/4}."""
    normalized = normalized_limit_constant(d)  # guards d before d ** (-1 / 4)
    asymptote = 2.0 ** (7 / 4) * math.pi ** (-5 / 4) * d ** (-1 / 4)
    return normalized / asymptote
