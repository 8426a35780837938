"""Hermite recursions, Gaussian absolute moments, and the limit constants.

The oracle abs_gaussian_moment below takes E|p(Z)| from p's exact
coefficients and needs no quadrature: since h_k = t*h_{k-1} - h_{k-1}', the
Gaussian density phi satisfies (h_{k-1} phi)' = -h_k phi, so the integral of
h_k phi between two points is a difference of h_{k-1} phi, and |p| is
integrated piece by piece between the real roots of p.  The package's limit
constants take another route, a sum over the roots of h_d.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e
from scipy import integrate

from cube_constants import hermite


def phi(t: float) -> float:
    return math.exp(-t * t / 2) / math.sqrt(2 * math.pi)


def _real_roots(p: hermite.RationalPolynomial) -> list[float]:
    """Real roots of p, ascending, from the companion matrix.

    Good enough as cuts for abs_gaussian_moment: an error delta in a root
    moves the integral by O(delta^2), since the integrand vanishes there.
    """
    roots = np.polynomial.polynomial.polyroots([float(c) for c in p.coeffs])
    return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-8 * (1 + abs(r)))


def _hermite_coefficients(p: hermite.RationalPolynomial) -> list[Fraction]:
    """c with p = sum_k c_k h_k, exactly: peel off the leading term (h_k is monic)."""
    c = [Fraction(0)] * (p.degree() + 1)
    while not p.is_zero():
        k = p.degree()
        c[k] = p.coeffs[k]
        p = p - hermite.hermite_poly(k).scaled(c[k])
    return c


def abs_gaussian_moment(p: hermite.RationalPolynomial) -> float:
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
        return 0.5 * c[0] * math.erfc(-t / math.sqrt(2)) - phi(t) * acc

    values = [0.0, *(antiderivative(r) for r in _real_roots(p)), c[0]]
    return math.fsum(abs(b - a) for a, b in zip(values, values[1:]))


class TestPolynomials:
    def test_first_few_hand_values(self):
        assert hermite.hermite_poly(0).coeffs == (1,)
        assert hermite.hermite_poly(1).coeffs == (0, 1)
        assert hermite.hermite_poly(2).coeffs == (-1, 0, 1)
        assert hermite.hermite_poly(3).coeffs == (0, -3, 0, 1)
        assert hermite.hermite_poly(4).coeffs == (3, 0, -6, 0, 1)

    @given(st.integers(0, 40))
    def test_matches_numpy_hermite_e(self, d):
        basis = [0.0] * d + [1.0]
        want = hermite_e.herme2poly(basis)
        got = hermite.hermite_poly(d).coeffs
        assert len(got) == len(want)
        # numpy works in float64; above d ~ 25 its coefficients round
        for a, b in zip(got, want):
            if d <= 20:
                assert float(a) == b
            else:
                assert abs(float(a) - b) <= 1e-10 * max(1.0, abs(b))

    @given(st.integers(0, 60))
    def test_p_poly_is_hermite_over_factorial(self, d):
        assert hermite.p_poly(d).scaled(math.factorial(d)) == hermite.hermite_poly(d)

    @given(st.integers(0, 40))
    def test_inverse_expansion_reconstructs_monomial(self, d):
        # t^d = d! sum_k h_{d-2k} / (k! 2^k (d-2k)!)
        total = hermite.RationalPolynomial((Fraction(0),))
        for k in range(d // 2 + 1):
            denom = math.factorial(k) * 2**k * math.factorial(d - 2 * k)
            total = total + hermite.hermite_poly(d - 2 * k).scaled(
                Fraction(math.factorial(d), denom)
            )
        assert total == hermite.monomial(d)

    @given(
        st.integers(0, 10),
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
    )
    def test_normalized_recurrence_matches_coefficients(self, d, t):
        direct = float(hermite.hermite_poly(d)(t)) / math.sqrt(math.factorial(d))
        rec = hermite.hermite_value_normalized(d, float(t))
        assert abs(rec - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_degree_guard(self):
        with pytest.raises(hermite.SizeGuardError):
            hermite.hermite_poly(hermite.MAX_POLY_DEGREE + 1)


class TestRationalPolynomial:
    def test_arithmetic_and_eval(self):
        p = hermite.RationalPolynomial((Fraction(1), Fraction(2)))  # 1 + 2t
        q = hermite.RationalPolynomial((Fraction(0), Fraction(0), Fraction(1)))
        s = p + q
        assert s(Fraction(3)) == 1 + 6 + 9
        assert (p - p).degree() == -1
        assert p.times_t()(Fraction(2)) == 2 * (1 + 4)

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=30)
    def test_shift_scale_consistency(self, d, data):
        coeffs = tuple(
            Fraction(data.draw(st.integers(-9, 9)))
            for _ in range(d + 1)
        )
        p = hermite.RationalPolynomial(coeffs)
        t = Fraction(data.draw(st.integers(-5, 5)), 3)
        assert p.shifted_up(2)(t) == p(t) * t * t
        assert p.scaled(Fraction(7, 2))(t) == p(t) * Fraction(7, 2)


class TestRoots:
    def test_root_count_and_localization(self):
        for d in range(1, hermite.MAX_MOMENT_DEGREE + 1):
            roots = hermite.hermite_roots(d)
            assert len(roots) == d
            for r in roots:
                width = 1e-8 * (1 + abs(r))
                lo = hermite.hermite_value_normalized(d, r - width)
                hi = hermite.hermite_value_normalized(d, r + width)
                assert lo == 0 or hi == 0 or (lo < 0) != (hi < 0)
            assert all(a < b for a, b in zip(roots, roots[1:]))

    def test_interlacing(self):
        for d in range(2, hermite.MAX_MOMENT_DEGREE + 1):
            inner = hermite.hermite_roots(d - 1)
            outer = hermite.hermite_roots(d)
            for i in range(d - 1):
                assert outer[i] < inner[i] < outer[i + 1]

    def test_guard(self):
        for d in (0, hermite.MAX_MOMENT_DEGREE + 1):
            with pytest.raises(hermite.SizeGuardError):
                hermite.hermite_roots(d)


class TestAbsMoment:
    def test_abs_first_moment(self):
        p = hermite.monomial(1)
        want = math.sqrt(2 / math.pi)
        assert abs(abs_gaussian_moment(p) - want) <= 1e-11

    def test_h2_closed_form(self):
        # E|Z^2 - 1| = 4 phi(1)
        got = abs_gaussian_moment(hermite.hermite_poly(2))
        assert abs(got - 4 * phi(1)) <= 1e-11

    def test_constant_and_zero(self):
        assert abs_gaussian_moment(
            hermite.RationalPolynomial((Fraction(-3),))
        ) == 3
        assert abs_gaussian_moment(
            hermite.RationalPolynomial((Fraction(0),))
        ) == 0

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=15, deadline=None)
    def test_against_direct_quadrature(self, d, data):
        coeffs = tuple(
            Fraction(data.draw(st.integers(-5, 5))) for _ in range(d + 1)
        )
        self.check_against_quadrature(hermite.RationalPolynomial(coeffs))

    @pytest.mark.parametrize(
        "coeffs",
        [(2, -3, 0, 1), (1, 0, 1)],
        ids=["double-root", "no-real-root"],
    )
    def test_repeated_and_missing_real_roots(self, coeffs):
        # a double root is no sign change, and t^2 + 1 has no cut at all
        self.check_against_quadrature(
            hermite.RationalPolynomial(tuple(Fraction(c) for c in coeffs))
        )

    @staticmethod
    def check_against_quadrature(p):
        got = abs_gaussian_moment(p)
        # |p| has kinks at the real roots of p; without them as breakpoints
        # quad misjudges its own error (p = 2t^2 + 4t - 5 is off by 1.3e-6
        # while reporting 2.2e-8)
        roots = np.roots([float(c) for c in reversed(p.coeffs)])
        kinks = sorted(
            float(r.real) for r in roots if abs(r.imag) < 1e-6 and -40 < r.real < 40
        )
        ref, err = integrate.quad(
            lambda t: abs(float(p(t))) * phi(t), -40, 40, limit=400,
            points=kinks or None,
        )
        assert abs(got - ref) <= 1e-7 + 10 * err


class TestLimitConstants:
    def test_d2_closed_form(self):
        want = math.sqrt(2 / (math.pi * math.e))
        assert abs(hermite.limit_constant(2) - want) <= 1e-12

    def test_d3_closed_form(self):
        want = (1 + 4 * math.exp(-1.5)) / (3 * math.sqrt(2 * math.pi))
        assert abs(hermite.limit_constant(3) - want) <= 1e-12

    def test_matches_exact_coefficient_route(self):
        # E|P_d(Z)| from P_d's exact coefficients, cut at its companion roots
        for d in range(1, 21):
            want = abs_gaussian_moment(hermite.p_poly(d))
            assert abs(hermite.limit_constant(d) / want - 1) <= 1e-14

    def test_normalized_is_scaled_raw(self):
        for d in range(1, 15):
            raw = hermite.limit_constant(d)
            norm = hermite.normalized_limit_constant(d)
            assert abs(norm - raw * math.sqrt(math.factorial(d))) <= 1e-10 * norm

    def test_normalized_agrees_with_coefficient_route(self):
        for d in range(1, 21):
            via_coeffs = abs_gaussian_moment(
                hermite.hermite_poly(d)
            ) / math.sqrt(math.factorial(d))
            assert abs(hermite.normalized_limit_constant(d) - via_coeffs) <= 1e-9

    def test_large_degree_does_not_overflow(self):
        # asymptote 2^{7/4} pi^{-5/4} d^{-1/4} is 0.2891 at d = 60
        v = hermite.normalized_limit_constant(60)
        assert 0.28 < v < 0.30

    @given(st.integers(10, 40))
    def test_larsson_cohn_ratio_near_one(self, d):
        assert abs(hermite.larsson_cohn_ratio(d) - 1) <= 2 / d**2

    def test_normalized_decreasing(self):
        values = [hermite.normalized_limit_constant(d) for d in range(2, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))
