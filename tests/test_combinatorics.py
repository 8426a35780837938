"""C coefficients, the power identity, level sums, and Beckner fits."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cube_constants import combinatorics
from cube_constants.core import CubeError


def brute_level_sum(n: int, d: int, m: int) -> int:
    """sum over |S| = d of prod_{i in S} x_i at a point with m plus-ones."""
    x = [1] * m + [-1] * (n - m)
    total = 0
    for S in itertools.combinations(range(n), d):
        prod = 1
        for i in S:
            prod *= x[i]
        total += prod
    return total


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def c_coefficient_enum(d: int, k: int, n: int, support=None) -> int:
    """C_{d,k,N} by direct enumeration of even multi-indices of order 2k.

    support picks the coordinates carrying the fixed square-free index of
    order d-2k (default: the first d-2k); the value must not depend on that
    choice.  The oracle for the series route of c_coefficient.
    """
    t = d - 2 * k
    base = frozenset(support) if support is not None else frozenset(range(t))
    assert len(base) == t and all(0 <= i < n for i in base)
    fact = [math.factorial(i) for i in range(d + 1)]
    total = 0
    for beta in _compositions(k, n):
        gamma_fact = 1
        for i, b in enumerate(beta):
            if b:
                gamma_fact *= fact[2 * b + (i in base)]
        total += fact[d] // gamma_fact
    return total


class TestCCoefficient:
    def test_closed_forms(self):
        for n in range(3, 51):
            assert combinatorics.c_coefficient(2, 1, n) == n
            assert combinatorics.c_coefficient(3, 1, n) == 3 * n - 2

    def test_enum_and_series_agree(self):
        # every input with d <= 10 and N <= 14: 195 of them
        checked = 0
        for d in range(2, combinatorics.MAX_C_DEGREE + 1):
            for k in range(1, d // 2 + 1):
                for n in range(d, 15):
                    assert combinatorics.c_coefficient(d, k, n) == \
                        c_coefficient_enum(d, k, n), (d, k, n)
                    checked += 1
        assert checked == 195

    def test_support_independence(self):
        # the count must not depend on which base monomial carries the support
        for support in (frozenset(range(2)), frozenset({3, 7}), frozenset({8, 9})):
            assert c_coefficient_enum(4, 1, 10, support=support) == \
                c_coefficient_enum(4, 1, 10)

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=40)
    def test_bounds_hold(self, d, data):
        k = data.draw(st.integers(1, d // 2))
        n = data.draw(st.integers(d, 300))
        value = combinatorics.c_coefficient(d, k, n)
        lo, hi = combinatorics.c_coefficient_bounds(d, k, n)
        assert lo <= value <= hi

    def test_limit_ratio(self):
        # C_{d,k,N} / N^k -> d! / (k! 2^k), relative error at most 10 d / N
        for d in range(2, 7):
            for k in range(1, d // 2 + 1):
                value = combinatorics.c_coefficient(d, k, 400)
                limit = math.factorial(d) / (math.factorial(k) * 2**k)
                assert abs(value / 400**k / limit - 1) <= 10 * d / 400

    def test_degree_guard(self):
        with pytest.raises(CubeError):
            combinatorics.c_coefficient(12, 1, 20)
        with pytest.raises(CubeError):
            combinatorics.c_coefficient(4, 3, 20)


class TestLevelSum:
    @given(st.integers(1, 8), st.data())
    @settings(max_examples=40)
    def test_matches_brute_force(self, n, data):
        d = data.draw(st.integers(0, n))
        m = data.draw(st.integers(0, n))
        assert combinatorics.level_sum_at(n, d, m) == brute_level_sum(n, d, m)

    @given(st.integers(1, 30), st.data())
    def test_reflection_symmetry(self, n, data):
        d = data.draw(st.integers(0, n))
        m = data.draw(st.integers(0, n))
        lhs = combinatorics.level_sum_at(n, d, m)
        rhs = (-1) ** d * combinatorics.level_sum_at(n, d, n - m)
        assert lhs == rhs


class TestPowerIdentity:
    def test_zero_discrepancy_small(self):
        for d in range(1, 5):
            for n in range(d, 11):
                rep = combinatorics.verify_power_identity(d, n)
                assert rep.max_discrepancy == 0
                assert rep.points_checked == 1 << n

    def test_guards(self):
        with pytest.raises(CubeError):
            combinatorics.verify_power_identity(7, 8)
        with pytest.raises(CubeError):
            combinatorics.verify_power_identity(3, 20)


class TestBeckner:
    def test_degree_two_coefficient_vanishes(self):
        for n in (10, 20, 40, 80, 160):
            fit = combinatorics.beckner_coefficients(2, n)
            assert len(fit.a) == 1
            assert abs(fit.a[0]) <= 1e-8
            assert fit.residual <= 1e-8

    def test_degree_three_coefficient_is_two(self):
        for n in (10, 20, 40, 80, 160):
            fit = combinatorics.beckner_coefficients(3, n)
            assert abs(fit.a[0] - 2) <= 1e-8

    def test_degree_four_integer_coefficients(self):
        fit = combinatorics.beckner_coefficients(4, 80)
        assert abs(fit.a[0] - 8) <= 1e-6
        assert abs(fit.a[1] - 2) <= 1e-6

    def test_degree_five_stability(self):
        fits = {n: combinatorics.beckner_coefficients(5, n) for n in (40, 80, 160)}
        for k in range(2):
            values = [abs(fits[n].a[k]) for n in (40, 80, 160)]
            assert (max(values) - min(values)) / min(values) < 0.05

    def test_identity_reconstruction(self):
        # d! N^{-d/2} s_d(m) = h_d(s) + (1/N) sum_k a_k h_{d-2k}(s)
        from cube_constants import hermite
        d, n = 3, 24
        fit = combinatorics.beckner_coefficients(d, n)
        for m in range(n + 1):
            s = (2 * m - n) / math.sqrt(n)
            lhs = math.factorial(d) * combinatorics.level_sum_at(n, d, m) / n ** (d / 2)
            rhs = float(hermite.hermite_poly(d)(s))
            for k in range(1, d // 2 + 1):
                rhs += fit.a[k - 1] / n * float(hermite.hermite_poly(d - 2 * k)(s))
            assert abs(lhs - rhs) <= 1e-8
