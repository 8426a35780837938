"""Bounds suites: range sandwiches, McKay, Desigforo, Klimek, Szarek."""

import math
from fractions import Fraction

import pytest
from scipy.special import erfcx

from cube_constants import core, verify


class TestYFunction:
    def test_value_at_zero(self):
        assert abs(verify.y_function(0.0) - math.sqrt(math.pi / 2)) <= 1e-14

    def test_matches_erfcx_oracle(self):
        # both sides of the crossover at 3, then [0, 70] in steps of 0.05
        xs = [3 - 1e-12, 3.0, 3 + 1e-12] + [k / 20 for k in range(1401)]
        for x in xs:
            oracle = math.sqrt(math.pi / 2) * float(erfcx(x / math.sqrt(2)))
            assert abs(verify.y_function(x) / oracle - 1) <= 1e-14, x

    def test_strictly_decreasing(self):
        xs = [0.1 * k for k in range(100)]
        ys = [verify.y_function(x) for x in xs]
        assert all(a > b for a, b in zip(ys, ys[1:]))

    def test_domain(self):
        with pytest.raises(core.CubeError):
            verify.y_function(-0.5)

    def test_szarek_bounds_pass(self):
        reports = verify.szarek_y_bounds()
        assert len(reports) == 2
        assert all(r.passed for r in reports)


class TestMcKay:
    def test_c_in_claimed_interval(self):
        for n in (101, 501, 1001):
            for alpha in (0, 2, 4):
                rep = verify.mckay_constant(n, alpha)
                assert rep.passed
                assert 0 <= rep.context["c"] <= math.sqrt(math.pi / 2)

    def test_matches_exact_ratio(self):
        # c from the exact integers, divided before the log
        for n in [*range(1, 200, 2), 1001, 2001, 4001]:
            # n - 7 .. n - 1 give m = 3 .. 0
            for alpha in {0, 2, 4, n - 7, n - 5, n - 3, n - 1}:
                if not 0 <= alpha < n:
                    continue
                m = (n - alpha - 1) // 2
                ratio = Fraction(sum(math.comb(n, k) for k in range(m + 1)),
                                 math.comb(n - 1, m))
                y = verify.y_function((alpha + 1) / math.sqrt(n))
                want = math.sqrt(n) * (math.log(float(ratio)) - 0.5 * math.log(n)
                                       - math.log(y))
                rep = verify.mckay_constant(n, alpha)
                assert abs(rep.lhs - want) <= 1e-12, (n, alpha)
                assert rep.context["c"] == rep.lhs

    def test_parity_guard(self):
        with pytest.raises(core.CubeError):
            verify.mckay_constant(100, 0)
        with pytest.raises(core.CubeError):
            verify.mckay_constant(101, 1)

    def test_alpha_range_guard(self):
        with pytest.raises(core.CubeError):
            verify.mckay_constant(101, -2)


class TestDesigforo:
    def test_exact_inequality_small_grid(self):
        for n in range(5, 60):
            for d in range(1, (n + 1) // 2):
                rep = verify.check_desigforo(n, d)
                assert rep.passed, (n, d)

    def test_precondition(self):
        with pytest.raises(core.CubeError):
            verify.check_desigforo(9, 5)


class TestKlimek:
    def test_bound_holds_and_deterministic(self):
        a = verify.check_klimek(8, 3, trials=50, seed=3)
        b = verify.check_klimek(8, 3, trials=50, seed=3)
        assert a.passed
        assert a.lhs == b.lhs
        assert a.rhs == (1 + math.sqrt(2)) ** 3

    def test_truncation_never_exceeds_constant_much(self):
        rep = verify.check_klimek(6, 2, trials=100, seed=11)
        assert rep.lhs <= rep.rhs


class TestRangeBounds:
    def test_all_pass_small(self):
        for n in range(1, 9):
            for d in range(1, n + 1):
                for mode in ("exact-degree", "up-to-degree"):
                    reports = verify.check_range_bounds(n, d, mode)
                    assert len(reports) == 5
                    assert all(r.passed for r in reports), (n, d, mode)

    def test_report_names(self):
        names = {r.name for r in verify.check_range_bounds(6, 2)}
        assert names == {
            "kadets-snobar-lower", "kadets-snobar-upper",
            "hypercontractive-lower", "scale-lower", "scale-upper",
        }


class TestSuites:
    def test_all_suites_pass_quickly(self):
        reports = verify.run_suite(
            "all", max_n=8, mckay_max_n=401, desigforo_max_n=40, klimek_trials=50
        )
        assert reports
        failed = [r.name for r in reports if not r.passed]
        assert failed == []

    def test_unknown_suite(self):
        with pytest.raises(core.CubeError):
            verify.run_suite("nope")

    def test_homog_vs_upto_ordering(self):
        rep = verify.check_homog_vs_upto(8, 3)
        assert rep.passed

    def test_combinatorics_document_shape(self):
        doc = verify._combinatorics_checks(6)[1]
        assert doc["identity"] is True
        assert {row["d"] for row in doc["c_table"]} == {2, 3, 4, 5, 6}
        assert all(row["within_bounds"] for row in doc["c_table"])
        assert [row["d"] for row in doc["beckner"]] == [2, 3, 4, 5]
        assert all(row["residual"] < 1e-8 for row in doc["beckner"])
