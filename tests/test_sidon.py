"""LP solver, exact Sidon constants, kappa, and the related inequalities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from cube_constants import core, sidon


def oracle_sidon(masks, n) -> float:
    """Independent reference: one scipy LP per sign orthant, no reductions."""
    m = len(masks)
    rows = [
        [(-1.0 if (S & x).bit_count() & 1 else 1.0) for S in masks]
        for x in range(1 << n)
    ]
    A = np.array(rows + [[-v for v in row] for row in rows])
    b = np.ones(len(A))
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=m):
        res = linprog(
            [-s for s in signs], A_ub=A, b_ub=b,
            bounds=[(None, None)] * m, method="highs",
        )
        if res.status == 0:
            best = max(best, -res.fun)
    return best


class TestLpMaximize:
    def test_interval(self):
        value, a = sidon.lp_maximize(
            np.array([1.0]), np.array([[1.0], [-1.0]])
        )
        assert abs(value - 1) <= 1e-9
        assert abs(a[0] - 1) <= 1e-9

    def test_diamond(self):
        # max a1 + a2 subject to |a1 + a2| <= 1 and |a1 - a2| <= 1
        A = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]])
        value, a = sidon.lp_maximize(np.array([1.0, 1.0]), A)
        assert abs(value - 1) <= 1e-9

    def test_box(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        value, a = sidon.lp_maximize(np.array([2.0, 3.0]), A)
        assert abs(value - 5) <= 1e-9
        assert abs(a[0] - 1) <= 1e-9 and abs(a[1] - 1) <= 1e-9

    def test_negative_direction(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        value, a = sidon.lp_maximize(np.array([-1.0, 1.0]), A)
        assert abs(value - 2) <= 1e-9
        assert abs(a[0] + 1) <= 1e-9

    def test_unbounded(self):
        with pytest.raises(sidon.LpUnboundedError):
            sidon.lp_maximize(np.array([1.0, 0.0]), np.array([[-1.0, 0.0]]))

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=25, deadline=None)
    def test_against_scipy_on_random_polytopes(self, m, data):
        rows = data.draw(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                min_size=2 * m,
                max_size=4 * m,
            )
        )
        A = np.array(rows, dtype=float)
        # bound the polytope so both solvers agree on feasibility
        A = np.vstack([A, np.eye(m), -np.eye(m)])
        c = np.array(
            data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)),
            dtype=float,
        )
        value, a = sidon.lp_maximize(c, A)
        res = linprog(-c, A_ub=A, b_ub=np.ones(len(A)),
                      bounds=[(None, None)] * m, method="highs")
        assert res.status == 0
        assert abs(value - (-res.fun)) <= 1e-7
        assert np.all(A @ a <= 1 + 1e-7)

    def test_against_scipy_on_degenerate_sidon_system(self):
        # homog(7,2): the 156 atlas patterns over its 128 x 21 system are
        # degenerate enough that the Bland fallback takes over in some LPs
        fam = core.family_homogeneous(7, 2)
        compact, n_act = core._compact_masks(fam.masks)
        unique = sidon._unique_rows_up_to_sign(sidon._sign_rows(compact, n_act))
        A = np.vstack([unique, -unique]).astype(float)
        reps = sidon._atlas_representatives(compact, n_act)
        assert len(reps) == 156
        for sigma in reps:
            c = np.array([-1.0 if (sigma >> j) & 1 else 1.0 for j in range(21)])
            value, a = sidon.lp_maximize(c, A)
            res = linprog(-c, A_ub=A, b_ub=np.ones(len(A)),
                          bounds=[(None, None)] * 21, method="highs")
            assert res.status == 0
            assert abs(value - (-res.fun)) <= 1e-7
            assert np.all(A @ a <= 1 + 1e-7)


class TestSidonExact:
    def test_full_two_dimensional_cube(self):
        res = sidon.sidon_exact(core.family_full(2))
        assert abs(res.value - 2) <= 1e-8

    def test_independent_characters_are_sidon_one(self):
        fam = core.family_explicit(3, [[1], [2], [3]])
        assert abs(sidon.sidon_exact(fam).value - 1) <= 1e-9
        fam = core.family_upto(3, 1)
        assert abs(sidon.sidon_exact(fam).value - 1) <= 1e-9

    def test_homogeneous_three_two(self):
        res = sidon.sidon_exact(core.family_homogeneous(3, 2))
        assert abs(res.value - 1) <= 1e-8

    def test_witness_is_certified(self):
        fam = core.family_full(2)
        res = sidon.sidon_exact(fam)
        coeffs = res.witness.coeffs
        assert abs(sum(abs(c) for c in coeffs) - res.value) <= 1e-6
        sup = max(
            abs(sum(
                c * core.character_eval(S, core.CubePoint(x, fam.n))
                for c, S in zip(coeffs, fam.sets)
            ))
            for x in range(1 << fam.n)
        )
        assert sup <= 1 + 1e-6

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_oracle_equivalence_sampled(self, data):
        n = data.draw(st.integers(1, 4))
        size = data.draw(st.integers(1, min(4, 1 << n)))
        masks = data.draw(
            st.lists(
                st.integers(0, (1 << n) - 1),
                min_size=size, max_size=size, unique=True,
            )
        )
        fam = core.SupportFamily(n, tuple(sorted(masks)), "explicit")
        got = sidon.sidon_exact(fam).value
        want = oracle_sidon(fam.masks, n)
        assert abs(got - want) <= 1e-6

    def test_atlas_and_coset_routes_agree(self, monkeypatch):
        for n in (5, 6):
            fam = core.family_homogeneous(n, 2)
            fast = sidon.sidon_exact(fam)
            monkeypatch.setattr(
                sidon, "_atlas_representatives", lambda compact, n_act: None
            )
            slow = sidon.sidon_exact(fam)
            assert abs(fast.value - slow.value) <= 1e-8
            assert fast.orthants_solved < slow.orthants_solved
            monkeypatch.undo()

    def test_orthant_cap(self):
        fam = core.family_homogeneous(6, 3)
        with pytest.raises(core.SizeGuardError):
            sidon.sidon_exact(fam, max_orthants=100)

    def test_active_dimension_guard(self):
        fam = core.family_explicit(20, [[i] for i in range(1, 18)])
        with pytest.raises(core.SizeGuardError):
            sidon.sidon_exact(fam)

    def test_thread_determinism(self):
        fam = core.family_homogeneous(5, 2)
        a = sidon.sidon_exact(fam, threads=1)
        b = sidon.sidon_exact(fam, threads=4)
        assert a.value == b.value


class TestKappa:
    def test_reference_window(self):
        assert 2.2085 <= sidon.kappa_constant(1e-4) <= 2.2095

    def test_tolerance_consistency(self):
        a = sidon.kappa_constant(1e-4)
        b = sidon.kappa_constant(1e-6)
        assert abs(a - b) <= 1e-4 + 1e-6

    def test_matches_scalar_product(self):
        tol = 1e-5
        cutoff = max(50, math.ceil(3.65 / tol) + 1)
        primes, log_sum = [], 0.0
        for p in range(2, cutoff + 1):
            if all(p % q for q in itertools.takewhile(lambda q: q * q <= p, primes)):
                primes.append(p)
                x = math.pi / p
                log_sum -= math.log(math.sin(x) / x)
        assert abs(sidon.kappa_constant(tol) / math.exp(log_sum) - 1) <= 1e-13

    def test_guard(self):
        with pytest.raises(core.CubeError):
            sidon.kappa_constant(1e-9)
        with pytest.raises(core.CubeError):
            sidon.kappa_constant(0.5)


class TestInequalities:
    def test_bgl3_small_cases(self):
        rep = sidon.check_sidon_projection_bound(5, 2)
        assert rep.passed
        assert rep.sid_value <= rep.rhs
        rep = sidon.check_sidon_projection_bound(4, 3)
        assert rep.passed

    def test_ksz_bound_holds(self):
        rep = sidon.ksz_signs(core.family_homogeneous(10, 2), trials=20, seed=42)
        assert rep.passed
        assert rep.supnorm <= rep.bound
        assert len(rep.signs) == math.comb(10, 2)

    def test_ksz_deterministic(self):
        a = sidon.ksz_signs(core.family_homogeneous(8, 2), trials=5, seed=1)
        b = sidon.ksz_signs(core.family_homogeneous(8, 2), trials=5, seed=1)
        assert a.signs == b.signs

    def test_bh_functional_uniform_coefficients(self):
        fam = core.family_homogeneous(4, 2)
        f = core.WalshPolynomial(fam, (1.0,) * 6, exact=False)
        # sup norm 6 at the all-ones point; l_{4/3} norm is 6^{3/4}
        want = 6 ** 0.75 / 6
        assert abs(sidon.bh_functional(f, 2) - want) <= 1e-12

    def test_bh_degree_guard(self):
        fam = core.family_homogeneous(4, 3)
        f = core.WalshPolynomial(fam, (1.0,) * 4, exact=False)
        with pytest.raises(core.CubeError):
            sidon.bh_functional(f, 2)

    def test_density_report(self):
        rep = sidon.sidon_density_bounds(core.family_homogeneous(6, 2))
        assert rep.precondition_ok
        assert rep.pivot == pytest.approx(math.sqrt(15) / math.sqrt(6))
        assert rep.lower_certificate < rep.pivot

    def test_density_precondition_failure(self):
        fam = core.family_explicit(8, [[1, 2], [3, 4]])
        rep = sidon.sidon_density_bounds(fam)
        assert not rep.precondition_ok
