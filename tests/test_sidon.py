"""LP solver, exact Sidon constants, kappa, and the related inequalities."""

import dataclasses
import inspect
import itertools
import math
import tracemalloc

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


def coset_names(masks, n) -> np.ndarray:
    """name[sigma]: the smallest pattern in the coset of sigma, found by
    trying every translation of the n-cube and the negation."""
    m = len(masks)
    patterns = np.arange(1 << m, dtype=np.int64)
    names = patterns.copy()
    for y in range(1 << n):
        t = sum(((mask & y).bit_count() & 1) << j for j, mask in enumerate(masks))
        for h in (t, t ^ ((1 << m) - 1)):
            np.minimum(names, patterns ^ h, out=names)
    return names


def brute_force_orbits(fam, perms=None) -> int:
    """Pattern cosets up to the given coordinate permutations (all n! by
    default), each orbit named by the smallest coset name over its images."""
    compact, n = core._compact_masks(fam.masks)
    masks = compact.tolist()
    names = coset_names(masks, n)
    cosets = np.unique(names)
    index_of = {mask: j for j, mask in enumerate(masks)}
    best = cosets.copy()
    for perm in perms or itertools.permutations(range(n)):
        moved = np.zeros_like(cosets)
        for j, mask in enumerate(masks):
            image = sum(1 << perm[i] for i in range(n) if (mask >> i) & 1)
            moved |= ((cosets >> j) & 1) << index_of[image]
        np.minimum(best, names[moved], out=best)
    return len(np.unique(best))


def all_cosets_sidon(fam):
    """(value, witness, LPs) of the plain coset enumeration: every coset in
    ascending index, the first best LP kept."""
    compact, n_act = core._compact_masks(fam.masks)
    m = len(compact)
    pivots = sidon._gf2_basis(compact, n_act, m)
    free = [j for j in range(m) if j not in pivots]
    unique = sidon._sign_rows(compact, n_act)
    A = np.vstack([unique, -unique])
    best_value, best_a = -math.inf, None
    for r in range(1 << len(free)):
        c = np.ones(m)
        c[[j for k, j in enumerate(free) if (r >> k) & 1]] = -1.0
        value, a = sidon.lp_maximize(c, A)
        if value > best_value:
            best_value, best_a = value, a
    return best_value, tuple(float(v) for v in best_a), 1 << len(free)


def highs_all_cosets(fam) -> float:
    """Independent reference: HiGHS on one pattern of every coset."""
    compact, n = core._compact_masks(fam.masks)
    masks = compact.tolist()
    m = len(masks)
    rows = np.array([[-1.0 if (S & x).bit_count() & 1 else 1.0 for S in masks]
                     for x in range(1 << n)])
    A = np.vstack([rows, -rows])
    best = 0.0
    for sigma in np.unique(coset_names(masks, n)).tolist():
        c = np.array([-1.0 if (sigma >> j) & 1 else 1.0 for j in range(m)])
        res = linprog(-c, A_ub=A, b_ub=np.ones(len(A)),
                      bounds=[(None, None)] * m, method="highs")
        assert res.status == 0
        best = max(best, -res.fun)
    return best


# 1-based sets of the 5-cycle and of the 5-cycle with its consecutive
# triples: a rotation maps each onto itself, the transposition (1 2) not
C5 = [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]
C5_TRIPLES = C5 + [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5], [1, 2, 5]]


class _CountingRun(int):
    """Stand-in for sidon._DEGENERATE_RUN that counts how often the simplex
    takes the Bland branch (`degenerate_run < _DEGENERATE_RUN` is false)."""

    fallbacks = 0

    def __gt__(self, run):
        below = int(self) > run
        if not below:
            self.fallbacks += 1
        return below


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

    def test_against_scipy_on_degenerate_sidon_system(self, monkeypatch):
        # homog(7,2): the 27 orbit patterns over its 128 x 21 system are
        # degenerate enough that the Bland fallback takes over in some LPs
        fam = core.family_homogeneous(7, 2)
        compact, n_act = core._compact_masks(fam.masks)
        unique = sidon._sign_rows(compact, n_act)
        A = np.vstack([unique, -unique])
        free, reps = sidon._orbit_representatives(compact, n_act)
        assert len(reps) == 27
        run = _CountingRun(sidon._DEGENERATE_RUN)
        monkeypatch.setattr(sidon, "_DEGENERATE_RUN", run)
        for r in reps:
            c = np.ones(21)
            c[[j for k, j in enumerate(free) if r >> k & 1]] = -1.0
            value, a = sidon.lp_maximize(c, A)
            res = linprog(-c, A_ub=A, b_ub=np.ones(len(A)),
                          bounds=[(None, None)] * 21, method="highs")
            assert res.status == 0
            assert abs(value - (-res.fun)) <= 1e-7
            assert np.all(A @ a <= 1 + 1e-7)
        assert run.fallbacks > 0


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
                c * (-1) ** (S & x).bit_count()
                for c, S in zip(coeffs, fam.masks)
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

    @pytest.mark.parametrize("fam, orbits", [
        (core.family_homogeneous(5, 2), 4),
        (core.family_homogeneous(6, 2), 10),
        (core.family_homogeneous(7, 2), 27),
        (core.family_homogeneous(8, 2), 131),
        (core.family_homogeneous(5, 3), 4),
        (core.family_homogeneous(6, 3), 66),
        (core.family_homogeneous(6, 4), 10),
        (core.family_upto(4, 2), 11),
        (core.family_upto(5, 2), 34),
    ], ids=lambda v: f"{v.kind}({v.n},{v.d})" if isinstance(v, core.SupportFamily) else str(v))
    def test_orbit_counts(self, fam, orbits):
        compact, n_act = core._compact_masks(fam.masks)
        _, reps = sidon._orbit_representatives(compact, n_act)
        assert len(reps) == orbits
        if fam.n <= 6:
            assert brute_force_orbits(fam) == orbits
        if fam.n <= 7:
            assert sidon.sidon_exact(fam).orthants_solved == orbits

    @pytest.mark.parametrize("fam", [
        core.family_homogeneous(4, 2), core.family_homogeneous(5, 2),
        core.family_homogeneous(6, 2), core.family_upto(3, 2),
        core.family_upto(4, 2), core.family_homogeneous(5, 3),
    ], ids=lambda f: f"{f.kind}({f.n},{f.d})")
    def test_orbits_match_highs_over_all_cosets(self, fam):
        assert abs(sidon.sidon_exact(fam).value - highs_all_cosets(fam)) <= 1e-7

    def test_orbits_and_all_cosets_agree(self):
        for n in (5, 6):
            fam = core.family_homogeneous(n, 2)
            res = sidon.sidon_exact(fam)
            value, _, lps = all_cosets_sidon(fam)
            assert abs(res.value - value) <= 1e-8
            assert res.orthants_solved < lps

    def test_cycle_family_keeps_only_the_rotation(self):
        rotations = [tuple((i + s) % 5 for i in range(5)) for s in range(5)]
        for sets in (C5, C5_TRIPLES):
            fam = core.family_explicit(5, sets)
            compact, n_act = core._compact_masks(fam.masks)
            _, reps = sidon._orbit_representatives(compact, n_act)
            assert len(reps) == brute_force_orbits(fam, rotations)
            assert abs(sidon.sidon_exact(fam).value - highs_all_cosets(fam)) <= 1e-7
        assert len(reps) == 4 < all_cosets_sidon(fam)[2] == 16

    def test_family_without_symmetry_solves_every_coset(self):
        fam = core.family_explicit(
            5, [[1], [2], [1, 2], [3], [1, 3], [2, 3, 4], [4, 5], [1, 5], [2, 4, 5]]
        )
        res = sidon.sidon_exact(fam)
        value, witness, lps = all_cosets_sidon(fam)
        assert lps == 8
        assert (res.value, res.witness.coeffs, res.orthants_solved) == (value, witness, lps)

    def test_orthant_cap(self):
        # homog(6,3) has 66 orbits
        fam = core.family_homogeneous(6, 3)
        with pytest.raises(core.SizeGuardError):
            sidon.sidon_exact(fam, max_orthants=50)
        assert sidon.sidon_exact(fam, max_orthants=66).orthants_solved == 66

    def test_coset_cap_refuses_before_allocating(self):
        # homog(9,2): 36 sets, pattern rank 9, so 2^27 cosets
        fam = core.family_homogeneous(9, 2)
        tracemalloc.start()
        try:
            with pytest.raises(core.SizeGuardError, match=r"2\^27 pattern cosets"):
                sidon.sidon_exact(fam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_active_dimension_guard(self):
        fam = core.family_explicit(20, [[i] for i in range(1, 18)])
        with pytest.raises(core.SizeGuardError):
            sidon.sidon_exact(fam)

    def test_rerun_determinism(self):
        fam = core.family_homogeneous(5, 2)
        a = sidon.sidon_exact(fam)
        b = sidon.sidon_exact(fam)
        assert (a.value, a.witness.coeffs, a.orthants_solved) == (
            b.value, b.witness.coeffs, b.orthants_solved)

    def test_lp_tolerance_is_not_a_parameter(self):
        for fn in (sidon.lp_maximize, sidon.sidon_exact):
            assert "tol" not in inspect.signature(fn).parameters
        assert [f.name for f in dataclasses.fields(sidon.SidonResult)] == [
            "value", "witness", "orthants_solved"]


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

    def test_largest_cutoff_sieves_in_blocks(self):
        # the cutoff of tol = 1e-7, whose one-array sieve takes 51.8 MiB
        tracemalloc.start()
        try:
            sidon._kappa_upto.__wrapped__(36_500_001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

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
