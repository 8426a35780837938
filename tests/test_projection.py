"""Exact, level-reduced, Monte Carlo, and closed-form projection constants."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cube_constants import combinatorics, core, projection


def brute_lambda(fam: core.SupportFamily) -> Fraction:
    total = 0
    for x in range(1 << fam.n):
        g = 0
        for S in fam.masks:
            g += -1 if (S & x).bit_count() & 1 else 1
        total += abs(g)
    return Fraction(total, 1 << fam.n)


@st.composite
def small_families(draw):
    n = draw(st.integers(1, 5))
    universe = list(range(1 << n))
    masks = draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=6, unique=True)
    )
    return core.SupportFamily(n, tuple(sorted(masks)), "explicit")


@st.composite
def peelable_families(draw):
    """A path x_a x_b, x_b x_c, ... on shuffled coordinates, which peels from
    its ends one round at a time, plus a few arbitrary sets (maybe empty)."""
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(1, n + 1)))
    length = draw(st.integers(1, n - 1))
    path = [sorted(order[i : i + 2]) for i in range(length)]
    extra = draw(st.lists(
        st.lists(st.integers(1, n), max_size=3, unique=True).map(sorted), max_size=4
    ))
    sets = {tuple(s) for s in path + extra}
    return core.family_explicit(n, sorted(sets))


def _abs_sum_gray(compact: np.ndarray, n_act: int) -> int:
    """sum |g| over the cube by a Gray-code walk with per-coordinate flip
    buckets: each flip updates the running character sum g through the sets
    holding that coordinate only.  Pure Python; the independent oracle that
    the butterfly kernel is tested against."""
    masks = [int(m) for m in compact]
    buckets: list[list[int]] = [[] for _ in range(n_act)]
    for idx, m in enumerate(masks):
        for i in range(n_act):
            if (m >> i) & 1:
                buckets[i].append(idx)
    signs = [1] * len(masks)
    g = len(masks)  # all-plus point: every character is +1
    total = abs(g)
    for t in range(1, 1 << n_act):
        flip = ((t ^ (t >> 1)) ^ ((t - 1) ^ ((t - 1) >> 1))).bit_length() - 1
        delta = 0
        bucket = buckets[flip]
        for idx in bucket:
            delta += signs[idx]
            signs[idx] = -signs[idx]
        g -= 2 * delta
        total += abs(g)
    return total


def fold_signs_by_terms(hist: np.ndarray, size: int, k: int) -> int:
    """sum_g count(g) sum_j C(k,j) |g + k - 2j| term by term: the oracle for
    the closed form of projection._fold_signs."""
    weights = [math.comb(k, j) for j in range(k + 1)]
    total = 0
    for index, count in enumerate(hist.tolist()):
        shift = index - size + k
        total += count * sum(w * abs(shift - 2 * j) for j, w in enumerate(weights))
    return total


def gray_lambda(fam: core.SupportFamily) -> Fraction:
    compact, n_act = core._compact_masks(fam.masks)
    return Fraction(_abs_sum_gray(compact, n_act), 1 << n_act)


class TestLambdaExact:
    @given(small_families())
    @settings(max_examples=80)
    def test_matches_brute_force(self, fam):
        assert projection.lambda_exact(fam) == brute_lambda(fam)

    @given(small_families())
    @settings(max_examples=30)
    def test_kernels_agree(self, fam):
        assert projection.lambda_exact(fam) == gray_lambda(fam)

    @given(peelable_families())
    @settings(max_examples=40, deadline=None)
    def test_cascading_peel_matches_references(self, fam):
        lam = projection.lambda_exact(fam)
        assert lam == brute_lambda(fam)
        assert lam == gray_lambda(fam)

    def test_path_peels_to_an_empty_core(self):
        # {1,2},{2,3},...,{7,8}: each round drops the two end sets
        fam = core.family_explicit(8, [[i, i + 1] for i in range(1, 8)])
        assert projection._peel_private(list(fam.masks)) == ([], 7)
        assert projection.lambda_exact(fam) == projection.haagerup_lambda(7)

    def test_squarefree_matches_gray_reference(self):
        for n in range(2, 61):
            fam = core.family_squarefree(n)
            assert projection.lambda_exact(fam) == gray_lambda(fam), n

    def test_butterfly_runs_on_the_core_only(self, monkeypatch):
        calls = []
        kernel = projection.character_sum_table

        def spy(masks, n, coeffs=None):
            calls.append((n, coeffs.dtype))
            return kernel(masks, n, coeffs)

        monkeypatch.setattr(projection, "character_sum_table", spy)
        # 25 primes <= 97; the 10 primes above 48 are private singletons
        projection.lambda_exact(core.family_squarefree(97))
        assert calls == [(15, np.int8)]
        # g + |family| reaches 2 * 16384 = 32768 > int16 max on the full 14-cube
        calls.clear()
        projection.lambda_exact(core.family_full(13))
        projection.lambda_exact(core.family_full(14))
        assert calls == [(13, np.int16), (14, np.int32)]

    def test_result_is_exact_rational(self):
        lam = projection.lambda_exact(core.family_homogeneous(3, 2))
        assert lam == Fraction(3, 2)

    def test_full_family_is_one(self):
        # n = 14..16 sit past the int16 table boundary
        for n in range(1, 17):
            assert projection.lambda_exact(core.family_full(n)) == 1

    def test_inactive_coordinates_ignored(self):
        # same two sets on a 40-dimensional cube: only 3 active coordinates
        fam = core.family_explicit(40, [[7, 31], [7, 40]])
        small = core.family_explicit(2, [[1], [2]])
        assert projection.lambda_exact(fam) == projection.lambda_exact(small)

    def test_blocked_kernel_agrees_with_direct(self, monkeypatch):
        fam = core.family_homogeneous(9, 2)  # no private set: the core is all 9
        want = projection.lambda_exact(fam)
        blocks = []
        kernel = projection.character_sum_table
        monkeypatch.setattr(projection, "character_sum_table",
                            lambda masks, n, coeffs: blocks.append(n) or kernel(masks, n, coeffs))
        monkeypatch.setattr(projection, "_WHT_MAX_DIRECT", 5)
        assert projection.lambda_exact(fam) == want
        assert blocks == [5] * 16
        assert projection.lambda_exact(fam, threads=3) == want

    def test_enumeration_guard(self):
        # homog(31,2) keeps all 31 coordinates in its core; five singletons
        # on further coordinates peel off and do not count
        sets = [[i, j] for i in range(1, 32) for j in range(i + 1, 32)]
        fam = core.family_explicit(36, sets + [[i] for i in range(32, 37)])
        with pytest.raises(core.SizeGuardError, match="31 core coordinates"):
            projection.lambda_exact(fam)

    def test_enumeration_guard_one_past_limit(self):
        # a core of 31 coordinates against the guard of 30
        with pytest.raises(core.SizeGuardError, match="31 core coordinates"):
            projection.lambda_exact(core.family_homogeneous(31, 2))

    def test_guard_counts_core_not_active_coordinates(self):
        # 31 prime singletons: 31 active coordinates, an empty core
        fam = core.family_prime_singletons(127)
        assert projection.lambda_exact(fam) == projection.lambda_level_exact(31, 1)

    @given(st.integers(0, 40), st.integers(0, 60), st.data())
    @settings(max_examples=200)
    def test_fold_closed_form_matches_terms(self, size, k, data):
        # values g + k fall below 0 when size > k and above 2k when g > k
        hist = np.array(data.draw(st.lists(
            st.integers(0, 10**6), min_size=2 * size + 1, max_size=2 * size + 1
        )), dtype=np.int64)
        assert projection._fold_signs(hist, size, k) == fold_signs_by_terms(hist, size, k)

    def test_peel_count_guard(self):
        cap = projection.MAX_PEELED_SETS
        fam = core.family_explicit(cap, [[i] for i in range(1, cap + 1)])
        assert projection.lambda_exact(fam) == projection.lambda_level_exact(cap, 1)
        fam = core.family_explicit(cap + 1, [[i] for i in range(1, cap + 2)])
        with pytest.raises(core.SizeGuardError, match="sign-fold cap"):
            projection.lambda_exact(fam)


class TestLambdaOfSpec:
    """The route owner: level sum, Haagerup, or butterfly, by spec kind."""

    @pytest.mark.parametrize(
        "spec, method, doc, family",
        [
            ({"kind": "homogeneous", "N": 6, "d": 2}, "level",
             {"kind": "homogeneous", "N": 6, "d": 2}, core.family_homogeneous(6, 2)),
            ({"kind": "upto", "N": 5, "d": 2}, "level",
             {"kind": "upto", "N": 5, "d": 2}, core.family_upto(5, 2)),
            ({"kind": "prime-singletons", "N": 20}, "haagerup",
             {"kind": "prime-singletons", "N": 20}, core.family_prime_singletons(20)),
            ({"kind": "squarefree", "N": 20}, "exact",
             {"kind": "squarefree", "N": 20}, core.family_squarefree(20)),
            ({"kind": "square-free", "N": 20}, "exact",
             {"kind": "squarefree", "N": 20}, core.family_squarefree(20)),
            ({"kind": "explicit", "N": 4, "sets": [[1, 2], [3]]}, "exact",
             {"kind": "explicit", "N": 4, "sets": [[1, 2], [3]]},
             core.family_explicit(4, [[1, 2], [3]])),
        ],
        ids=["homogeneous", "upto", "prime-singletons", "squarefree", "square-free",
             "explicit"],
    )
    def test_routes(self, spec, method, doc, family):
        lam, got_method, got_doc = projection.lambda_of_spec(spec, threads=2)
        assert (got_method, got_doc) == (method, doc)
        assert lam == brute_lambda(family)

    def test_cli_n_d_specs_take_the_level_route(self):
        # the specs exact --N/--d/--mode builds
        for kind, mode in (("homogeneous", "exact-degree"), ("upto", "up-to-degree")):
            lam, method, doc = projection.lambda_of_spec({"kind": kind, "N": 300, "d": 3})
            assert method == "level"
            assert doc == {"kind": kind, "N": 300, "d": 3}
            assert lam == projection.lambda_level_exact(300, 3, mode)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"N": 4}, "family spec is missing a string 'kind'"),
            ({"kind": "upto", "N": "4", "d": 2}, "family spec is missing an integer 'N'"),
            ({"kind": "homogeneous", "N": 4}, "homogeneous family spec needs an integer 'd'"),
            ({"kind": "upto", "N": True, "d": 2}, "family spec is missing an integer 'N'"),
            ({"kind": "homogeneous", "N": 4, "d": True},
             "homogeneous family spec needs an integer 'd'"),
        ],
    )
    def test_spec_errors(self, spec, message):
        with pytest.raises(core.CubeError) as exc:
            projection.lambda_of_spec(spec)
        assert str(exc.value) == message


class TestLambdaLevel:
    @given(st.integers(1, 10), st.data())
    @settings(max_examples=40)
    def test_agrees_with_enumeration(self, n, data):
        d = data.draw(st.integers(1, n))
        mode = data.draw(st.sampled_from(["exact-degree", "up-to-degree"]))
        fam_fn = (
            core.family_homogeneous if mode == "exact-degree" else core.family_upto
        )
        lev = projection.lambda_level_exact(n, d, mode)
        assert lev == projection.lambda_exact(fam_fn(n, d))

    @staticmethod
    def _level_sum_reference(n, top):
        # the sums over m of C(n, m) |sum_k level_sum_at(n, k, m)| for the
        # degree-d and the up-to-d family, d = 1..top, binomials from
        # scratch at every m
        exact, upto = [], []
        running = [1] * (n + 1)  # the degree-0 level value is 1 everywhere
        for k in range(1, top + 1):
            level = [combinatorics.level_sum_at(n, k, m) for m in range(n + 1)]
            running = [r + v for r, v in zip(running, level)]
            for out, values in ((exact, level), (upto, running)):
                total = sum(math.comb(n, m) * abs(v) for m, v in enumerate(values))
                out.append(Fraction(total, 1 << n))
        return exact, upto

    def test_matches_level_sum_at_reference(self):
        # every degree up to N = 40, low degrees up to N = 199, and half degree
        cases = [(n, n if n <= 40 else 4) for n in range(1, 200)] + [(200, 100)]
        for n, top in cases:
            exact, upto = self._level_sum_reference(n, top)
            for d in range(1, top + 1):
                assert projection.lambda_level_exact(n, d) == exact[d - 1], (n, d)
                assert projection.lambda_level_exact(n, d, "upto") == upto[d - 1], (n, d)
            assert projection.haagerup_lambda(n) == exact[0]

    def test_mode_aliases(self):
        a = projection.lambda_level_exact(8, 3, "exact")
        b = projection.lambda_level_exact(8, 3, "exact-degree")
        c = projection.lambda_level_exact(8, 3, "homogeneous")
        assert a == b == c
        u = projection.lambda_level_exact(8, 3, "upto")
        v = projection.lambda_level_exact(8, 3, "up-to-degree")
        assert u == v

    def test_unknown_mode(self):
        with pytest.raises(core.CubeError):
            projection.lambda_level_exact(8, 3, "sideways")

    def test_large_n_runs_fast(self):
        lam = projection.lambda_level_exact(2000, 1, "exact-degree")
        # singleton family of size 2000: E|sum of 2000 signs|
        want = Fraction(2000 * math.comb(1999, 999), 2**1999)
        assert lam == want

    def test_n_guard(self):
        with pytest.raises(core.SizeGuardError):
            projection.lambda_level_exact(projection.MAX_LEVEL_N + 1, 2)


class TestClosedForms:
    def test_gamma_formula_small(self):
        # lambda(l2^n) = (2/sqrt(pi)) Gamma((n+2)/2) / Gamma((n+1)/2)
        cf1 = projection.lambda_closed_forms(1)
        assert abs(cf1.l2 - 1.0) <= 1e-14
        cf2 = projection.lambda_closed_forms(2)
        assert abs(cf2.l2 - 4 / math.pi) <= 1e-14

    def test_l1_parity_relation(self):
        for n in range(1, 20):
            cf = projection.lambda_closed_forms(n)
            if n % 2 == 1:
                assert abs(cf.l1 - cf.l2) <= 1e-12 * cf.l2
            else:
                prev = projection.lambda_closed_forms(n - 1)
                assert abs(cf.l1 - prev.l2) <= 1e-12 * cf.l1

    def test_matches_exact_singletons(self):
        for n in range(1, 13):
            lam = float(projection.lambda_exact(core.family_homogeneous(n, 1)))
            cf = projection.lambda_closed_forms(n)
            assert abs(lam - cf.l1) <= 1e-12 * cf.l1


class TestHaagerup:
    def test_hand_values(self):
        assert projection.haagerup_lambda(1) == 1
        assert projection.haagerup_lambda(2) == 1
        assert projection.haagerup_lambda(3) == Fraction(3, 2)
        assert projection.haagerup_lambda(4) == Fraction(3, 2)
        assert projection.haagerup_lambda(5) == Fraction(15, 8)

    def test_equals_exact_singletons(self):
        # all-singleton families peel to an empty core, up to the guard of 30
        for n in range(1, 31):
            fam = core.family_homogeneous(n, 1)
            assert projection.haagerup_lambda(n) == projection.lambda_exact(fam)
        fam = core.family_prime_singletons(113)  # 30 primes, scattered
        assert projection.lambda_exact(fam) == projection.haagerup_lambda(30)

    def test_growth_ratio_tends_to_gaussian(self):
        # E|sum eps_i| / sqrt(n) -> sqrt(2/pi)
        v = float(projection.haagerup_lambda(4000)) / math.sqrt(4000)
        assert abs(v - math.sqrt(2 / math.pi)) <= 1e-3

    def test_guard(self):
        with pytest.raises(core.CubeError):
            projection.haagerup_lambda(0)


class TestMonteCarlo:
    def test_seed_and_thread_determinism(self):
        fam = core.family_homogeneous(12, 3)
        a = projection.lambda_mc(fam, samples=20000, seed=7, threads=1)
        b = projection.lambda_mc(fam, samples=20000, seed=7, threads=8)
        assert a == b
        c = projection.lambda_mc(fam, samples=20000, seed=8, threads=1)
        assert c.mean != a.mean

    def test_ci_covers_exact_value(self):
        fam = core.family_homogeneous(8, 2)
        exact = float(projection.lambda_exact(fam))
        est = projection.lambda_mc(fam, samples=40000, seed=42)
        assert est.ci95[0] <= exact <= est.ci95[1]
        assert est.stderr > 0

    def test_sample_guard(self):
        with pytest.raises(core.CubeError):
            projection.lambda_mc(core.family_full(3), samples=10)

    def test_works_beyond_enumeration_range(self):
        fam = core.family_homogeneous(40, 1)
        est = projection.lambda_mc(fam, samples=20000, seed=42)
        want = float(projection.haagerup_lambda(40))
        assert abs(est.mean - want) <= 5 * est.stderr


class TestPrimeReports:
    def test_small_prime_report(self):
        rep = projection.prime_singleton_report(10)
        assert rep.prime_count == 4
        assert rep.lam == Fraction(3, 2)
        rep = projection.prime_singleton_report(2)
        assert rep.prime_count == 1
        assert rep.lam == 1

    def test_ratio_definition(self):
        rep = projection.prime_singleton_report(50)
        want = float(rep.lam) / math.sqrt(50 / math.log(50))
        assert abs(rep.ratio - want) <= 1e-12

    def test_guard(self):
        with pytest.raises(core.CubeError, match="0 prime singletons"):
            projection.prime_singleton_report(1)

    def test_squarefree_cross_check(self):
        rep = projection.squarefree_mc(16, samples=20000, seed=42)
        assert rep.exact is not None
        assert rep.agrees_with_exact
        diff = abs(rep.estimate.mean - float(rep.exact))
        assert diff <= 4 * rep.estimate.stderr

    def test_squarefree_large_n_skips_exact(self):
        rep = projection.squarefree_mc(60, samples=5000, seed=42)
        assert rep.exact is None
        assert rep.agrees_with_exact is None

    def test_squarefree_guards(self):
        with pytest.raises(core.CubeError):
            projection.squarefree_mc(12, samples=5000)
        with pytest.raises(core.CubeError):
            projection.squarefree_mc(20, samples=10)
