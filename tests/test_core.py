"""Subset masks, the Walsh butterfly, family constructors, and primes."""

import math

import numpy as np
import pytest

from cube_constants import core


def brute_character(S: int, x: int, n: int) -> int:
    prod = 1
    for i in range(n):
        if (S >> i) & 1:
            prod *= -1 if (x >> i) & 1 else 1
    return prod


def reference_butterfly(values: list) -> list:
    """Unnormalized transform out[S] = sum_x in[x] chi_S(x) in plain Python,
    with the same a+b, a-b order as walsh_butterfly_inplace."""
    w = list(values)
    n = len(w)
    step = 1
    while step < n:
        for i in range(0, n, 2 * step):
            for j in range(i, i + step):
                a, b = w[j], w[j + step]
                w[j] = a + b
                w[j + step] = a - b
        step <<= 1
    return w


class TestPointsAndMasks:
    def test_mask_elements_roundtrip(self):
        s = core.SubsetMask.from_elements([2, 5, 3], 6)
        assert s.elements() == (2, 3, 5)

    def test_mask_rejects_duplicates_and_range(self):
        with pytest.raises(core.FamilySpecError):
            core.SubsetMask.from_elements([1, 1], 4)
        with pytest.raises(core.FamilySpecError):
            core.SubsetMask.from_elements([5], 4)

    def test_mask_rejects_non_integer_elements(self):
        for bad in (3.0, "3", True):
            with pytest.raises(core.FamilySpecError, match="not an integer"):
                core.SubsetMask.from_elements([bad], 4)

    def test_bits_must_fit(self):
        with pytest.raises(core.CubeError):
            core.SubsetMask(-1, 3)

class TestNumpyButterfly:
    """walsh_butterfly_inplace against the exact pure-Python reference_butterfly."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_reference_1d(self, n, dtype):
        rng = np.random.default_rng(n)
        if dtype is np.int64:
            w = rng.integers(-50, 51, size=1 << n)
        else:
            w = rng.uniform(-1.0, 1.0, size=1 << n)
        want = reference_butterfly(w.tolist())
        got = core.walsh_butterfly_inplace(w)
        assert got.dtype == dtype
        assert got.tolist() == want  # same a+b, a-b order: floats agree bitwise

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_columns_transform_independently(self, dtype):
        n, cols = 5, 4
        rng = np.random.default_rng(7)
        w = rng.integers(-9, 10, size=(1 << n, cols)).astype(dtype)
        want = [reference_butterfly(w[:, j].tolist()) for j in range(cols)]
        got = core.walsh_butterfly_inplace(w)
        for j in range(cols):
            assert got[:, j].tolist() == want[j]

    def test_in_place(self):
        w = np.arange(16, dtype=np.int64)
        assert core.walsh_butterfly_inplace(w) is w
        assert w.tolist() == reference_butterfly(list(range(16)))

    def test_rejects_non_contiguous_input(self):
        with pytest.raises(core.CubeError):
            core.walsh_butterfly_inplace(np.zeros(32)[::2])

    def test_character_sum_table(self):
        n, masks = 4, [0b0011, 0b0101, 0b1110]
        compact = np.array(masks, dtype=np.uint64)
        coeffs = np.array([0.5, -2.0, 3.0])
        counts = core.character_sum_table(compact, n)
        weighted = core.character_sum_table(compact, n, coeffs)
        assert counts.dtype == np.int64
        for x in range(1 << n):
            chars = [brute_character(S, x, n) for S in masks]
            assert counts[x] == sum(chars)
            assert weighted[x] == sum(c * chi for c, chi in zip(coeffs, chars))

    def test_character_sum_table_adds_repeated_masks(self):
        # a mask listed twice counts twice: the blocked projection kernel
        # relies on it when two sets agree on the low coordinates
        n = 4
        masks = np.array([0b0011, 0b0101, 0b0011], dtype=np.uint64)
        coeffs = np.array([2, -1, 5], dtype=np.int64)
        want = sum(core.character_sum_table(masks[i:i + 1], n, coeffs[i:i + 1])
                   for i in range(3))
        assert core.character_sum_table(masks, n, coeffs).tolist() == want.tolist()
        counts = core.character_sum_table(masks, n)
        assert counts.tolist() == sum(
            core.character_sum_table(masks[i:i + 1], n) for i in range(3)
        ).tolist()


class TestFamilies:
    def test_homogeneous_size_and_degree(self):
        fam = core.family_homogeneous(6, 3)
        assert len(fam) == math.comb(6, 3)
        assert all(m.bit_count() == 3 for m in fam.masks)
        assert fam.degree() == 3

    def test_upto_includes_empty_set(self):
        fam = core.family_upto(5, 2)
        assert len(fam) == 1 + 5 + 10
        assert fam.masks[0] == 0

    def test_full_family(self):
        assert len(core.family_full(4)) == 16

    def test_set_count_cap_refuses_before_enumerating(self):
        # C(40, 20) = 1.4e11 and sum_{k<=30} C(60, k) = 6.4e17 masks
        with pytest.raises(core.SizeGuardError, match="137846528820 sets"):
            core.family_homogeneous(40, 20)
        with pytest.raises(core.SizeGuardError):
            core.family_upto(60, 30)

    def test_set_count_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_FAMILY_SETS", math.comb(10, 5))
        assert len(core.family_homogeneous(10, 5)) == 252
        with pytest.raises(core.SizeGuardError):
            core.family_homogeneous(11, 5)
        assert len(core.family_upto(10, 3)) == 1 + 10 + 45 + 120
        with pytest.raises(core.SizeGuardError):
            core.family_upto(10, 4)  # 386 sets

    def test_explicit_rejects_duplicates(self):
        with pytest.raises(core.FamilySpecError):
            core.family_explicit(3, [[1, 2], [2, 1]])

    def test_masks_strictly_increasing(self):
        with pytest.raises(core.FamilySpecError):
            core.SupportFamily(3, (2, 1), "explicit")
        with pytest.raises(core.FamilySpecError):
            core.SupportFamily(3, (), "explicit")

    def test_prime_singletons(self):
        fam = core.family_prime_singletons(10)
        assert [m.bit_length() for m in fam.masks] == [2, 3, 5, 7]
        assert all(m.bit_count() == 1 for m in fam.masks)

    def test_squarefree_matches_integer_sieve(self):
        for n in (1, 2, 10, 30, 60):
            fam = core.family_squarefree(n)
            squarefree = [
                k for k in range(1, n + 1)
                if all(k % (p * p) for p in range(2, int(k**0.5) + 1))
            ]
            assert len(fam) == len(squarefree)
            products = sorted(
                math.prod(s.elements()) if s.elements() else 1 for s in fam.sets
            )
            assert products == squarefree

    def test_large_n_families_construct(self):
        fam = core.family_squarefree(500)
        assert fam.n == 500
        assert core.family_prime_singletons(500).n == 500

    @pytest.mark.parametrize(
        "build",
        [core.family_prime_singletons, core.family_squarefree,
         lambda n: core.family_explicit(n, [[n]])],
        ids=["primes", "squarefree", "explicit"],
    )
    def test_dimension_cap_refuses_before_building(self, build):
        # 10**12 would need a terabyte sieve, so only an up-front check returns
        with pytest.raises(core.SizeGuardError):
            build(10**12)

    def test_make_family_roundtrip(self):
        specs = [
            {"kind": "explicit", "N": 4, "sets": [[1, 2], [3]]},
            {"kind": "homogeneous", "N": 5, "d": 2},
            {"kind": "upto", "N": 5, "d": 2},
            {"kind": "prime-singletons", "N": 12},
            {"kind": "squarefree", "N": 12},
        ]
        for spec in specs:
            fam = core.make_family(spec)
            again = core.make_family(fam.to_json_dict())
            assert again.masks == fam.masks
            assert again.kind == fam.kind

    def test_make_family_errors(self):
        with pytest.raises(core.FamilySpecError):
            core.make_family({"kind": "nope", "N": 3})
        with pytest.raises(core.FamilySpecError):
            core.make_family({"kind": "homogeneous", "N": 3})
        for spec in ({"N": 3}, {"kind": ["x"], "N": 3}, [1, 2]):
            with pytest.raises(core.FamilySpecError, match="missing a string 'kind'"):
                core.make_family(spec)
        with pytest.raises(core.FamilySpecError):
            core.make_family({"kind": "explicit", "N": 3})
        # JSON true is not an integer, though Python's bool is an int
        for spec in ({"kind": "explicit", "N": True, "sets": [[1]]},
                     {"kind": "homogeneous", "N": True, "d": True},
                     {"kind": "upto", "N": 4, "d": True}):
            with pytest.raises(core.FamilySpecError):
                core.make_family(spec)


class TestEvaluate:
    def test_coefficient_count_checked(self):
        fam = core.family_explicit(2, [[1]])
        with pytest.raises(core.CubeError):
            core.WalshPolynomial(fam, (1, 2))


class TestPrimes:
    def test_primes_upto_100(self):
        assert core.primes_upto(100) == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
            53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
        ]

    def test_edge_cases(self):
        assert core.primes_upto(1) == []
        assert core.primes_upto(2) == [2]

    def test_sieve_cap(self):
        with pytest.raises(core.SizeGuardError):
            core.primes_upto(core.MAX_SIEVE + 1)

    def test_against_trial_division(self):
        want = []
        for n in range(-3, 2001):
            if n >= 2 and all(n % p for p in want):
                want.append(n)
            got = core.primes_upto(n)
            assert got == want
            assert all(type(p) is int for p in got)

    @pytest.mark.parametrize("n", [2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 7])
    def test_block_edges_match_one_array_sieve(self, n):
        sieve = np.ones(n + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(n) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        assert core.primes_upto(n) == np.flatnonzero(sieve).tolist()
