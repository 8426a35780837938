"""Projection constants of cube function spaces: lambda(B_S^N) = E|sum_{S in
family} chi_S|, exactly, by Monte Carlo, and by closed forms for singletons.

Exact lambda has three routes, all chosen by lambda_of_spec: the level sum
for homogeneous and upto families (lambda_level_exact), Haagerup's formula,
the degree-1 level sum, for prime singletons (haagerup_lambda), and the Walsh
butterfly for every other family (lambda_exact).

lambda_exact first peels off, repeatedly, every set that owns a coordinate
no other remaining set holds; the peeled characters are independent uniform
signs.  The butterfly runs over the remaining core's own coordinates only,
in the narrowest integer table that holds its values, and gives the
histogram of the core sum.  The peeled signs are folded back in exactly, as
a Binomial(k, 1/2) shift of that histogram.

Every route accumulates integers and divides by the cube size only at the
end, so it returns an exact rational.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import or_

import numpy as np

from .core import (
    _MODE_ALIASES,
    MAX_ENUM_DIMENSION,
    CubeError,
    SizeGuardError,
    SupportFamily,
    _compact_masks,
    _is_json_int,
    _prime_array,
    _spec_kind,
    character_sum_table,
    family_squarefree,
    make_family,
    philox,
)

_WHT_MAX_DIRECT = 22  # 2^22 points per value table: 4 MB at int8, 32 MB at int64
_BINCOUNT_CHUNK = 1 << 16  # bincount copies its input to int64; keep the copy small
MAX_LEVEL_N = 100_000
MAX_PEELED_SETS = 10_000  # independent signs in an exact sum; see lambda_exact
_Z95 = 1.96


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    ci95: tuple[float, float]
    samples: int
    seed: int


@dataclass(frozen=True)
class ClosedForms:
    """lambda(l1^n) and lambda(l2^n(R)) from the Gamma-function formulas."""

    l1: float
    l2: float


@dataclass(frozen=True)
class PrimeSingletonReport:
    lam: Fraction
    ratio: float  # lambda / sqrt(N / log N); tends to sqrt(2/pi), slowly
    prime_count: int


@dataclass(frozen=True)
class SquarefreeReport:
    estimate: McEstimate
    ratio: float  # mean / (sqrt(N) / (log log N)^{1/4}); report-only
    family_size: int
    exact: Fraction | None
    agrees_with_exact: bool | None


def _peel_private(masks: list[int]) -> tuple[list[int], int]:
    """(core masks, k): drop every set holding a coordinate that no other
    remaining set holds, and repeat until no such set is left.

    A dropped set's private coordinate lies in no set still remaining, so
    in drop order the sets and their private coordinates form a triangular
    system: the k dropped characters are independent uniform signs, and
    independent of the core's coordinates.  The cascade takes one pass:
    each coordinate keeps its holder count and the XOR of their indices,
    which names the last holder.
    """
    once = twice = 0
    for m in masks:
        once, twice = once | m, twice | (once & m)
    if once == twice:
        return masks, 0
    count: dict[int, int] = {}
    last: dict[int, int] = {}
    coords = []
    for j, m in enumerate(masks):
        coords.append([])
        while m:
            c = (m & -m).bit_length()
            coords[j].append(c)
            count[c] = count.get(c, 0) + 1
            last[c] = last.get(c, 0) ^ j
            m &= m - 1
    todo = [last[c] for c, held in count.items() if held == 1]
    alive = [True] * len(masks)
    while todo:
        j = todo.pop()
        if alive[j]:
            alive[j] = False
            for c in coords[j]:
                count[c] -= 1
                last[c] ^= j
                if count[c] == 1:
                    todo.append(last[c])
    core = [m for m, keep in zip(masks, alive) if keep]
    return core, len(masks) - len(core)


def _value_histogram(compact: np.ndarray, n: int, threads: int) -> np.ndarray:
    """count(g) of g = sum_S chi_S over the n-cube, at index g + |family|.

    Coordinates past the first 22 are fixed to y per block, where chi_S =
    (-1)^popcount(S_high & y) chi_{S_low}: one signed butterfly per block.
    Every value the butterfly forms lies in [-|family|, |family|], so the
    table takes the smallest signed type that also holds the offset value
    2|family| fed to bincount.  The counts total 2^n <= 2^30, so their
    int64 block sums are exact in any order.
    """
    size = len(compact)
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if 2 * size <= np.iinfo(t).max)
    low_bits = min(n, _WHT_MAX_DIRECT)
    low_parts = compact & np.uint64((1 << low_bits) - 1)
    high_parts = compact >> np.uint64(low_bits)

    def block_counts(y: int) -> np.ndarray:
        parity = (np.bitwise_count(high_parts & np.uint64(y)) & 1).astype(dtype)
        table = character_sum_table(low_parts, low_bits, 1 - 2 * parity)
        table += size
        return sum(np.bincount(table[i : i + _BINCOUNT_CHUNK], minlength=2 * size + 1)
                   for i in range(0, table.size, _BINCOUNT_CHUNK))

    blocks = range(1 << (n - low_bits))
    if len(blocks) > 1 and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return sum(pool.map(block_counts, blocks))
    return sum(map(block_counts, blocks))


def _fold_signs(hist: np.ndarray, size: int, k: int) -> int:
    """sum_g count(g) F(g + k), F(t) = sum_j C(k,j) |t - 2j|: 2^k times the
    abs-sum of the core plus k independent uniform signs, in exact integers.

    From |t - 2j| = (t - 2j) + 2 max(2j - t, 0) and j C(k,j) = k C(k-1,j-1),
    with J = floor(t/2) clamped to [-1, k] and T(J) = sum_{j>J} C(k,j):

        F(t) = 2^k (t - k) + 2 (k - J) C(k, J) + 2 (k - t) T(J),

    so one row of binomials and its prefix sums leave O(1) work per value.
    """
    binom = [0, 1]  # C(k, J) at J + 1
    for j in range(1, k + 1):
        binom.append(binom[-1] * (k - j + 1) // j)
    tail = [(1 << k) - below for below in accumulate(binom)]  # T(J) at J + 1
    nonzero = np.flatnonzero(hist)
    total = 0
    for index, count in zip(nonzero.tolist(), hist[nonzero].tolist()):
        t = index - size + k
        J = min(max(t >> 1, -1), k)
        total += count * (((t - k) << k) + 2 * (k - J) * binom[J + 1]
                          + 2 * (k - t) * tail[J + 1])
    return total


def lambda_exact(family: SupportFamily, threads: int = 1) -> Fraction:
    """E|sum_{S in family} chi_S| as an exact rational.

    Coordinates no set uses are integrated out for free.  Sets that own a
    coordinate are peeled off, repeatedly (_peel_private); their k
    characters are independent uniform signs.  The Walsh butterfly then
    runs over the core's own active coordinates only and yields the
    histogram count(g) of the core sum g, and the signs are folded in
    exactly:

        lambda = 2^-(n_core+k) sum_g count(g) sum_j C(k,j) |g + k - 2j|.

    An empty core is Haagerup's case: count(0) = 1.  Past 22 core
    coordinates the cube is summed in blocks on `threads` worker threads.

    The guard counts core coordinates: sqfree(127) keeps 18 of its 31.
    MAX_PEELED_SETS bounds k; _fold_signs takes 0.06 s at k = 10000 on
    2001 histogram values (one core of an Intel Xeon).
    """
    core, k = _peel_private(list(family.masks))
    n_core = reduce(or_, core, 0).bit_count()
    if n_core > MAX_ENUM_DIMENSION:
        raise SizeGuardError(f"{n_core} core coordinates exceed the guard {MAX_ENUM_DIMENSION}")
    if k > MAX_PEELED_SETS:
        raise SizeGuardError(f"{k} peeled sets exceed the sign-fold cap {MAX_PEELED_SETS}")
    compact, n_core = _compact_masks(core)
    hist = _value_histogram(compact, n_core, threads)
    return Fraction(_fold_signs(hist, len(compact), k), 1 << (n_core + k))


def lambda_level_exact(n: int, d: int, mode: str = "exact-degree") -> Fraction:
    """lambda of the full degree-d family (or all degrees <= d), exactly.

    At a point with x coordinates -1 the value is v(x) = K_d(x; N) = [z^d]
    (1-z)^x (1+z)^(N-x); over degrees <= d the series is divided by 1 - z:
    v(x) = K_d(x-1; N-1) for x >= 1, v(0) > 0.  K_d(x; M) steps exactly by
    (M-x) K_d(x+1) = (M-2d) K_d(x) - x K_d(x-1), which is (k+1) K_{k+1}(y) =
    (M-2y) K_k(y) - (M-k+1) K_{k-1}(y) at k = x, y = d, times C(M, d) / C(M, x),
    since C(M, k) K_d(k) = C(M, d) K_k(d) = [z^d w^k] (1+z+w-zw)^M.  Each
    chi_S sums to 2^N [S empty] over the cube, so sum_x C(N, x) v(x) = 2^N
    [upto], and |v| = v - 2 min(v, 0) leaves only the v < 0 to weigh.
    """
    if mode not in _MODE_ALIASES:
        raise CubeError(f"unknown mode {mode!r}")
    mode = _MODE_ALIASES[mode]
    if not 1 <= d <= n:
        raise CubeError(f"need 1 <= d <= N, got d={d}, N={n}")
    if n > MAX_LEVEL_N:
        raise SizeGuardError(f"N={n} exceeds level-formula cap {MAX_LEVEL_N}")
    s = int(mode == "up-to-degree")  # the point x = y + s takes K_d(y; N-s)
    m = n - s
    # C(N, y+s), K_d(y-1), K_d(y), and the sum of C(N, x) v(x) over v(x) < 0
    weight, before, k, below = math.comb(n, s), 0, math.comb(m, d), 0
    for y in range(m):
        if k < 0:
            below += weight * k
        weight = weight * (m - y) // (y + s + 1)
        before, k = k, ((m - 2 * d) * k - y * before) // (m - y)
    below += min(k, 0)  # y = m, where the weight is C(N, N) = 1
    return Fraction((s << n) - 2 * below, 1 << n)


def lambda_of_spec(spec: dict, threads: int = 1) -> tuple[Fraction, str, dict]:
    """(lambda, method, family document) of a family JSON spec, exactly.

    homogeneous and upto specs take the level sum ("level") and prime
    singletons Haagerup's formula ("haagerup"), without building the family;
    every other spec is built and goes through the butterfly ("exact").
    """
    kind = _spec_kind(spec)
    n = spec.get("N")
    if not _is_json_int(n):
        raise CubeError("family spec is missing an integer 'N'")
    if kind in ("homogeneous", "upto"):
        d = spec.get("d")
        if not _is_json_int(d):
            raise CubeError(f"{kind} family spec needs an integer 'd'")
        return lambda_level_exact(n, d, mode=kind), "level", {"kind": kind, "N": n, "d": d}
    if kind == "prime-singletons":
        return _prime_singleton_lambda(n)[0], "haagerup", {"kind": kind, "N": n}
    family = make_family(spec)
    return lambda_exact(family, threads=threads), "exact", family.to_json_dict()


_MC_CHUNK = 1 << 14
MAX_MC_SAMPLES = 10**8


def _mc_chunk_sums(seed: int, chunk_index: int, count: int, compact: np.ndarray, n_act: int):
    """Exact integer (sum |g|, sum g^2) over one chunk of samples.

    Chunk streams are keyed by (seed, chunk index): counter-based, so the
    estimate cannot depend on the order the chunks run in.
    """
    words = philox(seed, chunk_index).random_raw(count)
    if n_act < 64:
        words = words & np.uint64((1 << n_act) - 1)
    g = np.zeros(count, dtype=np.int64)
    for mask in compact:
        parity = (np.bitwise_count(words & mask) & np.uint8(1)).astype(np.int64)
        g += 1 - 2 * parity
    abs_sum = int(np.abs(g).sum())
    sq_sum = int((g * g).sum())
    return abs_sum, sq_sum


def lambda_mc(
    family: SupportFamily, samples: int = 100_000, seed: int = 42, threads: int = 1
) -> McEstimate:
    """Monte Carlo estimate of lambda(B_S^N) with a 95% normal interval.

    threads is accepted for compatibility and ignored: the per-mask numpy
    loop holds the GIL, so worker threads only added scheduling overhead.
    """
    if samples < 100:
        raise CubeError(f"need samples >= 100, got {samples}")
    if samples > MAX_MC_SAMPLES:
        raise SizeGuardError(f"{samples} samples exceed the cap {MAX_MC_SAMPLES}")
    compact, n_act = _compact_masks(family.masks)
    chunk_sizes = [
        min(_MC_CHUNK, samples - start) for start in range(0, samples, _MC_CHUNK)
    ]
    parts = [
        _mc_chunk_sums(seed, i, size, compact, n_act)
        for i, size in enumerate(chunk_sizes)
    ]
    total_abs = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    mean = total_abs / samples
    # variance from the exact integer sums, independent of the chunking
    var_num = total_sq * samples - total_abs * total_abs
    variance = var_num / samples / (samples - 1)
    stderr = math.sqrt(max(variance, 0.0) / samples)
    return McEstimate(
        mean=mean,
        stderr=stderr,
        ci95=(mean - _Z95 * stderr, mean + _Z95 * stderr),
        samples=samples,
        seed=seed,
    )


def lambda_closed_forms(n: int) -> ClosedForms:
    """lambda(l2^n(R)) = (2/sqrt(pi)) Gamma((n+2)/2)/Gamma((n+1)/2); the l1
    value coincides with it for odd n and steps down to n-1 for even n."""
    if n < 1:
        raise CubeError(f"need n >= 1, got {n}")

    def l2(k: int) -> float:
        return 2.0 / math.sqrt(math.pi) * math.exp(
            math.lgamma((k + 2) / 2) - math.lgamma((k + 1) / 2)
        )

    l2_n = l2(n)
    l1_n = l2_n if n % 2 == 1 else l2(n - 1)
    return ClosedForms(l1=l1_n, l2=l2_n)


def haagerup_lambda(n: int) -> Fraction:
    """lambda of n singleton sets: 2^-n sum_k C(n,k) |n-2k|.

    Closed form of (2/pi) Int t^-2 (1 - cos^n t) dt after expanding cos^n
    into cosines of multiples and using Int (1-cos(at)) t^-2 dt = pi|a|/2.
    """
    if not 1 <= n <= MAX_PEELED_SETS:
        raise CubeError(f"need 1 <= n <= {MAX_PEELED_SETS}, got {n}")
    return lambda_level_exact(n, 1)


def _prime_singleton_lambda(n: int) -> tuple[Fraction, int]:
    count = _prime_array(n).size
    if not 1 <= count <= MAX_PEELED_SETS:
        raise CubeError(f"N={n} gives {count} prime singletons, outside 1..{MAX_PEELED_SETS}")
    return haagerup_lambda(count), count


def prime_singleton_report(n: int) -> PrimeSingletonReport:
    """lambda of the prime-singleton family plus its sqrt(N/log N) ratio."""
    lam, count = _prime_singleton_lambda(n)
    ratio = float(lam) / math.sqrt(n / math.log(n))
    return PrimeSingletonReport(lam=lam, ratio=ratio, prime_count=count)


def squarefree_mc(n: int, samples: int = 100_000, seed: int = 42, threads: int = 1) -> SquarefreeReport:
    """Monte Carlo lambda of the square-free family, with the sqrt(N)/(log
    log N)^{1/4} ratio reported and an exact cross-check when small enough.
    threads goes to lambda_mc, which ignores it."""
    if n < 16:
        raise CubeError(f"need N >= 16, got {n}")
    if samples < 1000:
        raise CubeError(f"need samples >= 1000, got {samples}")
    family = family_squarefree(n)
    estimate = lambda_mc(family, samples=samples, seed=seed, threads=threads)
    ratio = estimate.mean / (math.sqrt(n) / math.log(math.log(n)) ** 0.25)
    exact = None
    agrees = None
    if n <= 24:
        exact = lambda_exact(family)
        agrees = abs(estimate.mean - float(exact)) <= 4 * estimate.stderr
    return SquarefreeReport(
        estimate=estimate,
        ratio=ratio,
        family_size=len(family),
        exact=exact,
        agrees_with_exact=agrees,
    )
