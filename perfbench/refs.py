"""Reference computations written apart from the package.

Nothing here imports cube_constants: every value the checks compare against
is computed by a different method (a recurrence, a brute-force sum, a
closed form, an mpmath integral or an LP solved by HiGHS).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

# Paper's table of d^(1/4) E|h_d(Z)| / sqrt(d!) for d = 2..6.
PAPER_TABLE = {2: 0.814, 3: 0.811, 4: 0.808, 5: 0.807, 6: 0.806}


def active_compact(masks, n: int) -> tuple[list[int], int]:
    """Masks re-indexed onto the coordinates some set uses."""
    union = 0
    for m in masks:
        union |= m
    place = {}
    for i in range(n):
        if (union >> i) & 1:
            place[i] = len(place)
    out = []
    for m in masks:
        out.append(sum(1 << place[i] for i in range(n) if (m >> i) & 1))
    return out, len(place)


def character_table(masks, n: int) -> np.ndarray:
    """chi_S(x) for every point x of {-1,1}^n (rows) and set S (columns)."""
    points = np.arange(1 << n, dtype=np.uint64)
    table = np.empty((1 << n, len(masks)), dtype=np.int64)
    for j, mask in enumerate(masks):
        parity = np.bitwise_count(points & np.uint64(mask)) & np.uint64(1)
        table[:, j] = 1 - 2 * parity.astype(np.int64)
    return table


def brute_lambda(masks, n: int) -> Fraction:
    """E|sum_S chi_S| by summing over every point of the active cube."""
    compact, n_act = active_compact(masks, n)
    if n_act > 16:
        raise ValueError("brute force is for at most 16 active coordinates")
    points = np.arange(1 << n_act, dtype=np.uint64)
    g = np.zeros(1 << n_act, dtype=np.int64)
    for mask in compact:
        parity = np.bitwise_count(points & np.uint64(mask)) & np.uint64(1)
        g += 1 - 2 * parity.astype(np.int64)
    total = int(np.abs(g).sum())
    return Fraction(total, 1 << n_act)


def krawtchouk_row(n: int, d: int, w: int) -> list[int]:
    """K_0..K_d at a point with w coordinates equal to -1, by the three-term
    recurrence (k+1) K_{k+1} = (n - 2w) K_k - (n - k + 1) K_{k-1}."""
    row = [1, n - 2 * w]
    for k in range(1, d):
        num = (n - 2 * w) * row[k] - (n - k + 1) * row[k - 1]
        row.append(num // (k + 1))
    return row[: d + 1]


def level_lambda(n: int, d: int, upto: bool = False) -> Fraction:
    """lambda of all degree-d sets (or all degrees <= d) on n coordinates."""
    total = 0
    binom = 1
    for w in range(n + 1):
        row = krawtchouk_row(n, d, w)
        value = sum(row) if upto else row[d]
        total += binom * abs(value)
        binom = binom * (n - w) // (w + 1)
    return Fraction(total, 1 << n)


def level_size(n: int, d: int, upto: bool = False) -> int:
    return sum(math.comb(n, k) for k in range(d + 1)) if upto else math.comb(n, d)


def primes(n: int) -> list[int]:
    """Primes <= n from a numpy sieve."""
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.flatnonzero(sieve)]


def squarefree_sets(n: int) -> list[tuple[int, ...]]:
    """Prime-factor sets of the square-free integers 1..n."""
    ps = primes(n)
    out = []
    for m in range(1, n + 1):
        rest, factors = m, []
        for p in ps:
            if p * p > rest:
                break
            if rest % p == 0:
                rest //= p
                if rest % p == 0:
                    factors = None
                    break
                factors.append(p)
        if factors is None:
            continue
        if rest > 1:
            factors.append(rest)
        out.append(tuple(factors))
    return out


def walk_abs_mean(k: int) -> Fraction:
    """E|x_1 + ... + x_k| for independent signs: k C(k-1, floor((k-1)/2)) / 2^(k-1)."""
    return Fraction(k * math.comb(k - 1, (k - 1) // 2), 1 << (k - 1))


@functools.lru_cache(maxsize=1)
def kappa_reference() -> float:
    """prod_p 1/sinc(pi/p) over primes up to 1e7, plus the integral estimate
    (pi^2/6)/(P log P) of the log-mass beyond P (about 1e-8, itself good to 1e-9)."""
    cutoff = 10_000_000
    sieve = np.ones(cutoff + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(cutoff) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    x = np.pi / np.flatnonzero(sieve).astype(np.float64)
    log_sum = float(-np.log(np.sin(x) / x)[::-1].sum())
    log_sum += (math.pi**2 / 6) / (cutoff * math.log(cutoff))
    return math.exp(log_sum)


def _hermite_value(d: int, t, mp):
    """h_d(t) and h_{d-1}(t) (probabilists') in mpmath arithmetic."""
    prev, cur = mp.mpf(1), t
    if d == 0:
        return prev, mp.mpf(0)
    for k in range(1, d):
        prev, cur = cur, t * cur - k * prev
    return cur, prev


def _hermite_roots(d: int, mp) -> list:
    """Roots of h_d: Golub-Welsch eigenvalues polished by Newton in mpmath."""
    off = np.sqrt(np.arange(1, d, dtype=float))
    jacobi = np.diag(off, 1) + np.diag(off, -1)
    roots = []
    for r in np.linalg.eigvalsh(jacobi):
        t = mp.mpf(float(r))
        for _ in range(8):
            h, h_prev = _hermite_value(d, t, mp)
            t -= h / (d * h_prev)
        roots.append(t)
    return roots


@functools.lru_cache(maxsize=None)
def limit_reference(d: int) -> float:
    """E|P_d(Z)| = E|h_d(Z)| / d! in mpmath.

    d <= 10: adaptive quadrature of |h_d| phi split at the roots of h_d.
    d > 10: the closed form 2 sum_r |h_{d-1}(r)| phi(r) over the roots r of
    h_d, which follows from (h_{d-1} phi)' = -h_d phi.
    """
    import mpmath as mp

    mp.mp.dps = 40
    roots = _hermite_roots(d, mp)
    phi = lambda t: mp.exp(-t * t / 2) / mp.sqrt(2 * mp.pi)  # noqa: E731
    if d <= 10:
        cuts = [-mp.inf, *roots, mp.inf]
        total = mp.mpf(0)
        for lo, hi in zip(cuts, cuts[1:]):
            total += abs(mp.quad(lambda t: _hermite_value(d, t, mp)[0] * phi(t), [lo, hi]))
    else:
        total = 2 * mp.fsum(abs(_hermite_value(d, r, mp)[1]) * phi(r) for r in roots)
    return float(total / mp.factorial(d))


def sidon_lp_value(rows: np.ndarray, sigma: np.ndarray) -> float:
    """max sigma.a subject to |rows @ a| <= 1, solved by scipy's HiGHS."""
    from scipy.optimize import linprog

    m = rows.shape[1]
    res = linprog(
        -sigma,
        A_ub=np.vstack([rows, -rows]).astype(float),
        b_ub=np.ones(2 * rows.shape[0]),
        bounds=[(None, None)] * m,
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)
