"""Inequality verification suites: every bound the exact machinery can reach
is recomputed and compared.  Checks that compare integers (Desigforo,
Kadets-Snobar) compare them exactly; McKay's correction exponent c is
computed from binomial ratios in floats, and float comparisons get 1e-12
relative slack.  The Gaussian tail ratio Y of the McKay and Szarek checks
comes from math.erfc below x = 3 and from its continued fraction above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import combinatorics
from .core import _MODE_ALIASES, CubeError, SizeGuardError, philox, walsh_butterfly_inplace
from .projection import lambda_level_exact

_REL_SLACK = 1e-12
_UPTO_CONSTANT = 2.69076
_KLIMEK_CONSTANT = 1 + math.sqrt(2)
_KLIMEK_MAX_CELLS = 1 << 24  # points x trials; 128 MiB per float64 table
_MCKAY_MAX_N = 4001
_RANGE_MAX_N = 100  # the range sweep's time grows about as max_n^4.5
_DESIGFORO_MAX_N = 100_000
_DESIGFORO_MAX_D = 10
_SZAREK_GRID = tuple(k / 10 for k in range(501))


@dataclass(frozen=True)
class BoundsReport:
    name: str
    lhs: float
    rhs: float
    passed: bool
    context: dict = field(default_factory=dict, compare=False)


def _le(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + _REL_SLACK * max(abs(lhs), abs(rhs))


def _report(name: str, lhs, rhs, **context) -> BoundsReport:
    return BoundsReport(name, float(lhs), float(rhs), _le(float(lhs), float(rhs)), context)


def check_range_bounds(n: int, d: int, mode: str = "exact-degree") -> list[BoundsReport]:
    """Sandwiches for lambda of the full degree-d (or <= d) family: the
    trivial 1..sqrt|S| range, the hypercontractive lower bound, and the
    (N/d)^{d/2}-scale pinch."""
    lam = lambda_level_exact(n, d, mode)
    upto = _MODE_ALIASES[mode] == "up-to-degree"
    size = (
        sum(math.comb(n, k) for k in range(d + 1)) if upto else math.comb(n, d)
    )
    hyper = _UPTO_CONSTANT**d if upto else math.exp(d / 2)
    scale = (n / d) ** (d / 2)
    lam_f = float(lam)
    ctx = {"N": n, "d": d, "mode": "up-to-degree" if upto else "exact-degree",
           "lambda": lam_f, "family_size": size}
    return [
        BoundsReport("kadets-snobar-lower", 1.0, lam_f, lam >= 1, ctx),
        BoundsReport("kadets-snobar-upper", lam_f, math.sqrt(size),
                      lam * lam <= size, ctx),
        _report("hypercontractive-lower", math.sqrt(size) / hyper, lam_f, **ctx),
        _report("scale-lower", scale / hyper, lam_f, **ctx),
        _report("scale-upper", lam_f, math.exp(d / 2) * scale, **ctx),
    ]


def y_function(x: float) -> float:
    """Y(x) = e^{x^2/2} Int_x^inf e^{-t^2/2} dt, with the standard library:
    sqrt(pi/2) erfc(x/sqrt 2) e^{x^2/2} below x = 3, where nothing
    underflows or cancels, and from 3 up 60 terms of the continued fraction
    1/(x + 1/(x + 2/(x + 3/(x + ...)))) (Abramowitz & Stegun 26.2.14),
    evaluated backwards.  Against 40-digit mpmath: within 1.9e-15 relative
    below 3, and 1.6e-16 on [3, 70].
    """
    if x < 0:
        raise CubeError(f"Y is defined for x >= 0, got {x}")
    if x < 3:
        return math.sqrt(math.pi / 2) * math.erfc(x / math.sqrt(2)) * math.exp(x * x / 2)
    t = 0.0
    for k in range(60, 0, -1):
        t = k / (x + t)
    return 1 / (x + t)


def szarek_y_bounds() -> list[BoundsReport]:
    """2/(x+sqrt(x^2+4)) <= Y(x) <= 4/(3x+sqrt(x^2+8)) for x = 0, 0.1, ...,
    50; the two reports carry the worst margin of each side."""
    worst_low = worst_high = None
    for x in _SZAREK_GRID:
        y = y_function(x)
        low = 2 / (x + math.sqrt(x * x + 4))
        high = 4 / (3 * x + math.sqrt(x * x + 8))
        if worst_low is None or low - y > worst_low[0]:
            worst_low = (low - y, x, low, y)
        if worst_high is None or y - high > worst_high[0]:
            worst_high = (y - high, x, y, high)
    return [
        _report("szarek-lower", worst_low[2], worst_low[3],
                x=worst_low[1], grid_points=len(_SZAREK_GRID)),
        _report("szarek-upper", worst_high[2], worst_high[3],
                x=worst_high[1], grid_points=len(_SZAREK_GRID)),
    ]


def mckay_constant(n: int, alpha: int) -> BoundsReport:
    """Solve the cumulative-binomial formula for its correction exponent:
    sum_{k <= m} C(N,k) = sqrt(N) C(N-1,m) Y((a+1)/sqrt(N)) e^{c/sqrt(N)}
    with m = (N-a-1)/2; the claim is 0 <= c <= sqrt(pi/2).

    No binomial is formed.  The left side is C(N,m) S, where S = sum_j t_j
    with t_j = C(N,m-j)/C(N,m), so t_0 = 1 and t_{j+1} = t_j (m-j)/(N-m+j+1);
    with C(N,m)/C(N-1,m) = N/(N-m),

        c = sqrt(N) [log S + log(N/(N-m)) - log(N)/2 - log Y].

    The ratios r_j = (m-j)/(N-m+j+1) fall with j and, as m <= (N-1)/2, stay
    below 1, so t_{J+i} <= t_J r_J^i.  The sum stops at j = m, or before the
    first t_J < 1e-17 S, whose tail is then at most t_J/(1-r_J) <
    1e-17 S (N-m+J+1)/(N-2m+2J+1).
    """
    if not 0 <= alpha < n:
        raise CubeError(f"need 0 <= alpha < N, got alpha={alpha}, N={n}")
    if (n - alpha) % 2 == 0:
        raise CubeError(f"N - alpha = {n - alpha} must be odd")
    if n > _MCKAY_MAX_N:
        raise CubeError(f"N={n} exceeds the {_MCKAY_MAX_N} sweep cap")
    m = (n - alpha - 1) // 2
    total, term = 0.0, 1.0
    for j in range(m + 1):
        total += term
        term *= (m - j) / (n - m + j + 1)
        if term < 1e-17 * total:
            break
    log_s = math.log(total)
    log_y = math.log(y_function((alpha + 1) / math.sqrt(n)))
    c = math.sqrt(n) * (log_s + math.log(n / (n - m)) - 0.5 * math.log(n) - log_y)
    log_lhs = log_s + math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    upper = math.sqrt(math.pi / 2)
    passed = c >= -_REL_SLACK and _le(c, upper)
    return BoundsReport("mckay-c-range", c, upper, passed,
                        {"N": n, "alpha": alpha, "c": c, "log_lhs": log_lhs})


def check_desigforo(n: int, d: int) -> BoundsReport:
    """sum_{k<=d} C(N,k) <= C(N,d) (N-d+1)/(N-2d+1), exact integers."""
    if 2 * d - 1 >= n:
        raise CubeError(f"need 2d-1 < N, got d={d}, N={n}")
    lhs = sum(math.comb(n, k) for k in range(d + 1))
    rhs = Fraction(math.comb(n, d) * (n - d + 1), n - 2 * d + 1)
    return BoundsReport("desigforo", float(lhs), float(rhs), lhs <= rhs,
                        {"N": n, "d": d})


def check_klimek(n: int, d: int, trials: int = 500, seed: int = 42) -> BoundsReport:
    """||f_k||_inf <= (1+sqrt2)^d ||f||_inf for every homogeneous part of
    random degree-<=d polynomials (no extremal construction is known, so
    this is a randomized audit; seed and trials ride in the context)."""
    if n > 14 or d > n:
        raise CubeError(f"need d <= N <= 14, got d={d}, N={n}")
    if trials < 1:
        raise CubeError("need trials >= 1")
    if (1 << n) * trials > _KLIMEK_MAX_CELLS:
        raise SizeGuardError(
            f"{trials} trials on {1 << n} points exceed {_KLIMEK_MAX_CELLS} table cells"
        )
    rng = np.random.Generator(philox(seed, 0))
    weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    support = weights <= d
    table = np.zeros((1 << n, trials))
    table[support, :] = rng.uniform(-1.0, 1.0, size=(int(support.sum()), trials))
    coeff_copy = table.copy()
    sup_f = np.max(np.abs(walsh_butterfly_inplace(table)), axis=0)
    bound = _KLIMEK_CONSTANT**d
    max_ratio = 0.0
    worst_k = 0
    for k in range(d + 1):
        part = np.where((weights == k)[:, None], coeff_copy, 0.0)
        sup_k = np.max(np.abs(walsh_butterfly_inplace(part)), axis=0)
        ratio = float(np.max(sup_k / sup_f))
        if ratio > max_ratio:
            max_ratio, worst_k = ratio, k
    return BoundsReport("klimek", max_ratio, bound, _le(max_ratio, bound),
                        {"N": n, "d": d, "trials": trials, "seed": seed,
                         "worst_k": worst_k})


def check_homog_vs_upto(n: int, d: int) -> BoundsReport:
    """lambda(degree exactly d) <= (1+sqrt2)^d lambda(degree <= d)."""
    lam_h = lambda_level_exact(n, d, "exact-degree")
    lam_u = lambda_level_exact(n, d, "up-to-degree")
    rhs = _KLIMEK_CONSTANT**d * float(lam_u)
    return BoundsReport("homog-vs-upto", float(lam_h), rhs,
                        _le(float(lam_h), rhs),
                        {"N": n, "d": d, "lambda_homog": float(lam_h),
                         "lambda_upto": float(lam_u)})


def range_suite(max_n: int = 12) -> list[BoundsReport]:
    reports = []
    for n in range(1, max_n + 1):
        for d in range(1, n + 1):
            reports.extend(check_range_bounds(n, d, "exact-degree"))
            reports.extend(check_range_bounds(n, d, "up-to-degree"))
            reports.append(check_homog_vs_upto(n, d))
    return reports


def mckay_suite(max_n: int = 4001) -> list[BoundsReport]:
    reports = szarek_y_bounds()
    for n in range(1, max_n + 1, 2):
        for alpha in (0, 2, 4):
            if alpha < n:
                reports.append(mckay_constant(n, alpha))
    return reports


def desigforo_suite(max_n: int = 200) -> list[BoundsReport]:
    reports = []
    for n in range(2, max_n + 1):
        for d in range(1, _DESIGFORO_MAX_D + 1):
            if 2 * d - 1 < n:
                reports.append(check_desigforo(n, d))
    return reports


def klimek_suite(trials: int = 500, seed: int = 42) -> list[BoundsReport]:
    return [check_klimek(8, 3, trials=trials, seed=seed)]


def _combinatorics_checks(max_n: int) -> tuple[list[BoundsReport], dict]:
    """Power identity, the two closed C-coefficient forms, the coefficient
    bounds, the N->inf ratio, and the Beckner fits, computed once and shaped
    both as pass/fail reports and as one document."""
    if max_n < 1:  # the CLI calls this directly, not through run_suite
        raise CubeError(f"max_n must be >= 1, got {max_n}")
    top = min(max_n, 12)
    identity = True
    worst_disc, worst_at = -1, None
    for d in range(1, 6):
        for n in range(d, top + 1):
            disc = combinatorics.verify_power_identity(d, n).max_discrepancy
            identity = identity and disc == 0
            if disc > worst_disc:
                worst_disc, worst_at = disc, (d, n)
    reports = [BoundsReport("power-identity", worst_disc, 0, worst_disc == 0,
                            {"max_d": 5, "max_n": top, "worst_at": worst_at})]
    closed_ok = all(
        combinatorics.c_coefficient(2, 1, n) == n
        and combinatorics.c_coefficient(3, 1, n) == 3 * n - 2
        for n in range(3, 51)
    )
    reports.append(BoundsReport("c-coefficient-closed-forms", 0.0, 0.0, closed_ok,
                                {"range": "3..50"}))
    c_table = []
    for d in range(2, 7):
        for k in range(1, d // 2 + 1):
            value = combinatorics.c_coefficient(d, k, 200)
            lo, hi = combinatorics.c_coefficient_bounds(d, k, 200)
            limit = math.factorial(d) / (math.factorial(k) * 2**k)
            ratio = value / 200**k
            reports.append(BoundsReport(
                f"c-coefficient-bounds-d{d}k{k}", lo, value, lo <= value <= hi,
                {"N": 200, "upper": hi}))
            reports.append(_report(
                f"c-limit-ratio-d{d}k{k}", abs(ratio / limit - 1), 10 * d / 200,
                N=200, ratio=ratio, limit=limit))
            c_table.append({
                "d": d, "k": k, "N": 200, "value": value,
                "lower": lo, "upper": hi,
                "within_bounds": lo <= value <= hi,
                "ratio": ratio, "limit": limit,
            })
    beckner = []
    for d, n in ((2, 40), (3, 40), (4, 80), (5, 160)):
        fit = combinatorics.beckner_coefficients(d, n)
        reports.append(_report(f"beckner-residual-d{d}", fit.residual, 1e-8,
                               N=n, a=list(fit.a)))
        beckner.append({"d": d, "N": n, "a": list(fit.a),
                        "residual": fit.residual})
    return reports, {"identity": identity, "c_table": c_table, "beckner": beckner}


def combinatorics_suite(max_n: int = 12) -> list[BoundsReport]:
    """The combinatorics checks as pass/fail reports."""
    return _combinatorics_checks(max_n)[0]


_SUITES = ("range", "mckay", "desigforo", "klimek", "combinatorics")


def run_suite(
    name: str,
    max_n: int = 12,
    mckay_max_n: int = 4001,
    desigforo_max_n: int = 200,
    klimek_trials: int = 500,
    seed: int = 42,
) -> list[BoundsReport]:
    # a sweep bound under which a suite would check nothing, or past what
    # its checks accept, is refused before any suite runs
    if max_n < 1 and name in ("range", "combinatorics", "all"):
        raise CubeError(f"max_n must be >= 1, got {max_n}")
    if max_n > _RANGE_MAX_N and name in ("range", "all"):
        raise SizeGuardError(f"max_n {max_n} exceeds the range sweep cap {_RANGE_MAX_N}")
    if desigforo_max_n < 2 and name in ("desigforo", "all"):
        raise CubeError(f"desigforo_max_n must be >= 2, got {desigforo_max_n}")
    if desigforo_max_n > _DESIGFORO_MAX_N and name in ("desigforo", "all"):
        raise SizeGuardError(
            f"desigforo_max_n {desigforo_max_n} exceeds the cap {_DESIGFORO_MAX_N}"
        )
    if mckay_max_n < 1 and name in ("mckay", "all"):
        raise CubeError(f"mckay_max_n must be >= 1, got {mckay_max_n}")
    # the McKay sweep visits odd N only, so 4002 still stops at N = 4001
    if mckay_max_n > _MCKAY_MAX_N + 1 and name in ("mckay", "all"):
        raise SizeGuardError(
            f"mckay_max_n {mckay_max_n} passes the {_MCKAY_MAX_N} sweep cap"
        )
    if name == "range":
        return range_suite(max_n)
    if name == "mckay":
        return mckay_suite(mckay_max_n)
    if name == "desigforo":
        return desigforo_suite(desigforo_max_n)
    if name == "klimek":
        return klimek_suite(klimek_trials, seed)
    if name == "combinatorics":
        return combinatorics_suite(max_n)
    if name == "all":
        out = []
        for suite in _SUITES:
            out.extend(run_suite(suite, max_n, mckay_max_n, desigforo_max_n,
                                 klimek_trials, seed))
        return out
    raise CubeError(f"unknown suite {name!r}")
