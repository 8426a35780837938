"""Sidon constants at desk scale, and the constants around them.

sid(B_S^N) is the largest l1-norm of a coefficient vector whose Walsh
polynomial stays in [-1, 1] on the cube.  Maximizing the l1-norm over that
polytope means maximizing sigma . a over every sign pattern sigma, each a
plain LP.  Symmetries collapse the 2^|S| patterns: translating the cube
by y multiplies the pattern by (chi_S(y))_S and negating a flips it
entirely, so patterns only matter up to a GF(2) coset; a coordinate
permutation that maps the family onto itself permutes the sets and the
cosets alike, so one LP per orbit of cosets suffices.  Each LP is solved
by a dense simplex on its dual, whose tableau has one row per set instead
of one per cube point; Dantzig pricing with a Bland fallback on degenerate
runs keeps it short and cycle-free.  The winning witness gets an exact
rational feasibility certificate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    MAX_TRANSFORM_DIMENSION,
    CubeError,
    SizeGuardError,
    SupportFamily,
    WalshPolynomial,
    _compact_masks,
    _prime_blocks,
    character_sum_table,
    family_homogeneous,
    philox,
)
from .projection import lambda_level_exact

_LP_TOL = 1e-9  # every simplex threshold; the witness may exceed 1 by 10x this
_LP_MAX_ITER = 20_000
_DEGENERATE_RUN = 20  # degenerate pivots before Bland's rule takes over
_MAX_PATTERN_DIM = 16  # active coordinates; constraint rows grow as 2^this
DEFAULT_MAX_ORTHANTS = 1 << 16
MAX_COSETS = 1 << 20  # pattern cosets enumerated; one int32 table each is 4 MiB
_BGL3_KAPPA_TOL = 1e-6


class LpUnboundedError(CubeError):
    """Feasible directions of unbounded growth; impossible for distinct
    characters, so reaching this means the constraint system is broken."""


def lp_maximize(c, A) -> tuple[float, np.ndarray]:
    """max c.a subject to A a <= b = (1, ..., 1), a free; dense simplex on
    the dual.

    The dual  min b.y  s.t.  A^T y = c, y >= 0  has one equality row per
    variable, so its tableau is (n + 1) x (m + 1) where the primal one would
    be (m + 1) x (2n + m + 1); the Sidon systems have m = 2^k rows and only
    n = |S| columns.  Rows with c_i < 0 are negated so that the right-hand
    side is |c| >= 0 and an artificial basis is feasible; phase 1 minimizes
    the artificial sum.  A positive remainder means the dual is infeasible,
    hence (a = 0 being primal feasible) the primal is unbounded.  Zero-level
    artificials left basic are pivoted out; one that cannot be marks a
    redundant row and stays at zero.  Phase 2 minimizes b.y; it is bounded
    below by the primal value at a = 0, so it always reaches an optimum.

    Pricing is Dantzig's most negative reduced cost.  After a run of
    degenerate pivots it falls back to Bland's rule (smallest eligible
    entering index, smallest basis label on ratio ties) until the objective
    strictly decreases again.  Cycling needs an endless run of degenerate
    pivots, Bland's rule cannot sustain one, and each strict decrease rules
    out a return to every earlier basis, so the method terminates.

    The optimal basis B gives the primal point: B^T pi = b_B, and undoing
    the row negations turns pi into a.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if c.shape != (n,):
        raise CubeError(f"objective length {c.shape} does not match {n} columns")
    b = np.ones(m)
    sign = np.where(c < 0, -1.0, 1.0)
    columns = A.T * sign[:, None]
    # artificial k sits at index m + k of these, which its label k - n
    # reaches as a negative index; negative labels also leave first on ties
    extended = np.hstack([columns, np.eye(n)])
    cost = np.concatenate([b, np.zeros(n)])
    basis = list(range(-n, 0))
    T = np.empty((n + 1, m + 1))
    T[:n, :m] = columns
    T[:n, m] = np.abs(c)
    T[n] = -T[:n].sum(axis=0)
    budget = _simplex(T, basis, _LP_MAX_ITER)
    if -T[n, m] > _LP_TOL * (1.0 + float(np.abs(c).sum())):
        raise LpUnboundedError("unbounded LP: characters cannot be dependent")
    for i in range(n):
        if basis[i] < 0:
            j = int(np.argmax(np.abs(T[i, :m])))
            if abs(T[i, j]) > _LP_TOL:
                T[i, m] = 0.0
                _pivot(T, basis, i, j)
    T[n, :m] = b
    T[n, m] = 0.0
    T[n] -= cost[basis] @ T[:n]
    _simplex(T, basis, budget)
    a = sign * np.linalg.solve(extended[:, basis].T, cost[basis])
    return float(c @ a), a


def _pivot(T: np.ndarray, basis: list[int], i: int, j: int) -> None:
    T[i] /= T[i, j]
    elim = T[:, j].copy()
    elim[i] = 0.0
    T -= np.outer(elim, T[i])
    basis[i] = j


def _simplex(T: np.ndarray, basis: list[int], budget: int) -> int:
    """Pivot the tableau [rows | rhs; reduced costs | -objective] to a
    minimum; artificial columns are absent, so only y columns enter.
    Returns the unused part of the pivot budget."""
    rows = T.shape[0] - 1
    degenerate_run = 0
    while True:
        reduced = T[rows, :-1]
        if degenerate_run < _DEGENERATE_RUN:
            j = int(np.argmin(reduced))
            if reduced[j] >= -_LP_TOL:
                return budget
        else:
            eligible = np.flatnonzero(reduced < -_LP_TOL)
            if eligible.size == 0:
                return budget
            j = int(eligible[0])
        if budget == 0:
            raise CubeError(f"simplex did not finish in {_LP_MAX_ITER} pivots")
        budget -= 1
        col = T[:rows, j]
        positive = np.flatnonzero(col > _LP_TOL)
        if positive.size == 0:
            raise CubeError("dual simplex found no pivot row; constraint data broken")
        ratios = np.maximum(T[positive, -1], 0.0) / col[positive]
        best = ratios.min()
        ties = positive[ratios <= best + 1e-12 * (1.0 + best)]
        i = int(min(ties, key=lambda r: basis[r]))
        degenerate_run = degenerate_run + 1 if best <= _LP_TOL else 0
        _pivot(T, basis, i, j)


@dataclass(frozen=True)
class SidonResult:
    value: float
    witness: WalshPolynomial
    orthants_solved: int


def _sign_rows(compact: np.ndarray, n_act: int) -> np.ndarray:
    """The distinct rows (chi_S(x))_S over the active cube, up to sign, as
    floats: each row r stands for the constraint pair |r . a| <= 1."""
    points = np.arange(1 << n_act, dtype=np.uint64)
    rows = np.empty((1 << n_act, len(compact)), dtype=np.int8)
    for j, mask in enumerate(compact):
        parity = (np.bitwise_count(points & mask) & np.uint64(1)).astype(np.int8)
        rows[:, j] = 1 - 2 * parity
    return np.unique(np.where(rows[:, :1] < 0, -rows, rows), axis=0).astype(float)


def _gf2_basis(compact: np.ndarray, n_act: int, m: int) -> dict[int, int]:
    """Echelon basis (pivot bit -> vector) of the pattern subgroup.

    Bit j of a vector refers to set j.  Generators: one vector per active
    coordinate (which sets contain it) and the all-ones vector (global
    negation).
    """
    pivots: dict[int, int] = {}
    coordinates = [sum(((int(mask) >> i) & 1) << j for j, mask in enumerate(compact))
                   for i in range(n_act)]
    for v in coordinates + [(1 << m) - 1]:
        while v and (p := v.bit_length() - 1) in pivots:
            v ^= pivots[p]
        if v:
            pivots[p] = v
    return pivots


def _orbit_representatives(compact: np.ndarray, n_act: int) -> tuple[list[int], np.ndarray]:
    """(free, reps): the smallest coset index in each orbit of cosets.

    Bit k of a coset index is the sign of set free[k], a non-pivot of the
    echelon basis of the translation-and-negation group H (_gf2_basis).  A
    permutation of the active coordinates that maps the family onto itself
    maps H onto itself, so it acts on the cosets, linearly in their index;
    its table is doubled up from the images of the f unit cosets.  The
    generators tried are (0 1) and the n-cycle; orbits are merged by
    min-label propagation with pointer jumping.
    """
    pivots = _gf2_basis(compact, n_act, len(compact))
    free = [j for j in range(len(compact)) if j not in pivots]
    if 1 << len(free) > MAX_COSETS:
        raise SizeGuardError(f"2^{len(free)} pattern cosets exceed the cap {MAX_COSETS}")

    def coset_index(v: int) -> int:
        for p in sorted(pivots, reverse=True):
            if (v >> p) & 1:
                v ^= pivots[p]
        return sum(((v >> j) & 1) << k for k, j in enumerate(free))

    masks = compact.tolist()
    index_of = {mask: j for j, mask in enumerate(masks)}
    perms = {(1, 0, *range(2, n_act)), (*range(1, n_act), 0)} if n_act > 1 else set()
    tables = []
    for perm in perms:
        images = [sum(1 << perm[i] for i in range(n_act) if (mask >> i) & 1) for mask in masks]
        if index_of.keys() != set(images):
            continue
        table = np.zeros(1 << len(free), dtype=np.int32)
        for k, j in enumerate(free):
            table[1 << k : 2 << k] = table[: 1 << k] ^ coset_index(1 << index_of[images[j]])
        tables.append(table)
    label = np.arange(1 << len(free), dtype=np.int32)
    while tables:
        before = label.sum(dtype=np.int64)
        for table in tables:
            np.minimum(label, label[table], out=label)
            label = label[label]
        if label.sum(dtype=np.int64) == before:
            break
    return free, np.flatnonzero(label == np.arange(label.size))


def _certify_witness(a: np.ndarray, unique_rows: np.ndarray, value: float) -> None:
    """Exact-rational feasibility of the float witness: sup <= 1 + 10 _LP_TOL."""
    exact = [Fraction(float(v)) for v in a]
    limit = 1 + 10 * Fraction(_LP_TOL)
    for row in unique_rows:
        s = sum(coef if sign > 0 else -coef for sign, coef in zip(row, exact))
        if abs(s) > limit:
            raise CubeError(f"witness infeasible: |f(x)| = {float(s)} > {float(limit)}")
    l1 = sum(abs(v) for v in exact)
    if float(l1) < value - _LP_TOL:
        raise CubeError(f"witness l1 {float(l1)} below reported value {value}")


def sidon_exact(family: SupportFamily, max_orthants: int = DEFAULT_MAX_ORTHANTS) -> SidonResult:
    """sid(B_S^N): max over sign-pattern orbits of an LP over the unit ball.

    Guards by work, not by raw N: at most 16 active coordinates, MAX_COSETS
    enumerated pattern cosets and max_orthants orbits, one LP each.  An
    orbit shares one LP value: translating the cube, negating, and
    relabelling coordinates within the family's symmetries each map a
    feasible polynomial to one of the same l1-norm.  The LPs run in
    ascending coset index and the first best one gives the witness.
    """
    compact, n_act = _compact_masks(family.masks)
    m = len(compact)
    if n_act > _MAX_PATTERN_DIM:
        raise SizeGuardError(f"{n_act} active coordinates exceed {_MAX_PATTERN_DIM}")
    free, reps = _orbit_representatives(compact, n_act)
    if len(reps) > max_orthants:
        raise SizeGuardError(f"{len(reps)} orthant orbits exceed the cap {max_orthants}")
    unique = _sign_rows(compact, n_act)
    A = np.vstack([unique, -unique])

    best_value, best_a = -math.inf, None
    for r in reps.tolist():
        c = np.ones(m)
        c[[j for k, j in enumerate(free) if (r >> k) & 1]] = -1.0
        value, a = lp_maximize(c, A)
        if value > best_value:
            best_value, best_a = value, a
    _certify_witness(best_a, unique, best_value)
    witness = WalshPolynomial(family, tuple(float(v) for v in best_a), exact=False)
    return SidonResult(value=best_value, witness=witness, orthants_solved=len(reps))


def kappa_constant(tol: float = 1e-4) -> float:
    """kappa = (prod_p sinc(pi/p))^{-1} with a certified truncation error.

    For x = pi/n <= pi/50: sinc x >= 1 - x^2/6, so 0 <= -log sinc(pi/n) <=
    1.0014 (pi^2/6) n^-2, and summing over all integers n > P (a superset of
    the primes) bounds the dropped log-mass by 1.0014 (pi^2/6)/P.  With
    kappa < 2.21 the absolute error is below 3.65/P.
    """
    if not 1e-7 <= tol <= 1e-3:
        raise CubeError(f"tol {tol} outside [1e-7, 1e-3]")
    return _kappa_upto(max(50, math.ceil(3.65 / tol) + 1))


@functools.cache
def _kappa_upto(cutoff: int) -> float:
    """prod_{p <= cutoff} sinc(pi/p)^{-1}, once per cutoff in a process;
    the log-sinc is summed one sieve block at a time."""
    log_sinc = 0.0
    for primes in _prime_blocks(cutoff):
        x = np.pi / primes
        log_sinc += np.log(np.sin(x) / x).sum()
    return math.exp(-log_sinc)


@dataclass(frozen=True)
class Bgl3Report:
    n: int
    d: int
    sid_value: float
    lambda_lower: Fraction
    constant: float  # e^d (2d) kappa^d 2^{d-1}
    rhs: float
    passed: bool
    orthants_solved: int


def check_sidon_projection_bound(n: int, d: int) -> Bgl3Report:
    """sid of the degree-d family against e^d (2d) kappa^d 2^{d-1} times the
    projection constant one degree down."""
    if not 2 <= d <= n:
        raise CubeError(f"need 2 <= d <= N, got d={d}, N={n}")
    sid = sidon_exact(family_homogeneous(n, d))
    lam = lambda_level_exact(n, d - 1, "exact-degree")
    kappa = kappa_constant(_BGL3_KAPPA_TOL)
    constant = math.exp(d) * (2 * d) * kappa**d * 2 ** (d - 1)
    rhs = constant * float(lam)
    return Bgl3Report(
        n=n,
        d=d,
        sid_value=sid.value,
        lambda_lower=lam,
        constant=constant,
        rhs=rhs,
        passed=sid.value <= rhs * (1 + 1e-12),
        orthants_solved=sid.orthants_solved,
    )


def bh_functional(f: WalshPolynomial, d: int) -> float:
    """(sum |fhat|^{2d/(d+1)})^{(d+1)/2d} / ||f||_inf, the degree-d ratio."""
    if f.degree() > d:
        raise CubeError(f"polynomial degree {f.degree()} exceeds d={d}")
    compact, n_act = _compact_masks(f.family.masks)
    if n_act > MAX_TRANSFORM_DIMENSION:
        raise SizeGuardError(f"{n_act} active coordinates exceed {MAX_TRANSFORM_DIMENSION}")
    coeffs = np.array([float(c) for c in f.coeffs])
    sup = float(np.max(np.abs(character_sum_table(compact, n_act, coeffs))))
    if sup == 0.0:
        raise CubeError("zero polynomial has no BH ratio")
    q = 2 * d / (d + 1)
    return float(np.sum(np.abs(coeffs) ** q) ** (1 / q)) / sup


@dataclass(frozen=True)
class KszReport:
    signs: tuple[int, ...]
    supnorm: int
    bound: float
    passed: bool
    trials_used: int
    seed: int


def ksz_signs(family: SupportFamily, trials: int = 100, seed: int = 42) -> KszReport:
    """Search for signs with ||sum eps_S chi_S||_inf <= 6 sqrt(log 2) sqrt(N
    |S|); the guarantee is probabilistic, so failure is reported, not raised."""
    if trials < 1:
        raise CubeError("need trials >= 1")
    compact, n_act = _compact_masks(family.masks)
    if n_act > MAX_TRANSFORM_DIMENSION:
        raise SizeGuardError(f"{n_act} active coordinates exceed {MAX_TRANSFORM_DIMENSION}")
    bound = 6 * math.sqrt(math.log(2)) * math.sqrt(family.n) * math.sqrt(len(family))
    best_signs: np.ndarray | None = None
    best_sup = None
    used = 0
    for t in range(trials):
        used = t + 1
        bits = philox(seed, t).random_raw(len(compact))
        signs = (1 - 2 * (bits & 1)).astype(np.int64)
        sup = int(np.max(np.abs(character_sum_table(compact, n_act, signs))))
        if best_sup is None or sup < best_sup:
            best_sup, best_signs = sup, signs
        if sup <= bound:
            break
    return KszReport(
        signs=tuple(int(s) for s in best_signs),
        supnorm=int(best_sup),
        bound=bound,
        passed=best_sup <= bound,
        trials_used=used,
        seed=seed,
    )


@dataclass(frozen=True)
class DensityReport:
    pivot: float  # sqrt(|S|) / sqrt(N)
    lower_certificate: float  # sqrt(|S|) / (6 sqrt(log 2) sqrt(N)) <= sid
    precondition_ok: bool  # (N/d)^{d/2} <= |S|
    exact_value: float | None
    context: dict = field(default_factory=dict, compare=False)


def sidon_density_bounds(family: SupportFamily, d: int | None = None) -> DensityReport:
    """The |S|^{1/2}/sqrt(N) pivot around which sid is pinched for dense
    low-degree families, with the KSZ lower certificate and, when cheap, the
    exact value."""
    degree = family.degree()
    if d is None:
        d = degree
    if degree > d:
        raise CubeError(f"family has degree {degree} > d = {d}")
    size = len(family)
    n = family.n
    pivot = math.sqrt(size) / math.sqrt(n)
    lower = math.sqrt(size) / (6 * math.sqrt(math.log(2)) * math.sqrt(n))
    precondition = (n / d) ** (d / 2) <= size
    exact = None
    if size <= 16:
        try:
            exact = sidon_exact(family, max_orthants=4096).value
        except SizeGuardError:
            exact = None
    return DensityReport(
        pivot=pivot,
        lower_certificate=lower,
        precondition_ok=precondition,
        exact_value=exact,
        context={"N": n, "d": d, "size": size},
    )
