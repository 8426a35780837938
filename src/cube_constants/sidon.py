"""Sidon constants at desk scale, and the constants around them.

sid(B_S^N) is the largest l1-norm of a coefficient vector whose Walsh
polynomial stays in [-1, 1] on the cube.  Maximizing the l1-norm over that
polytope means maximizing sigma . a over every sign pattern sigma, each a
plain LP.  Two symmetries collapse the 2^|S| patterns: translating the cube
by y multiplies the pattern by (chi_S(y))_S, and negating a flips it
entirely, so patterns only matter up to a GF(2) coset.  Each remaining LP
is solved by a dense simplex on its dual, whose tableau has one row per set
instead of one per cube point; Dantzig pricing with a Bland fallback on
degenerate runs keeps it short and cycle-free.  The winning witness gets an
exact rational feasibility certificate.
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
    _prime_array,
    character_sum_table,
    philox,
)
from .projection import lambda_level_exact

_LP_TOL = 1e-9
_LP_MAX_ITER = 20_000
_DEGENERATE_RUN = 20  # degenerate pivots before Bland's rule takes over
_MAX_PATTERN_DIM = 16  # active coordinates; constraint rows grow as 2^this
DEFAULT_MAX_ORTHANTS = 1 << 16
_BGL3_KAPPA_TOL = 1e-6


class LpUnboundedError(CubeError):
    """Feasible directions of unbounded growth; impossible for distinct
    characters, so reaching this means the constraint system is broken."""


def lp_maximize(c, A, tol: float = _LP_TOL) -> tuple[float, np.ndarray]:
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
    budget = _simplex(T, basis, tol, _LP_MAX_ITER)
    if -T[n, m] > tol * (1.0 + float(np.abs(c).sum())):
        raise LpUnboundedError("unbounded LP: characters cannot be dependent")
    for i in range(n):
        if basis[i] < 0:
            j = int(np.argmax(np.abs(T[i, :m])))
            if abs(T[i, j]) > tol:
                T[i, m] = 0.0
                _pivot(T, basis, i, j)
    T[n, :m] = b
    T[n, m] = 0.0
    T[n] -= cost[basis] @ T[:n]
    _simplex(T, basis, tol, budget)
    a = sign * np.linalg.solve(extended[:, basis].T, cost[basis])
    return float(c @ a), a


def _pivot(T: np.ndarray, basis: list[int], i: int, j: int) -> None:
    T[i] /= T[i, j]
    elim = T[:, j].copy()
    elim[i] = 0.0
    T -= np.outer(elim, T[i])
    basis[i] = j


def _simplex(T: np.ndarray, basis: list[int], tol: float, budget: int) -> int:
    """Pivot the tableau [rows | rhs; reduced costs | -objective] to a
    minimum; artificial columns are absent, so only y columns enter.
    Returns the unused part of the pivot budget."""
    rows = T.shape[0] - 1
    degenerate_run = 0
    while True:
        reduced = T[rows, :-1]
        if degenerate_run < _DEGENERATE_RUN:
            j = int(np.argmin(reduced))
            if reduced[j] >= -tol:
                return budget
        else:
            eligible = np.flatnonzero(reduced < -tol)
            if eligible.size == 0:
                return budget
            j = int(eligible[0])
        if budget == 0:
            raise CubeError("simplex failed to terminate; tolerance too tight?")
        budget -= 1
        col = T[:rows, j]
        positive = np.flatnonzero(col > tol)
        if positive.size == 0:
            raise CubeError("dual simplex found no pivot row; constraint data broken")
        ratios = np.maximum(T[positive, -1], 0.0) / col[positive]
        best = ratios.min()
        ties = positive[ratios <= best + 1e-12 * (1.0 + best)]
        i = int(min(ties, key=lambda r: basis[r]))
        degenerate_run = degenerate_run + 1 if best <= tol else 0
        _pivot(T, basis, i, j)


@dataclass(frozen=True)
class SidonResult:
    value: float
    witness: WalshPolynomial
    orthants_solved: int
    tol: float


def _sign_rows(compact: np.ndarray, n_act: int) -> np.ndarray:
    """(chi_S(x))_S for every active-cube point x; int8 matrix 2^n_act x m."""
    points = np.arange(1 << n_act, dtype=np.uint64)
    rows = np.empty((1 << n_act, len(compact)), dtype=np.int8)
    for j, mask in enumerate(compact):
        parity = (np.bitwise_count(points & mask) & np.uint64(1)).astype(np.int8)
        rows[:, j] = 1 - 2 * parity
    return rows


def _unique_rows_up_to_sign(rows: np.ndarray) -> np.ndarray:
    flipped = np.where(rows[:, :1] < 0, -rows, rows)
    return np.unique(flipped, axis=0)


def _gf2_basis(compact: np.ndarray, n_act: int, m: int) -> dict[int, int]:
    """Echelon basis (pivot bit -> vector) of the pattern subgroup.

    Bit j of a vector refers to set j.  Generators: one vector per active
    coordinate (which sets contain it) and the all-ones vector (global
    negation).
    """
    pivots: dict[int, int] = {}

    def insert(v: int) -> None:
        while v:
            p = v.bit_length() - 1
            if p in pivots:
                v ^= pivots[p]
            else:
                pivots[p] = v
                return

    for i in range(n_act):
        insert(sum(((int(mask) >> i) & 1) << j for j, mask in enumerate(compact)))
    insert((1 << m) - 1)
    return pivots


def _coset_representatives(pivots: dict[int, int], m: int, cap: int) -> list[int]:
    free = [j for j in range(m) if j not in pivots]
    if len(free) > 40 or (1 << len(free)) > cap:
        raise SizeGuardError(
            f"2^{len(free)} orthant classes exceed the cap {cap}"
        )
    reps = []
    for f in range(1 << len(free)):
        sigma = 0
        for idx, j in enumerate(free):
            if (f >> idx) & 1:
                sigma |= 1 << j
        reps.append(sigma)
    return reps


def _atlas_representatives(compact: np.ndarray, n_act: int) -> list[int] | None:
    """Pattern representatives for a homogeneous degree-2 family seen as a
    graph on the active coordinates.

    Translation by y switches the graph on a vertex set, and every switching
    class has a member with the last vertex isolated; those members, up to
    relabeling (which also preserves the LP value), are exactly the graphs
    on n_act - 1 vertices.  The atlas lists all of them for <= 7 vertices.
    """
    masks = [int(v) for v in compact]
    if n_act - 1 > 7 or len(masks) != math.comb(n_act, 2):
        return None
    if any(m.bit_count() != 2 for m in masks):
        return None
    index_of = {mask: j for j, mask in enumerate(masks)}
    reps = []
    for edges in _atlas_edges()[n_act - 1]:
        sigma = 0
        for u, v in edges:
            sigma |= 1 << index_of[(1 << u) | (1 << v)]
        reps.append(sigma)
    return reps


@functools.cache
def _atlas_edges() -> tuple:
    """Edge tuples of the graph atlas by vertex count 0..7, read once per
    process: graph_atlas_g() rebuilds its 1253 mutable graphs on every call."""
    import networkx  # deferred: only the atlas route needs it

    graphs = networkx.graph_atlas_g()[1:]
    return tuple(
        tuple(tuple(g.edges()) for g in graphs if g.number_of_nodes() == n)
        for n in range(8)
    )


def _certify_witness(
    a: np.ndarray, unique_rows: np.ndarray, value: float, tol: float
) -> None:
    """Exact-rational feasibility of the float witness: sup <= 1 + 10 tol."""
    exact = [Fraction(float(v)) for v in a]
    limit = Fraction(1) + 10 * Fraction(tol)
    for row in unique_rows:
        s = sum(coef if sign > 0 else -coef for sign, coef in zip(row, exact))
        if abs(s) > limit:
            raise CubeError(f"witness infeasible: |f(x)| = {float(s)} > 1 + 10 tol")
    l1 = sum(abs(v) for v in exact)
    if float(l1) < value - tol:
        raise CubeError(f"witness l1 {float(l1)} below reported value {value}")


def sidon_exact(
    family: SupportFamily,
    tol: float = _LP_TOL,
    max_orthants: int = DEFAULT_MAX_ORTHANTS,
    threads: int = 1,
) -> SidonResult:
    """sid(B_S^N): max over sign-pattern classes of an LP over the unit ball.

    Guards by work, not by raw N: the active-coordinate count is capped at
    16, and the number of pattern classes after the coset reduction (plus
    the graph-switching reduction for degree-2 homogeneous families) must
    stay under max_orthants.

    The orthant LPs run serially whatever `threads` says: each is a few
    dozen small numpy pivots that hold the GIL, so a thread pool only adds
    contention (homog(6,3) ran about twice as slow with four threads).  The
    parameter stays so callers that size their worker count keep working.
    """
    if not tol >= 0:
        raise CubeError(f"tol must be >= 0, got {tol}")
    if tol == math.inf:
        raise CubeError("tol must be finite, got inf")
    compact, n_act = _compact_masks(family.masks)
    m = len(compact)
    if n_act > _MAX_PATTERN_DIM:
        raise SizeGuardError(f"{n_act} active coordinates exceed {_MAX_PATTERN_DIM}")
    rows = _sign_rows(compact, n_act)
    unique = _unique_rows_up_to_sign(rows).astype(float)
    A = np.vstack([unique, -unique])
    reps = _atlas_representatives(compact, n_act)
    if reps is None:
        pivots = _gf2_basis(compact, n_act, m)
        reps = _coset_representatives(pivots, m, max_orthants)
    if len(reps) > max_orthants:
        raise SizeGuardError(f"{len(reps)} orthant classes exceed the cap {max_orthants}")

    best_value, best_a = -math.inf, None
    for sigma in reps:
        c = np.array([(-1.0 if (sigma >> j) & 1 else 1.0) for j in range(m)])
        value, a = lp_maximize(c, A, tol=tol)
        if value > best_value:
            best_value, best_a = value, a
    _certify_witness(best_a, unique, best_value, tol)
    witness = WalshPolynomial(family, tuple(float(v) for v in best_a), exact=False)
    return SidonResult(
        value=best_value, witness=witness, orthants_solved=len(reps), tol=tol
    )


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
    """prod_{p <= cutoff} sinc(pi/p)^{-1}, once per cutoff in a process."""
    x = np.pi / _prime_array(cutoff)
    return math.exp(-np.log(np.sin(x) / x).sum())


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


def check_sidon_projection_bound(n: int, d: int, threads: int = 1) -> Bgl3Report:
    """sid of the degree-d family against e^d (2d) kappa^d 2^{d-1} times the
    projection constant one degree down."""
    if not 2 <= d <= n:
        raise CubeError(f"need 2 <= d <= N, got d={d}, N={n}")
    from .core import family_homogeneous

    sid = sidon_exact(family_homogeneous(n, d), threads=threads)
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
