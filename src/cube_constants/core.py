"""Boolean cube {-1,+1}^N: support families, the Walsh butterfly and
character-sum tables, seeded streams and the prime sieve.

Encoding convention used everywhere in this package: an N-bit integer stands
for a cube point, with bit i set meaning coordinate x_{i+1} = -1 (clear bit
means +1).  A subset S of [N] is the mask with bit i set for i+1 in S.  With
this convention the Walsh character is one AND plus a popcount:

    chi_S(x) = prod_{k in S} x_k = (-1)^popcount(S & x)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

Scalar = Union[int, float, Fraction]

MAX_DIMENSION = 63            # active coordinates must fit one machine word
MAX_FAMILY_DIMENSION = 100000  # structural cap; masks are plain Python ints
MAX_ENUM_DIMENSION = 30       # full-cube enumeration guard
MAX_TRANSFORM_DIMENSION = 24  # in-memory transform guard
MAX_FAMILY_SETS = 1 << 20     # sets a homogeneous or upto family may enumerate
MAX_SIEVE = 10**8             # prime sieve bound; kappa needs at most 36500001

FAMILY_KINDS = ("explicit", "homogeneous", "upto", "prime-singletons", "square-free")
# JSON spelling differs for one kind; accept both on input.
_KIND_ALIASES = {"squarefree": "square-free"}
_KIND_JSON_NAMES = {"square-free": "squarefree"}
# Degree modes of the full-degree families, with the spellings accepted for each.
_MODE_ALIASES = {
    "exact-degree": "exact-degree",
    "up-to-degree": "up-to-degree",
    "exact": "exact-degree",
    "homogeneous": "exact-degree",
    "upto": "up-to-degree",
}


class CubeError(Exception):
    """Base class for domain errors raised by this package."""


class SizeGuardError(CubeError):
    """Requested computation exceeds a hard size guard."""


class FamilySpecError(CubeError):
    """Malformed family specification."""


def _is_json_int(value) -> bool:
    """An integer as JSON reads it: Python's bool is an int, JSON's true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_dimension(n: int, cap: int = MAX_DIMENSION) -> None:
    if not _is_json_int(n) or n < 1:
        raise FamilySpecError(f"dimension must be a positive integer, got {n!r}")
    if n > cap:
        raise SizeGuardError(f"dimension {n} exceeds cap {cap}")


@dataclass(frozen=True)
class SubsetMask:
    """A subset S of [n] as a bit mask (bit i set iff i+1 in S)."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        _check_dimension(self.n, MAX_FAMILY_DIMENSION)
        if self.bits < 0 or self.bits >> self.n:
            raise CubeError(f"subset mask {self.bits:#x} does not fit dimension {self.n}")

    def elements(self) -> tuple[int, ...]:
        """1-based, increasing."""
        return tuple(i + 1 for i in range(self.n) if (self.bits >> i) & 1)

    @staticmethod
    def from_elements(elements: Iterable[int], n: int) -> "SubsetMask":
        bits = 0
        for e in elements:
            if not _is_json_int(e):
                raise FamilySpecError(f"element {e!r} is not an integer")
            if not 1 <= e <= n:
                raise FamilySpecError(f"element {e!r} out of range [1, {n}]")
            if (bits >> (e - 1)) & 1:
                raise FamilySpecError(f"duplicate element {e} in subset")
            bits |= 1 << (e - 1)
        return SubsetMask(bits, n)


@dataclass(frozen=True)
class SupportFamily:
    """A family of subsets of [n] (the spectrum allowed to a function).

    masks is strictly increasing, hence duplicate-free; d records the degree
    parameter for the homogeneous / upto kinds and is None otherwise.
    """

    n: int
    masks: tuple[int, ...]
    kind: str = "explicit"
    d: int | None = None

    def __post_init__(self) -> None:
        _check_dimension(self.n, MAX_FAMILY_DIMENSION)
        if self.kind not in FAMILY_KINDS:
            raise FamilySpecError(f"unknown family kind {self.kind!r}")
        if not self.masks:
            raise FamilySpecError("family must be nonempty")
        prev = -1
        for m in self.masks:
            if m <= prev:
                raise FamilySpecError("family masks must be strictly increasing")
            if m < 0 or m >> self.n:
                raise FamilySpecError(f"mask {m:#x} does not fit dimension {self.n}")
            prev = m

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def sets(self) -> tuple[SubsetMask, ...]:
        return tuple(SubsetMask(m, self.n) for m in self.masks)

    def degree(self) -> int:
        return max(m.bit_count() for m in self.masks)

    def active_mask(self) -> int:
        """Union of all member masks; coordinates outside it never matter."""
        u = 0
        for m in self.masks:
            u |= m
        return u

    def to_json_dict(self) -> dict:
        kind = _KIND_JSON_NAMES.get(self.kind, self.kind)
        doc: dict = {"kind": kind, "N": self.n}
        if self.kind in ("homogeneous", "upto"):
            doc["d"] = self.d
        if self.kind == "explicit":
            doc["sets"] = [list(SubsetMask(m, self.n).elements()) for m in self.masks]
        return doc

def family_explicit(n: int, sets: Iterable[Iterable[int]]) -> SupportFamily:
    _check_dimension(n, MAX_FAMILY_DIMENSION)
    masks = sorted(SubsetMask.from_elements(s, n).bits for s in sets)
    for a, b in zip(masks, masks[1:]):
        if a == b:
            raise FamilySpecError("duplicate subset in explicit family")
    return SupportFamily(n, tuple(masks), "explicit")


def family_homogeneous(n: int, d: int) -> SupportFamily:
    _check_degree(n, d)
    _check_set_count(math.comb(n, d), f"homogeneous(N={n}, d={d})")
    masks = tuple(sorted(_masks_of_weight(n, d)))
    return SupportFamily(n, masks, "homogeneous", d)


def family_upto(n: int, d: int) -> SupportFamily:
    _check_degree(n, d)
    _check_set_count(sum(math.comb(n, k) for k in range(d + 1)), f"upto(N={n}, d={d})")
    masks = []
    for k in range(d + 1):
        masks.extend(_masks_of_weight(n, k))
    return SupportFamily(n, tuple(sorted(masks)), "upto", d)


def family_full(n: int) -> SupportFamily:
    """All 2^n subsets of [n]."""
    return family_upto(n, n)


def family_prime_singletons(n: int) -> SupportFamily:
    _check_dimension(n, MAX_FAMILY_DIMENSION)
    primes = primes_upto(n)
    if not primes:
        raise FamilySpecError(f"no primes <= {n}")
    masks = tuple(1 << (p - 1) for p in primes)
    return SupportFamily(n, masks, "prime-singletons")


def family_squarefree(n: int) -> SupportFamily:
    """All sets A of primes with prod(A) <= n; A = {} stands for 1 <= n.

    One mask per square-free integer in [n]; the mask of m lists the primes
    dividing m.
    """
    _check_dimension(n, MAX_FAMILY_DIMENSION)
    primes = primes_upto(n)
    masks: list[int] = []

    def extend(start: int, mask: int, product: int) -> None:
        masks.append(mask)
        for i in range(start, len(primes)):
            p = primes[i]
            if product * p > n:
                break  # primes increasing, later ones only larger
            extend(i + 1, mask | (1 << (p - 1)), product * p)

    extend(0, 0, 1)
    return SupportFamily(n, tuple(sorted(masks)), "square-free")


def _spec_kind(spec: dict) -> str:
    """The canonical kind of a family JSON spec, which must name it as a string."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str):
        raise FamilySpecError("family spec is missing a string 'kind'")
    return _KIND_ALIASES.get(kind, kind)


def make_family(spec: dict) -> SupportFamily:
    """Build a family from its JSON dict form.

    {"kind":"explicit","N":4,"sets":[[1,2],[3]]}, {"kind":"homogeneous","N":10,"d":3},
    {"kind":"upto","N":10,"d":3}, {"kind":"prime-singletons","N":100},
    {"kind":"squarefree","N":60}.  Indices are 1-based.
    """
    kind = _spec_kind(spec)
    if "N" not in spec:
        raise FamilySpecError("family spec missing key 'N'")
    n = spec["N"]
    if kind == "explicit":
        sets = spec.get("sets")
        arrays = (list, tuple)
        if not isinstance(sets, arrays) or not all(isinstance(s, arrays) for s in sets):
            raise FamilySpecError("explicit family needs a 'sets' array of arrays")
        return family_explicit(n, sets)
    if kind == "homogeneous":
        return family_homogeneous(n, _require_d(spec))
    if kind == "upto":
        return family_upto(n, _require_d(spec))
    if kind == "prime-singletons":
        return family_prime_singletons(n)
    if kind == "square-free":
        return family_squarefree(n)
    raise FamilySpecError(f"unknown family kind {spec['kind']!r}")


def _require_d(spec: dict) -> int:
    if "d" not in spec:
        raise FamilySpecError(f"{spec['kind']} family needs 'd'")
    return spec["d"]


def _check_degree(n: int, d: int) -> None:
    _check_dimension(n)
    if not _is_json_int(d) or not 1 <= d <= n:
        raise FamilySpecError(f"degree d={d!r} must satisfy 1 <= d <= N={n}")


def _check_set_count(count: int, name: str) -> None:
    if count > MAX_FAMILY_SETS:
        raise SizeGuardError(f"{name} has {count} sets, over the cap {MAX_FAMILY_SETS}")


def _masks_of_weight(n: int, k: int) -> Iterator[int]:
    """All n-bit masks of popcount k, via Gosper's hack."""
    if k == 0:
        yield 0
        return
    m = (1 << k) - 1
    top = 1 << n
    while m < top:
        yield m
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r


@dataclass(frozen=True)
class WalshPolynomial:
    """f = sum_S fhat(S) chi_S with coefficients aligned to family.masks."""

    family: SupportFamily
    coeffs: tuple[Scalar, ...]
    exact: bool = True

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.family):
            raise CubeError(
                f"{len(self.coeffs)} coefficients for {len(self.family)} sets"
            )
        if self.exact and any(isinstance(c, float) for c in self.coeffs):
            raise CubeError("float coefficients in a polynomial flagged exact")

    def degree(self) -> int:
        deg = 0
        for m, c in zip(self.family.masks, self.coeffs):
            if c != 0:
                deg = max(deg, m.bit_count())
        return deg


def walsh_butterfly_inplace(w: np.ndarray) -> np.ndarray:
    """Unnormalized transform down axis 0, in place: w[S] <- sum_x w[x] chi_S(x).

    Axis 0 has power-of-two length; trailing axes are independent columns.
    Integer input stays exact while the sums fit its dtype.  Each stage maps
    a pair (a, b) to (a+b, a-b), so float sums run in a fixed order.
    Returns w.
    """
    if not w.flags.c_contiguous:
        raise CubeError("in-place butterfly needs a C-contiguous array")
    size = w.shape[0]
    step = 1
    while step < size:
        v = w.reshape(-1, 2 * step, *w.shape[1:])
        left = v[:, :step].copy()
        v[:, :step] += v[:, step:]
        v[:, step:] *= -1
        v[:, step:] += left
        step *= 2
    return w


def _compact_masks(masks: Sequence[int]) -> tuple[np.ndarray, int]:
    """Masks re-indexed onto their active coordinates (those some mask
    holds) only.

    Inactive coordinates contribute a factor 2 to both the point count and
    the number of points with each value, so dropping them changes nothing.
    """
    active = 0
    for m in masks:
        active |= m
    place = {}
    rest = active
    while rest:
        low = rest & -rest
        place[low.bit_length() - 1] = len(place)
        rest ^= low
    n_act = len(place)
    if n_act > MAX_DIMENSION:
        raise SizeGuardError(
            f"{n_act} active coordinates exceed the word cap {MAX_DIMENSION}"
        )
    compact = []
    for m in masks:
        cm = 0
        while m:
            low = m & -m
            cm |= 1 << place[low.bit_length() - 1]
            m ^= low
        compact.append(cm)
    return np.array(compact, dtype=np.uint64), n_act


def character_sum_table(masks: np.ndarray, n: int, coeffs: np.ndarray | None = None) -> np.ndarray:
    """sum_S c_S chi_S(x) at every point mask x of the n-cube, S over masks.

    Scatter-adds the coefficients (1 for every set when coeffs is None,
    giving exact int64 sums bounded by the family size), so a repeated mask
    counts once per occurrence, and runs one butterfly.
    """
    dtype = np.int64 if coeffs is None else coeffs.dtype
    table = np.zeros(1 << n, dtype=dtype)
    np.add.at(table, masks.astype(np.int64), 1 if coeffs is None else coeffs)
    return walsh_butterfly_inplace(table)


def philox(seed: int, stream: int) -> np.random.Philox:
    """Counter-based bit generator for stream `stream` of `seed`.

    numpy keeps a Philox key word exact only below 2**63 (larger ones pass
    through a float cast and collide), so seeds outside [0, 2**63) are refused.
    """
    if not 0 <= seed < 1 << 63:
        raise CubeError(f"seed must lie in [0, 2**63), got {seed}")
    return np.random.Philox(key=[seed, stream])


def _prime_array(n: int) -> np.ndarray:
    """Primes <= n, ascending, as an integer array: Eratosthenes in numpy."""
    if n > MAX_SIEVE:
        raise SizeGuardError(f"prime sieve bound {n} exceeds cap {MAX_SIEVE}")
    sieve = np.ones(max(n + 1, 2), dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(max(n, 0)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def primes_upto(n: int) -> list[int]:
    """Primes <= n as Python ints (1 << (p - 1) must not wrap as int64)."""
    return _prime_array(n).tolist()
