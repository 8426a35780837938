"""Seeded request streams, one per workload, and the calls that serve them.

A request is a plain, hashable description; serving it looks the package's
functions up on their modules at call time, so a traced run sees every call
through the attributes it wraps.  Building a request's family is part of
serving it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# Square-free families: N -> number of primes <= N (the active coordinates).
SQFREE_EXACT = (37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101)
SQFREE_MC = (127, 181, 241, 293)
MC_SAMPLES = 32768


@dataclass(frozen=True)
class Request:
    op: str  # sidon | bgl3 | exact | mc | cli
    args: tuple
    pair: int | None = None  # index of the request whose answer must equal this one's

    def label(self) -> str:
        return f"{self.op}{self.args}" if self.op != "cli" else " ".join(self.args)


def threads() -> int:
    """Worker threads passed to the threaded kernels: 2, or fewer CPUs."""
    return min(2, os.cpu_count() or 1)


def build_family(cc, spec: tuple):
    kind = spec[0]
    if kind == "homog":
        return cc.core.family_homogeneous(spec[1], spec[2])
    if kind == "upto":
        return cc.core.family_upto(spec[1], spec[2])
    if kind == "sqfree":
        return cc.core.family_squarefree(spec[1])
    if kind == "explicit":
        return cc.core.family_explicit(spec[1], [list(s) for s in spec[2]])
    raise ValueError(f"unknown family spec {spec!r}")


def serve(cc, request: Request, out_path: str):
    """Answer one request; raises whatever the package raises."""
    op, args = request.op, request.args
    if op == "sidon":
        return cc.sidon.sidon_exact(build_family(cc, args[0]))
    if op == "bgl3":
        return cc.sidon.check_sidon_projection_bound(args[0], args[1])
    if op == "exact":
        return cc.projection.lambda_exact(build_family(cc, args[0]), threads=threads())
    if op == "mc":
        spec, samples, seed = args
        return cc.projection.lambda_mc(
            build_family(cc, spec), samples=samples, seed=seed, threads=threads()
        )
    if op == "cli":
        code = cc.cli.main(list(args) + ["--out", out_path])
        with open(out_path, "r", encoding="utf-8") as handle:
            return code, handle.read()
    raise ValueError(f"unknown op {op!r}")


def _random_sets(rng: random.Random, coords: list[int], count: int, max_size: int) -> tuple:
    """count distinct nonempty sets over coords, covering every coordinate."""
    while True:
        sets = set()
        while len(sets) < count:
            size = rng.randint(1, min(max_size, len(coords)))
            sets.add(tuple(sorted(rng.sample(coords, size))))
        if set().union(*sets) == set(coords):
            return tuple(sorted(sets))


def _pattern_rank(masks: list[int], n: int) -> int:
    """GF(2) rank of the sign patterns a cube translation or a global sign
    flip produces: one vector per coordinate (the sets holding it) and the
    all-ones vector."""
    vectors = [sum(((m >> i) & 1) << j for j, m in enumerate(masks)) for i in range(n)]
    vectors.append((1 << len(masks)) - 1)
    rank = 0
    while vectors:
        pivot = max(vectors)
        vectors.remove(pivot)
        if pivot == 0:
            break
        top = 1 << (pivot.bit_length() - 1)
        vectors = [v ^ pivot if v & top else v for v in vectors]
        rank += 1
    return rank


def _relabel(sets: tuple, perm: list[int]) -> tuple:
    return tuple(sorted(tuple(sorted(perm[e - 1] for e in s)) for s in sets))


def _shuffled(rng: random.Random, requests: list[Request]) -> list[Request]:
    """Shuffle, keeping each paired request right after its partner and
    remapping pair indices to the new positions."""
    groups: list[list[int]] = []
    owner = {}
    for i, req in enumerate(requests):
        if req.pair is not None and req.pair in owner:
            groups[owner[req.pair]].append(i)
            owner[i] = owner[req.pair]
        else:
            owner[i] = len(groups)
            groups.append([i])
    rng.shuffle(groups)
    order = [i for group in groups for i in group]
    new_index = {old: new for new, old in enumerate(order)}
    out = []
    for old in order:
        req = requests[old]
        pair = None if req.pair is None else new_index[req.pair]
        out.append(Request(req.op, req.args, pair))
    return out


def sidon_stream(seed: int) -> list[Request]:
    """Structured families (atlas and coset routes), 14 BGL3 rows and 64
    random explicit families on 5..7 coordinates, every fourth followed by a
    relabelled copy: 106 requests."""
    rng = random.Random(f"sidon-sweep:{seed}")
    reqs = [Request("sidon", (("homog", n, 2),)) for n in range(3, 9)]
    reqs += [Request("sidon", (("homog", n, 3),)) for n in range(4, 7)]
    reqs += [Request("sidon", (("upto", n, 2),)) for n in range(3, 6)]
    # homog(8,2) and homog(6,3) are already served above; their BGL3 rows
    # would repeat those 19 s of LPs inside one round
    reqs += [Request("bgl3", (n, 2)) for n in range(2, 8)]
    reqs += [Request("bgl3", (n, 3)) for n in range(3, 6)]
    reqs += [Request("bgl3", (n, 4)) for n in range(4, 7)]
    reqs += [Request("bgl3", (n, 5)) for n in range(5, 7)]
    for i in range(64):
        n = 5 + i % 3
        # half the families solve 32 LPs, so the median request sits inside
        # a group of similar requests rather than between two
        count = n + 1 + (3, 4, 5, 5, 5, 5, 6, 7)[(i // 3) % 8]
        # full pattern rank: each (N, size) slot solves 2^(size - rank) LPs
        # whatever the seed, so the seed moves which sets, not how much work
        while True:
            masks = rng.sample(range(1 << n), count)
            if _pattern_rank(masks, n) == min(count, n + 1):
                break
        sets = tuple(sorted(tuple(j + 1 for j in range(n) if (m >> j) & 1) for m in masks))
        reqs.append(Request("sidon", (("explicit", n, sets),)))
        if i % 4 == 3:
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            reqs.append(Request("sidon", (("explicit", n, _relabel(sets, perm)),), len(reqs) - 1))
    return _shuffled(rng, reqs)


def projection_stream(seed: int) -> list[Request]:
    """lambda_exact on families with 12..26 active coordinates and lambda_mc
    on families with 30..62: 105 requests."""
    rng = random.Random(f"projection-sweep:{seed}")
    reqs = [Request("exact", (("homog", n, 2),)) for n in range(12, 25)]
    reqs += [Request("exact", (("homog", n, 3),)) for n in range(12, 21)]
    reqs += [Request("exact", (("upto", n, 2),)) for n in range(12, 23)]
    reqs += [Request("exact", (("upto", n, 3),)) for n in range(12, 19)]
    for n in SQFREE_EXACT:
        reqs.append(Request("exact", (("sqfree", n),)))
    # sqfree(101) adds the singleton {101} to sqfree(97), whose size is odd
    reqs[-1] = Request("exact", (("sqfree", 101),), len(reqs) - 2)
    for n_act in list(range(12, 23)) * 2:
        n = n_act + rng.randint(0, 8)
        coords = sorted(rng.sample(range(1, n + 1), n_act))
        sets = _random_sets(rng, coords, 2 * n_act + 1, 4)
        reqs.append(Request("exact", (("explicit", n, sets),)))
    # odd-size families plus a singleton on a fresh coordinate
    for n_act in (12, 14, 16, 18, 20, 21):
        coords = list(range(1, n_act + 1))
        sets = _random_sets(rng, coords, 2 * n_act + 1, 4)
        reqs.append(Request("exact", (("explicit", n_act + 1, sets),)))
        extended = tuple(sorted(sets + ((n_act + 1,),)))
        reqs.append(Request("exact", (("explicit", n_act + 1, extended),), len(reqs) - 1))
    mc = [("homog", n, 2) for n in (30, 38, 46, 54, 62)]
    mc += [("homog", 30, 3), ("upto", 32, 2), ("upto", 48, 2)]
    mc += [("sqfree", n) for n in SQFREE_MC]
    for n_act in (30, 40, 50, 62):
        coords = sorted(rng.sample(range(1, 64), n_act))
        mc.append(("explicit", 63, _random_sets(rng, coords, 3 * n_act, 5)))
    for spec in mc:
        reqs.append(Request("mc", (spec, MC_SAMPLES, rng.randrange(1 << 31))))
    return _shuffled(rng, reqs)


# asymptotics-cli catalogue, in tiers of similar cost.  The fixed tier is
# served once per round; each other tier gets a fixed number of draws from a
# Zipf popularity (exponent 1/2) over a seeded ranking of its items.
CLI_FIXED = (
    ("exact", "--N", "100000", "--d", "2"),
    ("kappa", "--tol", "1e-7"),
    ("kappa", "--tol", "1e-6"),
    ("kappa", "--tol", "1e-6"),
    ("verify", "--suite", "mckay"),
    ("verify", "--suite", "all"),
    ("limit", "--d", "60"),
    ("exact", "--N", "10000", "--d", "4", "--mode", "up-to-degree"),
)
# about 0.08..0.11 s each on the reference machine; the 90th percentile
# falls inside this tier
CLI_MEDIUM = (
    ("kappa", "--tol", "3e-6"),
    ("verify", "--suite", "range"),
    ("verify", "--suite", "desigforo"),
    ("exact", "--N", "10000", "--d", "2"),
    ("exact", "--N", "10000", "--d", "3"),
    ("families", "--family", "homog:30:3"),
    ("limit", "--d", "12", "--N", "100,1000,5000"),
)
CLI_LIGHT = (
    ("kappa", "--tol", "1e-4"),
    ("kappa", "--tol", "1e-5"),
    ("kappa", "--tol", "3e-5"),
    ("verify", "--suite", "combinatorics"),
    ("verify", "--suite", "klimek"),
    ("exact", "--N", "5000", "--d", "2"),
    ("exact", "--N", "5000", "--d", "3", "--mode", "up-to-degree"),
    ("families", "--family", "homog:12:3"),
    ("families", "--family", "primes:1000"),
    ("limit", "--d", "3", "--N", "1000,2000,4000"),
    ("limit", "--d", "40", "--N", "100,200"),
    ("primes", "--N", "200", "--samples", "4000"),
    ("primes", "--N", "293", "--samples", "20000"),
    ("table",),
    ("table", "--format", "json"),
    *(("exact", "--N", str(n), "--d", str(d)) for n in (1000, 2000) for d in (1, 2, 3, 4)),
    *(("exact", "--N", str(n), "--d", str(d), "--mode", "up-to-degree")
      for n in (100, 1000) for d in (2, 3)),
    *(("limit", "--d", str(d), "--N", "50,100") for d in (2, 4, 6)),
    *(("limit", "--d", str(d)) for d in range(2, 60)),
)
# about 3..5 ms each on the reference machine; the median falls inside this tier
CLI_CHEAP = (
    *(("exact", "--N", str(n), "--d", str(d)) for n in (50, 100, 200, 500) for d in (1, 2, 3, 4)),
    ("kappa", "--tol", "1e-3"),
    ("kappa", "--tol", "3e-4"),
    *(("families", "--family", f) for f in ("homog:10:2", "upto:8:3", "sqfree:60", "primes:200")),
    *(("primes", "--N", str(n), "--samples", "4000") for n in (20, 50, 100)),
)


def _zipf_draws(rng: random.Random, items, count: int) -> list[tuple]:
    ranked = list(items)
    rng.shuffle(ranked)
    # weight 1/sqrt(rank): every tier repeats its popular items, while the
    # cost mix of a round stays close to the tier's average whatever the seed
    weights = [(rank + 1) ** -0.5 for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=count)


def cli_stream(seed: int) -> list[Request]:
    """Requests through cli.main: the fixed tier once, then 16 medium, 16
    light and 69 cheap draws; 109 requests, shuffled."""
    rng = random.Random(f"asymptotics-cli:{seed}")
    argvs = list(CLI_FIXED)
    argvs += _zipf_draws(rng, CLI_MEDIUM, 16)
    argvs += _zipf_draws(rng, CLI_LIGHT, 16)
    argvs += _zipf_draws(rng, CLI_CHEAP, 69)
    tn = str(threads())
    reqs = []
    for argv in argvs:
        if argv[0] in ("exact", "primes"):
            argv = argv + ("--threads", tn)
        reqs.append(Request("cli", argv))
    rng.shuffle(reqs)
    return reqs


STREAMS = {
    "sidon-sweep": sidon_stream,
    "projection-sweep": projection_stream,
    "asymptotics-cli": cli_stream,
}
