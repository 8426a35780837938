"""Checks of every answer against refs.py or a property the answer must have.

Each check returns a list of problems (empty when the answer passes).  The
first answer to a request gets the full check; a repeat of the same request
must give the same answer.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np

import refs

SIDON_TOL = 1e-7
HIGHS_ALL_PATTERNS_MAX = 8  # sets; beyond this, witness orthant plus a sample
HIGHS_SAMPLE = 8
MC_SIGMAS = 5.0
LIMIT_RTOL = 1e-9
TABLE_TOL = 2e-3
BGL3_KAPPA_TOL = 1e-6  # the tolerance check_sidon_projection_bound passes


def family_of(spec: tuple) -> tuple[int, list[int], str]:
    """(N, masks, kind) of a family spec, built apart from the package."""
    kind = spec[0]
    if kind in ("homog", "upto"):
        n, d = spec[1], spec[2]
        sizes = [d] if kind == "homog" else range(d + 1)
        masks = sorted(sum(1 << i for i in c)
                       for k in sizes for c in itertools.combinations(range(n), k))
        return n, masks, kind
    if kind == "sqfree":
        n = spec[1]
        masks = sorted(sum(1 << (p - 1) for p in s) for s in refs.squarefree_sets(n))
        return n, masks, kind
    return spec[1], _masks_of(spec[2]), kind


def _masks_of(sets) -> list[int]:
    return sorted(sum(1 << (e - 1) for e in s) for s in sets)


# ------------------------------------------------------------------ sidon


def check_sidon(spec: tuple, result, seed: int) -> list[str]:
    n, masks, _ = family_of(spec)
    problems = []
    if list(result.witness.family.masks) != masks:
        return ["witness family differs from the requested family"]
    a = np.array([float(c) for c in result.witness.coeffs])
    value = float(result.value)
    rows = refs.character_table(masks, n)
    sup = float(np.max(np.abs(rows @ a)))
    if sup > 1 + SIDON_TOL:
        problems.append(f"witness sup {sup!r} > 1 + {SIDON_TOL}")
    l1 = float(np.abs(a).sum())
    if l1 < value - SIDON_TOL:
        problems.append(f"witness l1 {l1!r} below value {value!r}")
    if not 1 - SIDON_TOL <= value <= math.sqrt(len(masks)) + SIDON_TOL:
        problems.append(f"value {value!r} outside [1, sqrt(|S|)]")
    rows = np.unique(rows, axis=0)
    m = len(masks)
    if m <= HIGHS_ALL_PATTERNS_MAX:
        # sigma and -sigma give the same LP value: fix the first sign
        best = max(
            refs.sidon_lp_value(rows, np.array([1.0] + [-1.0 if (s >> j) & 1 else 1.0
                                                        for j in range(m - 1)]))
            for s in range(1 << (m - 1))
        )
        if abs(best - value) > SIDON_TOL * (1 + value):
            problems.append(f"value {value!r} differs from HiGHS optimum {best!r}")
        return problems
    sigma = np.where(a < 0, -1.0, 1.0)
    own = refs.sidon_lp_value(rows, sigma)
    if abs(own - value) > SIDON_TOL * (1 + value):
        problems.append(f"HiGHS on the witness orthant gives {own!r}, not {value!r}")
    rng = random.Random(f"orthants:{seed}:{spec}")
    for _ in range(HIGHS_SAMPLE):
        sigma = np.array([rng.choice((-1.0, 1.0)) for _ in range(m)])
        other = refs.sidon_lp_value(rows, sigma)
        if other > value + SIDON_TOL * (1 + value):
            problems.append(f"orthant {sigma.tolist()} reaches {other!r} > {value!r}")
    return problems


def check_bgl3(args: tuple, report, sidon_values: dict) -> list[str]:
    n, d = args
    problems = []
    if (report.n, report.d) != (n, d):
        problems.append(f"report is for ({report.n}, {report.d})")
    lam = refs.level_lambda(n, d - 1)
    if report.lambda_lower != lam:
        problems.append(f"lambda one degree down {report.lambda_lower} != {lam}")
    kappa = refs.kappa_reference()
    constant = math.exp(d) * (2 * d) * kappa**d * 2 ** (d - 1)
    if abs(report.constant / constant - 1) > d * BGL3_KAPPA_TOL / kappa + 1e-12:
        problems.append(f"constant {report.constant!r} != {constant!r} for the reference kappa")
    rhs = constant * float(lam)
    if abs(report.rhs / rhs - 1) > d * BGL3_KAPPA_TOL / kappa + 1e-12:
        problems.append(f"rhs {report.rhs!r} != {rhs!r}")
    sid = report.sid_value
    # multiplying by x_1...x_N maps degree d onto degree N - d isometrically,
    # and a linear form (or a single character) has Sidon constant 1
    if min(d, n - d) <= 1:
        expected = 1.0
    else:
        expected = sidon_values.get(("homog", n, d), sidon_values.get(("homog", n, n - d)))
    if expected is None:
        if not 1 - SIDON_TOL <= sid <= math.sqrt(math.comb(n, d)) + SIDON_TOL:
            problems.append(f"sid {sid!r} outside [1, sqrt(|S|)]")
    elif abs(sid - expected) > 1e-9 * (1 + expected):
        problems.append(f"sid {sid!r} != {expected!r} served for homog({n},{d})")
    if not (report.passed and sid <= rhs * (1 + 1e-9)):
        problems.append(f"BGL3 bound fails: sid {sid!r} > rhs {rhs!r}")
    return problems


# ------------------------------------------------------------- projection


def check_exact(spec: tuple, lam) -> list[str]:
    n, masks, kind = family_of(spec)
    if not isinstance(lam, Fraction):
        return [f"lambda is a {type(lam).__name__}, not a Fraction"]
    problems = _lambda_bounds(lam, len(masks))
    _, n_act = refs.active_compact(masks, n)
    if (1 << n_act) % lam.denominator:
        problems.append(f"denominator {lam.denominator} does not divide 2^{n_act}")
    if kind in ("homog", "upto"):
        own = refs.level_lambda(n, spec[2], kind == "upto")
        if lam != own:
            problems.append(f"lambda {lam} != Krawtchouk sum {own}")
    if n_act <= 16:
        own = refs.brute_lambda(masks, n)
        if lam != own:
            problems.append(f"lambda {lam} != brute-force cube sum {own}")
    return problems


def check_level_path(lam, level) -> list[str]:
    """lambda_exact must equal the package's own level formula."""
    return [] if lam == level else [f"lambda_exact {lam} != lambda_level_exact {level}"]


def _lambda_bounds(lam: Fraction, size: int) -> list[str]:
    problems = []
    if lam < 1:
        problems.append(f"lambda {lam} < 1")
    if lam * lam > size:
        problems.append(f"lambda^2 = {float(lam * lam)!r} > |S| = {size}")
    return problems


def check_mc(args: tuple, est) -> list[str]:
    spec, samples, seed = args
    n, masks, kind = family_of(spec)
    problems = []
    if (est.samples, est.seed) != (samples, seed):
        problems.append(f"estimate echoes samples {est.samples}, seed {est.seed}")
    if not est.stderr > 0:
        return problems + [f"stderr {est.stderr!r} is not positive"]
    slack = MC_SIGMAS * est.stderr
    if kind in ("homog", "upto"):
        exact = float(refs.level_lambda(n, spec[2], kind == "upto"))
        if abs(est.mean - exact) > slack:
            problems.append(f"mean {est.mean!r} more than 5 se from exact {exact!r}")
    elif not 1 - slack <= est.mean <= math.sqrt(len(masks)) + slack:
        problems.append(f"mean {est.mean!r} outside [1, sqrt(|S|)] by more than 5 se")
    return problems


def check_pair(first, second, what: str) -> list[str]:
    if isinstance(first, Fraction) or isinstance(second, Fraction):
        same = first == second
    else:
        same = abs(first - second) <= 1e-9 * (1 + abs(first))
    return [] if same else [f"{what}: {second!r} != {first!r}"]


# -------------------------------------------------------------------- cli


def _arg(argv: tuple, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _fraction(doc: dict) -> Fraction:
    return Fraction(int(doc["num"]), int(doc["den"]))


def check_cli(argv: tuple, code: int, text: str) -> list[str]:
    cmd = argv[0]
    if code != 0:
        return [f"exit code {code}"]
    fmt = _arg(argv, "--format", "csv" if cmd == "table" else "json")
    if fmt == "csv":
        return _check_table_csv(text)
    doc = json.loads(text)
    return _CLI_CHECKS[cmd](argv, doc)


def _check_exact_doc(argv, doc) -> list[str]:
    n, d = int(_arg(argv, "--N")), int(_arg(argv, "--d"))
    upto = _arg(argv, "--mode", "exact-degree") == "up-to-degree"
    lam = _fraction(doc["lambda"])
    problems = _lambda_bounds(lam, refs.level_size(n, d, upto))
    if (1 << n) % lam.denominator:
        problems.append(f"denominator does not divide 2^{n}")
    if doc["float"] != float(lam):
        problems.append("float field differs from the fraction")
    if n <= 2000:
        own = refs.level_lambda(n, d, upto)
        if lam != own:
            problems.append(f"lambda {float(lam)!r} != Krawtchouk sum {float(own)!r}")
    return problems


def _limit_problems(d: int, limit: float, normalized: float) -> list[str]:
    problems = []
    ref = refs.limit_reference(d)
    if abs(limit - ref) > LIMIT_RTOL * ref:
        problems.append(f"limit({d}) {limit!r} != mpmath {ref!r}")
    scaled = ref * math.exp(0.5 * math.lgamma(d + 1))
    if abs(normalized - scaled) > LIMIT_RTOL * scaled:
        problems.append(f"normalized({d}) {normalized!r} != {scaled!r}")
    return problems


def _check_limit_doc(argv, doc) -> list[str]:
    d = int(_arg(argv, "--d"))
    problems = _limit_problems(d, doc["limit"], doc["normalized"])
    ns = [int(v) for v in _arg(argv, "--N", "").split(",") if v]
    series = doc.get("series", [])
    if [row["N"] for row in series] != ns:
        return problems + ["series N values differ from the request"]
    for row in series:
        n = row["N"]
        if n <= 2000:
            own = float(refs.level_lambda(n, d)) / n ** (d / 2)
            if abs(row["ratio"] - own) > 1e-12 * own:
                problems.append(f"series ratio at N={n} {row['ratio']!r} != {own!r}")
        else:
            lam = row["ratio"] * n ** (d / 2)
            if not 1 - 1e-9 <= lam <= math.sqrt(math.comb(n, d)) * (1 + 1e-9):
                problems.append(f"series lambda at N={n} outside [1, sqrt(|S|)]")
    return problems


def _table_rows_problems(rows) -> list[str]:
    problems = []
    if [int(r[0]) for r in rows] != [2, 3, 4, 5, 6]:
        return ["table rows are not d = 2..6"]
    for d, limit, normalized, reference in rows:
        d = int(d)
        problems += _limit_problems(d, float(limit), float(normalized))
        paper = refs.PAPER_TABLE[d]
        if abs(float(normalized) * d**0.25 - paper) > TABLE_TOL:
            problems.append(f"table d={d}: {float(normalized) * d**0.25!r} vs paper {paper}")
        if abs(float(reference) - paper / d**0.25) > 1e-12:
            problems.append(f"table d={d}: reference column {reference}")
    return problems


def _check_table_doc(argv, doc) -> list[str]:
    rows = [(r["d"], r["limit_constant"], r["normalized"], r["reference_value"])
            for r in doc["rows"]]
    return _table_rows_problems(rows)


def _check_table_csv(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "#cube-constants v1":
        return ["csv banner missing"]
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if rows[0] != ["d", "limit_constant", "normalized", "reference_value"]:
        return [f"csv header {rows[0]}"]
    return _table_rows_problems(rows[1:])


def _check_kappa_doc(argv, doc) -> list[str]:
    tol = float(_arg(argv, "--tol"))
    ref = refs.kappa_reference()
    if abs(doc["kappa"] - ref) > tol:
        return [f"kappa {doc['kappa']!r} is {abs(doc['kappa'] - ref):.3g} from {ref!r} (tol {tol})"]
    return []


def _check_verify_doc(argv, doc) -> list[str]:
    if argv[2] == "combinatorics":
        ok = doc["identity"] and all(r["within_bounds"] for r in doc["c_table"])
        return [] if ok else ["combinatorics document reports a failure"]
    failed = [r["name"] for r in doc if not r["pass"]]
    return [f"suite reports failures: {failed[:5]}"] if failed or not doc else []


def _check_families_doc(argv, doc) -> list[str]:
    spec = _arg(argv, "--family").split(":")
    n = int(spec[1])
    if spec[0] in ("homog", "upto"):
        _, masks, _ = family_of((spec[0], n, int(spec[2])))
    elif spec[0] == "sqfree":
        _, masks, _ = family_of(("sqfree", n))
    else:
        masks = [1 << (p - 1) for p in refs.primes(n)]
    got = _masks_of(doc["sets"])
    problems = []
    if got != masks:
        problems.append(f"sets differ from the {spec[0]} family on N={n}")
    if doc["size"] != len(masks) or doc["N"] != n:
        problems.append(f"size {doc['size']} / N {doc['N']} wrong")
    return problems


def _check_primes_doc(argv, doc) -> list[str]:
    n = int(_arg(argv, "--N"))
    count = len(refs.primes(n))
    ps = doc["prime_singletons"]
    problems = []
    lam = _fraction(ps["lambda"])
    if ps["prime_count"] != count or lam != refs.walk_abs_mean(count):
        problems.append(f"prime singletons: count {ps['prime_count']}, lambda {lam}")
    if abs(ps["ratio"] - float(lam) / math.sqrt(n / math.log(n))) > 1e-12 * ps["ratio"]:
        problems.append("prime singleton ratio inconsistent")
    sq = doc["squarefree"]
    if n < 16:
        return problems + ([] if sq is None else ["squarefree report for N < 16"])
    size = len(refs.squarefree_sets(n))
    if sq["family_size"] != size:
        problems.append(f"squarefree size {sq['family_size']} != {size}")
    slack = MC_SIGMAS * sq["stderr"]
    if not 1 - slack <= sq["mean"] <= math.sqrt(size) + slack:
        problems.append(f"squarefree mean {sq['mean']!r} outside [1, sqrt(|S|)]")
    if sq["exact"] is not None:
        _, masks, _ = family_of(("sqfree", n))
        own = refs.brute_lambda(masks, n)
        if _fraction(sq["exact"]) != own:
            problems.append(f"squarefree exact {sq['exact']} != brute force {own}")
    return problems


_CLI_CHECKS = {
    "exact": _check_exact_doc,
    "limit": _check_limit_doc,
    "table": _check_table_doc,
    "kappa": _check_kappa_doc,
    "verify": _check_verify_doc,
    "families": _check_families_doc,
    "primes": _check_primes_doc,
}


# ---------------------------------------------------------------- streams


def same_answer(a, b) -> bool:
    """Repeats of one request must answer identically."""
    if hasattr(a, "witness"):
        return a.value == b.value and a.witness.coeffs == b.witness.coeffs
    return a == b


def check_served(cc, requests, answers: dict, seed: int) -> list[str]:
    """answers maps a request index to its first answer (failed requests
    are absent).  Returns every problem, prefixed by the request label."""
    problems = []
    sidon_values = {}
    for i, req in enumerate(requests):
        if i in answers and req.op == "sidon" and req.args[0][0] == "homog":
            sidon_values[req.args[0]] = answers[i].value
    first_of: dict = {}
    for i, req in enumerate(requests):
        if i not in answers:
            continue
        out = answers[i]
        j = first_of.setdefault(req, i)
        if j != i:
            if not same_answer(answers[j], out):
                problems.append(f"{req.label()}: repeated request answered differently")
            continue
        if req.op == "sidon":
            found = check_sidon(req.args[0], out, seed)
        elif req.op == "bgl3":
            found = check_bgl3(req.args, out, sidon_values)
        elif req.op == "exact":
            found = check_exact(req.args[0], out)
            spec = req.args[0]
            if spec[0] in ("homog", "upto"):
                mode = "exact-degree" if spec[0] == "homog" else "up-to-degree"
                level = cc.projection.lambda_level_exact(spec[1], spec[2], mode)
                found += check_level_path(out, level)
        elif req.op == "mc":
            found = check_mc(req.args, out)
        else:
            found = check_cli(req.args, *out)
        if req.pair is not None and req.pair in answers:
            first, second = answers[req.pair], out
            if req.op == "sidon":
                first, second = first.value, second.value
            found += check_pair(first, second, "paired answer")
        problems += [f"{req.label()}: {p}" for p in found]
    return problems
