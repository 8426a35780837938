"""Acceptance criteria, one test per criterion.

Each test emits a single "criterion NN PASS/FAIL" line on the real stdout
(bypassing capture, so it shows under plain pytest) and asserts the stated
tolerance and runtime budget.  Nothing here is tuned to pass: expected
values come from closed forms, independent solvers, or hand-checkable
small cases.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

import cube_constants as cc


def announce(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        # pytest captures stdout of passing tests; repeat on the real stream
        # so the per-criterion verdicts always appear in the run log
        print(line, file=sys.__stdout__)
    assert ok, f"criterion {num}: {detail}"


def run_cli_bytes(*argv: str) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "cube_constants.cli", *argv],
        capture_output=True,
    )
    return proc.returncode, proc.stdout


def test_criterion_01_singletons_match_gamma_closed_form():
    t0 = time.time()
    worst = 0.0
    for n in range(1, 17):
        lam = cc.lambda_exact(cc.family_homogeneous(n, 1))
        want = cc.lambda_closed_forms(n).l1
        worst = max(worst, abs(float(lam) - want) / want)
    exact3 = cc.lambda_exact(cc.family_homogeneous(3, 1))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and exact3 == Fraction(3, 2) and elapsed < 5
    announce(1, ok, f"N=1..16 worst rel err {worst:.2e}, N=3 gives {exact3}, "
                    f"{elapsed:.1f} s")


def test_criterion_02_full_family_constant_one():
    t0 = time.time()
    ok = all(cc.lambda_exact(cc.family_full(n)) == 1 for n in range(1, 11))
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    announce(2, ok, f"lambda(full N) = 1 exactly for N <= 10, {elapsed:.1f} s")


def test_criterion_03_level_path_equals_enumeration():
    t0 = time.time()
    checked = 0
    ok = True
    for n in range(1, 17):
        for d in range(1, n + 1):
            pairs = (
                ("exact-degree", cc.family_homogeneous),
                ("up-to-degree", cc.family_upto),
            )
            for mode, fam_fn in pairs:
                if cc.lambda_level_exact(n, d, mode) != cc.lambda_exact(fam_fn(n, d)):
                    ok = False
                checked += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    announce(3, ok, f"{checked} rational equalities (N <= 16, both modes), "
                    f"{elapsed:.1f} s")


def test_criterion_04_limit_theorem_at_scale():
    t0 = time.time()
    r2 = float(cc.lambda_level_exact(4000, 2, "exact-degree")) / 4000
    gap2 = abs(r2 - math.sqrt(2 / (math.pi * math.e)))
    t1 = time.time()
    r3 = float(cc.lambda_level_exact(2000, 3, "exact-degree")) / 2000**1.5
    gap3 = abs(r3 - cc.limit_constant(3))
    t2 = time.time()
    ok = gap2 <= 0.005 and gap3 <= 0.01 and (t1 - t0) < 30 and (t2 - t1) < 30
    announce(4, ok, f"d=2 N=4000 gap {gap2:.2e} (<=5e-3), "
                    f"d=3 N=2000 gap {gap3:.2e} (<=1e-2), "
                    f"{t1-t0:.1f}+{t2-t1:.1f} s")


def test_criterion_05_limit_table_reproduction():
    refs = {2: 0.814, 3: 0.811, 4: 0.808, 5: 0.807, 6: 0.806}
    worst = 0.0
    for d, num in refs.items():
        got = cc.normalized_limit_constant(d)
        worst = max(worst, abs(got - num / d**0.25))
    closed = 2**1.75 / (math.sqrt(math.e) * math.sqrt(2 * math.pi))
    gap2 = abs(cc.normalized_limit_constant(2) * 2**0.25 - closed)
    ok = worst <= 0.002 and gap2 <= 1e-10
    announce(5, ok, f"d=2..6 worst table gap {worst:.2e} (<=2e-3), "
                    f"d=2 closed-form gap {gap2:.2e} (<=1e-10)")


def test_criterion_06_identity_suite():
    t0 = time.time()
    ok_p = all(
        cc.p_poly(d).scaled(math.factorial(d)) == cc.hermite_poly(d)
        for d in range(0, 61)
    )
    ok_power = all(
        cc.verify_power_identity(d, n).max_discrepancy == 0
        for d in range(1, 6)
        for n in range(d, 13)
    )
    ok_closed = all(
        cc.c_coefficient(2, 1, n) == n and cc.c_coefficient(3, 1, n) == 3 * n - 2
        for n in range(3, 51)
    )
    elapsed = time.time() - t0
    ok = ok_p and ok_power and ok_closed and elapsed < 120
    announce(6, ok, f"p_poly*d!=h_d (d<=60) {ok_p}, power identity {ok_power}, "
                    f"closed forms {ok_closed}, {elapsed:.1f} s")


def test_criterion_07_beckner_coefficients():
    small_ok = True
    for n in (10, 20, 40, 80, 160):
        a2 = cc.beckner_coefficients(2, n).a
        a3 = cc.beckner_coefficients(3, n).a
        small_ok = small_ok and abs(a2[0]) <= 1e-8 and abs(a3[0] - 2) <= 1e-8
    spread = 0.0
    for d in (4, 5):
        fits = [cc.beckner_coefficients(d, n).a for n in (40, 80, 160)]
        for k in range(d // 2):
            values = [abs(a[k]) for a in fits]
            spread = max(spread, (max(values) - min(values)) / min(values))
    ok = small_ok and spread < 0.05
    announce(7, ok, f"a(2,1,N)=0 and a(3,1,N)=2 to 1e-8, "
                    f"d=4,5 worst spread {spread:.3%} (<5%)")


def test_criterion_08_kappa_window():
    t0 = time.time()
    k = cc.kappa_constant(1e-4)
    elapsed = time.time() - t0
    ok = 2.2085 <= k <= 2.2095 and elapsed < 5
    announce(8, ok, f"kappa(1e-4) = {k:.6f} in [2.2085, 2.2095], {elapsed:.1f} s")


def _oracle_sidon(masks: tuple[int, ...], n: int) -> float:
    m = len(masks)
    rows = [
        [(-1.0 if (S & x).bit_count() & 1 else 1.0) for S in masks]
        for x in range(1 << n)
    ]
    A = np.array(rows + [[-v for v in row] for row in rows])
    b = np.ones(len(A))
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=m):
        res = linprog([-s for s in signs], A_ub=A, b_ub=b,
                      bounds=[(None, None)] * m, method="highs")
        if res.status == 0:
            best = max(best, -res.fun)
    return best


def test_criterion_09_sidon_constants():
    t0 = time.time()
    gap_full = abs(cc.sidon_exact(cc.family_full(2)).value - 2)
    gap_homog = abs(cc.sidon_exact(cc.family_homogeneous(3, 2)).value - 1)

    worst_oracle = 0.0
    families = 0
    for size in (1, 2, 3, 4):
        for combo in itertools.combinations(range(16), size):
            fam = cc.SupportFamily(4, tuple(combo), "explicit")
            got = cc.sidon_exact(fam).value
            worst_oracle = max(worst_oracle, abs(got - _oracle_sidon(combo, 4)))
            families += 1

    bgl3_ok = True
    for d, n_top in ((2, 8), (3, 6)):
        for n in range(d, n_top + 1):
            if not cc.check_sidon_projection_bound(n, d).passed:
                bgl3_ok = False
    elapsed = time.time() - t0
    ok = (gap_full <= 1e-8 and gap_homog <= 1e-8 and worst_oracle <= 1e-6
          and bgl3_ok and elapsed < 300)
    announce(9, ok, f"sid(full 2) gap {gap_full:.1e}, sid(homog 3,2) gap "
                    f"{gap_homog:.1e}, oracle sweep {families} families worst "
                    f"{worst_oracle:.1e}, BGL3 all pass {bgl3_ok}, {elapsed:.0f} s")


def test_criterion_10_haagerup_and_primes():
    t0 = time.time()
    ok_h = all(
        cc.haagerup_lambda(n) == cc.lambda_exact(cc.family_homogeneous(n, 1))
        for n in range(1, 17)
    )
    rep = cc.prime_singleton_report(10)
    elapsed = time.time() - t0
    ok = ok_h and rep.lam == Fraction(3, 2) and elapsed < 60
    announce(10, ok, f"haagerup == exact singletons (n <= 16) {ok_h}, "
                     f"primes(10) lambda = {rep.lam}, {elapsed:.1f} s")


def test_criterion_11_verification_suites():
    t0 = time.time()
    mckay = cc.run_suite("mckay", mckay_max_n=4001)
    desigforo = cc.run_suite("desigforo", desigforo_max_n=200)
    klimek = cc.run_suite("klimek", klimek_trials=500, seed=42)
    szarek = cc.szarek_y_bounds()
    suite_ok = all(
        r.passed for r in itertools.chain(mckay, desigforo, klimek, szarek)
    )
    code, _ = run_cli_bytes("verify", "--suite", "all", "--max-n", "12")
    elapsed = time.time() - t0
    ok = suite_ok and code == 0
    announce(11, ok, f"mckay {len(mckay)}, desigforo {len(desigforo)}, "
                     f"klimek {len(klimek)}, szarek {len(szarek)} all pass; "
                     f"verify --suite all exit {code}, {elapsed:.0f} s")


def test_criterion_12_report_only_asymptotics():
    """Harper's square-free constant and the universal Bohnenblust-Hille
    constants are out of desk-scale reach; the artifact reports the observed
    ratios and certifies only the exact cross-check at N = 16."""
    rep = cc.squarefree_mc(16, samples=100000, seed=42)
    margin = abs(rep.estimate.mean - float(rep.exact))
    ratios = {
        n: round(cc.squarefree_mc(n, samples=20000, seed=42).ratio, 4)
        for n in (16, 24, 40, 64)
    }
    density = cc.sidon_density_bounds(cc.family_homogeneous(8, 2))
    ok = rep.agrees_with_exact and margin <= 4 * rep.estimate.stderr
    announce(12, ok, f"squarefree N=16 MC-exact margin {margin:.4f} <= "
                     f"4*stderr {4*rep.estimate.stderr:.4f}; report-only "
                     f"growth ratios {ratios}; density pivot "
                     f"{density.pivot:.3f} (constants not derivable here)")


def test_criterion_13_byte_identical_outputs():
    t0 = time.time()
    invocations = [
        ("exact", "--family", "homog:6:2"),
        ("exact", "--family", "primes:20"),
        ("mc", "--family", "homog:8:2", "--samples", "5000"),
        ("limit", "--d", "3", "--N", "8,12"),
        ("table",),
        ("sidon", "--family", "upto:2:2"),
        ("kappa",),
        ("verify", "--suite", "desigforo", "--desigforo-max-n", "30"),
        ("families", "--family", "sqfree:12"),
        ("primes", "--N", "16", "--samples", "5000"),
    ]
    stable = True
    for argv in invocations:
        code1, out1 = run_cli_bytes(*argv)
        code2, out2 = run_cli_bytes(*argv)
        if code1 != code2 or out1 != out2 or not out1:
            stable = False
    threads_same = True
    for argv in (
        ("mc", "--family", "homog:10:2", "--samples", "20000"),
        ("exact", "--family", "sqfree:20"),
    ):
        _, a = run_cli_bytes(*argv, "--threads", "1")
        _, b = run_cli_bytes(*argv, "--threads", "8")
        if a != b:
            threads_same = False
    elapsed = time.time() - t0
    ok = stable and threads_same
    announce(13, ok, f"{len(invocations)} subcommands byte-identical on rerun; "
                     f"threads 1 vs 8 identical, {elapsed:.0f} s")
