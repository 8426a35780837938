"""The benchmark's checks accept the package's answers and reject corrupted
ones, one kind of check at a time.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import refs  # noqa: E402
import streams  # noqa: E402
import cube_constants as cc  # noqa: E402
import cube_constants.cli  # noqa: E402,F401


def _scaled(result, factor):
    witness = dataclasses.replace(
        result.witness, coeffs=tuple(c * factor for c in result.witness.coeffs))
    return dataclasses.replace(result, witness=witness, value=result.value * factor)


SMALL = ("explicit", 4, ((1,), (1, 2), (2, 3), (3, 4), (1, 2, 3, 4)))
LARGE = ("homog", 5, 2)  # ten sets: witness orthant plus sampled orthants


@pytest.fixture(scope="module")
def sidon_answers():
    return {spec: cc.sidon_exact(streams.build_family(cc, spec)) for spec in (SMALL, LARGE)}


@pytest.mark.parametrize("spec", [SMALL, LARGE])
def test_sidon_accepts_package_answer(sidon_answers, spec):
    assert checks.check_sidon(spec, sidon_answers[spec], seed=1) == []


@pytest.mark.parametrize("spec", [SMALL, LARGE])
def test_sidon_witness_scaled_up_is_rejected(sidon_answers, spec):
    found = checks.check_sidon(spec, _scaled(sidon_answers[spec], 1.01), seed=1)
    assert any("witness sup" in p for p in found)


@pytest.mark.parametrize("spec", [SMALL, LARGE])
def test_sidon_value_below_optimum_is_rejected(sidon_answers, spec):
    found = checks.check_sidon(spec, _scaled(sidon_answers[spec], 0.99), seed=1)
    assert any("HiGHS" in p for p in found)


def test_sidon_witness_short_of_value_is_rejected(sidon_answers):
    bad = dataclasses.replace(sidon_answers[SMALL], value=sidon_answers[SMALL].value + 1e-3)
    assert any("witness l1" in p for p in checks.check_sidon(SMALL, bad, seed=1))


def test_sidon_value_above_sqrt_size_is_rejected(sidon_answers):
    bad = dataclasses.replace(sidon_answers[SMALL], value=3.0)
    assert any("sqrt(|S|)" in p for p in checks.check_sidon(SMALL, bad, seed=1))


def test_relabelled_copy_with_other_value_is_rejected():
    assert checks.check_pair(1.5, 1.5 + 1e-6, "copy")
    assert checks.check_pair(1.5, 1.5, "copy") == []


@pytest.fixture(scope="module")
def bgl3_row():
    report = cc.check_sidon_projection_bound(4, 2)
    return report, {("homog", 4, 2): cc.sidon_exact(cc.family_homogeneous(4, 2)).value}


def test_bgl3_accepts_package_row(bgl3_row):
    assert checks.check_bgl3((4, 2), *bgl3_row) == []


def test_bgl3_kappa_off_by_ten_tol_is_rejected(bgl3_row):
    report, values = bgl3_row
    kappa = refs.kappa_reference() + 10 * checks.BGL3_KAPPA_TOL
    constant = 2.718281828459045**2 * 4 * kappa**2 * 2
    bad = dataclasses.replace(report, constant=constant,
                              rhs=constant * float(report.lambda_lower))
    assert any("constant" in p for p in checks.check_bgl3((4, 2), bad, values))


def test_bgl3_wrong_lambda_or_sid_is_rejected(bgl3_row):
    report, values = bgl3_row
    bad = dataclasses.replace(report, lambda_lower=report.lambda_lower + Fraction(1, 16))
    assert any("one degree down" in p for p in checks.check_bgl3((4, 2), bad, values))
    bad = dataclasses.replace(report, sid_value=report.sid_value * 1.001)
    assert any("served for homog" in p for p in checks.check_bgl3((4, 2), bad, values))


PROJ = ("explicit", 14, tuple((i, i + 1) for i in range(1, 14)) + ((1, 5, 9),))


@pytest.mark.parametrize("spec", [PROJ, ("homog", 12, 3), ("sqfree", 41)])
def test_exact_accepts_package_answer(spec):
    lam = cc.lambda_exact(streams.build_family(cc, spec))
    assert checks.check_exact(spec, lam) == []


@pytest.mark.parametrize("spec", [PROJ, ("homog", 12, 3)])
def test_exact_off_by_two_to_minus_n_is_rejected(spec):
    lam = cc.lambda_exact(streams.build_family(cc, spec))
    found = checks.check_exact(spec, lam + Fraction(1, 1 << spec[1]))
    assert any("brute-force" in p or "Krawtchouk" in p for p in found)


def test_exact_bounds_and_denominator_are_checked():
    size = len(checks.family_of(PROJ)[1])
    assert any("< 1" in p for p in checks.check_exact(PROJ, Fraction(1, 2)))
    assert any("> |S|" in p for p in checks.check_exact(PROJ, Fraction(size + 1)))
    assert any("denominator" in p for p in checks.check_exact(PROJ, Fraction(3, 1 << 15) + 1))


def test_level_path_mismatch_is_rejected():
    assert checks.check_level_path(Fraction(3), Fraction(3)) == []
    assert checks.check_level_path(Fraction(3), Fraction(7, 2))


def test_squarefree_pair_must_match():
    assert checks.check_pair(Fraction(5, 4), Fraction(5, 4), "pair") == []
    assert checks.check_pair(Fraction(5, 4), Fraction(5, 4) + Fraction(1, 1 << 26), "pair")


def test_monte_carlo_far_from_exact_is_rejected():
    args = (("homog", 30, 2), 4096, 7)
    est = cc.lambda_mc(cc.family_homogeneous(30, 2), samples=4096, seed=7)
    assert checks.check_mc(args, est) == []
    bad = dataclasses.replace(est, mean=est.mean + 6 * est.stderr)
    assert any("5 se" in p for p in checks.check_mc(args, bad))


def _cli(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = cc.cli.main(list(argv) + ["--out", str(out)])
    return code, out.read_text()


def _doctored(text, **changes):
    doc = json.loads(text)
    doc.update(changes)
    return json.dumps(doc)


def test_cli_exact_off_by_two_to_minus_n_is_rejected(tmp_path):
    argv = ("exact", "--N", "40", "--d", "3")
    code, text = _cli(tmp_path, *argv)
    assert checks.check_cli(argv, code, text) == []
    lam = Fraction(int(json.loads(text)["lambda"]["num"]), int(json.loads(text)["lambda"]["den"]))
    lam += Fraction(1, 1 << 40)
    bad = _doctored(text, **{"lambda": {"num": str(lam.numerator), "den": str(lam.denominator)},
                             "float": float(lam)})
    assert any("Krawtchouk" in p for p in checks.check_cli(argv, code, bad))


@pytest.mark.parametrize("d", [4, 23])
def test_cli_limit_off_is_rejected(tmp_path, d):
    argv = ("limit", "--d", str(d), "--N", "60")
    code, text = _cli(tmp_path, *argv)
    assert checks.check_cli(argv, code, text) == []
    bad = _doctored(text, limit=json.loads(text)["limit"] * (1 + 1e-7))
    assert any("mpmath" in p for p in checks.check_cli(argv, code, bad))


def test_cli_table_far_from_paper_is_rejected(tmp_path):
    argv = ("table", "--format", "json")
    code, text = _cli(tmp_path, *argv)
    assert checks.check_cli(argv, code, text) == []
    doc = json.loads(text)
    doc["rows"][0]["normalized"] += 3e-3 / 2**0.25
    assert any("paper" in p for p in checks.check_cli(argv, code, json.dumps(doc)))


def test_cli_kappa_off_by_ten_tol_is_rejected(tmp_path):
    argv = ("kappa", "--tol", "1e-4")
    code, text = _cli(tmp_path, *argv)
    assert checks.check_cli(argv, code, text) == []
    bad = _doctored(text, kappa=json.loads(text)["kappa"] + 1e-3)
    assert checks.check_cli(argv, code, bad)


def test_cli_failed_suite_is_rejected(tmp_path):
    argv = ("verify", "--suite", "klimek")
    code, text = _cli(tmp_path, *argv)
    assert checks.check_cli(argv, code, text) == []
    doc = json.loads(text)
    doc[0]["pass"] = False
    assert checks.check_cli(argv, code, json.dumps(doc))
    assert checks.check_cli(argv, 3, text)


def test_cli_families_and_primes_are_checked(tmp_path):
    argv = ("families", "--family", "sqfree:30")
    code, text = _cli(tmp_path, *argv)
    assert checks.check_cli(argv, code, text) == []
    doc = json.loads(text)
    doc["sets"] = doc["sets"][:-1]
    assert checks.check_cli(argv, code, json.dumps(doc))
    argv = ("primes", "--N", "20", "--samples", "2000", "--threads", "1")
    code, text = _cli(tmp_path, *argv)
    assert checks.check_cli(argv, code, text) == []
    doc = json.loads(text)
    doc["prime_singletons"]["prime_count"] += 1
    assert checks.check_cli(argv, code, json.dumps(doc))


def test_streams_depend_on_seed_only():
    for make in streams.STREAMS.values():
        assert make(3) == make(3)
        assert make(3) != make(4)
        assert len(make(3)) >= 100
