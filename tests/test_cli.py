"""Command line behavior: output documents, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cube_constants
from cube_constants import cli, projection, verify
from cube_constants.verify import BoundsReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_level_route_json(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--family", "homog:3:2")
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == {"num": "3", "den": "2"}
        assert doc["float"] == 1.5
        assert doc["method"] == "level"

    def test_explicit_route(self, capsys, tmp_path):
        spec = {"kind": "explicit", "N": 3, "sets": [[1], [2], [3]]}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, "exact", "--family", f"file:{path}")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "exact"
        assert doc["lambda"] == {"num": "3", "den": "2"}

    def test_prime_route(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--family", "primes:10")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "haagerup"
        assert doc["lambda"] == {"num": "3", "den": "2"}

    def test_level_by_n_d_flags(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--N", "6", "--d", "2",
                               "--mode", "up-to-degree")
        assert code == 0
        assert json.loads(out)["family"]["kind"] == "upto"

    def test_level_by_n_d_flags_big_n(self, capsys):
        # the numerator has over 4300 digits, Python's default str() cap
        code, out, _ = run_cli(capsys, "exact", "--N", "15000", "--d", "2")
        assert code == 0
        lam = json.loads(out)["lambda"]
        got = Fraction(int(lam["num"]), int(lam["den"]))
        assert got == projection.lambda_level_exact(15000, 2)

    def test_missing_arguments_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "exact")
        assert code == 64
        assert "error" in err

    @pytest.mark.parametrize("flags", [["--N", "10"], ["--d", "3"], ["--mode", "upto"],
                                       ["--N", "10", "--d", "3", "--mode", "upto"]])
    def test_family_with_n_d_mode_is_usage_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "exact", "--family", "homog:4:2", *flags)
        assert (code, out) == (64, "")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, message", [
        (["exact", "--family", "primes:1"], "N=1 gives 0 prime singletons"),
        (["exact", "--family", "primes:200000"], "N=200000 gives 17984 prime singletons"),
        (["primes", "--N", "200000"], "N=200000 gives 17984 prime singletons"),
    ])
    def test_prime_singleton_refusal_names_n_and_count(self, capsys, argv, message):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert message in err
        assert len(err.strip().splitlines()) == 1

    def test_guard_error_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--family", "sqfree:9999")
        assert code == 2
        assert err

    def test_guard_counts_core_coordinates(self, capsys):
        # sqfree:127 has 31 primes, but only the 18 up to 63 stay in the core
        code, out, _ = run_cli(capsys, "exact", "--family", "sqfree:127")
        assert code == 0
        assert json.loads(out)["method"] == "exact"


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus"])
        assert exc.value.code == 64

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["kappa", "--frobnicate"])
        assert exc.value.code == 64

    def test_bad_family_shorthand(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--family", "homog:x:2")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--family", "file:/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize(
        "make_argv",
        [
            lambda tmp: ["mc", "--family", "homog:6:2", "--seed", str(2**64)],
            lambda tmp: ["kappa", "--out", str(tmp / "missing" / "x.json")],
            lambda tmp: ["families", "--family",
                         _family_file(tmp, {"kind": "explicit", "N": 4, "sets": 5})],
            lambda tmp: ["families", "--family",
                         _family_file(tmp, {"kind": "explicit", "N": 4, "sets": [[1], None]})],
            lambda tmp: ["exact", "--family", "sqfree:10", "--threads", "-1"],
            lambda tmp: ["exact", "--family", "sqfree:10", "--threads", "0"],
            lambda tmp: ["verify", "--suite", "combinatorics", "--max-n", "0"],
            lambda tmp: ["verify", "--suite", "range", "--max-n", "0"],
            lambda tmp: ["verify", "--suite", "range", "--max-n", "-3"],
            lambda tmp: ["verify", "--suite", "all", "--max-n", "0"],
            lambda tmp: ["verify", "--suite", "desigforo", "--desigforo-max-n", "1"],
            lambda tmp: ["verify", "--suite", "all", "--desigforo-max-n", "1"],
            lambda tmp: ["mc", "--family", "homog:6:2", "--samples", str(10**30)],
            lambda tmp: ["verify", "--suite", "klimek", "--trials", str(10**30)],
            lambda tmp: ["verify", "--suite", "range", "--max-n", "101"],
            lambda tmp: ["verify", "--suite", "desigforo", "--desigforo-max-n", str(10**30)],
            lambda tmp: ["verify", "--suite", "mckay", "--mckay-max-n", "4003"],
            lambda tmp: ["primes", "--N", str(10**10)],
            lambda tmp: ["exact", "--family", f"primes:{10**10}"],
            lambda tmp: ["families", "--family", f"sqfree:{10**10}"],
            lambda tmp: ["mc", "--family", "homog:40:20", "--samples", "1000"],
            lambda tmp: ["mc", "--family", "upto:60:30", "--samples", "1000"],
            lambda tmp: ["exact", "--family",
                         _family_file(tmp, {"kind": "explicit", "N": True, "sets": [[1]]})],
            lambda tmp: ["families", "--family",
                         _family_file(tmp, {"kind": "explicit", "N": True, "sets": [[1]]})],
            lambda tmp: ["exact", "--family",
                         _family_file(tmp, {"kind": "homogeneous", "N": True, "d": True})],
            lambda tmp: ["sidon", "--family",
                         _family_file(tmp, {"kind": "homogeneous", "N": True, "d": True})],
        ],
        ids=["seed-2**64", "out-missing-dir", "sets-not-array", "null-set",
             "threads-negative", "threads-zero", "combinatorics-max-n-0", "range-max-n-0",
             "range-max-n-negative", "all-max-n-0", "desigforo-max-n-1",
             "all-desigforo-max-n-1", "huge-samples", "huge-trials",
             "range-max-n-101", "huge-desigforo-max-n", "mckay-max-n-4003",
             "primes-sieve-past-cap", "exact-primes-sieve-past-cap", "sqfree-past-cap",
             "homog-set-count-past-cap", "upto-set-count-past-cap",
             "exact-explicit-n-true", "families-explicit-n-true",
             "exact-homog-n-d-true", "sidon-homog-n-d-true"],
    )
    def test_bad_input_exits_cleanly(self, capsys, tmp_path, make_argv):
        code, _, err = run_cli(capsys, *make_argv(tmp_path))
        assert code in (2, 64)
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


def _family_file(tmp_path, spec) -> str:
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(spec))
    return f"file:{path}"


# Exit-code contract: a bounded argv grammar over every subcommand and every
# exact route, with edge values.  Sizes stay small (N <= 12 apart from values
# a guard refuses at once, such as families past the set-count cap, samples
# <= 2000, trials <= 5, small sweep bounds), so no example starts large work.

_HUGE = str(10**30)
_SIZES = ["-1", "0", "1", "2", "3", "5", "8", "12", _HUGE]
_SPEC_FILES = [
    {"kind": "explicit", "N": 5, "sets": [[1, 2], [2, 3], [5]]},
    {"kind": "explicit", "N": 4, "sets": [[1], [1]]},
    {"kind": "explicit", "N": 0, "sets": [[1]]},
    {"kind": "explicit", "N": 4, "sets": 5},
    {"kind": "squarefree", "N": 12},
    {"kind": "homogeneous", "N": 6},
    {"kind": "upto", "N": 6, "d": "2"},
    {"kind": "prime-singletons", "N": 12.0},
    {"N": 4},
    [1, 2],
]
_TOLS = ["0", "-1", "nan", "inf", "1e-300", "1e-5", "1e300"]
_SEEDS = ["-1", "0", "7", str(2**63 - 1), str(2**63), _HUGE, "nan"]
_THREADS = ["-1", "0", "1", "2", _HUGE, "nan"]
_SAMPLES = ["-1", "0", "99", "100", "2000", _HUGE, "nan"]
_SWEEPS = ["-3", "0", "1", "2", "5", _HUGE, "nan"]


def _flag(flag, values):
    return st.sampled_from(values).map(lambda v: [flag, v])


def _opt(flag, values):
    return st.one_of(st.just([]), _flag(flag, values))


def _args(*parts):
    return st.tuples(*parts).map(lambda ps: [arg for p in ps for arg in p])


def _cmd(name, *parts):
    return _args(*parts).map(lambda argv: [name] + argv)


def _families(sizes):
    size = st.sampled_from(sizes)
    return st.one_of(
        st.builds("homog:{}:{}".format, size, size),
        st.builds("upto:{}:{}".format, size, size),
        st.builds("primes:{}".format, size),
        st.builds("sqfree:{}".format, size),
        st.sampled_from([f"file:{{dir}}/spec{i}.json" for i in range(len(_SPEC_FILES))]
                        + ["file:{dir}/missing.json", "bogus", "homog:x:2",
                           "homog:40:20", "upto:60:30"]),
    ).map(lambda f: ["--family", f])


_FORMAT = _opt("--format", ["json", "csv"])
_THREADED = _opt("--threads", _THREADS)
_ARGVS = st.one_of(
    _cmd("exact", st.one_of(
        _families(_SIZES),
        _args(_opt("--N", _SIZES), _opt("--d", _SIZES),
              _opt("--mode", ["exact-degree", "up-to-degree", "exact", "upto", "x"])),
    ), _THREADED, _FORMAT),
    _cmd("mc", _families(_SIZES), _flag("--samples", _SAMPLES), _opt("--seed", _SEEDS),
         _THREADED, _FORMAT),
    _cmd("limit", _opt("--d", ["-1", "0", "1", "2", "60", "61", _HUGE, "nan"]),
         _opt("--N", ["10,20", "0", "-5", "12", _HUGE, "3,x"]), _FORMAT),
    _cmd("table", _FORMAT),
    # Sidon LPs grow fastest, so their families stay at N <= 4
    _cmd("sidon", _families(["-1", "0", "1", "2", "3", "4", _HUGE]),
         _opt("--max-orthants", ["-1", "0", "1", "16"]), _FORMAT),
    _cmd("kappa", _opt("--tol", _TOLS), _FORMAT),
    _cmd("verify",
         _flag("--suite", ["range", "mckay", "desigforo", "klimek", "combinatorics",
                           "all", "x"]),
         *(_flag(flag, _SWEEPS) for flag in ("--max-n", "--mckay-max-n", "--desigforo-max-n")),
         _flag("--trials", ["-1", "0", "1", "5", _HUGE]),
         _opt("--seed", _SEEDS), _FORMAT),
    _cmd("families", _families(_SIZES), _FORMAT),
    _cmd("primes", _flag("--N", ["-1", "0", "2", "3", "12", "16", _HUGE, "nan"]),
         _flag("--samples", _SAMPLES), _opt("--seed", _SEEDS), _THREADED, _FORMAT),
)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("specs")
    for i, spec in enumerate(_SPEC_FILES):
        (folder / f"spec{i}.json").write_text(json.dumps(spec))
    return folder


@given(argv=_ARGVS)
@settings(max_examples=60, deadline=None)
def test_exit_code_contract(spec_dir, argv):
    argv = [arg.replace("{dir}", str(spec_dir)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3, 64), (argv, err.getvalue())
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1, (argv, err.getvalue())


class TestTable:
    def test_csv_banner_and_shape(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "#cube-constants v1"
        assert lines[1] == "d,limit_constant,normalized,reference_value"
        assert len(lines) == 7
        first = lines[2].split(",")
        assert first[0] == "2"
        assert abs(float(first[1]) - 0.4839414490382868) <= 1e-12

    def test_json_variant(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["d"] for r in rows] == [2, 3, 4, 5, 6]
        for r in rows:
            assert abs(r["normalized"] - r["reference_value"]) <= 0.002


class TestLimit:
    def test_series(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--d", "2", "--N", "10,20")
        assert code == 0
        doc = json.loads(out)
        assert doc["d"] == 2
        assert [row["N"] for row in doc["series"]] == [10, 20]
        # ratios approach the limit from one side at these sizes
        assert abs(doc["series"][1]["ratio"] - doc["limit"]) < abs(
            doc["series"][0]["ratio"] - doc["limit"]
        )


class TestMc:
    def test_reports_estimate(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--family", "homog:8:2",
                               "--samples", "5000", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "mc"
        assert doc["samples"] == 5000
        assert doc["ci95"][0] < doc["mean"] < doc["ci95"][1]

    def test_thread_count_does_not_change_output(self, capsys):
        _, out1, _ = run_cli(capsys, "mc", "--family", "homog:8:2",
                             "--samples", "5000", "--threads", "1")
        _, out8, _ = run_cli(capsys, "mc", "--family", "homog:8:2",
                             "--samples", "5000", "--threads", "8")
        assert out1 == out8


class TestSidonCommand:
    def test_full_family(self, capsys):
        code, out, _ = run_cli(capsys, "sidon", "--family", "upto:2:2")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"] - 2) <= 1e-8
        assert len(doc["witness"]) == 4

    def test_guard(self, capsys):
        code, _, err = run_cli(capsys, "sidon", "--family", "homog:12:2")
        assert code == 2

    def test_takes_no_threads(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sidon", "--family", "upto:2:2", "--threads", "2"])
        assert exc.value.code == 64

    def test_takes_no_tol(self, capsys):
        # the LP tolerance is a fixed constant of the library, not an option
        with pytest.raises(SystemExit) as exc:
            cli.main(["sidon", "--family", "upto:4:2", "--tol", "0"])
        assert exc.value.code == 64

    @pytest.mark.parametrize("family, value", [("upto:4:2", 8 / 3), ("homog:6:3", 7 / 2)])
    def test_document(self, capsys, family, value):
        code, out, _ = run_cli(capsys, "sidon", "--family", family)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"] - value) <= 1e-12
        assert sorted(doc) == ["family", "orthants_solved", "value", "witness"]


class TestKappaCommand:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "kappa", "--tol", "1e-5")
        assert code == 0
        assert 2.2085 <= json.loads(out)["kappa"] <= 2.2095


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "range", "--max-n", "6")
        assert code == 0
        reports = json.loads(out)
        assert all(r["pass"] for r in reports)

    def test_failure_exits_three(self, capsys, monkeypatch):
        bad = BoundsReport("forced", 2.0, 1.0, False, {})
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [bad])
        code, out, _ = run_cli(capsys, "verify", "--suite", "range")
        assert code == 3
        assert json.loads(out)[0]["pass"] is False

    def test_combinatorics_document(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "combinatorics",
                               "--max-n", "6")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"identity", "c_table", "beckner"}
        assert doc["identity"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "desigforo",
                               "--desigforo-max-n", "20", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "#cube-constants v1"
        assert lines[1] == "name,lhs,rhs,pass,context"


class TestFamiliesCommand:
    def test_materializes_sets(self, capsys):
        code, out, _ = run_cli(capsys, "families", "--family", "homog:4:3")
        assert code == 0
        doc = json.loads(out)
        assert doc["size"] == 4
        assert [1, 2, 3] in doc["sets"]

    def test_squarefree_shorthand(self, capsys):
        code, out, _ = run_cli(capsys, "families", "--family", "sqfree:10")
        assert code == 0
        doc = json.loads(out)
        assert doc["size"] == 7  # 1,2,3,5,6,7,10


class TestPrimesCommand:
    def test_small_n_skips_squarefree(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--N", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["prime_singletons"]["lambda"] == {"num": "3", "den": "2"}
        assert doc["squarefree"] is None

    def test_with_squarefree(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--N", "16",
                               "--samples", "5000")
        assert code == 0
        doc = json.loads(out)
        assert doc["squarefree"]["agrees_with_exact"] is True


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: the import, a Sidon solve and
    # every verify suite (McKay and Szarek through Y) load neither scipy,
    # which is a test oracle only, nor a graph library
    src = os.path.dirname(os.path.dirname(cube_constants.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for setup in ("import cube_constants.cli",
                  "import cube_constants as cc; "
                  "cc.sidon_exact(cc.family_homogeneous(5, 2))",
                  "import os; from cube_constants import cli; "
                  "assert cli.main(['verify', '--suite', 'all', '--out', os.devnull]) == 0"):
        code = (
            f"import sys; {setup}; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'networkx')))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]", setup


class TestDeterminismAndOut:
    def test_byte_identical_reruns(self, capsys):
        for argv in (
            ["exact", "--family", "homog:5:2"],
            ["mc", "--family", "homog:6:2", "--samples", "2000"],
            ["table"],
            ["kappa"],
            ["limit", "--d", "3", "--N", "8,12"],
        ):
            _, out1, _ = run_cli(capsys, *argv)
            _, out2, _ = run_cli(capsys, *argv)
            assert out1 == out2, argv

    def test_out_flag_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        code, out, _ = run_cli(capsys, "exact", "--family", "homog:4:2")
        code2 = cli.main(["exact", "--family", "homog:4:2", "--out", str(path)])
        capsys.readouterr()
        assert code == code2 == 0
        assert path.read_text() == out
