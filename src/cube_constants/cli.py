"""Command line front end.

Every subcommand writes a single deterministic document (JSON by default,
CSV where tabular) to stdout or --out.  Exit codes: 0 success, 2 input or
size-guard rejection, 3 a verification suite reported a failure, 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .core import _MODE_ALIASES, CubeError, make_family
from .hermite import limit_constant, normalized_limit_constant
from .projection import (
    lambda_level_exact,
    lambda_mc,
    lambda_of_spec,
    prime_singleton_report,
    squarefree_mc,
)
from .sidon import kappa_constant, sidon_exact
from .verify import _combinatorics_checks, run_suite

EXIT_OK = 0
EXIT_GUARD = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64

CSV_BANNER = "#cube-constants v1"


class UsageError(Exception):
    """Bad flag combination caught after argparse."""

# Decimal reference values for the normalized limit table, d = 2..6.
_TABLE_REFERENCE = {2: 0.814, 3: 0.811, 4: 0.808, 5: 0.807, 6: 0.806}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    guard rejections, so usage goes to 64 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _threads(args) -> int:
    """--threads, else the CPU count; a count below 1 is refused."""
    if args.threads is None:
        return os.cpu_count() or 1
    if args.threads < 1:
        raise CubeError(f"--threads must be >= 1, got {args.threads}")
    return args.threads


def parse_family_spec(text: str) -> dict:
    """Parse a --family argument into a family JSON dict without
    materializing the sets.

    Accepted shorthands: homog:N:d, upto:N:d, primes:N, sqfree:N, and
    file:<path> pointing at a family JSON document.
    """
    if text.startswith("file:"):
        path = text[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
        except OSError as exc:
            raise CubeError(f"cannot read family file {path!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise CubeError(f"family file {path!r} is not valid JSON: {exc}")
        if not isinstance(spec, dict):
            raise CubeError(f"family file {path!r} must contain a JSON object")
        return spec

    parts = text.split(":")
    head = parts[0]
    try:
        if head == "homog" and len(parts) == 3:
            return {"kind": "homogeneous", "N": int(parts[1]), "d": int(parts[2])}
        if head == "upto" and len(parts) == 3:
            return {"kind": "upto", "N": int(parts[1]), "d": int(parts[2])}
        if head == "primes" and len(parts) == 2:
            return {"kind": "prime-singletons", "N": int(parts[1])}
        if head == "sqfree" and len(parts) == 2:
            return {"kind": "squarefree", "N": int(parts[1])}
    except ValueError:
        raise CubeError(f"non-integer parameter in family shorthand {text!r}")
    raise CubeError(
        f"unrecognized family {text!r}; expected homog:N:d, upto:N:d, "
        "primes:N, sqfree:N, or file:<path>"
    )


def _fraction_doc(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _jsonable(value):
    if isinstance(value, Fraction):
        return _fraction_doc(value)
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if hasattr(value, "item"):
        return _jsonable(value.item())
    return str(value)


def _emit(doc, fmt: str, out: str | None, csv_rows=None) -> None:
    """Write the document.  csv_rows, when given, is (header, rows) with
    every cell already a string."""
    if fmt == "json":
        text = json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"
    else:
        if csv_rows is None:
            raise CubeError("this subcommand has no CSV rendering; use --format json")
        header, rows = csv_rows
        buffer = io.StringIO()
        buffer.write(CSV_BANNER + "\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
        text = buffer.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise CubeError(f"cannot write {out!r}: {exc}")


def _float_cell(value: float) -> str:
    return repr(float(value))


def _kv_rows(doc: dict) -> tuple[list[str], list[list[str]]]:
    rows = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, float):
            cell = _float_cell(value)
        elif isinstance(value, (dict, list)):
            cell = json.dumps(_jsonable(value), sort_keys=True)
        else:
            cell = str(value)
        rows.append([key, cell])
    return ["key", "value"], rows


# ----------------------------------------------------------------- commands


def _cmd_exact(args) -> int:
    threads = _threads(args)
    if args.family is None:
        if args.N is None or args.d is None:
            raise UsageError("exact needs --family, or --N together with --d")
        upto = _MODE_ALIASES[args.mode or "exact-degree"] == "up-to-degree"
        spec = {"kind": "upto" if upto else "homogeneous", "N": args.N, "d": args.d}
    elif (args.N, args.d, args.mode) != (None, None, None):
        raise UsageError("exact takes --family or --N/--d/--mode, not both")
    else:
        spec = parse_family_spec(args.family)
    lam, method, fam_doc = lambda_of_spec(spec, threads=threads)
    doc = {
        "lambda": _fraction_doc(lam),
        "float": float(lam),
        "method": method,
        "family": fam_doc,
    }
    _emit(doc, args.format, args.out, _kv_rows(doc))
    return EXIT_OK


def _cmd_mc(args) -> int:
    threads = _threads(args)
    family = make_family(parse_family_spec(args.family))
    est = lambda_mc(family, samples=args.samples, seed=args.seed, threads=threads)
    doc = {
        "method": "mc",
        "mean": est.mean,
        "stderr": est.stderr,
        "ci95": [est.ci95[0], est.ci95[1]],
        "samples": est.samples,
        "seed": est.seed,
        "family": family.to_json_dict(),
    }
    _emit(doc, args.format, args.out, _kv_rows(doc))
    return EXIT_OK


def _cmd_limit(args) -> int:
    doc = {
        "d": args.d,
        "limit": limit_constant(args.d),
        "normalized": normalized_limit_constant(args.d),
    }
    if args.N:
        series = []
        for n in args.N:
            lam = lambda_level_exact(n, args.d, mode="exact-degree")
            series.append({"N": n, "ratio": float(lam) / n ** (args.d / 2)})
        doc["series"] = series
    _emit(doc, args.format, args.out, _kv_rows(doc))
    return EXIT_OK


def _cmd_table(args) -> int:
    rows_doc = []
    for d in range(2, 7):
        rows_doc.append(
            {
                "d": d,
                "limit_constant": limit_constant(d),
                "normalized": normalized_limit_constant(d),
                "reference_value": _TABLE_REFERENCE[d] / d ** 0.25,
            }
        )
    header = ["d", "limit_constant", "normalized", "reference_value"]
    rows = [
        [str(r["d"]), _float_cell(r["limit_constant"]), _float_cell(r["normalized"]),
         _float_cell(r["reference_value"])]
        for r in rows_doc
    ]
    _emit({"rows": rows_doc}, args.format, args.out, (header, rows))
    return EXIT_OK


def _cmd_sidon(args) -> int:
    family = make_family(parse_family_spec(args.family))
    result = sidon_exact(family, max_orthants=args.max_orthants)
    doc = {
        "value": result.value,
        "witness": list(result.witness.coeffs),
        "orthants_solved": result.orthants_solved,
        "family": family.to_json_dict(),
    }
    _emit(doc, args.format, args.out, _kv_rows(doc))
    return EXIT_OK


def _cmd_kappa(args) -> int:
    doc = {"kappa": kappa_constant(tol=args.tol), "tol": args.tol}
    _emit(doc, args.format, args.out, _kv_rows(doc))
    return EXIT_OK


def _report_doc(report) -> dict:
    return {
        "name": report.name,
        "lhs": _jsonable(report.lhs),
        "rhs": _jsonable(report.rhs),
        "pass": report.passed,
        "context": _jsonable(report.context),
    }


def _cmd_verify(args) -> int:
    if args.suite == "combinatorics":
        # one pass yields the written document and the reports behind the exit code
        reports, doc = _combinatorics_checks(args.max_n)
        _emit(doc, args.format, args.out, None)
    else:
        reports = run_suite(
            args.suite,
            max_n=args.max_n,
            mckay_max_n=args.mckay_max_n,
            desigforo_max_n=args.desigforo_max_n,
            klimek_trials=args.trials,
            seed=args.seed,
        )
        doc = [_report_doc(r) for r in reports]
        header = ["name", "lhs", "rhs", "pass", "context"]
        rows = [
            [
                r["name"],
                json.dumps(r["lhs"], sort_keys=True),
                json.dumps(r["rhs"], sort_keys=True),
                str(r["pass"]).lower(),
                json.dumps(r["context"], sort_keys=True),
            ]
            for r in doc
        ]
        _emit(doc, args.format, args.out, (header, rows))
    failed = any(not r.passed for r in reports)
    return EXIT_VERIFY if failed else EXIT_OK


def _cmd_families(args) -> int:
    family = make_family(parse_family_spec(args.family))
    doc = family.to_json_dict()
    doc["size"] = len(family.masks)
    doc["sets"] = [sorted(mask.elements()) for mask in family.sets]
    _emit(doc, args.format, args.out, _kv_rows(doc))
    return EXIT_OK


def _cmd_primes(args) -> int:
    threads = _threads(args)
    report = prime_singleton_report(args.N)
    doc = {
        "prime_singletons": {
            "lambda": report.lam,
            "ratio": report.ratio,
            "prime_count": report.prime_count,
            "N": args.N,
        },
        "squarefree": None,
    }
    if args.N >= 16:
        sq = squarefree_mc(args.N, samples=args.samples, seed=args.seed, threads=threads)
        doc["squarefree"] = {
            "mean": sq.estimate.mean,
            "stderr": sq.estimate.stderr,
            "ratio": sq.ratio,
            "family_size": sq.family_size,
            "exact": None if sq.exact is None else _fraction_doc(sq.exact),
            "agrees_with_exact": sq.agrees_with_exact,
        }
    _emit(doc, args.format, args.out, _kv_rows(doc))
    return EXIT_OK


# ------------------------------------------------------------------- parser


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cube-constants",
        description="Projection and Sidon constants of Boolean-cube function spaces.",
    )

    output = _Parser(add_help=False)
    output.add_argument("--format", choices=("json", "csv"), default="json")
    output.add_argument("--out", metavar="PATH", default=None)

    threaded = _Parser(add_help=False)
    threaded.add_argument(
        "--threads", type=int, default=None,
        help="worker threads (default: cpu count)",
    )

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("exact", parents=[output, threaded],
                       help="exact projection constant of a family")
    p.add_argument("--family", default=None,
                   help="homog:N:d | upto:N:d | primes:N | sqfree:N | file:<path>")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--mode", choices=("exact-degree", "up-to-degree", "exact", "upto"),
                   default=None)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("mc", parents=[output, threaded],
                       help="Monte Carlo projection constant estimate")
    p.add_argument("--family", required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("limit", parents=[output],
                       help="Hermite-moment limit constant for one degree")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=_int_list, default=None,
                   help="comma-separated list; adds exact ratios lambda/N^(d/2)")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("table", help="limit constants for degrees 2..6")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("sidon", parents=[output],
                       help="exact Sidon constant by orthant LPs")
    p.add_argument("--family", required=True)
    p.add_argument("--max-orthants", type=int, default=1 << 16)
    p.set_defaults(func=_cmd_sidon)

    p = sub.add_parser("kappa", parents=[output],
                       help="prime sinc-product constant")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("verify", parents=[output],
                       help="run a bounds verification suite")
    p.add_argument("--suite", required=True,
                   choices=("range", "mckay", "desigforo", "klimek",
                            "combinatorics", "all"))
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--mckay-max-n", type=int, default=4001)
    p.add_argument("--desigforo-max-n", type=int, default=200)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("families", parents=[output],
                       help="materialize a family as JSON")
    p.add_argument("--family", required=True)
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("primes", parents=[output, threaded],
                       help="prime-singleton and square-free growth reports")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_primes)

    return parser


def main(argv=None) -> int:
    # exact rationals such as exact --N 100000 --d 2 run to 30000+ digits;
    # the CLI owns its process, so lift the int/str conversion cap for good
    sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"cube-constants: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CubeError as exc:
        print(f"cube-constants: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
