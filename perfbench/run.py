"""Benchmark: play one workload's request stream against cube_constants.

    python3 perfbench/run.py --workload sidon-sweep --seed 1 --seconds 30 --trace 0

Run from a checkout: the package is imported from its src/ directory.  One
client sends each request after the previous answer (a closed loop), in
whole rounds of the workload's stream; another round starts only while it
is expected to end within --seconds.  Every answer is checked after the
rounds, outside the timed part.  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics.  --trace 1 plays
one untraced and one traced round and reports the per-layer metrics.
--workload all runs every workload, each in its own process; --list prints
the requests a seed gives instead of serving them.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import streams  # noqa: E402
import tracing  # noqa: E402

def percentile(values, q: float) -> float:
    """Linear interpolation between the order statistics around q."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def import_package():
    if not (SRC / "cube_constants" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'cube_constants'}")
    sys.path.insert(0, str(SRC))
    import cube_constants

    for layer in tracing.LAYERS:
        importlib.import_module(f"cube_constants.{layer}")

    if Path(cube_constants.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: imported cube_constants from {cube_constants.__file__}")
    return cube_constants


def play_round(cc, stream, out_path, tracer=None):
    """Serve every request once; returns (wall, latencies, answers, errors)."""
    latencies, answers, errors = [], {}, {}
    start = time.perf_counter()
    for i, req in enumerate(stream):
        if tracer is not None:
            tracer.request = i
        t = time.perf_counter()
        try:
            answers[i] = streams.serve(cc, req, out_path)
        except Exception as exc:  # a failed request is counted, not fatal
            errors[i] = f"{type(exc).__name__}: {str(exc)[:160]}"
        latencies.append(time.perf_counter() - t)
    return time.perf_counter() - start, latencies, answers, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cc = import_package()
    stream = streams.STREAMS[name](seed)
    setup_s = time.perf_counter() - T0
    WORK.mkdir(exist_ok=True)
    out_path = str(WORK / f"cli-{name}.out")

    walls, latencies, rounds = [], [], []
    tracer = tracing.Tracer(cc) if trace else None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) == 1
        if traced:
            tracer.install()
        try:
            wall, lat, answers, errors = play_round(cc, stream, out_path,
                                                    tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        walls.append(wall)
        latencies += lat
        rounds.append((answers, errors))
        if trace:
            if len(rounds) == 2:
                break
        elif time.perf_counter() - start + wall > seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(stream) * len(rounds)
    failed = sum(len(errors) for _, errors in rounds)
    first, problems = rounds[0][0], []
    for answers, _ in rounds[1:]:
        for i, out in answers.items():
            if i in first and not checks.same_answer(first[i], out):
                problems.append(f"{stream[i].label()}: answer changed between rounds")
    problems += checks.check_served(cc, stream, first, seed)
    for i, err in sorted(rounds[0][1].items()):
        print(f"perfbench: failed {stream[i].label()}: {err}", file=sys.stderr)
    for p in problems[:30]:
        print(f"perfbench: CHECK {p}", file=sys.stderr)

    if trace:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = (walls[1] - walls[0], "s")
        tag = f"{name}-seed{seed}"
        tracer.dump(str(WORK / f"trace-{tag}.jsonl"))
        lp = tracing.lp_counts_by_request(tracer.spans)
        with open(WORK / f"trace-{tag}-lps.json", "w", encoding="utf-8") as handle:
            json.dump({stream[i].label(): c for i, c in sorted(lp.items())}, handle, indent=1)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "latency_p50_s": (percentile(latencies, 0.5), "s"),
            "latency_p90_s": (percentile(latencies, 0.9), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    for key, (value, unit) in metrics.items():
        print(f"perfbench: {name} {key} = {value:.6g} {unit}", file=sys.stderr)
    print(f"perfbench: {name} rounds={len(rounds)} requests/round={len(stream)} "
          f"attempted={attempted} failed={failed} problems={len(problems)}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, so each set-up is cold."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in streams.STREAMS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
        print(f"{name:18s} attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}", file=sys.stderr)
        for key, metric in result["metrics"].items():
            print(f"  {key:44s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*streams.STREAMS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print the workload's requests for this seed and exit")
    args = parser.parse_args()
    if args.list:
        names = streams.STREAMS if args.workload == "all" else [args.workload]
        for name in names:
            for req in streams.STREAMS[name](args.seed):
                print(f"{name}\t{req.label()}")
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
