#!/usr/bin/env python3
"""Build psld and bench_layers from this checkout, then run the benchmark.

    python3 bench/layers/run.py [--workload NAME] [--seed N] [--seconds S]
                                [--trace 0|1] [--smoke]
    python3 bench/layers/run.py --runs N --ledger OUT.json [--seed N] [--seconds S]
    python3 bench/layers/run.py --compare BASE.json NEW.json

The first form builds (into .bench_build/ at the repository root) and runs
bench_layers; without --workload it runs all five workloads. The last line
of its output is the result JSON when one workload ran. --runs records a
ledger of N runs per workload (seeds SEED, SEED+1, ...) with medians and
quartiles, as bench/layers/baseline.json was recorded. --compare prints one
row per (workload, metric) with its bound and a verdict.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build" / "layers"
OUT = ROOT / ".bench_build" / "out"
BENCH = BUILD / "bench_layers"
PSLD = BUILD / "psl" / "examples" / "psld"

# Ledger-only metrics (not in BENCHMARK.json, because not every workload
# has them or they do not repeat within a bound) and their bounds.
EXTRA_BOUNDS = {
    "p99_us": 0.25,
    "records_per_s": 0.25,
    "reload_ms": 0.25,
    "divergence_p50_us": 0.25,
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        log(f"run.py: no CMakeLists.txt at {ROOT}; psld cannot be built here")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "bench" / "layers"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "bench_layers", "psld", "-j", jobs],
        check=True, stdout=sys.stderr)


def bench_args(args):
    out = ["--psld", str(PSLD), "--out", str(OUT), "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        out += ["--trace", "1"]
    if args.smoke:
        out.append("--smoke")
    return out


def record(args):
    """N runs per workload into one ledger of medians and quartiles."""
    workloads = [args.workload] if args.workload else [
        "zipf_hot", "cold_flood", "single_udp", "time_travel", "mixed_rw"]
    ledger = None
    merged = {}
    for name in workloads:
        runs = []
        for i in range(args.runs):
            cmd = [str(BENCH)] + bench_args(args) + ["--workload", name]
            cmd[cmd.index("--seed") + 1] = str(args.seed + i)
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log(f"run.py: {name} run {i} failed")
                sys.exit(1)
            one = json.loads((OUT / "BENCH_layers.json").read_text())
            ledger = ledger or one
            runs.append(one["workloads"][0])
        entry = dict(runs[0])
        entry["attempted"] = sum(r["attempted"] for r in runs)
        entry["failed"] = sum(r["failed"] for r in runs)
        entry["wrong_answers"] = sum(r["wrong_answers"] for r in runs)
        entry["runs"] = len(runs)
        entry.pop("rows", None)
        for metric, m in entry["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            entry["metrics"][metric] = dict(m, value=statistics.median(values), q1=q[0], q3=q[2],
                                            runs=values)
        merged[name] = entry
    ledger["workloads"] = list(merged.values())
    ledger["seed"] = args.seed
    Path(args.ledger).write_text(json.dumps(ledger, indent=1) + "\n")
    log(f"run.py: wrote {args.ledger}")


def spread(m):
    return (m.get("q3", m["value"]) - m.get("q1", m["value"])) / m["value"] if m["value"] else 0.0


def compare(base_path, new_path):
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    for key in ("hardware_threads", "build_type"):
        if base["env"].get(key) != new["env"].get(key):
            print(f"refusing to compare: {key} differs "
                  f"({base['env'].get(key)} vs {new['env'].get(key)})")
            return 2
    bounds = dict(EXTRA_BOUNDS)
    bench_json = ROOT / "BENCHMARK.json"
    if bench_json.is_file():
        for m in json.loads(bench_json.read_text())["end_to_end"]:
            bounds[m["name"]] = m["bound"]
    old = {w["name"]: w for w in base["workloads"]}
    status = 0
    print(f"{'workload':12} {'metric':18} {'base':>14} {'new':>14} {'change':>8} "
          f"{'bound':>6}  verdict")
    for w in new["workloads"]:
        b = old.get(w["name"])
        if not b:
            continue
        for metric, n in w["metrics"].items():
            if metric not in b["metrics"]:
                continue
            o = b["metrics"][metric]
            if metric == "error_rate":
                verdict = "worse" if n["value"] > o["value"] else "same"
                bound = 0.0
            elif metric in bounds and o["value"]:
                bound = bounds[metric]
                higher = n.get("better") == "higher"
                worse = (o["value"] - n["value"]) / o["value"] if higher else \
                    (n["value"] - o["value"]) / o["value"]
                new_runs, old_runs = n.get("runs", [n["value"]]), o.get("runs", [o["value"]])
                all_better = (min(new_runs) > max(old_runs)) if higher else \
                    (max(new_runs) < min(old_runs))
                if max(spread(n), spread(o)) > bound and not all_better:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "worse"
                elif worse < -bound:
                    verdict = "better"
                else:
                    verdict = "same"
            else:
                continue
            change = f"{(n['value'] - o['value']) / o['value']:+8.1%}" if o["value"] else " " * 8
            print(f"{w['name']:12} {metric:18} {o['value']:14.4f} {n['value']:14.4f} "
                  f"{change} {bound:6.2f}  {verdict}")
            if verdict == "worse":
                status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=0)
    parser.add_argument("--ledger")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()

    if args.compare:
        sys.exit(compare(*args.compare))
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"run.py: build failed: {e}")
        sys.exit(2)
    if args.runs:
        if not args.ledger:
            parser.error("--runs needs --ledger")
        record(args)
        return
    cmd = [str(BENCH)] + bench_args(args)
    if args.workload:
        cmd += ["--workload", args.workload]
    sys.stdout.flush()
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    main()
