#!/usr/bin/env python3
"""The end-to-end benchmark's one command.

Builds bench_e2e from this checkout into .bench_build/ and runs its
workloads, each in its own process with the pinned environment
(FTMS_THREADS = min(4, nproc), AVX2 XOR and P+Q kernels, calendar event
queue).

  run.py                                  every workload once: all metrics
  run.py --trace 1                        ... traced: per-layer metrics too
  run.py --workload W --seed N --seconds S --trace 0|1
                                          one run; the last line of stdout
                                          is the JSON result
  run.py --reps N [--out runs.json]       every workload on seeds 1..N:
                                          median, quartiles, spread
  run.py --compare base.json head.json    applies BENCHMARK.json's bounds
  run.py --smoke                          quick self-check at --scale 0.05

Exits 1 on any correctness violation (byte mismatch, datapath failure,
API error, nondeterminism, trace coverage below 0.95) or regression, and
2 when the benchmark cannot be built.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench_e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 0.05


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def worker_threads():
    return min(4, os.cpu_count() or 1)


def pinned_env(threads=None, queue="calendar"):
    env = {k: v for k, v in os.environ.items() if not k.startswith("FTMS_")}
    env.update(FTMS_THREADS=str(threads or worker_threads()),
               FTMS_XOR_KERNEL="avx2", FTMS_PQ_KERNEL="avx2",
               FTMS_EVENT_QUEUE=queue)
    return env


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: no ftms sources (src/CMakeLists.txt) in", ROOT)
        sys.exit(2)
    jobs = str(worker_threads())
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build failed:", " ".join(step))
            sys.exit(2)


def run_once(workload, seed, seconds, trace, scale=None, drills=None,
             env=None):
    """Runs bench_e2e once; returns its JSON object (None if it crashed)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", str(BUILD / f"trace_{workload}.json")]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    if drills is not None:
        cmd += ["--drills", str(drills)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env or pinned_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run.py: {workload} exited {proc.returncode} without a result")
        return None


def select(result, trace):
    """The BENCHMARK.json metrics of one run, checked for presence/unit."""
    spec = SPEC["per_layer" if trace else "end_to_end"]
    metrics, problems = {}, []
    for m in spec:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} in {got['unit']}, "
                            f"not {m['unit']}")
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics, problems


def print_table(result, trace):
    print(f"== {result['workload']}  seed {result['seed']}  scale "
          f"{result['scale']}  drills {result['drills']}  env "
          + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    spec = SPEC["end_to_end"] + (SPEC["per_layer"] if trace else [])
    for m in spec:
        got = result["metrics"].get(m["name"], {})
        print(f"  {m['name']:<28} {got.get('value', float('nan')):>16.6g} "
              f"{m['unit']:<13} n={got.get('samples', 0)}")
    for error in result["errors"]:
        print("  ERROR:", error)


def contract_run(args):
    result = run_once(args.workload, args.seed, args.seconds, args.trace,
                      args.scale)
    if result is None:
        return 1
    print_table(result, args.trace)
    metrics, problems = select(result, args.trace)
    for p in problems:
        print("  ERROR:", p)
    correct = result["correct"] and result["failed"] == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def all_workloads(args):
    ok = True
    for workload in WORKLOADS:
        result = run_once(workload, args.seed, args.seconds, args.trace,
                          args.scale)
        if result is None:
            ok = False
            continue
        print_table(result, args.trace)
        problems = select(result, args.trace)[1]
        for p in problems:
            print("  ERROR:", p)
        ok = ok and result["correct"] and not problems
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def reps(args):
    runs = {"env": None, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        values = {m["name"]: [] for m in SPEC["end_to_end"]}
        for seed in range(1, args.reps + 1):
            result = run_once(workload, seed, args.seconds, False, args.scale)
            if result is None or not result["correct"]:
                ok = False
                log(f"run.py: {workload} seed {seed} failed:",
                    result and result["errors"])
                continue
            runs["env"] = result["env"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        runs["workloads"][workload] = values
        print(f"== {workload} ({args.reps} seeds)")
        print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in SPEC["end_to_end"]:
            v = values[m["name"]]
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {m['name']:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.3f} {m['bound']:>6}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


def compare(base_path, head_path):
    base = json.loads(Path(base_path).read_text())
    head = json.loads(Path(head_path).read_text())
    if base["env"] != head["env"]:
        log("run.py: environments differ:", base["env"], head["env"])
    regressions = 0
    print(f"{'workload':<20} {'metric':<22} {'base':>12} {'head':>12} "
          f"{'worse':>8} {'bound':>6}  verdict")
    for workload in WORKLOADS:
        for m in SPEC["end_to_end"]:
            b = base["workloads"].get(workload, {}).get(m["name"], [])
            h = head["workloads"].get(workload, {}).get(m["name"], [])
            if not b or not h:
                print(f"{workload:<20} {m['name']:<22} missing")
                regressions += 1
                continue
            sign = 1 if m["better"] == "lower" else -1
            bq1, bmed, bq3 = quartiles(b)
            hq1, hmed, hq3 = quartiles(h)
            worse = sign * (hmed - bmed) / bmed
            spread = max((bq3 - bq1) / bmed, (hq3 - hq1) / hmed)
            always_better = max(sign * x for x in h) < min(sign * x for x in b)
            if spread > m["bound"] and not always_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif worse < -spread:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{workload:<20} {m['name']:<22} {bmed:>12.6g} "
                  f"{hmed:>12.6g} {worse:>8.3f} {m['bound']:>6}  {verdict}")
    return 1 if regressions else 0


def smoke():
    """Every workload at a small scale: zero mismatches, every metric
    present, and identical counts at 1 vs N threads and heap vs calendar."""
    configs = [("threads=1", pinned_env(1)),
               (f"threads={worker_threads()}", pinned_env()),
               ("heap", pinned_env(queue="heap"))]
    failures = 0
    for workload in WORKLOADS:
        counts, problems = {}, []
        for name, env in configs:
            trace = name == "heap"  # one traced run covers the per-layer set
            result = run_once(workload, 1, 0, trace, SMOKE_SCALE, 1, env)
            if result is None:
                problems.append(f"[{name}] no result")
                continue
            found = list(result["errors"]) + select(result, False)[1]
            if trace:
                found += select(result, True)[1]
            if result["failed"]:
                found.append("byte mismatches or failed operations")
            problems += [f"[{name}] {p}" for p in found]
            counts[name] = result["counts"]
        if len({json.dumps(c, sort_keys=True) for c in counts.values()}) > 1:
            problems.append("counts differ across threads / event queues")
        for p in problems:
            print(f"{workload}: ERROR {p}")
        print(f"{workload}: {'FAILED' if problems else 'ok'} "
              f"({len(counts)} configurations agree)")
        failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    build()
    if args.smoke:
        return smoke()
    if args.reps:
        return reps(args)
    if args.workload:
        return contract_run(args)
    return all_workloads(args)


if __name__ == "__main__":
    sys.exit(main())
