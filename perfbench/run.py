#!/usr/bin/env python3
"""The repository benchmark: one command that builds the simulator, runs a
workload and prints its metrics.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --sweep --seeds 1-10 [--workloads a,b] [--seconds s] [--trace t]

Run from the repository root.  The first call configures and builds
perfbench/ (the simulator libraries from src/ plus the measuring program)
under .bench_build/; later calls only rebuild what changed.  Each run is one
process of the measuring program; it prints its human-readable report, and
this wrapper prints the result JSON as the last line of stdout.

Beyond the program's own gates (identical simulated outputs across the runs
of one invocation, job conservation, a repeatable audit digest), the wrapper
keeps the fingerprint of each workload and seed under .bench_build/refs/ and
fails a later run whose simulated outputs differ from an earlier one's.

--selftest builds, runs the program's unit checks, then a reduced-size run of
every workload in both modes, and checks that each emits exactly the metrics
BENCHMARK.json names, with their units.

--sweep runs seeds x workloads, one process at a time with the workloads
interleaved, and prints each metric's median, quartiles, n and spread
(interquartile range over median) against the bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"
# A run may overrun --seconds by the last whole run it starts before its
# deadline (a tenant-chaos trace round is three runs) and its set-up batches.
RUN_MARGIN_S = 120
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the measuring program; exits 1 on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        sys.exit(1)
    out = BUILD / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            log("build failed")
            sys.exit(1)


def child_env():
    env = dict(os.environ)
    # The auditor must be attached only where a workload asks for it.
    env.pop("EANT_AUDIT", None)
    return env


def run_once(workload, seed, seconds, trace, reduced=False):
    """Runs the measuring program once; returns (exit code, report lines,
    result dict or None).  `reduced` shrinks the workload for the self-test."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if reduced:
        cmd += ["--size", "reduced"]
    timeout = seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout:g} s")
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        result = None
    return proc.returncode, lines, result


def fingerprint(lines):
    for line in lines:
        if line.startswith("fingerprint: "):
            return line.split(": ", 1)[1].strip()
    return None


def check_reference(workload, seed, fp):
    """Compares this run's simulated-output fingerprint with the first one
    recorded for the same workload and seed."""
    if fp is None:
        return False
    ref = BUILD / "refs" / f"{workload}-seed{seed}.txt"
    if ref.is_file():
        return ref.read_text().strip() == fp
    ref.parent.mkdir(parents=True, exist_ok=True)
    ref.write_text(fp + "\n")
    return True


def cmd_run(args):
    build()
    code, lines, result = run_once(args.workload, args.seed, args.seconds,
                                   args.trace)
    for line in lines:
        print(line)
    if result is None:
        log(f"the measuring program exited {code} without a result")
        sys.exit(code or 1)
    if not check_reference(args.workload, args.seed, fingerprint(lines)):
        print("CHECK FAILED: simulated outputs differ from an earlier run "
              "of this workload and seed")
        result["correct"] = False
    out = BUILD / "results" / (f"{args.workload}-seed{args.seed}-"
                               f"trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    sys.exit(0 if code == 0 and result["correct"] else 1)


def expected_metrics(trace):
    s = spec()
    return {m["name"]: m["unit"]
            for m in (s["per_layer"] if trace else s["end_to_end"])}


def cmd_selftest(_args):
    build()
    failures = 0
    proc = subprocess.run([str(BINARY), "--selftest"], text=True,
                          stdout=subprocess.PIPE)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        failures += 1
    for workload in (w["name"] for w in spec()["workloads"]):
        for trace in (0, 1):
            code, _, result = run_once(workload, 1, 0.5, trace, reduced=True)
            want = expected_metrics(trace)
            got = ({k: v.get("unit") for k, v in result["metrics"].items()}
                   if result else {})
            ok = (code == 0 and result is not None and result["correct"]
                  and got == want
                  and all(isinstance(v.get("value"), (int, float))
                          for v in result["metrics"].values()))
            print(f"{'ok  ' if ok else 'FAIL'}: reduced {workload} "
                  f"--trace {trace} emits every named metric with its unit")
            if not ok:
                failures += 1
                for name in sorted(set(want) ^ set(got)):
                    print(f"      missing or extra: {name}")
                for name in sorted(set(want) & set(got)):
                    if want[name] != got[name]:
                        print(f"      unit of {name}: {got[name]} != "
                              f"{want[name]}")
    sys.exit(1 if failures else 0)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_sweep(args):
    build()
    s = spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in s["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in s["end_to_end"]}
    seconds = args.seconds or s["run_seconds"]
    samples = {w: {} for w in workloads}
    failed = 0
    for seed in parse_seeds(args.seeds):
        for workload in workloads:  # interleaved: never two runs at once
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            took = time.monotonic() - t0
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            ok = proc.returncode == 0 and result and result["correct"]
            failed += 0 if ok else 1
            log(f"seed {seed} {workload}: {'ok' if ok else 'FAILED'} "
                f"in {took:.1f} s")
            if result:
                for name, m in result["metrics"].items():
                    samples[workload].setdefault(name, []).append(m["value"])
    summary = {}
    print(f"{'workload':<20} {'metric':<32} {'median':>13} {'q1':>13} "
          f"{'q3':>13} {'n':>3} {'spread':>8} {'bound':>6}")
    for workload in workloads:
        for name, values in samples[workload].items():
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
            print(f"{workload:<20} {name:<32} {med:>13.6g} {q1:>13.6g} "
                  f"{q3:>13.6g} {len(values):>3} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            summary.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "n": len(values),
                "spread": spread, "values": values}
    out = BUILD / "sweeps" / f"sweep-trace{args.trace}-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    log(f"wrote {out}")
    sys.exit(1 if failed else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads")
    args = p.parse_args()
    os.chdir(ROOT)
    if args.selftest:
        cmd_selftest(args)
    elif args.sweep:
        cmd_sweep(args)
    else:
        if not args.workload or args.seconds is None:
            p.error("--workload and --seconds are required")
        cmd_run(args)


if __name__ == "__main__":
    main()
