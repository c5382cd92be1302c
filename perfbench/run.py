#!/usr/bin/env python3
"""Build and run the RAHTM repository benchmark.

One run of one workload:

    python3 perfbench/run.py --workload cube32-cg --seed 1 --seconds 25 \
        --trace 0

builds perfbench/ (and the RAHTM libraries it links) into .bench_build/ at
the repository root, runs the workload, checks its outputs against
perfbench/expected.json, and prints one JSON line as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Every workload, as a table:   python3 perfbench/run.py --all [--trace 1]
Re-record expected outputs:   python3 perfbench/run.py --record
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
RUN_TIMEOUT_S = 175


def build_dir():
    # CARGO_TARGET_DIR, when set, overrides the build directory.
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure once, then build the benchmark binary (no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: RAHTM sources (src/) not found next to perfbench/")
    out = build_dir()
    quiet = {"stdout": sys.stderr, "check": True}
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"], **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "perfbench_rahtm"], **quiet)
    return os.path.join(out, "perfbench_rahtm")


def run_binary(binary, workload, seed, seconds, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def finish(raw, workload, trace, spec, expected):
    """Turn the binary's record into the benchmark's result line."""
    problems = []
    want = expected.get(workload, {})
    got = raw["outputs"]
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            problems.append(f"output {key}: expected {want.get(key)}, "
                            f"got {got.get(key)}")

    listed = spec["per_layer" if trace else "end_to_end"]
    produced = raw["metrics"]
    metrics = {}
    for m in listed:
        name = m["name"]
        if name in produced:
            if produced[name]["unit"] != m["unit"]:
                problems.append(f"metric {name}: unit "
                                f"{produced[name]['unit']} != {m['unit']}")
            metrics[name] = {"value": produced[name]["value"],
                             "unit": m["unit"]}
        elif trace:
            # A layer this workload does not exercise.
            metrics[name] = {"value": 0.0, "unit": m["unit"]}
        else:
            problems.append(f"metric {name} missing")
    unknown = sorted(set(produced) - {m["name"] for m in listed})
    if unknown:
        problems.append("metrics not in BENCHMARK.json: " + ", ".join(unknown))
    for p in problems:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)
    # Every mismatch counts as one failed check on top of the workload's own.
    failed = raw["failed"] + len(problems)
    return {"correct": failed == 0, "attempted": raw["attempted"],
            "failed": failed, "metrics": metrics}


def print_table(workload, result, spec, trace):
    rows = spec["per_layer" if trace else "end_to_end"]
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"== {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed_frac={failed_frac:g}")
    for m in rows:
        v = result["metrics"][m["name"]]
        print(f"  {m['name']:<36} {v['value']:>16.6g} {v['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print a table")
    ap.add_argument("--record", action="store_true",
                    help="write every workload's outputs to expected.json")
    args = ap.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()

    if args.record:
        recorded = {w: run_binary(binary, w, args.seed, 1, 0)["outputs"]
                    for w in names}
        with open(EXPECTED, "w") as f:
            json.dump(recorded, f, indent=2, sort_keys=True)
            f.write("\n")
        return 0

    expected = load_json(EXPECTED)
    if args.all:
        ok = True
        for w in names:
            result = finish(run_binary(binary, w, args.seed, seconds,
                                       args.trace), w, args.trace, spec,
                            expected)
            print_table(w, result, spec, args.trace)
            ok = ok and result["correct"]
        return 0 if ok else 1

    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    raw = run_binary(binary, args.workload, args.seed, seconds, args.trace)
    result = finish(raw, args.workload, args.trace, spec, expected)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
