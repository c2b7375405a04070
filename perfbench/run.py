#!/usr/bin/env python3
"""Build the repo benchmark in Release and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The program is configured from perfbench/CMakeLists.txt into
.bench_build/perfbench (the repo's own CMake files are not involved) and
rebuilt incrementally on every call; build output goes to stderr. A run's
stdout is the program's manifest and table, then one JSON line whose metric
names and units must match BENCHMARK.json. --self-test runs the program's
seeded-fault self-test and a one-second run of every workload in both modes.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(src):
        fail(f"no library sources at {src}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def revision():
    """The git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "no-git"
    if os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return f"{commit}+src:{digest.hexdigest()[:12]}"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace, echo=True):
    """Run the program once; return its checked result object."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", revision()]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=4 * seconds + 120)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: timed out")  # subprocess.run has killed and reaped it
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload}: program exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        fail(f"{workload}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"unit mismatches {sorted(k for k in got if k in want and got[k] != want[k])}")
    if echo:
        print("\n".join(lines))
    return result


def self_test():
    if subprocess.run([BINARY, "--self-test"]).returncode != 0:
        fail("self-test: a check did not catch its seeded fault")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for name in workloads:
        for trace in (0, 1):
            result = run(name, 1, 1, trace, echo=False)
            if not result["correct"] or result["failed"] != 0:
                fail(f"self-test: {name} --trace {trace} did not pass its checks")
            print(f"self-test {name} --trace {trace}: ok, metric names match BENCHMARK.json")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.self_test:
        self_test()
    else:
        run(a.workload, a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    main()
