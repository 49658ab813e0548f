"""Smoke test of the benchmark itself; exits non-zero on the first problem.

    python3 perfbench/smoke.py

Runs every workload at the tiny size, untraced and traced, and checks
that each result line names exactly the metrics of `BENCHMARK.json`
with their units, that every end-to-end value is a positive number,
and that another seed changes the inputs but not the metric names.
Last, it copies only `BENCHMARK.json` and the benchmark's files into a
bare directory and checks that the benchmark refuses to run there.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RECORDS = os.path.join(HERE, "out", "records")


def fail(message):
    print(f"smoke: FAIL: {message}")
    sys.exit(1)


def run(workload, seed, trace, cwd=ROOT, run_py=RUN):
    cmd = [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)


def result_of(workload, seed, trace, spec):
    proc = run(workload, seed, trace)
    if proc.returncode != 0:
        fail(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: "
             f"{proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{workload} seed {seed} trace {trace}: incorrect: {proc.stderr.strip()}")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        fail(f"{workload}: attempted {result['attempted']} failed {result['failed']}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(wanted))} "
             f"differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or (not trace and value <= 0):
            fail(f"{workload}: {name} = {value!r}")
    path = os.path.join(RECORDS, f"{workload}-tiny-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        record = json.load(fh)
    return result, record


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        first, rec1 = result_of(workload, 1, 0, spec)
        second, rec2 = result_of(workload, 2, 0, spec)
        if rec1["input_sha256"] == rec2["input_sha256"]:
            fail(f"{workload}: seeds 1 and 2 gave the same inputs")
        if set(first["metrics"]) != set(second["metrics"]):
            fail(f"{workload}: the seed changed the metric names")
        _, traced = result_of(workload, 1, 1, spec)
        if traced["model_sha256"] != rec1["model_sha256"]:
            fail(f"{workload}: traced model files differ from untraced ones")
        print(f"smoke: ok {workload}: {first['attempted']} attempted, "
              f"{first['failed']} failed")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(workloads[0], 1, 0, cwd=bare,
                   run_py=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"ran without the program: exit {proc.returncode}, "
             f"stdout {proc.stdout.strip()[:200]!r}")
    print("smoke: ok: no result without the program")


if __name__ == "__main__":
    main()
