"""Benchmark for l2s: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload tagging-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run writes its inputs from `--seed`, loads them through the program
(set-up), then repeats whole rounds of the workload's operations until
`--seconds` have passed, checking every round's outputs.  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`.  With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` the run first makes one untraced round, then installs
span wrappers around the program's public functions and reports the
per-layer metrics, per traced round.  Every run also writes a run record
(versions, seed, counts, input and model file hashes) under
`perfbench/out/`.  `--workload all` runs every workload in turn, each in
its own process.  Times are CPU seconds of the workload's process (see
`workloads.clock`); only the run length `--seconds` is wall-clock time.

The program is imported from `src/` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
HASHES = os.path.join(HERE, "model_hashes.json")
WORKLOADS = ("tagging-grid", "parse-grid", "bandit-multiclass", "theory-checks")
SETUP_REPEATS = 5
# wall seconds between two import probes during the rounds
PROBE_EVERY = 2.0
# times the import of the modules named after the source directory
IMPORT_PROBE = ("import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.process_time(); "
                "[importlib.import_module(m) for m in sys.argv[2:]]; "
                "print(time.process_time() - t)")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_instances_per_s": "instances/s",
    "eval_tokens_per_s": "tokens/s",
    "bandit_rounds_per_s": "rounds/s",
    "bandit_round_ms_p50": "ms",
    "bandit_round_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics: values are per traced round unless noted
PER_LAYER = {
    "tasks.action_features.calls": "count",
    "tasks.action_features.self_s": "s",
    "tasks.action_features.distinct_ratio": "ratio",
    "tasks.transition.calls": "count",
    "tasks.transition.self_s": "s",
    "tasks.reference.calls": "count",
    "tasks.reference.self_s": "s",
    "tasks.io.read_s": "s",  # one traced set-up
    "sparse.dot.calls": "count",
    "sparse.dot.self_s": "s",
    "sparse.SparseFeatures.built": "count",
    "sparse.SparseFeatures.validate_s": "s",
    "sparse.hash_index.calls": "count",
    "sparse.hash_index.self_s": "s",
    "core.act.calls": "count",
    "core.act.self_s": "s",
    "core.execute.calls": "count",
    "core.execute.steps": "count",
    "trainer.process_example.calls": "count",
    "trainer.process_example.self_s": "s",
    "trainer.rollin.steps": "count",
    "trainer.rollout.calls": "count",
    "trainer.rollout.steps_reference": "count",
    "trainer.rollout.steps_learned": "count",
    "trainer.examples.informative_ratio": "ratio",
    "cslearn.update.calls": "count",
    "cslearn.update.self_s": "s",
    "cslearn.predict.calls": "count",
    "cslearn.predict.self_s": "s",
    "cslearn.policy.bytes_copied": "B",
    "cslearn.save.s": "s",
    "cslearn.load.s": "s",
    "bandit.explore.calls": "count",
    "bandit.explore.s": "s",
    "bandit.exploit.calls": "count",
    "bandit.exploit.s": "s",
    "bandit.pool_bytes": "B",  # largest pool of any session
    "experiment.load_dataset.s": "s",  # one traced set-up
    "experiment.train.s": "s",
    "experiment.evaluate.s": "s",
    "theory.state_distribution.calls": "count",
    "theory.state_distribution.self_s": "s",
    "theory.exact_Q.calls": "count",
    "theory.exact_Q.self_s": "s",
    "theory.run_training.s": "s",
    "theory.check_regret_bound.s": "s",
    "theory.check_difference_identity.s": "s",
    "theory.snake.s": "s",
    "trace.wall_s": "s",  # median traced round
    "trace.overhead_s": "s",  # trace.wall_s minus the untraced round
    "trace.spans": "count",
}

# counters kept by the tracer's hooks rather than by span aggregates
COUNTERS = ("core.execute.steps", "trainer.rollin.steps", "trainer.rollout.calls",
            "trainer.rollout.steps_reference", "trainer.rollout.steps_learned",
            "cslearn.policy.bytes_copied", "bandit.exploit.calls",
            "bandit.exploit.s")
# span aggregates that belong to set-up, not to a round
SETUP_SPANS = {"tasks.io.read_s": "tasks.io.read",
               "experiment.load_dataset.s": "experiment.load_dataset"}
ALIASES = {"sparse.SparseFeatures.built": "sparse.SparseFeatures.validate.calls",
           "sparse.SparseFeatures.validate_s": "sparse.SparseFeatures.validate.s"}


def layer_metrics(tracer, rounds, workload, traced_walls, untraced_wall):
    out = {}
    for name in PER_LAYER:
        key = ALIASES.get(name, name)
        span, _, field = key.rpartition(".")
        if name in SETUP_SPANS:
            value = tracer.stat(SETUP_SPANS[name])[1]
        elif name in COUNTERS:
            value = tracer.counters[name] / rounds
        elif field in ("calls", "self_s", "s"):
            calls, total, self_time = tracer.stat(span)
            value = {"calls": calls, "self_s": self_time, "s": total}[field] / rounds
        else:
            value = None
        out[name] = value
    builds = tracer.stat("tasks.action_features")[0]
    examples = tracer.counters["trainer.examples.total"]
    wall = statistics.median(traced_walls)
    out.update({
        "tasks.action_features.distinct_ratio":
            tracer.distinct_states / builds if builds else 0.0,
        "trainer.examples.informative_ratio":
            tracer.counters["trainer.examples.informative"] / examples
            if examples else 0.0,
        "bandit.pool_bytes": float(getattr(workload, "pool_bytes", 0)),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.spans": tracer.span_count() / rounds,
    })
    missing = [k for k, v in out.items() if v is None]
    if missing:
        raise RuntimeError(f"no rule for per-layer metrics {missing}")
    return out


def git_sha():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def reference_hashes(size, workload, seed):
    try:
        with open(HASHES) as fh:
            table = json.load(fh)
    except (OSError, ValueError):
        return None
    return table.get(size, {}).get(workload, {}).get(str(seed))


def import_seconds(modules):
    """CPU time to import `modules` in a fresh interpreter.

    One import is too short and too exposed to the machine to compare
    across runs, so a run repeats it in a child process after each round
    and keeps the fastest.
    """
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, *modules],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "l2s", "__init__.py")):
        print(f"perfbench: no program at {SRC}/l2s", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    modules = ["l2s"]
    if args.workload == "theory-checks":
        modules.append("l2s.cli")  # the workload drives the CLI in-process
    # one process, no extra threads: the program makes no BLAS calls
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    t0 = time.process_time()
    for module in modules:
        __import__(module)
    import_s = time.process_time() - t0
    import l2s
    if not os.path.abspath(l2s.__file__).startswith(SRC + os.sep):
        print(f"perfbench: l2s imported from {l2s.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import numpy

    import workloads
    from spans import Tracer

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        w.write_inputs()
        input_hashes = w.input_digests()
        load_times = []
        for _ in range(SETUP_REPEATS):
            t = workloads.clock()
            w.setup()
            load_times.append(workloads.clock() - t)
        w.install_timers()

        attempted = failed = 0
        tracer = untraced_wall = untraced_hashes = None
        if args.trace:
            w.reset_round()
            untraced_wall, attempted, failed = w.run_round()
            w.check_round()
            untraced_hashes = w.model_digests()
            tracer = Tracer()
            tracer.install()
            w.setup()  # one traced set-up, for the read and load spans
        import_times = [import_s]
        walls, samples, hashes = [], [], None
        start = last_probe = time.perf_counter()
        while True:
            w.reset_round()
            wall, a, f = w.run_round()
            walls.append(wall)
            attempted += a
            failed += f
            w.check_round()
            samples.append(array("d", w.round_ms))
            if tracer is not None:
                tracer.end_round()
            round_hashes = w.model_digests()
            if hashes is None:
                hashes = round_hashes
            w.check(round_hashes == hashes, "a later round trained different model files")
            if tracer is None and time.perf_counter() - last_probe >= PROBE_EVERY:
                import_times.append(import_seconds(modules))
                last_probe = time.perf_counter()
            if time.perf_counter() - start >= args.seconds:
                break

        pooled = array("d")
        for round_samples in samples:
            pooled.extend(round_samples)
        if tracer is None:
            while len(import_times) < SETUP_REPEATS:
                import_times.append(import_seconds(modules))
            # means over the run: the machine's speed switches between
            # two levels, and a mean follows the share of time spent at
            # each more smoothly than a median of a few rounds does
            values = {"setup_s": min(import_times) + min(load_times),
                      "wall_s": statistics.fmean(walls),
                      "bandit_rounds_per_s": 1e3 * len(pooled) / sum(pooled)}
            values.update(w.metrics())
            values["bandit_round_ms_p50"] = workloads.percentile(pooled, 0.5)
            values["bandit_round_ms_p99"] = workloads.percentile(pooled, 0.99)
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END
        else:
            w.check(hashes == untraced_hashes,
                    "traced model files differ from the untraced round's")
            for label, got, want in w.trace_checks(tracer, len(walls)):
                w.check(got == want, f"trace count check failed: {label}: {got} != {want}")
            values = layer_metrics(tracer, len(walls), w, walls, untraced_wall)
            units = PER_LAYER
            os.makedirs(OUT, exist_ok=True)
            tracer.save(os.path.join(OUT, f"{args.workload}.spans.npz"))

        reference = reference_hashes(args.size, args.workload, args.seed)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "trace": args.trace,
            "seconds": args.seconds,
            "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "rounds": len(walls),
            "round_wall_s": walls,
            "attempted": attempted,
            "failed": failed,
            "failures": sorted(set(getattr(w, "no_top_errors", []))),
            "orderings": getattr(w, "ordering_results", None),
            "round_samples": len(pooled),
            "input_sha256": input_hashes,
            "model_sha256": hashes,
            "model_sha256_matches_reference": None if reference is None
            else reference == hashes,
            "errors": w.errors[:20],
            "metrics": values,
        }
        if tracer is not None:
            record["untraced_wall_s"] = untraced_wall
            record["spans_recorded"] = len(tracer.span_start)
            record["spans_dropped"] = tracer.spans_dropped
        os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
        record_path = os.path.join(
            OUT, "records",
            f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json")
        with open(record_path, "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in w.errors[:5]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    result = {
        "correct": not w.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("standard", "tiny"), default="standard")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
