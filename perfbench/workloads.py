"""The four benchmark workloads.

Each workload writes its inputs from the seed, loads them through the
program (`setup`), and then runs whole rounds of the same operations
(`run_round`).  A round returns its time (`clock`), counted from the
first call into the program to its last output; `check_round` then verifies
the round's outputs outside that time.  Light timers around a few
public functions give the end-to-end rates; the span tracer in
`spans.py` is installed on top of them only in a traced run.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import time

import inputs
from spans import replace_function, replace_method

# CPU time of this process, not the wall clock.  On a shared virtual
# machine the hypervisor can take the CPU away (steal time), which would
# count in wall-clock figures and says nothing about the program.  The
# workloads are single-threaded and compute-bound, so CPU time is the
# time the program works; waiting would not show.
clock = time.process_time

SIZES = {
    "standard": {
        "tagging": dict(train=40, test=200, no_top=20, min_len=5, max_len=8,
                        tags=5, vocab=8, noise=0.1, passes=3),
        "parse": dict(train=80, test=200, min_len=3, max_len=6, vocab=30,
                      passes=3),
        "bandit": dict(examples=400, labels=8, rounds=3000, epsilon=0.1,
                       beta=0.5),
        "theory": dict(identity_models=100, identity_pairs=10,
                       bound_models=50, bound_rounds=15,
                       rollout_rounds=500, trials=20000),
    },
    # only for the smoke test: every code path
    "tiny": {
        "tagging": dict(train=12, test=8, no_top=4, min_len=5, max_len=8,
                        tags=5, vocab=8, noise=0.1, passes=1),
        "parse": dict(train=12, test=8, min_len=3, max_len=6, vocab=30,
                      passes=1),
        "bandit": dict(examples=40, labels=8, rounds=200, epsilon=0.1,
                       beta=0.5),
        "theory": dict(identity_models=3, identity_pairs=2,
                       bound_models=2, bound_rounds=3,
                       rollout_rounds=50, trials=500),
    },
}

# counterexamples: reference_rollin_failure trains this many rounds
ROLLIN_ROUNDS = 40
BOUND_BETAS = 5
# the longest snake in the T-cube (OEIS A000937)
SNAKE_LENGTHS = {3: 4, 4: 7, 5: 13}
# `identity` and `unbiasedness` keep the CLI's default seed.  `identity`
# lists every deterministic policy of each model, a count that swings by
# orders of magnitude with the seed and peak memory with it (44-53 MB
# over five seeds).  `unbiasedness` is a Monte Carlo test at three
# standard errors, which some seeds fail by chance.
FIXED_SEED = "0"


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def weights_digest(learner):
    return hashlib.sha256(learner.weights.tobytes()).hexdigest()


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed(sink):
    """Wrapper factory: calls `sink(args, result, seconds)` after each call."""
    def make(fn):
        def wrapper(*args, **kwargs):
            t = clock()
            result = fn(*args, **kwargs)
            sink(args, result, clock() - t)
            return result
        wrapper.__wrapped__ = fn
        return wrapper
    return make


class Workload:
    """Shared bookkeeping; subclasses fill in the four phases."""

    name = None

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.errors = []
        self.model_files = []
        self.input_files = []
        self.round_ms = []

    def reset_round(self):
        """Clear the measurements of the last round."""
        self.round_ms = []  # one sample per online-learning round

    def path(self, name):
        return os.path.join(self.workdir, name)

    def input_digests(self):
        return {os.path.basename(p): sha256(p) for p in self.input_files}

    def model_digests(self):
        return {os.path.basename(p): sha256(p) for p in self.model_files}

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)

    def install_timers(self):
        """Wrap `Trainer.process_example` to time each training round."""
        from l2s.trainer import Trainer

        def sink(args, result, seconds):
            self.round_ms.append(seconds * 1e3)
            self.on_example(args, result)

        replace_method(Trainer, "process_example", timed(sink))

    def on_example(self, args, result):
        pass


# -- tagging-grid and parse-grid --

class GridWorkload(Workload):
    kind = None
    quality = None
    size_key = None

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.p = SIZES[size][self.size_key]
        self.cells = []
        self.decoded = []
        self._decoding = False
        self.reference_costs = []
        # totals over the run
        self.train_s = 0.0
        self.train_instances = 0
        self.eval_s = 0.0
        self.eval_tokens = 0

    def gold_records(self):
        raise NotImplementedError

    def write_inputs(self):
        train, test = self.gold_records()
        self.gold_train, self.gold_test = train, test
        self.input_files = [self.path(f"{self.kind}-train.tsv"),
                            self.path(f"{self.kind}-test.tsv")]
        with_tags = self.kind == "sequence"
        inputs.write_sentences(self.input_files[0], train, with_tags)
        inputs.write_sentences(self.input_files[1], test, with_tags)

    def setup(self):
        from l2s import experiment
        self.train_set = experiment.load_dataset(self.kind, self.input_files[0])
        self.test_set = experiment.load_dataset(self.kind, self.input_files[1])

    def install_timers(self):
        super().install_timers()
        from l2s import experiment

        def on_train(args, trainer, seconds):
            self.train_s += seconds
            self.train_instances += trainer.examples_seen

        def save_cell(fn):
            # save while run_grid still holds the trainer, outside the
            # training time; keep only what the checks need, so the
            # trainer is freed as usual
            def wrapper(train_set, plan, *args, **kwargs):
                trainer = fn(train_set, plan, *args, **kwargs)
                path = self.path(f"{self.name}-{plan.roll_in}-{plan.roll_out}.model")
                trainer.learner.save(path)
                t = clock()
                self.cells.append({
                    "path": path, "dimension": trainer.learner.dimension,
                    "examples_seen": trainer.examples_seen,
                    "sha256": weights_digest(trainer.learner)})
                self.check_s += clock() - t
                return trainer
            return wrapper

        def on_evaluate(args, result, seconds):
            if args[0] is self.test_set:
                self.eval_s += seconds
                self.eval_tokens += sum(len(r[0]) for r in args[0].records)

        def evaluate_start(fn):
            def wrapper(dataset, policy):
                self._decoding = dataset is self.test_set
                if self._decoding:
                    self.decoded.append([])
                try:
                    return fn(dataset, policy)
                finally:
                    self._decoding = False
            return wrapper

        replace_function(experiment, "train", timed(on_train))
        replace_function(experiment, "train", save_cell)
        replace_function(experiment, "evaluate", timed(on_evaluate))
        replace_function(experiment, "evaluate", evaluate_start)

        task_cls = self.task_class()

        def on_decode(args, result, seconds):
            if self._decoding:
                self.decoded[-1].append(result)

        replace_method(task_cls, "decode", timed(on_decode))

    def config(self):
        from l2s import experiment
        return experiment.build_config({
            "task": self.kind, "reference_quality": self.quality,
            "passes": str(self.p["passes"]), "seed": str(self.seed)})

    def run_round(self):
        """Grid, held-out evaluation, then reload of every cell's model.

        The wall time leaves out `check_s`, the time spent taking the
        weight digests that the checks compare.
        """
        from l2s import experiment
        from l2s.cslearn import CostSensitiveLearner
        self.report = None
        self.cells, self.decoded, self.reference_costs = [], [], []
        self.check_s = 0.0
        t0 = clock()
        report = experiment.run_grid(self.train_set, self.test_set, self.config())
        attempted, failed = len(report.cells), 0
        for cell in self.cells:
            loaded = CostSensitiveLearner.load(cell["path"])
            t = clock()
            cell["reloaded_sha256"] = weights_digest(loaded)
            self.check_s += clock() - t
            attempted += 1
            a, f = self.after_reload(loaded)
            attempted += a
            failed += f
        wall = clock() - t0 - self.check_s
        self.report = report
        self.model_files = [cell["path"] for cell in self.cells]
        return wall, attempted, failed

    def after_reload(self, learner):
        """Further operations on one reloaded model: (attempted, failed)."""
        return 0, 0

    def check_round(self):
        report = self.report
        cells = report.cells
        self.check(len(self.cells) == len(cells) == 6,
                   f"expected 6 trained cells, got {len(self.cells)}")
        n_train = len(self.gold_train)
        for cell in self.cells:
            path, d = cell["path"], cell["dimension"]
            self.check(cell["examples_seen"] == n_train * self.p["passes"],
                       f"trainer saw {cell['examples_seen']} instances")
            self.check(os.path.getsize(path) == 36 + 8 * d,
                       f"{path}: {os.path.getsize(path)} bytes, d={d}")
            self.check(cell["reloaded_sha256"] == cell["sha256"],
                       f"{path}: reloaded weights differ")
        # held-out metric recomputed from the decoded outputs and our gold
        self.check(len(self.decoded) == 6, "held-out decodes missing")
        for cell, decodes in zip(cells, self.decoded):
            right = total = 0
            for pred, (_, gold) in zip(decodes, self.gold_test):
                self.check_output(pred, gold)
                right += sum(1 for p, g in zip(pred, gold) if p == g)
                total += len(gold)
            self.check(len(decodes) == len(self.gold_test) and
                       right / total == cell.value,
                       f"{cell.roll_in}/{cell.roll_out}: reported "
                       f"{cell.value} != recomputed {right}/{total}")
        # recorded in the run record, not gating: at the benchmark's
        # sizes both grids miss the orderings on many seeds
        self.ordering_results = self.orderings(report)

    def check_output(self, pred, gold):
        pass

    def metrics(self):
        return {
            "train_instances_per_s": self.train_instances / self.train_s,
            "eval_tokens_per_s": self.eval_tokens / self.eval_s,
        }

    def expected_updates(self):
        """Learner updates per round: horizons x passes x 6 cells."""
        return sum(self.horizon(r) for r in self.gold_train) * self.p["passes"] * 6

    def trace_checks(self, tracer, rounds):
        updates, _, _ = tracer.stat("cslearn.update")
        return [("cslearn.update.calls == sum(horizons) x passes x 6",
                 updates, rounds * self.expected_updates())]


class TaggingGrid(GridWorkload):
    name = "tagging-grid"
    kind = "sequence"
    quality = "optimal"
    size_key = "tagging"

    def task_class(self):
        from l2s.tasks import SequenceTask
        return SequenceTask

    def horizon(self, record):
        return len(record[0])

    def gold_records(self):
        p = self.p
        data = inputs.hmm_sentences(self.seed, p["train"] + p["test"], p["tags"],
                                    p["min_len"], p["max_len"], p["vocab"],
                                    p["noise"])
        return data[:p["train"]], data[p["train"]:]

    def write_inputs(self):
        super().write_inputs()
        p = self.p
        for name, records in (("train", self.gold_train), ("test", self.gold_test)):
            seen = {t for _, tags in records for t in tags}
            if seen != set(range(p["tags"])):
                raise RuntimeError(f"{name} file lacks tags: {sorted(seen)}")
        # a held-out file written apart whose sentences lack the top tag
        no_top = inputs.hmm_sentences(self.seed, p["no_top"], p["tags"],
                                      p["min_len"], p["max_len"], p["vocab"],
                                      p["noise"],
                                      allowed_tags=list(range(p["tags"] - 1)))
        self.input_files.append(self.path("sequence-test-no-top-tag.tsv"))
        inputs.write_sentences(self.input_files[2], no_top)

    def setup(self):
        super().setup()
        from l2s import experiment
        self.no_top_set = experiment.load_dataset("sequence", self.input_files[2])

    def on_example(self, args, result):
        trainer, task = args[0], args[1]
        if trainer.plan.roll_out == "reference":
            self.reference_costs.append((task.gold_tags, result[1]["cost_vectors"]))

    def run_round(self):
        self.no_top_errors = []
        return super().run_round()

    def after_reload(self, learner):
        """Evaluate the reloaded model on the file lacking the top tag.

        This is how `l2s grid --test-data` meets such a file.  It fails
        today: `load_dataset` derives the tag count from each file, so
        the model and task dimensions differ.
        """
        from l2s import experiment
        from l2s.errors import L2SError
        try:
            experiment.evaluate(self.no_top_set, learner.policy())
        except L2SError as exc:
            self.no_top_errors.append(f"{type(exc).__name__}: {exc}")
            return 1, 1
        return 1, 0

    def check_round(self):
        super().check_round()
        k = self.p["tags"]
        self.check(len(self.reference_costs) == 2 * len(self.gold_train) * self.p["passes"],
                   "reference roll-out cost vectors missing")
        for gold, vectors in self.reference_costs:
            for t, costs in enumerate(vectors):
                want = [0.0 if a == gold[t] else 1.0 for a in range(k)]
                if costs != want:
                    self.check(False, f"cost vector {costs} != 1[a != {gold[t]}]")
                    return

    def orderings(self, report):
        values = [c.value for c in report.cells]
        best = max(values)
        lm = report.cell("learned", "mixture").value
        return [(f"six-cell accuracy band {max(values) - min(values):.4f} <= 0.02",
                 max(values) - min(values) <= 0.02),
                (f"learned/mixture {lm:.4f} within 2% of best {best:.4f}",
                 lm >= best - 0.02 * best)]

    def trace_checks(self, tracer, rounds):
        k = self.p["tags"]
        passes = self.p["passes"]
        lengths = [len(toks) for toks, _ in self.gold_train]
        out = super().trace_checks(tracer, rounds)
        for cell in ("reference/reference", "reference/learned",
                     "reference/mixture"):
            out.append((f"{cell}: roll-outs == passes x sum(T*K)",
                        tracer.counters[f"cell.rollout.calls[{cell}]"],
                        rounds * passes * sum(t * k for t in lengths)))
            out.append((f"{cell}: roll-out steps == passes x sum(K*T(T-1)/2)",
                        tracer.counters[f"cell.rollout.steps[{cell}]"],
                        rounds * passes * sum(k * t * (t - 1) // 2 for t in lengths)))
        return out


class ParseGrid(GridWorkload):
    name = "parse-grid"
    kind = "parse"
    quality = "bad"
    size_key = "parse"

    def task_class(self):
        from l2s.tasks import ParseTask
        return ParseTask

    def horizon(self, record):
        return 2 * len(record[0]) - 1

    def gold_records(self):
        p = self.p
        data = inputs.projective_trees(self.seed, p["train"] + p["test"],
                                       p["min_len"], p["max_len"], p["vocab"])
        return data[:p["train"]], data[p["train"]:]

    def check_output(self, heads, gold):
        problem = tree_problem(heads, len(gold))
        if problem:
            self.check(False, f"decoded parse {heads}: {problem}")

    def orderings(self, report):
        rr = report.cell("reference", "reference").value
        return [(f"learned/{ro} UAS {report.cell('learned', ro).value:.4f} > "
                 f"reference/reference {rr:.4f}",
                 report.cell("learned", ro).value > rr)
                for ro in ("reference", "learned", "mixture")]


def tree_problem(heads, n):
    """Why `heads` is not a single-rooted projective tree over 1..n, or None."""
    if len(heads) != n:
        return "wrong length"
    if any(not 0 <= h <= n or h == i for i, h in enumerate(heads, 1)):
        return "head out of range or self-loop"
    if sum(1 for h in heads if h == 0) != 1:
        return "not single-rooted"
    for i in range(1, n + 1):
        seen, j = set(), i
        while j != 0:
            if j in seen:
                return "cycle"
            seen.add(j)
            j = heads[j - 1]
    arcs = [(min(i, h), max(i, h)) for i, h in enumerate(heads, 1) if h != 0]
    for a, b in arcs:
        for c, d in arcs:
            if a < c < b < d:
                return "crossing arcs"
    return None


# -- bandit-multiclass --

class BanditMulticlass(Workload):
    name = "bandit-multiclass"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.p = SIZES[size]["bandit"]
        self.pool_bytes = 0
        # (rounds, seconds) of explore and of exploit rounds over the run
        self.explore = [0, 0.0]
        self.exploit = [0, 0.0]

    def write_inputs(self):
        p = self.p
        self.gold = inputs.multiclass_examples(self.seed, p["examples"], p["labels"])
        self.input_files = [self.path("multiclass.csv")]
        inputs.write_multiclass(self.input_files[0], self.gold)

    def setup(self):
        from l2s import experiment
        self.dataset = experiment.load_dataset("multiclass", self.input_files[0])

    def install_timers(self):
        pass  # each round is timed by the loop itself

    def run_round(self):
        from l2s import bandit, core, experiment, rng
        from l2s.cslearn import CostSensitiveLearner
        p, seed, ds = self.p, self.seed, self.dataset
        self.state = None  # frees the last session's pool before this one
        self.outcomes = []
        t0 = clock()
        state = bandit.BanditState(experiment.task_dimension(ds),
                                   epsilon=p["epsilon"], beta=p["beta"],
                                   seed=seed)
        pick = rng.substream(seed, rng.DATA)
        for _ in range(p["rounds"]):
            t = clock()
            i = int(pick.integers(len(ds.records)))
            task = experiment.make_task(ds, i, normalize_loss=True)
            reference = task.reference_policy("bad", seed=seed)
            state, outcome = bandit.bandit_step(
                state, task, lambda end: core.end_loss(task, end), reference)
            dt = clock() - t
            self.round_ms.append(dt * 1e3)
            totals = self.explore if outcome.mode == "explored" else self.exploit
            totals[0] += 1
            totals[1] += dt
            self.outcomes.append((i, task.horizon, outcome))
        path = self.path("bandit.model")
        state.learner.save(path)
        self.reloaded = CostSensitiveLearner.load(path)
        wall = clock() - t0
        self.state = state
        self.model_files = [path]
        self.pool_bytes = max(self.pool_bytes, sum(
            w.nbytes for w in state.explored_policies))
        return wall, p["rounds"] + 1, 0

    def check_round(self):
        explored = 0
        for i, _, out in self.outcomes:
            costs = self.gold[i][1]
            if out.mode == "exploited":
                if out.observed_loss != costs[out.prediction]:
                    self.check(False, f"exploit loss {out.observed_loss} != "
                                      f"cost {costs[out.prediction]}")
                continue
            explored += 1
            rec = out.exploration_record
            k, a, loss = rec["k"], rec["action"], rec["loss"]
            want = [k * loss if j == a else 0.0 for j in range(k)]
            if not (0.0 <= loss <= 1.0 and rec["costs"] == want
                    and loss == costs[out.prediction]):
                self.check(False, f"explore record {rec} inconsistent with "
                                  f"costs {costs} at leaf {out.prediction}")
        self.check(explored == self.state.n_explore,
                   f"{explored} explore rounds, state counted {self.state.n_explore}")
        self.check(self.reloaded.weights.tobytes()
                   == self.state.learner.weights.tobytes(),
                   "bandit model reloads to different weights")

    def metrics(self):
        horizon = self.outcomes[0][1]
        return {
            "train_instances_per_s": self.explore[0] / self.explore[1],
            "eval_tokens_per_s": horizon * self.exploit[0] / self.exploit[1],
        }

    def trace_checks(self, tracer, rounds):
        explore, _, _ = tracer.stat("bandit.explore")
        updates, _, _ = tracer.stat("cslearn.update")
        exploit = tracer.counters["bandit.exploit.calls"]
        return [
            ("bandit.explore.calls + bandit.exploit.calls == rounds",
             explore + exploit, rounds * self.p["rounds"]),
            ("cslearn.update.calls == bandit.explore.calls", updates, explore),
        ]


# -- theory-checks --

class TheoryChecks(Workload):
    name = "theory-checks"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.p = SIZES[size]["theory"]
        # totals over the run
        self.training_s = 0.0
        self.training_instances = 0
        self.probe_s = 0.0
        self.probe_tokens = 0

    def suites(self):
        p, seed = self.p, str(self.seed)
        return [
            ["check", "identity", "--models", str(p["identity_models"]),
             "--pairs", str(p["identity_pairs"]), "--seed", FIXED_SEED],
            ["check", "bound", "--models", str(p["bound_models"]),
             "--rounds", str(p["bound_rounds"]), "--seed", seed],
            ["check", "counterexamples", "--rounds", str(p["rollout_rounds"])],
            ["check", "snake", "-T", "3"],
            ["check", "snake", "-T", "4"],
            ["check", "snake", "-T", "5"],
            ["check", "unbiasedness", "--trials", str(p["trials"]),
             "--seed", FIXED_SEED],
        ]

    def write_inputs(self):
        self.input_files = []  # the suites build their models from the seed

    def input_digests(self):
        text = json.dumps(self.suites()).encode()
        return {"suites": hashlib.sha256(text).hexdigest()}

    def setup(self):
        # timed as set-up only: the suites build these same models again
        from l2s import theory
        p = self.p
        theory.random_models(int(FIXED_SEED), p["identity_models"])
        theory.random_models(self.seed, p["bound_models"])
        theory.two_level_chooser()
        theory.shared_feature_chooser(0.1)

    def install_timers(self):
        super().install_timers()
        from l2s import bandit
        from l2s.theory import bounds

        def on_training(args, result, seconds):
            self.training_s += seconds
            self.training_instances += len(result[2])

        def on_probe(args, result, seconds):
            self.probe_s += seconds
            self.probe_tokens += args[3] * args[0].horizon

        replace_function(bounds, "run_training", timed(on_training))
        replace_function(bandit, "unbiasedness_probe", timed(on_probe))

    def run_round(self):
        from l2s import cli
        self.outputs = []
        t0 = clock()
        failed = 0
        for args in self.suites():
            buf = io.StringIO()
            code = 0
            with contextlib.redirect_stdout(buf):
                try:
                    cli.main(args, standalone_mode=False)
                except SystemExit as exc:
                    code = exc.code
            failed += code not in (0, None)
            self.outputs.append((args, code, buf.getvalue()))
        return clock() - t0, len(self.outputs), failed

    def check_round(self):
        p = self.p
        for args, code, text in self.outputs:
            suite = " ".join(args[1:])
            self.check("[FAIL]" not in text and "[PASS]" in text,
                       f"{suite}: {text.strip()}")
            if args[1] == "identity":
                m = re.search(r"max deviation (\S+)", text)
                self.check(m is not None and float(m.group(1)) <= 1e-9,
                           f"identity deviation: {text.strip()}")
            elif args[1] == "bound":
                total = p["bound_models"] * BOUND_BETAS
                self.check(f"{total}/{total} model x beta runs satisfied" in text,
                           f"bound: {text.strip()}")
            elif args[1] == "snake":
                T = int(args[3])
                m = re.search(r"(\d+) updates", text)
                self.check(m is not None and int(m.group(1)) == SNAKE_LENGTHS[T],
                           f"snake T={T}: {text.strip()}")
            elif args[1] == "counterexamples":
                self.check(text.count("[PASS]") == 2, f"counterexamples: {text.strip()}")

    def metrics(self):
        return {
            "train_instances_per_s": self.training_instances / self.training_s,
            "eval_tokens_per_s": self.probe_tokens / self.probe_s,
        }

    def expected_instances(self):
        p = self.p
        return (p["bound_models"] * BOUND_BETAS * p["bound_rounds"]
                + ROLLIN_ROUNDS + 2 * p["rollout_rounds"])

    def trace_checks(self, tracer, rounds):
        calls, _, _ = tracer.stat("trainer.process_example")
        return [("trainer.process_example.calls == training rounds of the suites",
                 calls, rounds * self.expected_instances())]


WORKLOADS = {w.name: w for w in (TaggingGrid, ParseGrid, BanditMulticlass,
                                 TheoryChecks)}
