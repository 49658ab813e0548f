"""Dataset-level experiment harness.

Builds search tasks from raw records, trains across multiple passes with
seeded shuffles, evaluates task metrics on a held-out split, and runs
the 2x3 roll-in x roll-out strategy grid in which every cell sees the
same data order and differs only in strategy.
"""

import hashlib
import math
import re
from collections import namedtuple
from dataclasses import dataclass, fields, replace

from . import core, rng
from .core import REFERENCE_QUALITIES
from .errors import DataFormatError, L2SError
from .trainer import (
    ROLL_IN_CHOICES,
    ROLL_OUT_CHOICES,
    RolloutPlan,
    Trainer,
)
from .tasks import LabelTreeTask, ParseTask, SequenceTask, io, synth
from .tasks.sequence import MAX_TAG_COUNT


# -- configuration --

# The fields are the config schema: each is one config-file key and one
# CLI flag, and its annotation converts the string value.
@dataclass
class ExperimentConfig:
    task: str = "sequence"
    data: str = None
    test_data: str = None
    reference_quality: str = "optimal"
    roll_in: str = "learned"
    roll_out: str = "mixture"
    beta: float = 0.5
    passes: int = 5
    seed: int = 0
    eta0: float = 0.5

    def __post_init__(self):
        if self.task not in TASK_KINDS:
            raise L2SError(f"task must be one of {TASK_KINDS}")
        if self.reference_quality not in REFERENCE_QUALITIES:
            raise L2SError(
                f"reference_quality must be one of {REFERENCE_QUALITIES}")
        if not 0.0 < self.eta0 < math.inf:
            raise L2SError(f"eta0 {self.eta0} must be positive and finite")
        for name in ("passes", "seed"):
            value = getattr(self, name)
            if value < 0:
                raise L2SError(f"{name} {value} must not be negative")
        # plan validation re-checks roll_in/roll_out/beta
        self.plan()

    def plan(self):
        return RolloutPlan(roll_in=self.roll_in, roll_out=self.roll_out,
                           beta=self.beta, seed=self.seed)

    def items(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def read_config(path):
    """Flat key=value file, blank lines ignored; a key given twice is an
    L2SError. A comment starts at a '#' that begins the line or follows
    whitespace, so `data = run#1.csv` keeps its '#'."""
    out, line_of = {}, {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise L2SError(f"{path} is not UTF-8 text: {exc}")
    for no, raw in enumerate(lines, 1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise L2SError(f"line {no}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in out:
            raise L2SError(f"line {no}: key {key!r} repeats line "
                           f"{line_of[key]}")
        out[key], line_of[key] = value, no
    return out


def build_config(mapping):
    """Typed ExperimentConfig from string-valued key=value pairs."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in mapping.items():
        if key not in types:
            raise L2SError(f"unknown config key {key!r}")
        if value is None:
            continue
        try:
            kwargs[key] = types[key](value)
        except ValueError:
            raise L2SError(f"bad value {value!r} for {key}")
    return ExperimentConfig(**kwargs)


def config_hash(config):
    """Short stable digest of the resolved configuration."""
    text = "\n".join(f"{k}={v}" for k, v in config.items())
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# -- datasets and task construction --

@dataclass
class Dataset:
    kind: str
    records: list
    size: int  # the tag or label count a task takes; None for parse


def _sentences(column, what):
    """A reader of a sentence file's (tokens, gold) records, the gold
    labels in `column`; a sentence without them is a DataFormatError."""
    def read(path):
        records = [(s[0], s[column]) for s in io.read_sentences(path)]
        for no, (_, gold) in enumerate(records, 1):
            if gold is None:
                raise DataFormatError(f"{path}: sentence {no} has no gold {what}")
        return records
    return read


def _tag_count(records, path):
    top = max(t for _, tags in records for t in tags)
    if top >= MAX_TAG_COUNT:
        raise DataFormatError(f"{path}: tag {top} is not below the "
                              f"tag bound {MAX_TAG_COUNT}")
    return top + 1


def _matches(task, end, gold):
    return sum(1 for p, g in zip(task.decode(end), gold) if p == g), len(gold)


# What the harness knows of a task kind. `score(task, end, gold)` is one
# held-out instance's (metric total, weight), `costs(record)` the costs the
# bandit takes as losses, `model_sized` whether a model's dimension is its
# size times one unit's. `io` is read per call: a wrapper on it is called.
Kind = namedtuple("Kind", "metric higher_is_better read size_of task score "
                          "write costs model_sized")

KINDS = {
    "sequence": Kind(
        "accuracy", True, _sentences(1, "tags"), _tag_count,
        lambda record, size, normalize_loss: SequenceTask(
            *record, size, normalize_loss=normalize_loss),
        _matches,
        lambda path, count, seed: io.write_sentences(path, [
            (toks, tags, None) for toks, tags in synth.gen_sequences(count, seed)]),
        lambda record: (), True),
    "multiclass": Kind(
        "avg_cost", False, lambda path: io.read_multiclass(path),
        lambda records, path: len(records[0][1]),
        lambda record, size, normalize_loss: LabelTreeTask(*record, size),
        lambda task, end, costs: (task.terminal_loss(end), 1),
        lambda path, count, seed: io.write_multiclass(
            path, synth.gen_multiclass(count, seed)),
        lambda record: record[1], False),
    "parse": Kind(
        "uas", True, _sentences(2, "heads"), lambda records, path: None,
        lambda record, size, normalize_loss: ParseTask(*record),
        _matches,
        lambda path, count, seed: io.write_sentences(path, [
            (toks, None, heads) for toks, heads in synth.gen_trees(count, seed)]),
        lambda record: (), False),
}
TASK_KINDS = tuple(KINDS)


def load_dataset(kind, path):
    """A data file's records; a file without instances, with an instance
    lacking gold labels, or with a sequence tag of MAX_TAG_COUNT or more
    is a DataFormatError."""
    if kind not in KINDS:
        raise L2SError(f"unknown task kind {kind!r}")
    records = KINDS[kind].read(path)
    if not records:
        raise DataFormatError(f"{path}: no instances")
    return Dataset(kind, records, KINDS[kind].size_of(records, path))


HOLDOUT_FRACTION = 0.2


def split_dataset(dataset):
    """Train/test split: the last HOLDOUT_FRACTION of records, by file
    order. Both parts are non-empty, so the data needs at least 2
    instances."""
    n = len(dataset.records)
    if n < 2:
        raise DataFormatError(f"{n} instance cannot be split into "
                              "training and held-out data")
    cut = n - max(1, int(n * HOLDOUT_FRACTION))
    return (replace(dataset, records=dataset.records[:cut]),
            replace(dataset, records=dataset.records[cut:]))


def make_task(dataset, index, normalize_loss=False):
    return KINDS[dataset.kind].task(dataset.records[index], dataset.size,
                                    normalize_loss)


def task_dimension(dataset):
    return make_task(dataset, 0).dimension


def _for_model(dataset, dimension):
    """`dataset` with the size of a model of `dimension` weights, where
    the kind's model tells it, so a held-out file lacking the top tags is
    still scored. A file beyond the model's size keeps its own, and so
    its mismatch; so does a model beyond MAX_TAG_COUNT, which no file
    trains."""
    if KINDS[dataset.kind].model_sized:
        size, rest = divmod(dimension, task_dimension(dataset) // dataset.size)
        if not rest and dataset.size < size <= MAX_TAG_COUNT:
            return replace(dataset, size=size)
    return dataset


# -- training and evaluation --

def pass_orders(n_instances, passes, seed):
    """One instance permutation per pass; shared across grid cells."""
    g = rng.substream(seed, rng.DATA)
    return [g.permutation(n_instances) for _ in range(passes)]


def train(dataset, plan, passes, quality="optimal", eta0=0.5, seed=None,
          record_history=False, on_instance=None):
    """Run the online loop over `passes` shuffled passes; returns the Trainer.

    `seed` (defaulting to the plan's) keys the shuffle and reference
    substreams; `on_instance` receives each instance's diagnostics dict,
    completed with the instance's `post_update_loss`.
    """
    if seed is None:
        seed = plan.seed
    tasks = [make_task(dataset, i) for i in range(len(dataset.records))]
    refs = [t.reference_policy(quality, seed=seed) for t in tasks]
    trainer = Trainer(task_dimension(dataset), plan, eta0=eta0,
                      record_history=record_history)
    for order in pass_orders(len(tasks), passes, seed):
        for i in order:
            examples, diag = trainer.process_example(tasks[i],
                                                     reference=refs[i])
            if on_instance is not None:
                diag["post_update_loss"] = trainer.post_update_loss(examples)
                on_instance(diag)
    return trainer


def evaluate(dataset, policy):
    """Task metric over a dataset; returns (metric_name, value).

    `policy` is a LinearPolicy, or an AveragedPolicy, which draws one
    snapshot of its pool per instance. The model dimension, the policy's
    weight count or the pool's dimension, must be the task's.
    """
    sampled = hasattr(policy, "sample")
    model_dimension = policy.pool.dimension if sampled else len(policy.weights)
    dataset = _for_model(dataset, model_dimension)
    dimension = task_dimension(dataset)
    if model_dimension != dimension:
        raise L2SError(
            f"model dimension {model_dimension} != task {dimension}")
    kind = KINDS[dataset.kind]
    total, weight = 0.0, 0
    for i, (_, gold) in enumerate(dataset.records):
        pol = policy.sample() if sampled else policy
        task = make_task(dataset, i)
        end = core.execute(task, pol, task.start_state(), task.horizon)
        value, count = kind.score(task, end, gold)
        total += value
        weight += count
    return kind.metric, total / weight


# -- the strategy grid --

GRID_CELLS = tuple((ri, ro) for ri in ROLL_IN_CHOICES
                   for ro in ROLL_OUT_CHOICES)


@dataclass
class GridCell:
    roll_in: str
    roll_out: str
    seed: int
    value: float


@dataclass
class GridReport:
    # field order is the order of the `grid --out` JSON keys
    metric: str
    higher_is_better: bool
    config_hash: str
    cells: list

    def cell(self, roll_in, roll_out):
        for c in self.cells:
            if (c.roll_in, c.roll_out) == (roll_in, roll_out):
                return c
        raise KeyError((roll_in, roll_out))

    def best(self):
        key = (lambda c: -c.value) if self.higher_is_better else (
            lambda c: c.value)
        return min(self.cells, key=key)


def run_grid(train_set, test_set, config):
    """Train and evaluate all six roll-in x roll-out combinations.

    Every cell uses the same pass shuffles and reference seed; only the
    strategy (and its strategy-keyed substream) differs. A held-out set
    the cells' models cannot score is an L2SError before any cell
    trains: where a model tells its size, the held-out size may not pass
    the training size; elsewhere the two must be equal, as a label tree's
    nodes are keyed by the label count.
    """
    kind = KINDS[train_set.kind]
    trained, held_out = train_set.size, test_set.size
    if (held_out > trained if kind.model_sized else held_out != trained):
        raise L2SError(f"test data has {held_out} labels, "
                       f"training data {trained}")
    cells = []
    for idx, (ri, ro) in enumerate(GRID_CELLS):
        cell_seed = rng.derive_seed(config.seed, rng.GRID, idx)
        plan = replace(config.plan(), roll_in=ri, roll_out=ro,
                       seed=cell_seed)
        trainer = train(train_set, plan, config.passes,
                        quality=config.reference_quality, eta0=config.eta0,
                        seed=config.seed)
        _, value = evaluate(test_set, trainer.learner.policy())
        cells.append(GridCell(ri, ro, cell_seed, value))
    return GridReport(kind.metric, kind.higher_is_better, config_hash(config),
                      cells)


def render_grid(report):
    """Aligned text table, rows roll-in, columns roll-out, best cell starred."""
    best = report.best()
    lines = [f"metric: {report.metric} "
             f"({'higher' if report.higher_is_better else 'lower'} is better)"]
    header = ["roll-in \\ roll-out"] + list(ROLL_OUT_CHOICES)
    rows = [header]
    for ri in ROLL_IN_CHOICES:
        row = [ri]
        for ro in ROLL_OUT_CHOICES:
            c = report.cell(ri, ro)
            mark = "*" if c is best else " "
            row.append(f"{c.value:.4f}{mark}")
        rows.append(row)
    widths = [max(len(r[j]) for r in rows) for j in range(len(header))]
    for r in rows:
        lines.append("  ".join(s.ljust(w) for s, w in zip(r, widths)))
    return "\n".join(lines)
