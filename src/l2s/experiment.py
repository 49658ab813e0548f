"""Dataset-level experiment harness.

Builds search tasks from raw records, trains across multiple passes with
seeded shuffles, evaluates task metrics on a held-out split, and runs
the 2x3 roll-in x roll-out strategy grid in which every cell sees the
same data order and differs only in strategy.
"""

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import core, rng
from .errors import BadConfig, DataFormatError, ModelTaskMismatch
from .trainer import (
    ROLL_IN_CHOICES,
    ROLL_OUT_CHOICES,
    RolloutPlan,
    Trainer,
)
from .tasks import (
    LabelTreeTask,
    ParseTask,
    SequenceTask,
    read_multiclass,
    read_sentences,
    sequence,
)

TASK_KINDS = ("sequence", "multiclass", "parse")
REFERENCE_QUALITIES = ("optimal", "suboptimal", "bad")

# metric name and direction per task kind
METRICS = {
    "sequence": ("accuracy", True),
    "multiclass": ("avg_cost", False),
    "parse": ("uas", True),
}


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
    draw_granularity: str = "per_rollout"
    passes: int = 5
    seed: int = 0
    eta0: float = 0.5

    def __post_init__(self):
        if self.task not in TASK_KINDS:
            raise BadConfig(f"task must be one of {TASK_KINDS}")
        if self.reference_quality not in REFERENCE_QUALITIES:
            raise BadConfig(
                f"reference_quality must be one of {REFERENCE_QUALITIES}")
        if not 0.0 < self.eta0 < math.inf:
            raise BadConfig(f"eta0 {self.eta0} must be positive and finite")
        # plan validation re-checks roll_in/roll_out/beta/draw_granularity
        self.plan()

    def plan(self):
        return RolloutPlan(roll_in=self.roll_in, roll_out=self.roll_out,
                           beta=self.beta,
                           draw_granularity=self.draw_granularity,
                           seed=self.seed)

    def items(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def read_config(path):
    """Flat key=value file, '#' comments, blank lines ignored."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise BadConfig(f"line {no}: expected key=value, got {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = value
    return out


def build_config(mapping):
    """Typed ExperimentConfig from string-valued key=value pairs."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in mapping.items():
        if key not in types:
            raise BadConfig(f"unknown config key {key!r}")
        if value is None:
            continue
        try:
            kwargs[key] = types[key](value)
        except ValueError:
            raise BadConfig(f"bad value {value!r} for {key}")
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
    meta: dict = field(default_factory=dict)


def load_dataset(kind, path):
    """A data file's records; a file without instances, or with an
    instance lacking gold labels, is a DataFormatError."""
    if kind == "multiclass":
        records = read_multiclass(path)
    elif kind in ("sequence", "parse"):
        column, what = (1, "tags") if kind == "sequence" else (2, "heads")
        records = [(s[0], s[column]) for s in read_sentences(path)]
        for no, (_, gold) in enumerate(records, 1):
            if gold is None:
                raise DataFormatError(f"{path}: sentence {no} has no gold {what}")
    else:
        raise BadConfig(f"unknown task kind {kind!r}")
    if not records:
        raise DataFormatError(f"{path}: no instances")
    if kind == "multiclass":
        return Dataset(kind, records, {"label_count": len(records[0][1])})
    if kind == "sequence":
        tag_count = 1 + max(t for _, tags in records for t in tags)
        return Dataset(kind, records, {"tag_count": tag_count})
    return Dataset(kind, records)


def split_dataset(dataset, holdout_fraction=0.2):
    """Train/test split: the last fraction of records, by file order."""
    n = len(dataset.records)
    cut = n - max(1, int(n * holdout_fraction)) if n > 1 else n
    return (replace(dataset, records=dataset.records[:cut]),
            replace(dataset, records=dataset.records[cut:]))


def make_task(dataset, index, normalize_loss=False):
    record = dataset.records[index]
    if dataset.kind == "sequence":
        tokens, tags = record
        return SequenceTask(tokens, tags, dataset.meta["tag_count"],
                            instance_id=index, normalize_loss=normalize_loss)
    if dataset.kind == "multiclass":
        pairs, costs = record
        return LabelTreeTask(pairs, costs, dataset.meta["label_count"],
                             instance_id=index)
    tokens, heads = record
    return ParseTask(tokens, heads, instance_id=index)


def task_dimension(dataset):
    return make_task(dataset, 0).dimension


def _for_model(dataset, policy):
    """`dataset` with the tag count of a sequence policy's weights, so a
    held-out file lacking the top tags is still scored; a file with a tag
    beyond the model's keeps its own count, and so its mismatch."""
    weights = getattr(policy, "weights", None)
    if dataset.kind != "sequence" or weights is None:
        return dataset
    tags, rest = divmod(len(weights), 1 << sequence.DEFAULT_BASE_BITS)
    if rest or tags < dataset.meta["tag_count"]:
        return dataset
    return replace(dataset, meta={"tag_count": tags})


# -- training and evaluation --

def pass_orders(n_instances, passes, seed):
    """One instance permutation per pass; shared across grid cells."""
    g = rng.substream(seed, rng.DATA)
    return [g.permutation(n_instances) for _ in range(passes)]


def train(dataset, plan, passes, quality="optimal", eta0=0.5, seed=None,
          orders=None, record_history=False, on_instance=None):
    """Run the online loop over `passes` shuffled passes; returns the Trainer.

    `seed` (defaulting to the plan's) keys the shuffle and reference
    substreams; `on_instance` receives each instance's diagnostics dict.
    """
    if seed is None:
        seed = plan.seed
    tasks = [make_task(dataset, i) for i in range(len(dataset.records))]
    refs = [t.reference_policy(quality, seed=seed) for t in tasks]
    if orders is None:
        orders = pass_orders(len(tasks), passes, seed)
    trainer = Trainer(task_dimension(dataset), plan, eta0=eta0,
                      record_history=record_history)
    for order in orders:
        for i in order:
            _, diag = trainer.process_example(tasks[i], reference=refs[i])
            if on_instance is not None:
                on_instance(diag)
    return trainer


def evaluate(dataset, policy):
    """Task metric over a dataset. `policy` may be an averaged-policy
    sampler (one historical snapshot drawn per instance) or a fixed
    policy; returns (metric_name, value).
    """
    name, _ = METRICS[dataset.kind]
    total, weight = 0.0, 0
    for i in range(len(dataset.records)):
        pol = policy.sample() if hasattr(policy, "sample") else policy
        task = make_task(_for_model(dataset, pol), i)
        if getattr(pol, "weights", None) is not None and \
                len(pol.weights) != task.dimension:
            raise ModelTaskMismatch(
                f"model dimension {len(pol.weights)} != task {task.dimension}")
        end = core.execute(task, pol, task.start_state(), task.horizon)
        if dataset.kind == "multiclass":
            total += task.terminal_loss(end)
            weight += 1
        else:
            gold = dataset.records[i][1]
            pred = task.decode(end)
            total += sum(1 for p, g in zip(pred, gold) if p == g)
            weight += len(gold)
    return name, total / weight if weight else 0.0


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
    metric: str
    higher_is_better: bool
    cells: list
    config_hash: str

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
    strategy (and its strategy-keyed substream) differs.
    """
    orders = pass_orders(len(train_set.records), config.passes, config.seed)
    name, higher = METRICS[train_set.kind]
    cells = []
    for idx, (ri, ro) in enumerate(GRID_CELLS):
        cell_seed = rng.derive_seed(config.seed, rng.GRID, idx)
        plan = RolloutPlan(roll_in=ri, roll_out=ro, beta=config.beta,
                           draw_granularity=config.draw_granularity,
                           seed=cell_seed)
        trainer = train(train_set, plan, config.passes,
                        quality=config.reference_quality, eta0=config.eta0,
                        seed=config.seed, orders=orders)
        _, value = evaluate(test_set, trainer.current_policy())
        cells.append(GridCell(ri, ro, cell_seed, value))
    return GridReport(name, higher, cells, config_hash(config))


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
