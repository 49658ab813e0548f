"""Command-line harness: data generation, training, evaluation, the
roll-in x roll-out grid, bandit simulation, and the exact-check suites.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 failed
exact-check suite. `main` alone maps an outcome to its code, so the
console script, `python -m l2s.cli`, click's test runner and
`main(args, standalone_mode=False)` all end a run in the same code.
"""

import dataclasses
import json
import sys
from collections import deque
from contextlib import nullcontext

import click
import numpy as np

from . import bandit as banditmod
from . import core, experiment, rng, theory
from .cslearn import CostSensitiveLearner
from .errors import CheckFailed, DataFormatError, L2SError
from .trainer import AveragedPolicy, PolicyPool, RolloutPlan


# The ExperimentConfig fields each command reads. A command offers a flag
# for these only; any other field, by flag or in its config file, is a
# usage or config error, not a setting silently ignored.
READS = {
    "train": ("task", "data", "reference_quality", "roll_in", "roll_out",
              "beta", "passes", "seed", "eta0"),
    # seed keys the --history averaging stream
    "eval": ("task", "data", "seed"),
    # the grid sweeps every roll-in x roll-out cell itself
    "grid": ("task", "data", "test_data", "reference_quality", "beta",
             "passes", "seed", "eta0"),
    # roll-outs always use the 'bad' reference, which reads no gold labels
    "bandit": ("task", "data", "beta", "seed", "eta0"),
}


def _config_and_data(command, config_path, overrides):
    """The resolved config from the config file and the flags (a flag
    overrides the file), and the dataset its `data` path names. A file key
    that `command` does not read is an L2SError."""
    mapping = experiment.read_config(config_path) if config_path else {}
    for key in mapping:
        if key not in READS[command]:
            raise L2SError(f"{command} does not read config key {key!r}; "
                           f"it reads {', '.join(READS[command])}")
    for key, value in overrides.items():
        if value is not None:
            mapping[key] = value
    cfg = experiment.build_config(mapping)
    if not cfg.data:
        raise L2SError("data path is required")
    return cfg, experiment.load_dataset(cfg.task, cfg.data)


def _at_least(low, **options):
    """An L2SError for the first of `options` below `low`."""
    for name, value in options.items():
        if value < low:
            raise L2SError(f"--{name} {value} must be at least {low}")


class _ErrorBoundary(click.Group):
    """The one map from a run's outcome to its exit code. It runs click
    with `standalone_mode=False`, whatever the caller asks, and always
    exits: 0 on success, 3 on a CheckFailed (its `[FAIL]` line goes to
    stdout), 2 on a DataFormatError, 1 on any other L2SError, an OSError,
    a usage error or an abort, and a ClickException's own code otherwise.
    """

    def main(self, *args, standalone_mode=True, **extra):
        try:
            # an Exit's code (--help gives one) or a command's None
            code = super().main(*args, standalone_mode=False, **extra)
        except CheckFailed as exc:
            click.echo(f"[FAIL] {exc}")
            sys.exit(3)
        except DataFormatError as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(2)
        except (L2SError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except click.Abort:
            sys.exit(1)
        except click.ClickException as exc:
            exc.show()
            sys.exit(1 if isinstance(exc, click.UsageError) else exc.exit_code)
        sys.exit(code or 0)


def config_options(command):
    """`--config` and one flag per ExperimentConfig field `command` reads."""
    def add(fn):
        fn = click.option("--config", "config_path",
                          type=click.Path(exists=True), default=None,
                          help="key=value config file")(fn)
        for name in reversed(READS[command]):
            flag = "--" + name.replace("_", "-")
            fn = click.option(flag, name, default=None)(fn)
        return fn
    return add


@click.group(cls=_ErrorBoundary)
def main():
    """Learning-to-search structured prediction toolkit."""


@main.command()
@config_options("train")
@click.option("--out", required=True, type=click.Path(),
              help="model file to write")
@click.option("--history-out", type=click.Path(), default=None,
              help="optional .npz archive of per-instance policy snapshots")
@click.option("--diagnostics-out", type=click.Path(), default=None,
              help="optional JSON-lines per-instance diagnostics")
def train(config_path, out, history_out, diagnostics_out, **overrides):
    """Train a model on a dataset and save it."""
    cfg, dataset = _config_and_data("train", config_path, overrides)
    chash = experiment.config_hash(cfg)

    def on_instance(diag):
        diag_fh.write(json.dumps({"config": chash, **diag}) + "\n")

    # closed on every exit path: a failed run leaves its rows on disk
    diag = open(diagnostics_out, "w") if diagnostics_out else nullcontext()
    with diag as diag_fh:
        trainer = experiment.train(dataset, cfg.plan(), cfg.passes,
                                   quality=cfg.reference_quality,
                                   eta0=cfg.eta0, seed=cfg.seed,
                                   record_history=bool(history_out),
                                   on_instance=on_instance if diag_fh else None)
    trainer.learner.save(out)
    if history_out:
        trainer.history.save(history_out, config=chash)
    click.echo(f"config {chash}: trained on "
               f"{len(dataset.records)} instances x {cfg.passes} passes; "
               f"model -> {out}")


@main.command("eval")
@config_options("eval")
@click.option("--model", "model_path", type=click.Path(exists=True),
              default=None)
@click.option("--history", "history_path", type=click.Path(exists=True),
              default=None,
              help="evaluate the averaged policy from a snapshot archive")
def eval_cmd(config_path, model_path, history_path, **overrides):
    """Evaluate a saved model on a dataset; prints the task metric."""
    if bool(model_path) == bool(history_path):
        raise L2SError("eval takes one of --model and --history")
    cfg, dataset = _config_and_data("eval", config_path, overrides)
    if history_path:
        # the trained snapshots: all but the untrained snapshot 0
        policy = AveragedPolicy(PolicyPool.load(history_path),
                                rng.substream(cfg.seed, rng.AVERAGING),
                                first=1)
    else:
        learner = CostSensitiveLearner.load(model_path)
        policy = learner.policy()
    name, value = experiment.evaluate(dataset, policy)
    click.echo(f"{name} {value:.6f}")


@main.command()
@config_options("grid")
@click.option("--out", type=click.Path(), default=None,
              help="machine-readable JSON grid report")
def grid(config_path, out, **overrides):
    """Run all six roll-in x roll-out combinations and tabulate them."""
    cfg, dataset = _config_and_data("grid", config_path, overrides)
    if cfg.test_data:
        train_set = dataset
        test_set = experiment.load_dataset(cfg.task, cfg.test_data)
    else:
        train_set, test_set = experiment.split_dataset(dataset)
    report = experiment.run_grid(train_set, test_set, cfg)
    click.echo(experiment.render_grid(report))
    if out:
        with open(out, "w") as fh:
            json.dump(dataclasses.asdict(report), fh, indent=2)
        click.echo(f"report -> {out}")


@main.command("bandit")
@config_options("bandit")
@click.option("--rounds", default=1000, type=int)
@click.option("--epsilon", default=0.1, type=float)
@click.option("--log-out", type=click.Path(), default=None,
              help="JSON-lines session log")
def bandit_cmd(config_path, rounds, epsilon, log_out, **overrides):
    """Simulate bandit rounds; gold labels feed only the loss oracle.

    The policies and the reference never see the labels: roll-outs use
    the 'bad' reference quality, the one that reads no gold, so the
    bandit reads no reference_quality setting (see READS). Round r's
    reference draws from its own stream, seeded by (seed, REFERENCE, r).
    """
    _at_least(1, rounds=rounds)
    cfg, dataset = _config_and_data("bandit", config_path, overrides)
    costs = experiment.KINDS[cfg.task].costs
    for no, record in enumerate(dataset.records, 1):
        bad = [c for c in costs(record) if not 0.0 <= c <= 1.0]
        if bad:
            raise DataFormatError(f"{cfg.data}: instance {no} has cost "
                                  f"{bad[0]} outside the bandit's loss "
                                  "range [0, 1]")
    state = banditmod.BanditState(
        experiment.task_dimension(dataset), epsilon=epsilon,
        beta=cfg.beta, seed=cfg.seed, eta0=cfg.eta0)
    pick = rng.substream(cfg.seed, rng.DATA)
    # the window of exploit losses the closing line averages
    window = deque(maxlen=100)
    with open(log_out, "w") if log_out else nullcontext() as log_fh:
        for round_id in range(rounds):
            i = int(pick.integers(len(dataset.records)))
            task = experiment.make_task(dataset, i, normalize_loss=True)
            reference = task.reference_policy(
                "bad", seed=rng.derive_seed(cfg.seed, rng.REFERENCE, round_id))
            state, outcome = banditmod.bandit_step(
                state, task, lambda end: core.end_loss(task, end), reference)
            if outcome.mode == "exploited":
                window.append(outcome.observed_loss)
            if log_fh:
                entry = {"round": round_id, "instance": i,
                         "mode": outcome.mode,
                         "loss": outcome.observed_loss}
                if outcome.exploration_record:
                    entry.update({k: outcome.exploration_record[k]
                                  for k in ("t", "action", "k", "rollout")})
                log_fh.write(json.dumps(entry) + "\n")
    avg = f"{sum(window) / len(window):.4f}" if window else "n/a"
    click.echo(f"rounds {rounds}  explored {state.n_explore}  "
               f"exploit-loss (last {len(window)}): {avg}")


# -- exact-check suites --

@main.group()
def check():
    """Exact small-space verification suites (exit 3 on failure)."""


def _report(name, ok, detail):
    if not ok:
        raise CheckFailed(f"{name}: {detail}")
    click.echo(f"[PASS] {name}: {detail}")


@check.command()
@click.option("--models", default=100, type=int)
@click.option("--pairs", default=10, type=int)
@click.option("--seed", default=0, type=int)
def identity(models, pairs, seed):
    """Telescoping difference identity on random exact models."""
    _at_least(1, models=models, pairs=pairs)
    _at_least(0, seed=seed)
    worst = 0.0
    g = rng.substream(seed, rng.EVAL)
    for model in theory.random_models(seed, models):
        pols = theory.enumerate_policies(model)
        for _ in range(pairs):
            p1, p2 = (pols[int(g.integers(len(pols)))] for _ in range(2))
            lhs, rhs1, rhs2 = theory.check_difference_identity(model, p1, p2)
            worst = max(worst, abs(lhs - rhs1), abs(lhs - rhs2))
    _report("difference-identity", worst <= 1e-9,
            f"{models} models x {pairs} pairs, max deviation {worst:.2e}")


@check.command()
@click.option("--models", default=50, type=int)
@click.option("--rounds", default=30, type=int)
@click.option("--seed", default=0, type=int)
def bound(models, rounds, seed):
    """Convex-combination regret bound on trained runs."""
    _at_least(1, models=models, rounds=rounds)
    _at_least(0, seed=seed)
    failures = 0
    total = 0
    for model in theory.random_models(seed, models):
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            plan = RolloutPlan(roll_in="learned", roll_out="mixture",
                               beta=beta, seed=seed)
            _, task, trace, _ = theory.run_training(model, plan, rounds)
            ref = task.reference_policy()
            report = theory.check_regret_bound(model, ref, trace, beta)
            total += 1
            failures += 0 if report.satisfied else 1
    _report("regret-bound", failures == 0,
            f"{total - failures}/{total} model x beta runs satisfied")


@check.command()
@click.option("--eps", default=0.1, type=float)
@click.option("--rounds", default=500, type=int)
def counterexamples(eps, rounds):
    """Both failure demonstrations on the fixture spaces."""
    # the roll-out demo checks --eps and --rounds before it runs, so it
    # runs first: a bad option then ends the command before any verdict
    r2 = theory.reference_rollout_failure(theory.shared_feature_chooser(eps),
                                          rounds=rounds)
    r1 = theory.reference_rollin_failure(theory.two_level_chooser())
    ok1 = (r1.unvisited_signatures and r1.worst_zero_regret_J - r1.J_ref >= 100.0)
    _report("reference-rollin-failure", bool(ok1),
            f"unvisited {sorted(r1.unvisited_signatures)}, "
            f"worst zero-regret J {r1.worst_zero_regret_J:g} "
            f"vs reference J {r1.J_ref:g}")
    ok2 = r2.deviation_gap > 0 and r2.mixture_J < r2.J_learned
    _report("reference-rollout-failure", bool(ok2),
            f"learned J {r2.J_learned:g}, best deviation J "
            f"{r2.best_deviation_J:g}, mixture J {r2.mixture_J:g}")


@check.command()
@click.option("--horizon", "-T", default=3, type=int)
def snake(horizon):
    """Exponential local-search lower bound via hypercube induced paths."""
    _at_least(1, horizon=horizon)
    bits, updates = theory.snake_lower_bound(horizon)
    _report(f"snake-T{horizon}", True,
            f"{updates} updates along {'->'.join(bits)}")


@check.command()
@click.option("--trials", default=100000, type=int)
@click.option("--beta", default=0.5, type=float)
@click.option("--seed", default=0, type=int)
def unbiasedness(trials, beta, seed):
    """Monte Carlo mean of the importance-weighted cost vs enumeration."""
    _at_least(0, seed=seed)
    model = theory.shared_feature_chooser()
    weights = np.zeros(theory.ExactModelTask(model).dimension)
    ok = True
    details = []
    for action in range(max(len(e) for e in model.edges.values())):
        mc, exact_value, sd = banditmod.unbiasedness_probe(
            model, weights, action, trials, beta=beta, seed=seed)
        se = sd / np.sqrt(trials)
        inside = abs(mc - exact_value) <= 3 * se
        ok = ok and inside
        details.append(f"a{action}: mc {mc:.4f} exact {exact_value:.4f} "
                       f"(3se {3 * se:.4f})")
    _report("bandit-unbiasedness", ok, "; ".join(details))


@main.command("gen-data")
@click.option("--task", "kind", required=True,
              type=click.Choice(experiment.TASK_KINDS))
@click.option("--count", default=100, type=int)
@click.option("--seed", default=0, type=int)
@click.option("--out", required=True, type=click.Path())
def gen_data(kind, count, seed, out):
    """Write a seeded synthetic dataset in the on-disk format."""
    _at_least(1, count=count)
    _at_least(0, seed=seed)
    experiment.KINDS[kind].write(out, count, seed)
    click.echo(f"{count} {kind} instances -> {out}")


if __name__ == "__main__":
    main()
