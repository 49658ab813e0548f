"""Command-line harness: data generation, training, evaluation, the
roll-in x roll-out grid, bandit simulation, and the exact-check suites.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 failed
exact-check suite.
"""

import json
import sys
from dataclasses import fields

import click
import numpy as np

from . import bandit as banditmod
from . import core, experiment, rng, theory
from .cslearn import CostSensitiveLearner
from .errors import BadConfig, DataFormatError, L2SError
from .tasks import (
    gen_multiclass,
    gen_sequences,
    gen_trees,
    write_multiclass,
    write_sentences,
)


def _config_and_data(config_path, overrides):
    """The resolved config and the dataset its `data` path names."""
    mapping = experiment.read_config(config_path) if config_path else {}
    for key, value in overrides.items():
        if value is not None:
            mapping[key] = value
    cfg = experiment.build_config(mapping)
    if not cfg.data:
        raise BadConfig("data path is required")
    return cfg, experiment.load_dataset(cfg.task, cfg.data)


class _ErrorBoundary(click.Group):
    """Ends any subcommand's DataFormatError in exit code 2 and any other
    L2SError or OSError in exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DataFormatError as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(2)
        except (L2SError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


def config_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True),
                      default=None, help="key=value config file")(fn)
    for f in reversed(fields(experiment.ExperimentConfig)):
        flag = "--" + f.name.replace("_", "-")
        fn = click.option(flag, f.name, default=None)(fn)
    return fn


@click.group(cls=_ErrorBoundary)
def main():
    """Learning-to-search structured prediction toolkit."""


@main.command()
@config_options
@click.option("--out", required=True, type=click.Path(),
              help="model file to write")
@click.option("--history-out", type=click.Path(), default=None,
              help="optional .npz archive of per-instance policy snapshots")
@click.option("--diagnostics-out", type=click.Path(), default=None,
              help="optional JSON-lines per-instance diagnostics")
def train(config_path, out, history_out, diagnostics_out, **overrides):
    """Train a model on a dataset and save it."""
    cfg, dataset = _config_and_data(config_path, overrides)
    chash = experiment.config_hash(cfg)
    diag_fh = open(diagnostics_out, "w") if diagnostics_out else None

    def on_instance(diag):
        if diag_fh:
            diag_fh.write(json.dumps({"config": chash, **diag}) + "\n")

    trainer = experiment.train(dataset, cfg.plan(), cfg.passes,
                               quality=cfg.reference_quality,
                               eta0=cfg.eta0, seed=cfg.seed,
                               record_history=bool(history_out),
                               on_instance=on_instance)
    if diag_fh:
        diag_fh.close()
    trainer.learner.save(out)
    if history_out:
        np.savez_compressed(history_out, config=chash,
                            snapshots=np.stack(trainer.history))
    click.echo(f"config {chash}: trained on "
               f"{len(dataset.records)} instances x {cfg.passes} passes; "
               f"model -> {out}")


@main.command("eval")
@config_options
@click.option("--model", "model_path", type=click.Path(exists=True),
              default=None)
@click.option("--history", "history_path", type=click.Path(exists=True),
              default=None,
              help="evaluate the averaged policy from a snapshot archive")
def eval_cmd(config_path, model_path, history_path, **overrides):
    """Evaluate a saved model on a dataset; prints the task metric."""
    if not model_path and not history_path:
        raise BadConfig("either --model or --history is required")
    cfg, dataset = _config_and_data(config_path, overrides)
    if history_path:
        archive = np.load(history_path)
        from .trainer import AveragedPolicy
        policy = AveragedPolicy(list(archive["snapshots"][1:]),
                                rng.substream(cfg.seed, rng.AVERAGING))
    else:
        learner = CostSensitiveLearner.load(model_path)
        policy = learner.policy()
    name, value = experiment.evaluate(dataset, policy)
    click.echo(f"{name} {value:.6f}")


@main.command()
@config_options
@click.option("--out", type=click.Path(), default=None,
              help="machine-readable JSON grid report")
def grid(config_path, out, **overrides):
    """Run all six roll-in x roll-out combinations and tabulate them."""
    cfg, dataset = _config_and_data(config_path, overrides)
    if cfg.test_data:
        train_set = dataset
        test_set = experiment.load_dataset(cfg.task, cfg.test_data)
    else:
        train_set, test_set = experiment.split_dataset(dataset)
    report = experiment.run_grid(train_set, test_set, cfg)
    click.echo(experiment.render_grid(report))
    if out:
        payload = {
            "metric": report.metric,
            "higher_is_better": report.higher_is_better,
            "config_hash": report.config_hash,
            "cells": [{"roll_in": c.roll_in, "roll_out": c.roll_out,
                       "seed": c.seed, "value": c.value}
                      for c in report.cells],
        }
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2)
        click.echo(f"report -> {out}")


@main.command("bandit")
@config_options
@click.option("--rounds", default=1000, type=int)
@click.option("--epsilon", default=0.1, type=float)
@click.option("--log-out", type=click.Path(), default=None,
              help="JSON-lines session log")
def bandit_cmd(config_path, rounds, epsilon, log_out, **overrides):
    """Simulate bandit rounds; gold labels feed only the loss oracle.

    The policies and the (gold-free) reference never see the labels; the
    seeded-random 'bad' reference quality is used for roll-outs.
    """
    cfg, dataset = _config_and_data(config_path, overrides)
    state = banditmod.BanditState(
        experiment.task_dimension(dataset), epsilon=epsilon,
        beta=cfg.beta, seed=cfg.seed, eta0=cfg.eta0)
    pick = rng.substream(cfg.seed, rng.DATA)
    log_fh = open(log_out, "w") if log_out else None
    exploit_losses = []
    for round_id in range(rounds):
        i = int(pick.integers(len(dataset.records)))
        task = experiment.make_task(dataset, i, normalize_loss=True)
        reference = task.reference_policy("bad", seed=cfg.seed)
        state, outcome = banditmod.bandit_step(
            state, task, lambda end: core.end_loss(task, end), reference)
        if outcome.mode == "exploited":
            exploit_losses.append(outcome.observed_loss)
        if log_fh:
            entry = {"round": round_id, "instance": i,
                     "mode": outcome.mode,
                     "loss": outcome.observed_loss}
            if outcome.exploration_record:
                entry.update({k: outcome.exploration_record[k]
                              for k in ("t", "action", "k", "rollout")})
            log_fh.write(json.dumps(entry) + "\n")
    if log_fh:
        log_fh.close()
    window = exploit_losses[-100:]
    avg = sum(window) / len(window) if window else float("nan")
    click.echo(f"rounds {rounds}  explored {state.n_explore}  "
               f"exploit-loss (last {len(window)}): {avg:.4f}")


# -- exact-check suites --

@main.group()
def check():
    """Exact small-space verification suites (exit 3 on failure)."""


def _report(name, ok, detail):
    click.echo(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if not ok:
        sys.exit(3)


@check.command()
@click.option("--models", default=100, type=int)
@click.option("--pairs", default=10, type=int)
@click.option("--seed", default=0, type=int)
def identity(models, pairs, seed):
    """Telescoping difference identity on random exact models."""
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
    failures = 0
    total = 0
    for model in theory.random_models(seed, models):
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            from .trainer import RolloutPlan
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
    m1 = theory.two_level_chooser()
    r1 = theory.reference_rollin_failure(m1)
    ok1 = (r1.unvisited_signatures and r1.worst_zero_regret_J - r1.J_ref >= 100.0)
    _report("reference-rollin-failure", bool(ok1),
            f"unvisited {sorted(r1.unvisited_signatures)}, "
            f"worst zero-regret J {r1.worst_zero_regret_J:g} "
            f"vs reference J {r1.J_ref:g}")
    m2 = theory.shared_feature_chooser(eps)
    r2 = theory.reference_rollout_failure(m2, rounds=rounds)
    ok2 = r2.deviation_gap > 0 and r2.mixture_J < r2.J_learned
    _report("reference-rollout-failure", bool(ok2),
            f"learned J {r2.J_learned:g}, best deviation J "
            f"{r2.best_deviation_J:g}, mixture J {r2.mixture_J:g}")


@check.command()
@click.option("--horizon", "-T", default=3, type=int)
def snake(horizon):
    """Exponential local-search lower bound via hypercube induced paths."""
    bits, updates = theory.snake_lower_bound(horizon)
    _report(f"snake-T{horizon}", True,
            f"{updates} updates along {'->'.join(bits)}")


@check.command()
@click.option("--trials", default=100000, type=int)
@click.option("--beta", default=0.5, type=float)
@click.option("--seed", default=0, type=int)
def unbiasedness(trials, beta, seed):
    """Monte Carlo mean of the importance-weighted cost vs enumeration."""
    model = theory.shared_feature_chooser()
    from .theory import exact as ex
    task = ex.ExactModelTask(model)
    weights = np.zeros(task.dimension)
    ok = True
    details = []
    for action in range(task.action_arity_bound):
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
    if kind == "sequence":
        data = gen_sequences(count, seed)
        write_sentences(out, [(toks, tags, None) for toks, tags in data])
    elif kind == "parse":
        data = gen_trees(count, seed)
        write_sentences(out, [(toks, None, heads) for toks, heads in data])
    else:
        write_multiclass(out, gen_multiclass(count, seed))
    click.echo(f"{count} {kind} instances -> {out}")


def entry():
    """Console entry point with the declared exit-code contract."""
    try:
        main(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except (click.UsageError, click.Abort) as exc:
        if isinstance(exc, click.UsageError):
            exc.show()
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)


if __name__ == "__main__":
    entry()
