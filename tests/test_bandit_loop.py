"""The bandit session against a literal bandit loop.

`oracles.bandit` spells an `l2s bandit` session out from task methods,
their reference policies and `rng` substreams alone; `bandit.session`,
the loop the `bandit` command runs, must end with the same weight bytes
and log the same rounds for every task kind.
A change meant to leave the bandit alone leaves this file alone; a
change to what the bandit does edits the oracle with it.
"""

import numpy as np
import pytest

from l2s import bandit, experiment

from oracles import bandit as literal_bandit

SEED = 3
ROUNDS = 150
EPSILON = 0.3
BETA = 0.5


def run(dataset):
    """The final weights and each round's (mode, instance, loss, t,
    action, k, rollout) of the session `l2s bandit` runs."""
    state = bandit.BanditState(experiment.task_dimension(dataset),
                               epsilon=EPSILON, beta=BETA, seed=SEED)
    records = []
    for _, i, out in bandit.session(state, dataset, ROUNDS):
        rec = out.exploration_record or {}
        records.append((out.mode, i, out.observed_loss,
                        *(rec.get(key) for key in
                          ("t", "action", "k", "rollout"))))
    return state.learner.weights, records


@pytest.mark.parametrize("kind", experiment.TASK_KINDS)
def test_session_equals_the_literal_loop(tmp_path, kind):
    path = tmp_path / f"{kind}.data"
    experiment.KINDS[kind].write(path, 20, SEED)
    dataset = experiment.load_dataset(kind, path)
    weights, records = run(dataset)
    want_weights, want_records = literal_bandit(dataset, ROUNDS, EPSILON,
                                                BETA, SEED)
    assert records == want_records
    assert weights.tobytes() == np.array(want_weights,
                                         dtype=np.float64).tobytes()
    # the comparison reaches both modes, both roll-outs and a learned
    # policy that is not the zero vector
    assert {r[0] for r in records} == {"explored", "exploited"}
    assert {r[6] for r in records} == {"reference", "learned", None}
    assert weights.any()
