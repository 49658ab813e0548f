"""The training path against a literal LOLS loop.

`oracles.lols` spells the paper's Algorithm 1 out from task methods and
`rng` substreams alone; `experiment.train` must end with the same
weight bytes for every task kind, reference quality and grid cell. A
change meant to leave training alone leaves this file alone; a change
to what training does edits the oracle with it.
"""

import numpy as np
import pytest

from l2s import experiment, rng
from l2s.core import REFERENCE_QUALITIES
from l2s.trainer import RolloutPlan

from oracles import lols

SEED = 5
PASSES = 2


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """12 `gen-data` instances of each kind, read back from their files."""
    out = {}
    for kind in experiment.TASK_KINDS:
        path = tmp_path_factory.mktemp("lols") / f"{kind}.data"
        experiment.KINDS[kind].write(path, 12, SEED)
        out[kind] = experiment.load_dataset(kind, path)
    return out


@pytest.mark.parametrize("quality", REFERENCE_QUALITIES)
@pytest.mark.parametrize("kind", experiment.TASK_KINDS)
def test_train_equals_the_literal_loop(datasets, kind, quality):
    dataset = datasets[kind]
    for idx, (roll_in, roll_out) in enumerate(experiment.GRID_CELLS):
        plan = RolloutPlan(roll_in, roll_out, beta=0.5,
                           seed=rng.derive_seed(SEED, rng.GRID, idx))
        trainer = experiment.train(dataset, plan, PASSES, quality=quality,
                                   seed=SEED)
        want = np.array(lols(dataset, plan, PASSES, quality, seed=SEED),
                        dtype=np.float64)
        assert trainer.learner.weights.tobytes() == want.tobytes(), (
            roll_in, roll_out)
