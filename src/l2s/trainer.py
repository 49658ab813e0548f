"""Online roll-in / roll-out training loop.

For each structured example: roll in with the chosen roll-in policy to
every decision point, try every one-step deviation, complete each with
the roll-out policy, and turn the resulting end-state losses into one
cost-sensitive example per decision point (costs are losses minus their
minimum). The T examples are then fed to the online learner in decision
order, and the updated policy snapshot is appended to the history, a
`PolicyPool` that keeps each snapshot as the weights its update wrote.
"""

import contextlib
import math
import tokenize
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from . import core, rng
from .cslearn import CostSensitiveExample, CostSensitiveLearner
from .errors import L2SError

ROLL_IN_CHOICES = ("reference", "learned")
ROLL_OUT_CHOICES = ("reference", "learned", "mixture")
# every CHECKPOINT_EVERY-th pool snapshot records the values at every
# index written so far, so a snapshot is rebuilt from its checkpoint and
# at most CHECKPOINT_EVERY - 1 deltas
CHECKPOINT_EVERY = 8


@dataclass
class RolloutPlan:
    """Strategy knobs for one training run."""

    roll_in: str = "learned"
    roll_out: str = "mixture"
    beta: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.roll_in not in ROLL_IN_CHOICES:
            raise L2SError(f"roll_in must be one of {ROLL_IN_CHOICES}")
        if self.roll_out not in ROLL_OUT_CHOICES:
            raise L2SError(f"roll_out must be one of {ROLL_OUT_CHOICES}")
        if not 0.0 <= self.beta <= 1.0:
            raise L2SError(f"beta {self.beta} outside [0, 1]")


def extract_costs(rollout_losses):
    """Shift rollout losses so the best action has cost exactly 0.

    The same array as `losses - losses.min()` over float64 numpy arrays,
    computed on Python floats.
    """
    losses = [float(x) for x in rollout_losses]
    if not losses:
        raise L2SError("empty loss vector")
    if not all(map(math.isfinite, losses)):
        raise L2SError(f"losses {np.array(losses)}")
    low = min(losses)
    if low == 0.0 and any(math.copysign(1.0, x) < 0.0
                          for x in losses if x == 0.0):
        # -0.0 - low depends on the sign of a zero low, and which of
        # mixed-sign zeros numpy's min returns depends on its reduction
        low = float(np.min(losses))
    return np.array([x - low for x in losses])


def complete_deviation(task, state, action, plan, reference, learned,
                       generator):
    """Take `action` at `state`, then finish the trajectory with the
    policy `plan.roll_out` picks: the reference, the learned policy, or
    for the mixture the reference with probability `plan.beta`, else the
    learned policy, from one `generator.random()` per roll-out. Returns
    (end state, roll-out policy)."""
    if plan.roll_out == "reference":
        policy = reference
    elif plan.roll_out == "learned":
        policy = learned
    else:
        policy = reference if generator.random() < plan.beta else learned
    nxt = task.transition(state, action)
    end = core.execute(task, policy, nxt, task.horizon - state.depth - 1)
    return end, policy


class PolicyPool:
    """The weight snapshots of one learner, kept as the weights each
    update wrote.

    Snapshot 0 is the zero vector a CostSensitiveLearner starts from.
    `append(weights, written)` records the values of `weights` at the
    indices `written`, which must hold every index changed since the
    last snapshot; every CHECKPOINT_EVERY-th snapshot records the values
    at every index written so far instead. Memory grows with the weights
    written, plus the touched values every CHECKPOINT_EVERY snapshots,
    not with the dimension.

    Iteration yields a copy of each `rebuild(i)`, which later appends
    leave alone. `rebuild(i)` writes snapshot i into one buffer the pool
    reuses, so its result holds only until the next `rebuild`. `save`
    and `load` keep a pool in an .npz archive.
    """

    def __init__(self, dimension):
        self.dimension = dimension
        # per snapshot (indices, values): a delta sets them over the
        # snapshot before it, a checkpoint over the zero vector
        self._entries = [(np.empty(0, dtype=np.intp), np.empty(0))]
        self._buffer = None
        self._dirty = self._entries[0][0]  # `_buffer` is 0.0 elsewhere

    def __len__(self):
        return len(self._entries)

    def append(self, weights, written):
        if len(weights) != self.dimension:
            raise L2SError(
                f"weights {len(weights)} != pool dimension {self.dimension}")
        idx = np.unique(np.asarray(written, dtype=np.intp))
        n = len(self._entries)
        if n % CHECKPOINT_EVERY == 0:
            idx = np.unique(np.concatenate(
                [e[0] for e in self._entries[n - CHECKPOINT_EVERY:]] + [idx]))
        if len(idx) and not 0 <= idx[0] <= idx[-1] < self.dimension:
            raise L2SError(f"written indices outside [0, {self.dimension})")
        self._entries.append((idx, weights[idx]))

    def rebuild(self, i):
        """Snapshot i in the pool's reused buffer."""
        i = range(len(self._entries))[i]
        # snapshot i's checkpoint, then the deltas after it
        start = i - i % CHECKPOINT_EVERY
        span = self._entries[start:i + 1]
        if self._buffer is None:
            self._buffer = np.zeros(self.dimension)
        buf = self._buffer
        buf[self._dirty] = 0.0
        for idx, values in span:
            buf[idx] = values
        # the next checkpoint, where there is one, holds every index the
        # span set: one reset write at the next rebuild, not one per entry
        nxt = start + CHECKPOINT_EVERY
        self._dirty = (self._entries[nxt][0] if nxt < len(self._entries)
                       else np.concatenate([idx for idx, _ in span]))
        return buf

    def __iter__(self):
        for i in range(len(self._entries)):
            yield self.rebuild(i).copy()

    def save(self, path, **extra):
        """Write the pool, and the arrays `extra`, to the .npz archive
        `path`: its `dimension`, and per snapshot j its entry's `indices`
        and `values` at `offsets[j]:offsets[j + 1]`."""
        indices, values = zip(*self._entries)
        np.savez_compressed(path, dimension=self.dimension,
                            offsets=np.cumsum([0] + [len(i) for i in indices]),
                            indices=np.concatenate(indices),
                            values=np.concatenate(values), **extra)

    @classmethod
    def load(cls, path):
        """The pool a `save` archive holds. Each snapshot after the first
        is replayed through `append` as the one before it with its
        entry's values set, over the archive's distinct indices numbered
        in order, so loading holds memory by the entries, not by the
        dimension the header declares. Anything else is an L2SError, as
        is an archive of the older form with one dense row per snapshot
        under `snapshots`, which no longer loads."""
        # np.load leaves a file it opened open when zipfile refuses the
        # archive, so a path is opened, and closed, here
        source = (contextlib.nullcontext(path) if hasattr(path, "read")
                  else open(path, "rb"))
        try:
            with source as file, np.load(file) as archive:
                if "snapshots" in archive:
                    raise ValueError("dense `snapshots` rows, an older "
                                     "form that is no longer read")
                arrays = [archive[key] for key in
                          ("dimension", "offsets", "indices", "values")]
            dimension, offsets, indices, values = _checked(*arrays)
        # also a member that does not inflate, a zip entry of a version
        # zipfile cannot read, an .npy header cut short mid-dict, or a zip
        # offset that seeks outside the file (OSError: the file is open)
        except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile,
                zlib.error, NotImplementedError, tokenize.TokenError,
                OSError) as exc:
            raise L2SError(f"{path} is not a snapshot archive: {exc}")
        keys = np.unique(indices)
        pool = cls(len(keys))
        weights = np.zeros(len(keys))
        for lo, hi in zip(offsets[1:-1], offsets[2:]):
            at = np.searchsorted(keys, indices[lo:hi])
            weights[at] = values[lo:hi]
            pool.append(weights, at)
        pool.dimension = dimension
        pool._entries = [(keys[at], v) for at, v in pool._entries]
        return pool


def _checked(dimension, offsets, indices, values):
    """A pool archive's arrays, checked; a problem is a ValueError."""
    if dimension.ndim or dimension.dtype.kind not in "iu" or dimension < 0:
        raise ValueError(f"dimension {dimension} is not a count")
    if (offsets.ndim != 1 or offsets.dtype.kind not in "iu" or len(offsets) < 2
            or offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1])
            or not offsets[-1] == len(indices) == len(values)):
        raise ValueError("offsets do not rise from 0 to the end of "
                         "indices and values")
    if offsets[1] != 0:
        raise ValueError("snapshot 0 is not the zero vector")
    if (indices.ndim != 1 or indices.dtype.kind not in "iu"
            or np.any(indices < 0) or np.any(indices >= dimension)):
        raise ValueError(f"indices are not integers in [0, {dimension})")
    if values.ndim != 1 or values.dtype.kind != "f":
        raise ValueError(f"values of dtype {values.dtype} are not floats")
    if not np.all(np.isfinite(values)):
        raise ValueError("values are not all finite")
    return (int(dimension), offsets, indices.astype(np.intp),
            values.astype(np.float64))


class Trainer:
    """Mutable training state: learner, policy history and RNG streams."""

    def __init__(self, dimension, plan, eta0=0.5, record_history=True):
        self.plan = plan
        self.learner = CostSensitiveLearner(dimension, eta0)
        # the history's snapshot 0 is the untrained initial policy; without
        # record_history there is no history
        self.history = PolicyPool(dimension) if record_history else None
        self.examples_seen = 0
        self.mixture_rng = rng.substream(plan.seed, rng.MIXTURE)

    def process_example(self, task, reference=None):
        """Run one structured example through the loop; returns diagnostics."""
        if reference is None:
            reference = task.reference_policy()
        # The learned policy reads the live weights, not a copy: no update
        # runs until every roll-out of this instance is done, so it stays
        # frozen for the whole instance, as LinearPolicy's memo needs.
        learned = core.LinearPolicy(self.learner.weights)
        roll_in = reference if self.plan.roll_in == "reference" else learned

        # one roll-in pass collecting the state at every decision point
        states = [task.start_state()]
        for _ in range(task.horizon - 1):
            s = states[-1]
            states.append(task.transition(s, roll_in.choose(task, s)))

        examples = []
        diag_actions, diag_costs = [], []
        for s_t in states:
            feats = task.action_features(s_t)
            losses = []
            for a in range(len(feats)):
                end, _ = complete_deviation(task, s_t, a, self.plan, reference,
                                            learned, self.mixture_rng)
                losses.append(core.end_loss(task, end))
            costs = extract_costs(losses)
            examples.append(CostSensitiveExample(feats, costs))
            diag_costs.append(costs.tolist())
            diag_actions.append(core.argmin(losses))

        self.learn(examples)
        diagnostics = {
            "instance": self.examples_seen,
            "best_actions": diag_actions,
            "cost_vectors": diag_costs,
        }
        return examples, diagnostics

    def learn(self, examples):
        """One update per cost-sensitive example, in order, then one
        history snapshot of the weights those updates wrote."""
        for ex in examples:
            self.learner.update(ex)
        self.examples_seen += 1
        if self.history is not None:
            self.history.append(self.learner.weights, [
                i for ex in examples
                for i in ex.per_action_features.weight_indices()])

    def post_update_loss(self, examples):
        """Mean cost of the current weights' prediction on `examples`."""
        return float(np.mean([
            float(ex.costs[self.learner.predict(ex)]) for ex in examples
        ])) if examples else 0.0


class AveragedPolicy:
    """Online-to-batch average: sample one of a PolicyPool's snapshots
    `first`, ..., len(pool) - 1 per trajectory.

    A sampled policy reads the pool's reused buffer, so it holds only
    until the pool's next `rebuild`.
    """

    def __init__(self, pool, generator, first=0):
        if len(pool) <= first:
            raise L2SError(f"no snapshot from {first} in a pool of "
                           f"{len(pool)}")
        self.pool = pool
        self.generator = generator
        self.first = first

    def sample(self):
        i = self.first + int(self.generator.integers(len(self.pool)
                                                     - self.first))
        return core.LinearPolicy(self.pool.rebuild(i))
