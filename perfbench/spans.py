"""Span tracing around the public functions of `l2s`, from outside it.

`Tracer.install` replaces functions and methods of the loaded `l2s`
modules with wrappers.  Each wrapped call records a span (name, start,
end, parent) in memory and adds to per-name aggregates: calls, total
time and self time (its duration minus the time its child spans cover).
The spans are written out by `Tracer.save` when the run ends.  Nothing
inside `src/l2s` changes, and no wrapper touches a random stream or an
argument, so a traced run trains the same models as an untraced one.
"""

import time
from array import array
from collections import defaultdict

# frame layout on the span stack
_NAME, _START, _CHILD, _PARENT, _INDEX, _END = range(6)
# spans kept for `save`; the aggregates count every span
MAX_SPANS = 1_000_000


def _l2s_modules():
    import sys
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "l2s" or name.startswith("l2s."))]


def replace_function(owner, attr, make):
    """Replace `owner.attr` by `make(current)` in every loaded l2s module.

    Modules that imported the function by name hold their own reference,
    so each of those is replaced too.
    """
    current = getattr(owner, attr)
    wrapper = make(current)
    for mod in _l2s_modules():
        for key, value in list(vars(mod).items()):
            if value is current:
                setattr(mod, key, wrapper)
    return wrapper


def replace_method(cls, attr, make):
    """Replace a method (or classmethod) defined on `cls` by `make(current)`."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.total = []
        self.self_time = []
        self.stack = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self.counters = defaultdict(float)
        # distinct (task, depth, payload) states seen by action_features
        self._states = set()
        self._pinned = {}
        self.distinct_states = 0
        # label of the grid cell being trained, for per-cell counts
        self.context = None

    # -- aggregates --

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def stat(self, name):
        """(calls, total seconds, self seconds) of one span name."""
        i = self._ids.get(name)
        if i is None:
            return 0, 0.0, 0.0
        return self.calls[i], self.total[i], self.self_time[i]

    def span_count(self):
        return sum(self.calls)

    def end_round(self):
        """Fold the distinct-state set into its count; frees the pins."""
        self.distinct_states += len(self._states)
        self._states.clear()
        self._pinned.clear()

    # -- wrappers --

    def _record(self, nid, parent_index):
        """Index of a new span slot, or -1 once `MAX_SPANS` are kept."""
        if len(self.span_start) >= MAX_SPANS:
            self.spans_dropped += 1
            return -1
        self.span_name.append(nid)
        self.span_parent.append(parent_index)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return len(self.span_start) - 1

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper recording one span per call of `fn`.

        `before(frame, args)` runs before the span starts and
        `after(frame, args, result)` after it ends, so neither counts in
        the span's own time.
        """
        nid = self._id(name)
        stack = self.stack
        clock = time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time
        record = self._record

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = record(nid, parent[_INDEX] if parent is not None else -1)
            frame = [nid, 0.0, 0.0, parent, index, 0.0]
            if before is not None:
                before(frame, args)
            stack.append(frame)
            frame[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = frame[_END] = clock()
                stack.pop()
                dur = end - frame[_START]
                calls[nid] += 1
                total[nid] += dur
                self_time[nid] += dur - frame[_CHILD]
                if parent is not None:
                    parent[_CHILD] += dur
                if index >= 0:
                    self.span_start[index] = frame[_START]
                    self.span_end[index] = end
            if after is not None:
                after(frame, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def parent_name(self, frame, up=1):
        for _ in range(up):
            frame = frame[_PARENT]
            if frame is None:
                return None
        return self.names[frame[_NAME]]

    # -- installation --

    def install(self):
        """Wrap the public entry points of every `l2s` layer."""
        from l2s import bandit, core, cslearn, experiment, sparse, trainer
        from l2s.tasks import io, labeltree, parse, sequence
        from l2s.theory import bounds, exact, snake

        def patch_function(owner, attr, name, **hooks):
            replace_function(owner, attr,
                             lambda fn: self.wrap(name, fn, **hooks))

        def patch_method(cls, attr, name, **hooks):
            replace_method(cls, attr, lambda fn: self.wrap(name, fn, **hooks))

        task_classes = (sequence.SequenceTask, parse.ParseTask,
                        labeltree.LabelTreeTask, exact.ExactModelTask)
        for cls in task_classes:
            patch_method(cls, "action_features", "tasks.action_features",
                         before=self._note_state)
            patch_method(cls, "transition", "tasks.transition")
        for cls in (sequence.SequenceReference, parse.ParseReference,
                    labeltree.TreeReference):
            patch_method(cls, "choose", "tasks.reference",
                         before=self._step_reference)
        patch_method(exact.ExactPolicy, "choose", "theory.policy.choose",
                     before=self._step_exact)
        patch_method(core.LinearPolicy, "choose", "core.choose",
                     before=self._step_learned)
        patch_function(io, "read_sentences", "tasks.io.read")
        patch_function(io, "read_multiclass", "tasks.io.read")

        patch_method(sparse.SparseFeatures, "__post_init__",
                     "sparse.SparseFeatures.validate")
        patch_function(sparse, "dot", "sparse.dot")
        # also replaces the copies the task modules imported by name
        patch_function(sparse, "hash_index", "sparse.hash_index")

        patch_function(core, "act", "core.act")
        patch_function(core, "execute", "core.execute",
                       before=self._note_execute)

        patch_method(trainer.Trainer, "process_example",
                     "trainer.process_example", after=self._note_examples)
        patch_method(cslearn.CostSensitiveLearner, "update", "cslearn.update")
        patch_method(cslearn.CostSensitiveLearner, "predict", "cslearn.predict")
        patch_method(cslearn.CostSensitiveLearner, "policy", "cslearn.policy",
                     before=self._note_policy_copy)
        patch_method(cslearn.CostSensitiveLearner, "save", "cslearn.save")
        patch_method(cslearn.CostSensitiveLearner, "load", "cslearn.load")

        patch_function(bandit, "bandit_step", "bandit.step",
                       after=self._note_bandit_step)
        patch_function(bandit, "_explore", "bandit.explore")
        patch_function(bandit, "unbiasedness_probe", "bandit.unbiasedness_probe")

        patch_function(experiment, "load_dataset", "experiment.load_dataset")
        patch_function(experiment, "train", "experiment.train",
                       before=self._enter_cell, after=self._leave_cell)
        patch_function(experiment, "evaluate", "experiment.evaluate")

        patch_function(exact, "state_distribution", "theory.state_distribution")
        patch_function(exact, "exact_Q", "theory.exact_Q")
        patch_function(bounds, "run_training", "theory.run_training")
        patch_function(bounds, "check_regret_bound", "theory.check_regret_bound")
        patch_function(bounds, "check_difference_identity",
                       "theory.check_difference_identity")
        patch_function(snake, "snake_lower_bound", "theory.snake")

    # -- hooks --

    def _note_state(self, frame, args):
        task, state = args[0], args[1]
        self._pinned[id(task)] = task  # keeps id(task) unique this round
        self._states.add((id(task), state.depth, state.payload))

    def _note_execute(self, frame, args):
        steps = args[3]
        self.counters["core.execute.steps"] += steps
        if self.parent_name(frame) == "trainer.process_example":
            self.counters["trainer.rollout.calls"] += 1
            self.counters[f"cell.rollout.calls[{self.context}]"] += 1

    def _step(self, frame, kind):
        parent = self.parent_name(frame)
        if parent == "trainer.process_example":
            self.counters["trainer.rollin.steps"] += 1
        elif parent == "core.execute" and \
                self.parent_name(frame, 2) == "trainer.process_example":
            self.counters[f"trainer.rollout.steps_{kind}"] += 1
            self.counters[f"cell.rollout.steps[{self.context}]"] += 1

    def _step_reference(self, frame, args):
        self._step(frame, "reference")

    def _step_learned(self, frame, args):
        self._step(frame, "learned")

    def _step_exact(self, frame, args):
        from l2s.theory.exact import StateSlotPolicy
        # the exact task's reference policy is a StateSlotPolicy
        kind = "reference" if isinstance(args[0], StateSlotPolicy) else "learned"
        self._step(frame, kind)

    def _note_examples(self, frame, args, result):
        examples, _ = result
        self.counters["trainer.examples.total"] += len(examples)
        self.counters["trainer.examples.informative"] += sum(
            1 for ex in examples if ex.costs.any())

    def _note_policy_copy(self, frame, args):
        self.counters["cslearn.policy.bytes_copied"] += args[0].weights.nbytes

    def _note_bandit_step(self, frame, args, result):
        _, outcome = result
        if outcome.mode == "exploited":
            self.counters["bandit.exploit.calls"] += 1
            self.counters["bandit.exploit.s"] += frame[_END] - frame[_START]

    def _enter_cell(self, frame, args):
        plan = args[1]
        self.context = f"{plan.roll_in}/{plan.roll_out}"

    def _leave_cell(self, frame, args, result):
        self.context = None

    # -- output --

    def save(self, path):
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
