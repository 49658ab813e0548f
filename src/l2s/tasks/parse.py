"""Unlabeled dependency parsing with an arc-hybrid transition system.

Tokens are numbered 1..n with 0 the root sentinel. The stack starts
empty; actions are Shift (push buffer front), ReduceLeft (attach stack
top under the buffer front) and ReduceRight (attach stack top under the
item below it). When the buffer is empty and one item remains on the
stack, that item takes the root as head implicitly, so every trajectory
has exactly 2n - 1 transitions and yields a single-rooted tree.

The optimal reference takes a minimum-cost action under
`ParseTask.action_cost`, a dynamic-oracle heuristic that can over-count
the gold arcs an action makes unreachable (see its docstring).
"""

from .. import rng
from ..core import Policy, SearchTask, StateRef, argmin
from ..errors import MissingGold
from ..sparse import ActionFeatures, SparseFeatures, hash_index

SHIFT, REDUCE_LEFT, REDUCE_RIGHT = 0, 1, 2
ACTION_NAMES = ("shift", "reduce_left", "reduce_right")
DEFAULT_BASE_BITS = 15


class ParseTask(SearchTask):
    """Search space over parser configurations for one sentence.

    State payload: (stack tuple, buffer start index, heads tuple) where
    heads[i] is the assigned head of token i+1 (0 root, -1 unassigned).
    """

    def __init__(self, tokens, gold_heads=None, instance_id=0,
                 base_bits=DEFAULT_BASE_BITS):
        self.tokens = list(tokens)
        self.n = len(self.tokens)
        if self.n < 1:
            raise ValueError("empty sentence")
        self.gold_heads = list(gold_heads) if gold_heads is not None else None
        self.instance_id = instance_id
        self.base = 1 << base_bits
        self.horizon = 2 * self.n - 1
        self.dimension = 3 * self.base
        self.action_arity_bound = 3

    def start_state(self):
        return StateRef(self.instance_id, 0,
                        ((), 1, (-1,) * self.n))

    def _legal(self, payload):
        stack, buf, _ = payload
        acts = []
        if buf <= self.n:
            acts.append(SHIFT)
            if stack:
                acts.append(REDUCE_LEFT)
        if len(stack) >= 2:
            acts.append(REDUCE_RIGHT)
        return acts

    def legal_actions(self, state):
        return self._legal(state.payload)

    def action_count(self, state):
        if state.depth >= self.horizon:
            return 0
        return len(self._legal(state.payload))

    def transition(self, state, action):
        stack, buf, heads = state.payload
        act = self._legal(state.payload)[action]
        heads = list(heads)
        if act == SHIFT:
            stack = stack + (buf,)
            buf += 1
        elif act == REDUCE_LEFT:
            heads[stack[-1] - 1] = buf
            stack = stack[:-1]
        else:  # REDUCE_RIGHT
            heads[stack[-1] - 1] = stack[-2]
            stack = stack[:-1]
        return StateRef(self.instance_id, state.depth + 1,
                        (stack, buf, tuple(heads)))

    def _token(self, i):
        """Token string for 1-based index i, or a boundary marker."""
        return self.tokens[i - 1] if 1 <= i <= self.n else "<none>"

    def action_features(self, state):
        stack, buf, _ = state.payload
        s0 = stack[-1] if stack else 0
        s1 = stack[-2] if len(stack) >= 2 else 0
        b0 = buf if buf <= self.n else 0
        b1 = buf + 1 if buf + 1 <= self.n else 0
        dist = min(abs(b0 - s0), 4) if s0 and b0 else 5
        t_s0, t_s1 = self._token(s0), self._token(s1)
        t_b0, t_b1 = self._token(b0), self._token(b1)
        keys = [
            "bias",
            "s0=" + t_s0,
            "s1=" + t_s1,
            "b0=" + t_b0,
            "b1=" + t_b1,
            f"s0b0={t_s0}|{t_b0}",
            # coarse 2-char prefixes generalize across the vocabulary
            "s0p=" + t_s0[:2],
            "s1p=" + t_s1[:2],
            "b0p=" + t_b0[:2],
            "b1p=" + t_b1[:2],
            f"s0pb0p={t_s0[:2]}|{t_b0[:2]}",
            f"dist={dist}",
        ]
        idx = sorted({hash_index(k, self.base) for k in keys})
        # one base block per global action id, not per legal-action slot
        return ActionFeatures(SparseFeatures(tuple((i, 1.0) for i in idx), self.base),
                              tuple(self._legal(state.payload)), self.dimension)

    def predicted_heads(self, state):
        """Heads at an end state; the lone stack survivor attaches to root."""
        stack, _, heads = state.payload
        heads = list(heads)
        if len(stack) == 1:
            heads[stack[0] - 1] = 0
        return heads

    def terminal_loss(self, state):
        if self.gold_heads is None:
            raise MissingGold("unlabeled sentence has no loss")
        pred = self.predicted_heads(state)
        wrong = sum(1 for p, g in zip(pred, self.gold_heads) if p != g)
        return wrong / self.n  # 1 - UAS

    def decode(self, state):
        return self.predicted_heads(state)

    # -- dynamic oracle --

    def action_cost(self, payload, act):
        """Heuristic count of the gold arcs lost by taking `act`.

        It can over-count the arcs made unreachable, so it is not the
        action's regret: for gold heads [2, 3, 4, 0, 6, 4], stack
        (1, 2, 3, 4) and buffer front 5 it scores the three actions
        [0, 2, 2], whose true regrets are [0, 1, 1]. Its minimum has
        still been an optimal action in every exhaustive check
        (`tests/test_tasks.py`), which is all the optimal reference uses.
        """
        if self.gold_heads is None:
            raise MissingGold("oracle costs need gold heads")
        stack, buf, _ = payload
        gold = self.gold_heads
        in_buffer = lambda i: buf <= i <= self.n

        if act == SHIFT:
            b0 = buf
            c = sum(1 for s in stack[:-1] if gold[b0 - 1] == s)
            c += sum(1 for s in stack if gold[s - 1] == b0)
            if gold[b0 - 1] == 0 and stack:
                c += 1  # root head only reachable from an empty stack
            return c
        s0 = stack[-1]
        h = gold[s0 - 1]
        # children of s0 still in the buffer are lost either way
        c = sum(1 for d in range(buf, self.n + 1) if gold[d - 1] == s0)
        if act == REDUCE_LEFT:
            b0 = buf
            if h != b0 and (h == 0 or in_buffer(h)
                            or (len(stack) >= 2 and h == stack[-2])):
                c += 1
        else:  # REDUCE_RIGHT
            s1 = stack[-2]
            if h != s1 and (h == 0 or in_buffer(h)):
                c += 1
        return c

    def reference_policy(self, quality="optimal", seed=0):
        if self.gold_heads is None:
            raise MissingGold("reference policy needs gold heads")
        return ParseReference(self, quality, seed)


class ParseReference(Policy):
    """Dynamic-oracle reference with controllable quality.

    optimal: a minimum-cost legal action (ties: lowest action id).
    suboptimal: greedy only when exactly one zero-cost action exists,
    otherwise a seeded arbitrary legal action.
    bad: a seeded arbitrary legal action.
    """

    def __init__(self, task, quality, seed):
        self.task = task
        self.quality = quality
        self.generator = rng.substream(seed, rng.REFERENCE)

    def choose(self, task, state):
        legal = self.task.legal_actions(state)
        if self.quality == "bad":
            return int(self.generator.integers(len(legal)))
        costs = [self.task.action_cost(state.payload, a) for a in legal]
        if self.quality == "optimal":
            return argmin(costs, "lowest")
        if self.quality == "suboptimal":
            zero = [i for i, c in enumerate(costs) if c == 0]
            if len(zero) == 1:
                return zero[0]
            return int(self.generator.integers(len(legal)))
        raise ValueError(f"unknown reference quality {self.quality!r}")


def uas(task, predicted_heads):
    """Fraction of tokens with the correct head."""
    if task.gold_heads is None:
        raise MissingGold("no gold heads")
    right = sum(1 for p, g in zip(predicted_heads, task.gold_heads) if p == g)
    return right / task.n
