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

import functools

from ..core import SearchTask, SeededReference, StateRef, argmin
from ..errors import L2SError
from ..sparse import (FEATURE_CACHE_SIZE, TOKEN_CACHE_SIZE, ActionFeatures,
                      SparseFeatures, hash_index, hash_suffix, prefix_crc)

SHIFT, REDUCE_LEFT, REDUCE_RIGHT = 0, 1, 2
BASE_BITS = 15
BASE = 1 << BASE_BITS
_BIAS = (hash_index("bias", BASE), 1.0)
# dist= is 1..4 between s0 and b0, capped, and 5 when either is missing
_DIST = {d: (hash_index(f"dist={d}", BASE), 1.0) for d in range(1, 6)}
# the live actions by (buffer not empty, stack items capped at 2); with
# the buffer empty the stack is never empty, and one item is the end
_LEGAL = {(True, 0): (SHIFT,), (True, 1): (SHIFT, REDUCE_LEFT),
          (True, 2): (SHIFT, REDUCE_LEFT, REDUCE_RIGHT),
          (False, 1): (), (False, 2): (REDUCE_RIGHT,)}


@functools.lru_cache(maxsize=TOKEN_CACHE_SIZE)
def _token_keys(token):
    """The (index, 1.0) pairs of the keys that read one token, one tuple
    per pair, shared by every cached feature set that holds it: for
    each role s0, s1, b0 and b1 its word key, then its 2-character
    prefix key (s0=, s0p=, s1=, s1p=, ...); last, the CRCs that start
    the pair keys s0b0= and s0pb0p= with the token as s0. A missing item
    reads the token `<none>`."""
    prefix = token[:2]
    keys = []
    for role in ("s0", "s1", "b0", "b1"):
        keys += ((hash_index(f"{role}={token}", BASE), 1.0),
                 (hash_index(f"{role}p={prefix}", BASE), 1.0))
    return (*keys, prefix_crc(f"s0b0={token}|"), prefix_crc(f"s0pb0p={prefix}|"))


@functools.lru_cache(maxsize=FEATURE_CACHE_SIZE)
def _features(s0, s1, b0, b1, dist, legal):
    """The ActionFeatures of every state that reads this context: the
    tokens at s0, s1, b0 and b1, the dist= value and the legal actions,
    one base block per global action id, not per legal-action slot."""
    k_s0 = _token_keys(s0)
    k_s1 = _token_keys(s1)
    k_b0 = _token_keys(b0)
    k_b1 = _token_keys(b1)
    # coarse 2-char prefixes generalize across the vocabulary
    pairs = sorted({_BIAS, k_s0[0], k_s0[1], k_s1[2], k_s1[3], k_b0[4], k_b0[5],
                    k_b1[6], k_b1[7], (hash_suffix(k_s0[8], b0, BASE), 1.0),
                    (hash_suffix(k_s0[9], b0[:2], BASE), 1.0), _DIST[dist]})
    return ActionFeatures(SparseFeatures(tuple(pairs), BASE), legal, 3 * BASE)


class ParseTask(SearchTask):
    """Search space over parser configurations for one sentence.

    State payload: (stack tuple, buffer start index, wrong_so_far, arcs),
    where wrong_so_far counts the arcs made so far whose head is not the
    dependent's gold head, and arcs is the last arc made as a
    (dependent, head, parent) link to the arcs before it (None before
    the first).
    """

    def __init__(self, tokens, gold_heads):
        self.tokens = list(tokens)
        self.n = len(self.tokens)
        if self.n < 1:
            raise L2SError("empty sentence")
        self.gold_heads = list(gold_heads)
        if len(self.gold_heads) != self.n:
            raise L2SError(f"{len(self.gold_heads)} gold heads for "
                           f"{self.n} tokens")
        for head in self.gold_heads:
            if not 0 <= head <= self.n:
                raise L2SError(f"gold head {head} outside 0..{self.n}")
        self.base = BASE
        self.horizon = 2 * self.n - 1
        self.dimension = 3 * self.base

    def start_state(self):
        return StateRef(0, ((), 1, 0, None))

    def legal_actions(self, state):
        """The transition ids of the live actions, in action order."""
        stack, buf, _, _ = state.payload
        return _LEGAL[buf <= self.n, min(len(stack), 2)]

    def transition(self, state, action):
        depth, (stack, buf, wrong, arcs) = state
        # the slot of `action` in legal_actions(state), in closed form:
        # with a buffer the slots are the transition ids themselves, and
        # without one the only slot is REDUCE_RIGHT
        act = action if buf <= self.n else REDUCE_RIGHT
        if act == SHIFT:
            return StateRef(depth + 1, (stack + (buf,), buf + 1, wrong, arcs))
        dependent = stack[-1]
        head = buf if act == REDUCE_LEFT else stack[-2]
        wrong += head != self.gold_heads[dependent - 1]
        return StateRef(depth + 1,
                        (stack[:-1], buf, wrong, (dependent, head, arcs)))

    def feature_key(self, state):
        stack, buf, _, _ = state.payload
        return stack[-2:], buf

    def action_features(self, state):
        stack, buf, _, _ = state.payload
        n, tokens = self.n, self.tokens
        s0 = stack[-1] if stack else 0
        s1 = stack[-2] if len(stack) >= 2 else 0
        b0 = buf if buf <= n else 0
        dist = min(abs(b0 - s0), 4) if s0 and b0 else 5
        return _features(tokens[s0 - 1] if s0 else "<none>",
                         tokens[s1 - 1] if s1 else "<none>",
                         tokens[b0 - 1] if b0 else "<none>",
                         tokens[buf] if buf < n else "<none>",
                         dist, self.legal_actions(state))

    def predicted_heads(self, state):
        """Heads at an end state, -1 where none was made; the lone stack
        survivor attaches to root."""
        stack, _, _, arcs = state.payload
        heads = [-1] * self.n
        while arcs is not None:
            dependent, head, arcs = arcs
            heads[dependent - 1] = head
        if len(stack) == 1:
            heads[stack[0] - 1] = 0
        return heads

    def terminal_loss(self, state):
        stack, _, wrong, _ = state.payload
        if len(stack) == 1:
            wrong += self.gold_heads[stack[0] - 1] != 0
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
        stack, buf, _, _ = payload
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
        return ParseReference(self, quality, seed)


class ParseReference(SeededReference):
    """Dynamic-oracle reference with controllable quality.

    optimal: a minimum-cost legal action (ties: lowest action id).
    suboptimal: greedy only when exactly one zero-cost action exists,
    otherwise a seeded arbitrary legal action.
    bad: a seeded arbitrary legal action.
    """

    def choose(self, task, state):
        legal = self.task.legal_actions(state)
        if self.quality == "bad":
            return int(self.generator.integers(len(legal)))
        costs = [self.task.action_cost(state.payload, a) for a in legal]
        if self.quality == "optimal":
            return argmin(costs)
        zero = [i for i, c in enumerate(costs) if c == 0]
        if len(zero) == 1:
            return zero[0]
        return int(self.generator.integers(len(legal)))
