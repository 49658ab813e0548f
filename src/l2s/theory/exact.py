"""Fully enumerated search spaces for oracle evaluation.

An ExactModel lists every state with its depth, the ordered action slots
(each carrying a feature label and a successor), and terminal losses.
States whose ordered label tuple (their signature) coincides are
indistinguishable to feature-based policies and must receive the same
choice. The policy class is the set of per-signature label choices; a
chosen label matching several slots resolves to the uniform mixture over
them (the model cannot separate those slots).
"""

import itertools
from dataclasses import dataclass, field

from ..core import SearchTask, StateRef, Policy, argmin
from ..errors import DataFormatError, IllegalAction, L2SError
from ..sparse import ActionFeatures, SparseFeatures


@dataclass
class ExactModel:
    depths: dict
    edges: dict  # state -> list of (label, next_state), ordered action slots
    losses: dict  # terminal state -> loss
    start: str
    ref: dict = field(default_factory=dict)  # state -> reference label

    @property
    def horizon(self):
        return max(self.depths.values())

    def is_terminal(self, s):
        return s in self.losses

    def signature(self, s):
        return tuple(label for label, _ in self.edges.get(s, ()))

    def nonterminal_states(self):
        return [s for s in self.depths if not self.is_terminal(s)]

    def signatures(self):
        """Distinct signatures over non-terminal states, in first-seen order."""
        seen = {}
        for s in sorted(self.nonterminal_states(), key=lambda s: (self.depths[s], s)):
            seen.setdefault(self.signature(s), None)
        return list(seen)

    def validate(self):
        for s, d in self.depths.items():
            if self.is_terminal(s):
                continue
            if not self.edges.get(s):
                raise L2SError(f"non-terminal state {s} has no actions")
            for _, nxt in self.edges[s]:
                if self.depths[nxt] != d + 1:
                    raise L2SError(f"edge {s}->{nxt} does not increase depth by 1")
        return self


class ExactPolicy(Policy):
    """Evaluable policy over an ExactModel: a distribution over slots."""

    def slot_distribution(self, model, state):
        raise NotImplementedError

    def choose(self, task, state):
        # deterministic mode used by trajectory execution; mixtures must
        # be resolved by the caller before running trajectories
        dist = self.slot_distribution(task.model, state.payload)
        if len(dist) != 1:
            raise L2SError("stochastic exact policy cannot run a trajectory")
        return dist[0][0]


class TablePolicy(ExactPolicy):
    """Per-signature label choice; equal-label slots get uniform mass."""

    def __init__(self, choices):
        self.choices = dict(choices)  # signature -> label

    def slot_distribution(self, model, state):
        sig = model.signature(state)
        label = self.choices[sig]
        slots = [i for i, l in enumerate(sig) if l == label]
        if not slots:
            raise IllegalAction(f"label {label!r} not available in {sig}")
        p = 1.0 / len(slots)
        return [(i, p) for i in slots]

    def __repr__(self):
        return f"TablePolicy({self.choices})"


class SlotPolicy(ExactPolicy):
    """Deterministic per-signature slot choice (a learned policy's behavior)."""

    def __init__(self, slots):
        self.slots = dict(slots)  # signature -> slot index

    def slot_distribution(self, model, state):
        return [(self.slots[model.signature(state)], 1.0)]

    def __repr__(self):
        return f"SlotPolicy({self.slots})"


class StateSlotPolicy(ExactPolicy):
    """Per-state slot choice; for reference policies, which may see state
    identity (they are built from gold labels, not features)."""

    def __init__(self, slots):
        self.slots = dict(slots)  # state name -> slot index

    def slot_distribution(self, model, state):
        return [(self.slots[state], 1.0)]

    def __repr__(self):
        return f"StateSlotPolicy({self.slots})"


def enumerate_policies(model):
    """Every feature-consistent deterministic policy (by label choice)."""
    sigs = model.signatures()
    options = []
    for sig in sigs:
        labels = sorted(set(sig))
        options.append(labels)
    out = []
    for combo in itertools.product(*options):
        out.append(TablePolicy(dict(zip(sigs, combo))))
    return out


def reference_policy(model):
    """Deterministic policy from the model's marked reference labels.

    The reference may distinguish states that share a signature; a label
    matching several slots resolves to the first one.
    """
    slots = {}
    for s, label in model.ref.items():
        sig = model.signature(s)
        if label not in sig:
            raise L2SError(f"reference label {label!r} not available at {s}")
        slots[s] = sig.index(label)
    missing = [s for s in model.nonterminal_states() if s not in slots]
    if missing:
        raise L2SError(f"reference label missing for states {missing}")
    return StateSlotPolicy(slots)


# -- exact evaluation by enumeration --

def state_distribution(model, policy, t):
    """d_t: distribution over states at depth t when following `policy`."""
    dist = {model.start: 1.0}
    for _ in range(t):
        nxt = {}
        for s, p in dist.items():
            for slot, q in policy.slot_distribution(model, s):
                _, succ = model.edges[s][slot]
                nxt[succ] = nxt.get(succ, 0.0) + p * q
        dist = nxt
    return dist


def _expected_loss_from(model, policy, state):
    if model.is_terminal(state):
        return model.losses[state]
    total = 0.0
    for slot, q in policy.slot_distribution(model, state):
        _, succ = model.edges[state][slot]
        total += q * _expected_loss_from(model, policy, succ)
    return total


def exact_J(model, policy):
    """Expected end-state loss of running `policy` from the start state."""
    return _expected_loss_from(model, policy, model.start)


def exact_Q(model, policy, state, slot):
    """Expected loss of taking `slot` at `state`, then following `policy`."""
    if model.is_terminal(state):
        raise IllegalAction(f"{state} is terminal")
    if not 0 <= slot < len(model.edges[state]):
        raise IllegalAction(f"slot {slot} not legal at {state}")
    _, succ = model.edges[state][slot]
    return _expected_loss_from(model, policy, succ)


def exact_Q_policy(model, rollout_policy, state, acting_policy):
    """Q(s, pi'): expected loss of pi''s choice at s completed by rollout_policy."""
    total = 0.0
    for slot, q in acting_policy.slot_distribution(model, state):
        total += q * exact_Q(model, rollout_policy, state, slot)
    return total


def min_slot_Q(model, policy, state):
    """min_a Q^policy(state, a) over the state's live slots."""
    return min(exact_Q(model, policy, state, slot)
               for slot in range(len(model.edges[state])))


# -- learning on an exact model --

class ExactModelTask(SearchTask):
    """SearchTask adapter: one indicator feature per (signature, label).

    States sharing a signature present identical per-slot features, so a
    linear policy is exactly a choice of label per signature (ties between
    equal-label slots fall to the tie-break rule).
    """

    def __init__(self, model, instance_id=0):
        model.validate()
        self.model = model
        self.instance_id = instance_id
        self.horizon = model.horizon
        self.feature_index = {}
        for sig in model.signatures():
            for label in sorted(set(sig)):
                self.feature_index.setdefault((sig, label), len(self.feature_index))
        self.dimension = len(self.feature_index)
        # base 1: slot i of a signature reads the (sig, sig[i]) weight
        self.signature_features = {
            sig: ActionFeatures(SparseFeatures(((0, 1.0),), 1), tuple(
                self.feature_index[(sig, label)] for label in sig), self.dimension)
            for sig in model.signatures()}
        self.action_arity_bound = max(
            (len(e) for e in model.edges.values()), default=1)

    def start_state(self):
        return StateRef(self.instance_id, 0, self.model.start)

    def action_count(self, state):
        return len(self.model.edges.get(state.payload, ()))

    def transition(self, state, action):
        edges = self.model.edges[state.payload]
        if not 0 <= action < len(edges):
            raise IllegalAction(f"slot {action} at {state.payload}")
        return StateRef(self.instance_id, state.depth + 1, edges[action][1])

    def slot_feature(self, state_name, slot):
        sig = self.model.signature(state_name)
        return self.feature_index[(sig, sig[slot])]

    def action_features(self, state):
        return self.signature_features[self.model.signature(state.payload)]

    def terminal_loss(self, state):
        return self.model.losses[state.payload]

    def reference_policy(self, quality="optimal", seed=0):
        return reference_policy(self.model)

    def learned_slot_policy(self, weights, tie_break="lowest"):
        """The deterministic SlotPolicy a weight vector induces."""
        return SlotPolicy({
            sig: argmin(features.scores(weights), tie_break)
            for sig, features in self.signature_features.items()})

    def feature_owner(self, index):
        """(signature, label) that owns a feature index."""
        for key, i in self.feature_index.items():
            if i == index:
                return key
        raise KeyError(index)


# -- plain-text model DSL --

def parse_model(text):
    depths, edges, losses, ref = {}, {}, {}, {}
    start = None
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "state":
                depths[parts[1]] = int(parts[2])
            elif kind == "edge":
                edges.setdefault(parts[1], []).append((parts[2], parts[3]))
            elif kind == "loss":
                losses[parts[1]] = float(parts[2])
            elif kind == "start":
                start = parts[1]
            elif kind == "ref":
                ref[parts[1]] = parts[2]
            else:
                raise DataFormatError(f"unknown directive {kind!r}", line=no)
        except (IndexError, ValueError) as exc:
            raise DataFormatError(str(exc), line=no)
    if start is None:
        raise DataFormatError("missing start directive")
    return ExactModel(depths, edges, losses, start, ref).validate()


def serialize_model(model):
    lines = []
    for s in sorted(model.depths, key=lambda s: (model.depths[s], s)):
        lines.append(f"state {s} {model.depths[s]}")
    for s, es in model.edges.items():
        for label, nxt in es:
            lines.append(f"edge {s} {label} {nxt}")
    for s, l in model.losses.items():
        lines.append(f"loss {s} {l:g}")
    for s, label in model.ref.items():
        lines.append(f"ref {s} {label}")
    lines.append(f"start {model.start}")
    return "\n".join(lines) + "\n"


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())


# -- the three fixture spaces --

def two_level_chooser():
    """Two independent branch points; reference avoids the 100-loss arm."""
    return ExactModel(
        depths={"s1": 0, "s2": 1, "s3": 1, "e1": 2, "e2": 2, "e3": 2, "e4": 2},
        edges={
            "s1": [("a", "s2"), ("b", "s3")],
            "s2": [("c", "e1"), ("d", "e2")],
            "s3": [("e", "e3"), ("f", "e4")],
        },
        losses={"e1": 0.0, "e2": 10.0, "e3": 100.0, "e4": 0.0},
        start="s1",
        ref={"s1": "a", "s2": "c", "s3": "f"},
    ).validate()


def indistinct_branch_chooser():
    """Same space, but both branches at the root carry the same feature."""
    return ExactModel(
        depths={"s1": 0, "s2": 1, "s3": 1, "e1": 2, "e2": 2, "e3": 2, "e4": 2},
        edges={
            "s1": [("a", "s2"), ("a", "s3")],
            "s2": [("c", "e1"), ("d", "e2")],
            "s3": [("e", "e3"), ("f", "e4")],
        },
        losses={"e1": 0.0, "e2": 10.0, "e3": 100.0, "e4": 0.0},
        start="s1",
        ref={"s1": "a", "s2": "c", "s3": "f"},
    ).validate()


def shared_feature_chooser(eps=0.1):
    """Two mid states share one signature; myopic rollouts prefer the worse arm."""
    if not 0.0 < eps < 1.0:
        raise L2SError(f"eps {eps} outside (0, 1)")
    return ExactModel(
        depths={"s1": 0, "s2": 1, "s3": 1, "e1": 2, "e2": 2, "e3": 2, "e4": 2},
        edges={
            "s1": [("a", "s2"), ("b", "s3")],
            "s2": [("c", "e1"), ("d", "e2")],
            "s3": [("c", "e3"), ("d", "e4")],
        },
        losses={"e1": 1.0, "e2": 1.0 - eps, "e3": 1.0 + eps, "e4": 0.0},
        start="s1",
        ref={"s1": "a", "s2": "c", "s3": "c"},
    ).validate()
