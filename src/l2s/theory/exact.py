"""Fully enumerated search spaces for oracle evaluation.

An ExactModel lists every state with its depth, the ordered action slots
(each carrying a feature label and a successor), and terminal losses.
States whose ordered label tuple (their signature) coincides are
indistinguishable to feature-based policies and must receive the same
choice. The policy class is the set of per-signature label choices; a
chosen label matching several slots takes the lowest of them, as
`core.argmin` breaks a tie between equal scores. Every exact policy
therefore picks one slot per state.
"""

import itertools
from dataclasses import dataclass, field

from ..core import SearchTask, StateRef, Policy, argmin
from ..errors import L2SError
from ..sparse import ActionFeatures, SparseFeatures


@dataclass
class ExactModel:
    """A search space, checked and indexed once, when it is built.

    Construction raises L2SError unless the start state is at depth 0,
    every loss is on a state at the horizon, every non-terminal state has
    actions and every edge leads one depth down. So the terminal states
    are the states at the horizon, and every state below it has an
    action. It derives `horizon`, each state's signature and
    `signature_state`, each signature's first non-terminal state in
    (depth, name) order.
    """

    depths: dict
    edges: dict  # state -> list of (label, next_state), ordered action slots
    losses: dict  # terminal state -> loss
    start: str
    ref: dict = field(default_factory=dict)  # state -> reference label

    def __post_init__(self):
        if self.start not in self.depths:
            raise L2SError(f"start state {self.start} has no depth")
        if self.depths[self.start] != 0:
            raise L2SError(f"start state {self.start} at depth "
                           f"{self.depths[self.start]}, not 0")
        self.horizon = max(self.depths.values())
        for s in self.losses:
            if self.depths.get(s) != self.horizon:
                raise L2SError(f"loss on state {s} at depth "
                               f"{self.depths.get(s)}, not the horizon "
                               f"{self.horizon}")
        self._signature = {}
        self.signature_state = {}
        for s in sorted(self.depths, key=lambda s: (self.depths[s], s)):
            edges = self.edges.get(s, ())
            self._signature[s] = sig = tuple(label for label, _ in edges)
            if self.is_terminal(s):
                continue
            if not edges:
                raise L2SError(f"non-terminal state {s} has no actions")
            for _, nxt in edges:
                if self.depths.get(nxt) != self.depths[s] + 1:
                    raise L2SError(f"edge {s}->{nxt} does not lead one depth down")
            self.signature_state.setdefault(sig, s)

    def is_terminal(self, s):
        return s in self.losses

    def signature(self, s):
        return self._signature[s]

    def nonterminal_states(self):
        return [s for s in self.depths if not self.is_terminal(s)]

    def signatures(self):
        """Distinct signatures over non-terminal states, in first-seen order."""
        return list(self.signature_state)


class ExactPolicy(Policy):
    """Evaluable policy over an ExactModel: one slot per state."""

    def slot(self, model, state):
        raise NotImplementedError

    def choose(self, task, state):
        return self.slot(task.model, state.payload)


class TablePolicy(ExactPolicy):
    """Per-signature label choice; a label on several slots takes the
    lowest of them."""

    def __init__(self, choices):
        self.choices = dict(choices)  # signature -> label

    def slot(self, model, state):
        sig = model.signature(state)
        label = self.choices[sig]
        if label not in sig:
            raise L2SError(f"label {label!r} not available in {sig}")
        return sig.index(label)

    def __repr__(self):
        return f"TablePolicy({self.choices})"


class StateSlotPolicy(ExactPolicy):
    """Per-state slot choice; for reference policies, which may see state
    identity (they are built from gold labels, not features)."""

    def __init__(self, slots):
        self.slots = dict(slots)  # state name -> slot index

    def slot(self, model, state):
        return self.slots[state]

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
        sig = model.signature(s) if s in model.depths else ()
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
            _, succ = model.edges[s][policy.slot(model, s)]
            nxt[succ] = nxt.get(succ, 0.0) + p
        dist = nxt
    return dist


def _expected_loss_from(model, policy, state):
    while not model.is_terminal(state):
        _, state = model.edges[state][policy.slot(model, state)]
    return model.losses[state]


def exact_J(model, policy):
    """Expected end-state loss of running `policy` from the start state."""
    return _expected_loss_from(model, policy, model.start)


def exact_Q(model, policy, state, slot):
    """Expected loss of taking `slot` at `state`, then following `policy`."""
    if model.is_terminal(state):
        raise L2SError(f"{state} is terminal")
    if not 0 <= slot < len(model.edges[state]):
        raise L2SError(f"slot {slot} not legal at {state}")
    _, succ = model.edges[state][slot]
    return _expected_loss_from(model, policy, succ)


# -- learning on an exact model --

class ExactModelTask(SearchTask):
    """SearchTask adapter: one indicator feature per (signature, label).

    States sharing a signature present identical per-slot features, so a
    linear policy is exactly a choice of label per signature: a
    TablePolicy, whose label on several slots takes the lowest one, as
    the argmin does.
    """

    def __init__(self, model):
        self.model = model
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
        # feature index -> its signature
        self.feature_signature = {
            i: sig for (sig, _), i in self.feature_index.items()}

    def start_state(self):
        return StateRef(0, self.model.start)

    def transition(self, state, action):
        edges = self.model.edges[state.payload]
        if not 0 <= action < len(edges):
            raise L2SError(f"slot {action} at {state.payload}")
        return StateRef(state.depth + 1, edges[action][1])

    def feature_key(self, state):
        return self.model.signature(state.payload)

    def action_features(self, state):
        return self.signature_features[self.feature_key(state)]

    def terminal_loss(self, state):
        return self.model.losses[state.payload]

    def reference_policy(self, quality="optimal", seed=0):
        return reference_policy(self.model)

    def learned_slot_policy(self, weights):
        """The TablePolicy a weight vector induces."""
        return TablePolicy({
            sig: sig[argmin(features.scores(weights))]
            for sig, features in self.signature_features.items()})


# -- the three fixture spaces --

def _chooser(labels, losses, ref):
    """The fixtures' one layout: root s1 branches to s2 and s3, s2 to leaves
    e1 and e2, s3 to e3 and e4. `labels` are the six slot labels in that
    order, `losses` the four leaf losses and `ref` the labels at s1, s2, s3.
    """
    a, b, c, d, e, f = labels
    return ExactModel(
        depths={"s1": 0, "s2": 1, "s3": 1, "e1": 2, "e2": 2, "e3": 2, "e4": 2},
        edges={"s1": [(a, "s2"), (b, "s3")], "s2": [(c, "e1"), (d, "e2")],
               "s3": [(e, "e3"), (f, "e4")]},
        losses=dict(zip(("e1", "e2", "e3", "e4"), losses)),
        start="s1",
        ref=dict(zip(("s1", "s2", "s3"), ref)),
    )


def two_level_chooser():
    """Two independent branch points; reference avoids the 100-loss arm."""
    return _chooser("abcdef", (0.0, 10.0, 100.0, 0.0), "acf")


def indistinct_branch_chooser():
    """Same space, but both branches at the root carry the same feature."""
    return _chooser("aacdef", (0.0, 10.0, 100.0, 0.0), "acf")


def shared_feature_chooser(eps=0.1):
    """Two mid states share one signature; myopic rollouts prefer the worse arm."""
    if not 0.0 < eps < 1.0:
        raise L2SError(f"eps {eps} outside (0, 1)")
    return _chooser("abcdcd", (1.0, 1.0 - eps, 1.0 + eps, 0.0), "acc")
