"""The theory lab's exact values, pinned bit for bit.

`test_golden.py::test_check_output` sees only what the `l2s check` suites
print: counts and one rounded deviation. This file pins the `float.hex`
of the values behind them: `exact_J` of every enumerated policy, both
sides of the difference identity, every `BoundReport` field, both
counterexample reports and two bandit unbiasedness probes. It covers
`random_models` seeds 0-5 and the fixture spaces that the CLI checks
run. A change meant to leave the lab's arithmetic alone leaves this file
alone.

Each model set is pinned by one sha256 per kind of value, taken over
the newline-joined `float.hex` strings in computation order; the
counterexample reports and the probes are pinned value by value.
"""

import hashlib

import numpy as np
import pytest

from l2s.bandit import unbiasedness_probe
from l2s.theory import (
    ExactModelTask,
    check_difference_identity,
    check_regret_bound,
    enumerate_policies,
    exact_J,
    random_models,
    reference_policy,
    reference_rollin_failure,
    reference_rollout_failure,
    run_training,
    shared_feature_chooser,
    two_level_chooser,
)
from l2s.trainer import RolloutPlan

MODELS = 40
PAIRS = 3
ROUNDS = 8
BETAS = (0.0, 0.5, 1.0)


def hexes(values):
    return [float(v).hex() for v in values]


def digest(values):
    return hashlib.sha256("\n".join(hexes(values)).encode()).hexdigest()


def report_values(report):
    return [report.lhs_ref_term, report.lhs_dev_term, report.eps_bar,
            report.rhs]


def lab_values(models, generator):
    """Per kind, every value computed on `models`, in computation order."""
    out = {"J": [], "identity": [], "bound": []}
    for model in models:
        pols = enumerate_policies(model)
        out["J"].extend(exact_J(model, p) for p in pols)
        for _ in range(PAIRS):
            p1, p2 = (pols[int(generator.integers(len(pols)))]
                      for _ in range(2))
            out["identity"].extend(check_difference_identity(model, p1, p2))
        # trained traces, and a trace of enumerated class policies
        ref = reference_policy(model)
        for beta in BETAS:
            plan = RolloutPlan(roll_in="learned", roll_out="mixture",
                               beta=beta, seed=0)
            _, _, trace, _ = run_training(model, plan, ROUNDS)
            out["bound"].extend(report_values(
                check_regret_bound(model, ref, trace, beta)))
        trace = [pols[int(generator.integers(len(pols)))] for _ in range(4)]
        out["bound"].extend(report_values(
            check_regret_bound(model, ref, trace, 0.25)))
    return out


MODEL_SETS = {
    **{f"seed{seed}": (lambda seed=seed: random_models(seed, MODELS))
       for seed in range(6)},
    "two-level": lambda: [two_level_chooser()],
    "shared-feature": lambda: [shared_feature_chooser()],
}

DIGESTS = {
    # model set: {kind: sha256 of its float.hex lines}
    "seed0": {
        "J":
            "11462adc12125037842b1637ca2c6867c5b716aca6fa3fe68bd4cf0ea11db51d",
        "identity":
            "d024714adbc2412f2618735fed7d2981318a3af07dfa0350bceecd77ba8e83f7",
        "bound":
            "d96f52c654df65133f67e86aee7d8b190536cca1d2adbaf117bedea90d9aed3a",
    },
    "seed1": {
        "J":
            "6cbfed1ba10387af7954ef2ce665a0795d1f09513b8a2f456d40c4bed7daec1b",
        "identity":
            "891ada2c9796c08c7d9d30bf3dadb37c479201379f5d08f87ef4f485c82a5ffb",
        "bound":
            "95ea82779788e13c414a0d0885ba9a33c5a3edbd16ad24ad4f46d1d18eb2f25e",
    },
    "seed2": {
        "J":
            "32e0545b5990aeb458f2856767a8a52be278017edfad0888b960240363336e35",
        "identity":
            "5abecb6a8385888be565b8be11e00917ffd81bbe2cbb36b03a5b10ba8794313e",
        "bound":
            "db797067cb00b0ad1f5e4d197bf445f078391b9237afef139a198d773ca172ed",
    },
    "seed3": {
        "J":
            "7bed8409c7a2b572736c48fca8316973600a16192b7b07d795b50074438da33a",
        "identity":
            "55540163c2153ad932b43892fc1c003e90e9eb9a96d7295119a6b486bd803f5f",
        "bound":
            "f1fcba18885856da665a00ebd7d29329363c521b997b1a9ffeabd4c5d1ec102b",
    },
    "seed4": {
        "J":
            "69c00fe5969b65b804fc0af968342abf4d2024f124332055435bc3f02285fd9a",
        "identity":
            "cebf903d25261d114f3c856cbda99d05506f6ebb587d752eddc43340be1743fd",
        "bound":
            "cd2e70ec0868daa0dc021cc653c46c2d92e5cfd3878bcb76abe8d4f146535a61",
    },
    "seed5": {
        "J":
            "f69145bb2ab3951bafd76f998fc59ddf4648e741b0f6d8d33fe60e37c180abb8",
        "identity":
            "ac9cb526b478056fd00054f1d22fec59540b64cd055c7f74afa09abaa8acd894",
        "bound":
            "2859def3921c9e4b1338015dda2c16e02b4dacbe7820db9900337d0302b87ab6",
    },
    "two-level": {
        "J":
            "ee73d07a57fe994ca8145dc4a62b776f1f0c580b58adb07cd7559a33eac2cd6a",
        "identity":
            "dfbe957422d29e3f1849785a99d6ec9f48854c5ec0fd450ef81603514747d2c5",
        "bound":
            "30bb6024281b5f4bb267082bb705537fa13b1642c7137c98822e2e334f103016",
    },
    "shared-feature": {
        "J":
            "f5fca934778529ba1e00b9945ba888a2040c2c960a38ac2ec3b1374abe34961d",
        "identity":
            "75e47278975c63546be2462cca3dc08364f6d6147f0e5b1b821ab267336ced2b",
        "bound":
            "fc9d35c0160356a5e046aad4256222e994e50c74bb198c211369bdac52f5cb4c",
    },
}


@pytest.mark.parametrize("name", sorted(MODEL_SETS))
def test_lab_values(name):
    # the generator draws the identity pairs and the class-policy traces
    seed = int(name[4:]) if name.startswith("seed") else 0
    values = lab_values(MODEL_SETS[name](), np.random.default_rng(seed))
    assert {kind: digest(v) for kind, v in values.items()} == DIGESTS[name]


def test_counterexample_values():
    rollin = reference_rollin_failure(two_level_chooser())
    assert rollin.visited_signatures == {("a", "b"), ("c", "d")}
    assert rollin.unvisited_signatures == {("e", "f")}
    assert hexes([rollin.J_ref, rollin.worst_zero_regret_J]) == [
        "0x0.0p+0", "0x1.9000000000000p+6"]
    for (eps, rounds), expected in {
        (0.1, 500): ["0x1.ccccccccccccdp-1", "0x0.0p+0",
                     "0x1.ccccccccccccdp-1", "0x0.0p+0"],
        (0.3, 100): ["0x1.6666666666666p-1", "0x0.0p+0",
                     "0x1.6666666666666p-1", "0x0.0p+0"],
    }.items():
        r = reference_rollout_failure(shared_feature_chooser(eps), rounds)
        assert hexes([r.J_learned, r.best_deviation_J, r.deviation_gap,
                      r.mixture_J]) == expected


@pytest.mark.parametrize("action,trials,beta,seed,expected", [
    # zero weights, as `l2s check unbiasedness` runs it
    (0, 2000, 0.5, 0, ["0x1.f2b020c49ba5ep-1", "0x1.0000000000000p+0",
                       "0x1.fff4759a50323p-1"]),
    # seeded normal weights
    (1, 1000, 0.2, 4, ["0x1.2f9db22d0e560p-1", "0x1.1eb851eb851ecp-1",
                       "0x1.bdb999aef9a56p-1"]),
])
def test_unbiasedness_probe_values(action, trials, beta, seed, expected):
    model = shared_feature_chooser()
    dimension = ExactModelTask(model).dimension
    weights = (np.zeros(dimension) if seed == 0
               else np.random.default_rng(seed).normal(size=dimension))
    [probe] = unbiasedness_probe(model, weights, (action,), trials,
                                 beta=beta, seed=seed)
    assert hexes(probe) == expected
