"""Float sums that read alike on every Python version.

From Python 3.12, builtin `sum()` adds floats with compensation, so a
value it sums can differ in its last bits from the one 3.11 gives. The
regret bound's sums and the bandit's closing mean therefore run left to
right from 0 in plain loops. These tests shadow `sum` in those modules
with 3.12's compensated sum and check that pinned outputs do not move.
"""

import math

import numpy as np
from click.testing import CliRunner

from l2s import cli
from l2s.theory import bounds

from test_exact_values import DIGESTS, MODEL_SETS, digest, lab_values


def compensated_sum(values, start=0):
    """Builtin `sum()` of floats as Python 3.12 computes it: Neumaier
    compensation, the correction added once at the end."""
    total, correction = float(start), 0.0
    for x in values:
        x = float(x)
        t = total + x
        if abs(total) >= abs(x):
            correction += (total - t) + x
        else:
            correction += (x - t) + total
        total = t
    if correction and math.isfinite(correction):
        total += correction
    return total


def shadow_sum(monkeypatch):
    for module in (bounds, cli):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_compensated_sum_differs_from_plain_addition():
    plain = 0.0
    for x in [0.1] * 10:
        plain += x
    assert plain != 1.0
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0


def test_lab_values_under_a_compensated_sum(monkeypatch):
    shadow_sum(monkeypatch)
    values = lab_values(MODEL_SETS["seed0"](), np.random.default_rng(0))
    assert {kind: digest(v) for kind, v in values.items()} == DIGESTS["seed0"]


def test_bandit_closing_line_under_a_compensated_sum(monkeypatch, tmp_path):
    # every label of the one instance costs 0.00185, so each of the 100
    # exploit rounds observes it; plain addition prints 0.0018 and a
    # compensated sum 0.0019
    shadow_sum(monkeypatch)
    data = tmp_path / "mc.csv"
    data.write_text("1:1,0.00185,0.00185\n")
    r = CliRunner().invoke(cli.main, [
        "bandit", "--task", "multiclass", "--data", str(data),
        "--rounds", "100", "--epsilon", "0"])
    assert r.exit_code == 0, r.output
    assert r.output == ("rounds 100  explored 0  "
                        "exploit-loss (last 100): 0.0018\n")
