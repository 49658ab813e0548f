"""Command-line harness: subcommands, exit codes, reproducibility."""

import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import zipfile
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from l2s import bandit as banditmod
from l2s import cli, experiment, theory
from l2s.errors import L2SError
from l2s.experiment import ExperimentConfig, build_config
from l2s.tasks import gen_multiclass
from l2s.trainer import PolicyPool, Trainer
from l2s.theory import snake


@pytest.fixture()
def runner():
    return CliRunner()


def gen(runner, tmp_path, kind, count, name, seed=3):
    out = tmp_path / name
    r = runner.invoke(cli.main, ["gen-data", "--task", kind, "--count",
                                 str(count), "--seed", str(seed),
                                 "--out", str(out)])
    assert r.exit_code == 0, r.output
    return out


def test_gen_train_eval_round_trip(runner, tmp_path):
    data = gen(runner, tmp_path, "multiclass", 60, "mc.csv")
    model = tmp_path / "mc.model"
    diag = tmp_path / "diag.jsonl"
    r = runner.invoke(cli.main, [
        "train", "--task", "multiclass", "--data", str(data),
        "--passes", "2", "--out", str(model),
        "--diagnostics-out", str(diag)])
    assert r.exit_code == 0, r.output
    assert model.exists()
    lines = diag.read_text().splitlines()
    assert len(lines) == 60 * 2  # one diagnostics row per instance
    row = json.loads(lines[0])
    assert {"config", "instance", "cost_vectors"} <= set(row)

    r = runner.invoke(cli.main, ["eval", "--task", "multiclass",
                                 "--data", str(data), "--model", str(model)])
    assert r.exit_code == 0, r.output
    assert r.output.startswith("avg_cost ")
    assert float(r.output.split()[1]) < 0.3


def test_zero_passes_gives_zero_weights(runner, tmp_path):
    import numpy as np
    from l2s.cslearn import CostSensitiveLearner
    data = gen(runner, tmp_path, "multiclass", 10, "mc.csv")
    model = tmp_path / "empty.model"
    r = runner.invoke(cli.main, ["train", "--task", "multiclass",
                                 "--data", str(data), "--passes", "0",
                                 "--out", str(model)])
    assert r.exit_code == 0, r.output
    learner = CostSensitiveLearner.load(model)
    assert learner.updates == 0
    assert np.array_equal(learner.weights, np.zeros(learner.dimension))


def test_same_config_byte_identical_models(runner, tmp_path):
    data = gen(runner, tmp_path, "sequence", 15, "seq.tsv")
    models = []
    for name in ("a.model", "b.model"):
        m = tmp_path / name
        r = runner.invoke(cli.main, ["train", "--task", "sequence",
                                     "--data", str(data), "--passes", "2",
                                     "--seed", "9", "--out", str(m)])
        assert r.exit_code == 0, r.output
        models.append(m.read_bytes())
    assert models[0] == models[1]


def test_config_file_with_flag_override(runner, tmp_path):
    # a '#' inside a value is kept; one after whitespace starts a comment
    data = gen(runner, tmp_path, "multiclass", 10, "run#1.csv")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"task = multiclass\ndata = {data}\n"
                       "passes = 1  # one pass\n# comment\nseed = 2\n")
    model = tmp_path / "m.model"
    r = runner.invoke(cli.main, ["train", "--config", str(cfgfile),
                                 "--passes", "0", "--out", str(model)])
    assert r.exit_code == 0, r.output
    from l2s.cslearn import CostSensitiveLearner
    assert CostSensitiveLearner.load(model).updates == 0  # override won


def test_console_entry_exit_codes(tmp_path):
    # `python -m l2s.cli` runs cli.main, as the console script does
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tx\n\n")
    train = ["train", "--task", "sequence", "--data", str(bad)]
    cases = [
        (["check", "snake", "-T", "3"], 0, "[PASS] snake-T3"),
        (train, 1, "Missing option '--out'"),
        (["nope"], 1, "No such command 'nope'"),
        (train + ["--out", str(tmp_path / "m")], 2, "data error: line 1"),
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for args, code, text in cases:
        r = subprocess.run([sys.executable, "-m", "l2s.cli", *args], env=env,
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == code, (args, r.stdout, r.stderr)
        assert text in r.stdout + r.stderr, (args, r.stdout, r.stderr)
        assert "Traceback" not in r.stderr


def test_bad_config_key_exits_one(runner, tmp_path):
    cfgfile = tmp_path / "run.cfg"

    def train_with(text):
        cfgfile.write_text(text)
        return runner.invoke(cli.main, ["train", "--config", str(cfgfile),
                                        "--out", str(tmp_path / "m")])

    # draw_granularity: a key the schema no longer has
    for key, value in [("nonsense", "1"), ("draw_granularity", "per_rollout")]:
        r = train_with(f"{key} = {value}\n")
        assert r.exit_code == 1
        assert key in r.output
        # library callers build the config without the CLI's read sets
        with pytest.raises(L2SError, match=f"unknown config key '{key}'"):
            build_config({key: value})
    # a key given twice names both lines, whichever value would win
    r = train_with("task = sequence\n# comment\n\ntask = parse\n")
    assert_clean_exit(r, 1)
    assert "error: line 4: key 'task' repeats line 1" in r.output
    r = train_with("passes 3\n")
    assert_clean_exit(r, 1)
    assert "error: line 1: expected key=value, got 'passes 3'" in r.output
    assert not (tmp_path / "m").exists()


def test_malformed_data_exits_two(runner, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("token-without-columns\n")
    r = runner.invoke(cli.main, ["train", "--task", "sequence",
                                 "--data", str(bad),
                                 "--out", str(tmp_path / "m")])
    assert r.exit_code == 2
    assert "line 1" in r.output


def test_eval_dimension_mismatch(runner, tmp_path):
    seq = gen(runner, tmp_path, "sequence", 10, "seq.tsv")
    mc = gen(runner, tmp_path, "multiclass", 10, "mc.csv")
    model = tmp_path / "seq.model"
    r = runner.invoke(cli.main, ["train", "--task", "sequence",
                                 "--data", str(seq), "--passes", "1",
                                 "--out", str(model)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(cli.main, ["eval", "--task", "multiclass",
                                 "--data", str(mc), "--model", str(model)])
    assert r.exit_code == 1
    assert "dimension" in r.output


def test_grid_report_structure(runner, tmp_path):
    data = gen(runner, tmp_path, "multiclass", 50, "mc.csv")
    out = tmp_path / "grid.json"
    r = runner.invoke(cli.main, ["grid", "--task", "multiclass",
                                 "--data", str(data), "--passes", "1",
                                 "--out", str(out)])
    assert r.exit_code == 0, r.output
    payload = json.loads(out.read_text())
    assert payload["metric"] == "avg_cost"
    assert len(payload["cells"]) == 6
    combos = {(c["roll_in"], c["roll_out"]) for c in payload["cells"]}
    assert len(combos) == 6
    assert "*" in r.output  # best cell marked in the rendered table


def test_bandit_session_log(runner, tmp_path):
    data = gen(runner, tmp_path, "multiclass", 40, "mc.csv")
    log = tmp_path / "log.jsonl"
    r = runner.invoke(cli.main, ["bandit", "--task", "multiclass",
                                 "--data", str(data), "--rounds", "200",
                                 "--epsilon", "0.5",
                                 "--log-out", str(log)])
    assert r.exit_code == 0, r.output
    rows = [json.loads(l) for l in log.read_text().splitlines()]
    assert len(rows) == 200
    explored = [x for x in rows if x["mode"] == "explored"]
    assert explored and all({"t", "action", "k", "rollout"} <= set(x)
                            for x in explored)
    assert all(0.0 <= x["loss"] <= 1.0 for x in rows)


def test_bandit_without_exploit_round_reports_no_loss(runner, tmp_path):
    data = gen(runner, tmp_path, "multiclass", 40, "mc.csv")
    r = runner.invoke(cli.main, ["bandit", "--task", "multiclass",
                                 "--data", str(data), "--rounds", "20",
                                 "--epsilon", "1"])
    assert r.exit_code == 0, r.output
    assert r.output == ("rounds 20  explored 20  "
                        "exploit-loss (last 0): n/a\n")


def test_bandit_reference_draws_vary_across_rounds(runner, tmp_path):
    # every round explores; among the rounds that take the same action
    # at the root of one instance and roll out with the reference, some
    # end with different losses, so at different leaves
    data = gen(runner, tmp_path, "multiclass", 10, "mc.csv")
    log = tmp_path / "log.jsonl"
    r = runner.invoke(cli.main, ["bandit", "--task", "multiclass",
                                 "--data", str(data), "--rounds", "200",
                                 "--epsilon", "1", "--log-out", str(log)])
    assert r.exit_code == 0, r.output
    ends = {}
    for row in map(json.loads, log.read_text().splitlines()):
        if row["t"] == 0 and row["rollout"] == "reference":
            ends.setdefault((row["instance"], row["action"]), set()).add(
                row["loss"])
    assert any(len(losses) > 1 for losses in ends.values())


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bandit_rejects_gold_reading_reference(runner, tmp_path, source):
    # roll-outs always use the 'bad' reference, which reads no gold
    # labels, so the bandit reads no reference_quality: not even 'bad'
    data = gen(runner, tmp_path, "multiclass", 10, "mc.csv")
    args = ["bandit", "--task", "multiclass", "--data", str(data),
            "--rounds", "5"]
    for quality in ("optimal", "suboptimal", "bad"):
        if source == "flag":
            r = runner.invoke(cli.main, args + ["--reference-quality", quality])
            assert_clean_exit(r, 1)  # a usage error
            assert "No such option '--reference-quality'" in r.output
        else:
            cfgfile = tmp_path / "bandit.cfg"
            cfgfile.write_text(f"reference_quality = {quality}\n")
            r = runner.invoke(cli.main, args + ["--config", str(cfgfile)])
            assert_clean_exit(r, 1)
            assert r.output.startswith(
                "error: bandit does not read config key 'reference_quality'")
    r = runner.invoke(cli.main, args)
    assert r.exit_code == 0, r.output


# the ExperimentConfig fields each command reads
READS = {
    "train": {"task", "data", "reference_quality", "roll_in", "roll_out",
              "beta", "passes", "seed", "eta0"},
    "eval": {"task", "data", "seed"},
    "grid": {"task", "data", "test_data", "reference_quality", "beta",
             "passes", "seed", "eta0"},
    "bandit": {"task", "data", "beta", "seed", "eta0"},
}
UNREAD = [(command, f.name) for command in READS
          for f in fields(ExperimentConfig) if f.name not in READS[command]]


def test_each_command_offers_a_flag_for_each_field_it_reads():
    assert len(UNREAD) == 15
    for command, wanted in READS.items():
        options = {p.name for p in cli.main.commands[command].params}
        assert options & {f.name for f in fields(ExperimentConfig)} == wanted


@pytest.mark.parametrize("command,name", UNREAD)
def test_unread_setting_exits_one(tmp_path, command, name):
    # by flag, through the console entry point
    flag = "--" + name.replace("_", "-")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    r = subprocess.run([sys.executable, "-m", "l2s.cli", command, flag, "1"],
                       env={**os.environ, "PYTHONPATH": src},
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 1, (r.stdout, r.stderr)
    assert f"No such option '{flag}'" in r.stderr
    assert "Traceback" not in r.stderr
    # in a config file; the config is refused before --out is written or
    # --model is read, so any existing path serves
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{name} = 1\n")
    required = {"train": ["--out", str(tmp_path / "m.model")],
                "eval": ["--model", str(cfgfile)]}.get(command, [])
    r = CliRunner().invoke(cli.main, [command, "--config", str(cfgfile),
                                      *required])
    assert_clean_exit(r, 1)
    assert r.output.startswith(
        f"error: {command} does not read config key {name!r}")


@pytest.mark.parametrize("command", sorted(READS))
@pytest.mark.parametrize("source", ["flag", "config"])
def test_every_read_setting_is_accepted(runner, tmp_path, command, source):
    data = gen(runner, tmp_path, "multiclass", 10, "mc.csv")
    model = tmp_path / "m.model"
    extra = {"train": ["--out", str(model)], "eval": ["--model", str(model)],
             "grid": [], "bandit": ["--rounds", "5"]}[command]
    if command == "eval":
        r = runner.invoke(cli.main, train_args(data, "multiclass", model)
                          + ["--passes", "1"])
        assert r.exit_code == 0, r.output
    # a valid value other than the default for every field
    values = {"task": "multiclass", "data": str(data), "test_data": str(data),
              "reference_quality": "suboptimal", "roll_in": "reference",
              "roll_out": "learned", "beta": "0.3", "passes": "1",
              "seed": "2", "eta0": "0.4"}
    settings = {k: v for k, v in values.items() if k in READS[command]}
    if source == "flag":
        args = [a for k, v in settings.items()
                for a in ("--" + k.replace("_", "-"), v)]
    else:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        args = ["--config", str(cfgfile)]
    r = runner.invoke(cli.main, [command, *args, *extra])
    assert r.exit_code == 0, r.output


@pytest.mark.parametrize("row,cost", [
    ("0:1,-0.5,0.0,0.7", "-0.5"),  # drawn in the first rounds
    ("0:1,0.0,0.2,2.5", "2.5"),    # a leaf that 50 rounds never reach
])
def test_bandit_rejects_cost_outside_unit_range(runner, tmp_path, row, cost):
    data = tmp_path / "mc.csv"
    data.write_text(f"1:1,0.0,1.0,0.5\n{row}\n")
    log = tmp_path / "log.jsonl"
    r = runner.invoke(cli.main, ["bandit", "--task", "multiclass",
                                 "--data", str(data), "--rounds", "50",
                                 "--log-out", str(log)])
    assert r.exit_code == 2, r.output
    assert r.output == (f"data error: {data}: instance 2 has cost {cost} "
                        "outside the bandit's loss range [0, 1]\n")
    assert not log.exists()  # rejected before round 1


def test_check_suites_pass(runner):
    r = runner.invoke(cli.main, ["check", "identity", "--models", "10"])
    assert r.exit_code == 0, r.output
    assert "[PASS]" in r.output
    r = runner.invoke(cli.main, ["check", "snake", "-T", "3"])
    assert r.exit_code == 0, r.output
    assert "4 updates" in r.output
    r = runner.invoke(cli.main, ["check", "counterexamples"])
    assert r.exit_code == 0, r.output


def test_failed_check_exits_three(capsys):
    # one round does not train the roll-out demo's learner away from the
    # reference, so its verdict is false
    with pytest.raises(SystemExit) as e:
        cli.main(["check", "counterexamples", "--rounds", "1"],
                 standalone_mode=False)
    assert e.value.code == 3
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "[FAIL] reference-rollout-failure: ")


def test_usage_error_exits_one_in_process(tmp_path):
    # the call the benchmark's theory-checks workload makes
    with pytest.raises(SystemExit) as e:
        cli.main(["gen-data", "--task", "nope", "--out", str(tmp_path / "x")],
                 standalone_mode=False)
    assert e.value.code == 1


@pytest.mark.parametrize("outcome,code", [
    ("pass", 0), ("usage", 1), ("data", 2), ("fail", 3)])
def test_each_outcome_exits_alike_from_every_entry_point(
        tmp_path, capsys, outcome, code):
    bad = tmp_path / "bad.tsv"
    bad.write_text("token-without-columns\n")
    args = {
        "pass": ["check", "snake", "-T", "3"],
        "usage": ["gen-data", "--task", "nope", "--out", str(tmp_path / "x")],
        "data": ["train", "--task", "sequence", "--data", str(bad),
                 "--out", str(tmp_path / "m")],
        "fail": ["check", "counterexamples", "--rounds", "1"],
    }[outcome]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "l2s.cli", *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, (proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr
    r = CliRunner().invoke(cli.main, args)
    assert_clean_exit(r, code)
    assert r.stdout == proc.stdout
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        cli.main(args, standalone_mode=False)
    assert e.value.code == code
    assert capsys.readouterr().out == proc.stdout


# per check suite: its arguments, and a theory call patched so that the
# suite's verdict is false
FALSE_VERDICTS = {
    "identity": (["identity", "--models", "2"], theory,
                 "check_difference_identity", lambda *args: (1.0, 0.0, 0.0)),
    "bound": (["bound", "--models", "1", "--rounds", "2"], theory,
              "check_regret_bound",
              lambda *args: SimpleNamespace(satisfied=False)),
    "rollin": (["counterexamples", "--rounds", "10"], theory,
               "reference_rollin_failure",
               lambda *args: SimpleNamespace(unvisited_signatures=set(),
                                             worst_zero_regret_J=0.0,
                                             J_ref=0.0)),
    "rollout": (["counterexamples", "--rounds", "10"], theory,
                "reference_rollout_failure",
                lambda *args, **kw: SimpleNamespace(
                    deviation_gap=0.0, J_learned=1.0, best_deviation_J=1.0,
                    mixture_J=1.0)),
    # a descent that stops at its start
    "snake": (["snake", "-T", "4"], snake, "best_neighbor_descent",
              lambda costs, start, dim: [start]),
    "unbiasedness": (["unbiasedness", "--trials", "10"], banditmod,
                     "unbiasedness_probe",
                     lambda model, weights, actions, *args, **kw:
                     [(1.0, 0.0, 0.0)] * len(actions)),
}


@pytest.mark.parametrize("suite", list(FALSE_VERDICTS))
def test_every_check_suite_can_fail(runner, monkeypatch, suite):
    args, owner, name, fake = FALSE_VERDICTS[suite]
    monkeypatch.setattr(owner, name, fake)
    r = runner.invoke(cli.main, ["check", *args])
    assert_clean_exit(r, 3)
    assert r.output.splitlines()[-1].startswith("[FAIL]")


def train_args(data, kind, out):
    return ["train", "--task", kind, "--data", str(data), "--out", str(out)]


@pytest.mark.parametrize("flags,message", [
    (["--eta0", "nan"], "eta0 nan must be positive"),
    (["--eta0", "inf"], "eta0 inf must be positive"),
    (["--eta0", "-1"], "eta0 -1.0 must be positive"),
    (["--eta0", "0"], "eta0 0.0 must be positive"),
    # finite but so large that the updates diverge
    (["--eta0", "1000", "--roll-in", "reference", "--roll-out", "reference"],
     "error: update step"),
])
def test_bad_learning_rate_exits_one(runner, tmp_path, flags, message):
    data = gen(runner, tmp_path, "sequence", 20, "seq.tsv")
    model = tmp_path / "m.model"
    r = runner.invoke(cli.main, train_args(data, "sequence", model) + flags)
    assert r.exit_code == 1, r.output
    assert message in r.output
    assert not model.exists()


def test_failed_train_leaves_its_diagnostics_rows_on_disk(runner, tmp_path,
                                                          monkeypatch):
    # the file is closed when the run fails, not when its traceback goes
    data = gen(runner, tmp_path, "multiclass", 5, "mc.csv")
    diag = tmp_path / "diag.jsonl"
    process = Trainer.process_example

    def third_fails(self, task, reference=None):
        if self.examples_seen == 2:
            raise L2SError("instance 3 failed")
        return process(self, task, reference)

    monkeypatch.setattr(Trainer, "process_example", third_fails)
    r = runner.invoke(cli.main, train_args(data, "multiclass",
                                           tmp_path / "m.model")
                      + ["--diagnostics-out", str(diag)])
    assert_clean_exit(r, 1)
    assert "instance 3 failed" in r.output
    rows = [json.loads(line) for line in diag.read_text().splitlines()]
    assert [row["instance"] for row in rows] == [1, 2]


def test_failed_bandit_round_leaves_its_log_rows_on_disk(runner, tmp_path,
                                                         monkeypatch):
    data = gen(runner, tmp_path, "multiclass", 5, "mc.csv")
    log = tmp_path / "log.jsonl"
    step, rounds = banditmod.bandit_step, []

    def third_fails(*args):
        rounds.append(None)
        if len(rounds) == 3:
            raise L2SError("round 3 failed")
        return step(*args)

    monkeypatch.setattr(banditmod, "bandit_step", third_fails)
    r = runner.invoke(cli.main, ["bandit", "--task", "multiclass",
                                 "--data", str(data), "--rounds", "10",
                                 "--log-out", str(log)])
    assert_clean_exit(r, 1)
    assert "round 3 failed" in r.output
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert [row["round"] for row in rows] == [0, 1]


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:20],
    lambda blob: blob[:-8],
    lambda blob: blob + bytes(8),
    lambda blob: blob[:-8] + struct.pack("<d", math.nan),
    lambda blob: b"CSLEARN2" + blob[8:],
    # the version is the first header field, right after the magic
    lambda blob: blob[:8] + struct.pack("<I", 2) + blob[12:],
], ids=["short-header", "short-payload", "long-payload", "nan-weight",
        "bad-magic", "version-2"])
def test_damaged_model_file_exits_one(runner, tmp_path, damage):
    data = gen(runner, tmp_path, "multiclass", 10, "mc.csv")
    model = tmp_path / "m.model"
    r = runner.invoke(cli.main, train_args(data, "multiclass", model)
                      + ["--passes", "1"])
    assert r.exit_code == 0, r.output
    model.write_bytes(damage(model.read_bytes()))
    r = runner.invoke(cli.main, ["eval", "--task", "multiclass",
                                 "--data", str(data), "--model", str(model)])
    assert r.exit_code == 1, r.output
    assert r.output.startswith("error: model")


@pytest.mark.parametrize("kind,text", [
    ("sequence", ""),
    ("parse", ""),
    ("multiclass", ""),
    ("sequence", "a\t\t0\nb\t\t1\n"),     # no gold tags
    ("parse", "a\t0\t\nb\t1\t\n"),        # no gold heads
    ("multiclass", "1:1.0,0.5\n"),        # one cost column
    ("parse", "a\t\t5\nb\t\t0\n"),        # head outside 0..2
    ("parse", "a\t\t1\nb\t\t0\n"),        # token 1 is its own head
    ("parse", "a\t\t2\nb\t\t1\n"),        # a cycle, no root
    ("parse", "a\t\t0\nb\t\t0\n"),        # two roots
    ("sequence", "a\t-1\t\nb\t0\t\n"),    # negative tag
    ("sequence", "a\t1000000000\t\n\nb\t0\t\n"),  # tag beyond the bound
    ("multiclass", "1:nan,0.5,0.2\n"),    # non-finite feature value
    ("multiclass", "1:1.0,0.5,inf\n"),    # non-finite cost
    ("multiclass", "1:1e308 1:1e308,0.0,1.0\n2:1.0,1.0,0.0\n"),  # sum overflows
    ("parse", "a\t\t0\nb\t\t3\nc\t\t2\n"),  # one root, and a cycle
    ("multiclass", "1:1,0.0,1.0\n1:1,0.0,1.0,0.5\n"),  # cost counts differ
])
def test_unusable_data_file_exits_two(runner, tmp_path, kind, text):
    data = tmp_path / "data.txt"
    data.write_text(text)
    for args in (train_args(data, kind, tmp_path / "m.model"),
                 ["grid", "--task", kind, "--data", str(data)],
                 ["bandit", "--task", kind, "--data", str(data)]):
        r = runner.invoke(cli.main, args)
        assert r.exit_code == 2, r.output
        assert r.output.startswith("data error:")


@pytest.mark.parametrize("held_out_tags,code", [
    ((0, 1, 2), 0),      # lacks the model's top tag: scored
    ((0, 1, 2, 3, 4), 1),  # a tag beyond the model's: mismatch
])
def test_held_out_file_scored_with_model_tag_count(runner, tmp_path,
                                                   held_out_tags, code):
    from l2s.tasks import write_sentences

    def sentences(tags):
        return [([f"w{t}" for t in row], list(row), None)
                for row in (tags, tags[::-1])]

    train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
    write_sentences(train, sentences((0, 1, 2, 3)))
    write_sentences(test, sentences(held_out_tags))
    model = tmp_path / "m.model"
    r = runner.invoke(cli.main, train_args(train, "sequence", model)
                      + ["--passes", "1"])
    assert r.exit_code == 0, r.output
    # `grid` refuses the file before it trains, `eval` at the model
    for args, refusal in (
            (["eval", "--task", "sequence", "--data", str(test),
              "--model", str(model)], "dimension"),
            (["grid", "--task", "sequence", "--data", str(train),
              "--test-data", str(test), "--passes", "1"],
             "error: test data has 5 labels, training data 4\n")):
        r = runner.invoke(cli.main, args)
        assert r.exit_code == code, r.output
        assert (refusal in r.output) == (code == 1)


def test_grid_rejects_held_out_label_count(runner, tmp_path):
    train = gen(runner, tmp_path, "multiclass", 20, "train.csv")  # 8 labels
    test = tmp_path / "test.csv"
    test.write_text("1:1,0.0,1.0,1.0\n2:1,1.0,0.0,1.0\n")
    r = runner.invoke(cli.main, ["grid", "--task", "multiclass",
                                 "--data", str(train), "--test-data",
                                 str(test), "--passes", "1"])
    assert r.exit_code == 1, r.output
    assert r.output == "error: test data has 3 labels, training data 8\n"


@pytest.mark.parametrize("kind", ["sequence", "multiclass"])
def test_run_grid_refuses_held_out_size_before_training(monkeypatch, kind):
    if kind == "sequence":
        # a held-out tag beyond the training data's top tag
        train_set, test_set = (
            experiment.Dataset(kind, [([f"w{t}" for t in tags], list(tags))],
                               len(tags)) for tags in ((0, 1, 2), (0, 1, 2, 3)))
    else:
        # another label count, which a label tree's model does not tell
        train_set, test_set = (
            experiment.Dataset(kind, gen_multiclass(4, 0, label_count=k), k)
            for k in (8, 3))
    trains = []
    monkeypatch.setattr(experiment, "train",
                        lambda *args, **kwargs: trains.append(args))
    with pytest.raises(L2SError, match=f"^test data has {test_set.size} labels, "
                                       f"training data {train_set.size}$"):
        experiment.run_grid(train_set, test_set,
                            ExperimentConfig(task=kind, passes=1))
    assert trains == []


def pool_archive(dimension=2, offsets=(0, 0, 1), indices=(1,), values=(0.5,)):
    """Writer of an archive with PolicyPool.save's keys; the defaults
    hold a pool of two snapshots, (0, 0) and (0, 0.5)."""
    return lambda path: np.savez(path, dimension=dimension, offsets=offsets,
                                 indices=indices, values=values)


def damaged_archive(damage):
    """Writer of a compressed pool archive, of the default `pool_archive`
    arrays, with its bytes then changed by `damage`."""
    def write(path):
        np.savez_compressed(path, dimension=2, offsets=(0, 0, 1),
                            indices=(1,), values=(0.5,))
        data = bytearray(path.read_bytes())
        damage(data)
        path.write_bytes(bytes(data))
    return write


def invalid_deflate_block(data):
    # the first member's deflate stream, after its local header, starts
    # with block type 3, which no deflate stream has
    name_length, extra_length = struct.unpack("<HH", data[26:30])
    data[30 + name_length + extra_length] = 0xFF


def unsupported_zip_version(data):
    # the first central directory entry needs version 21.0 to extract
    at = data.index(b"PK\x01\x02")
    data[at + 6:at + 8] = struct.pack("<H", 210)


def central_directory_outside_file(data):
    # the end record's offset of the central directory points 2 GiB in,
    # so zipfile seeks before the file's start
    at = data.rindex(b"PK\x05\x06")
    data[at + 16:at + 20] = struct.pack("<I", 0x7FFFFFFF)


def npy_header_cut_mid_dict(path):
    header = b"{'descr': '<i8', 'fortran_order': False, 'shape': ("
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("dimension.npy", b"\x93NUMPY\x01\x00"
                         + struct.pack("<H", len(header)) + header)


@pytest.mark.parametrize("write", [
    lambda path: path.write_text("not an archive\n"),
    lambda path: np.savez(path, other=[1.0]),
    lambda path: np.savez(path, snapshots=[[0.0, 0.0], [np.nan, 1.0]]),
    lambda path: np.savez(path, snapshots=[[0.0, 0.0], [np.inf, 1.0]]),
    lambda path: np.savez(path, snapshots=[[0, 0], [1, 1]]),
    lambda path: np.savez(path, snapshots=[[1.0, 0.0], [1.0, 1.0]]),
    lambda path: np.savez(path, snapshots=[0.0, 0.0]),
    pool_archive(values=(np.nan,)),
    pool_archive(values=(-np.inf,)),
    pool_archive(values=(1,)),
    pool_archive(values=("x",)),
    pool_archive(indices=(2,)),
    pool_archive(indices=(-1,)),
    pool_archive(indices=(0.5,)),
    pool_archive(offsets=(1, 1, 1)),
    pool_archive(offsets=(0, 1, 0)),
    pool_archive(offsets=(0, 0, 2)),
    pool_archive(offsets=(0,)),
    pool_archive(offsets=(0.0, 0.0, 1.0)),
    pool_archive(offsets=(0, 1, 1)),
    pool_archive(dimension=-1),
    pool_archive(dimension=(2, 2)),
    damaged_archive(invalid_deflate_block),
    damaged_archive(unsupported_zip_version),
    damaged_archive(central_directory_outside_file),
    npy_header_cut_mid_dict,
], ids=["text-file", "npz-without-snapshots", "nan-in-snapshots",
        "inf-in-snapshots", "int-snapshots", "snapshot-0-not-zero",
        "snapshots-1d", "nan-in-values", "inf-in-values", "int-values",
        "text-values", "index-equal-to-dimension", "negative-index",
        "float-index", "offsets-not-from-0", "offsets-decrease",
        "offsets-beyond-arrays", "offsets-without-entry-0", "float-offsets",
        "entry-0-not-empty", "negative-dimension", "dimension-not-scalar",
        "invalid-deflate-block", "unsupported-zip-version",
        "central-directory-outside-file", "npy-header-cut-mid-dict"])
def test_eval_history_not_a_snapshot_archive_exits_one(runner, tmp_path, write):
    data = gen(runner, tmp_path, "multiclass", 10, "mc.csv")
    history = tmp_path / "history.npz"
    write(history)
    r = runner.invoke(cli.main, ["eval", "--task", "multiclass",
                                 "--data", str(data), "--history", str(history)])
    assert r.exit_code == 1, r.output
    assert r.output.startswith("error:")
    assert "not a snapshot archive" in r.output


def test_grid_cannot_hold_out_from_one_instance(runner, tmp_path):
    data = gen(runner, tmp_path, "multiclass", 1, "mc.csv")
    r = runner.invoke(cli.main, ["grid", "--task", "multiclass",
                                 "--data", str(data), "--passes", "1"])
    assert r.exit_code == 2, r.output
    assert r.output.startswith("data error:")


def assert_clean_exit(r, code):
    """Exit `code` through sys.exit, not an uncaught exception."""
    assert r.exit_code == code, r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), \
        repr(r.exception)


@pytest.mark.parametrize("kind,reader,code", [
    ("sequence", "data", 2),     # read_sentences
    ("multiclass", "data", 2),   # read_multiclass
    ("multiclass", "config", 1),  # read_config
])
def test_non_utf8_file_exits_cleanly(runner, tmp_path, kind, reader, code):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a\t0\t\n\xff\t1\t\n")
    flag = "--data" if reader == "data" else "--config"
    r = runner.invoke(cli.main, ["train", "--task", kind, flag, str(bad),
                                 "--out", str(tmp_path / "m.model")])
    assert_clean_exit(r, code)
    assert "not UTF-8 text" in r.output


@pytest.mark.parametrize("args,message", [
    (["bandit", "--epsilon", "2"], "epsilon 2.0 outside [0, 1]"),
    (["bandit", "--rounds", "-3"], "--rounds -3 must be at least 1"),
    (["train", "--seed", "-1"], "seed -1 must not be negative"),
    (["train", "--passes", "-2"], "passes -2 must not be negative"),
    (["check", "unbiasedness", "--trials", "1"], "trials 1 must be at least 2"),
    (["check", "counterexamples", "--rounds", "0"], "rounds 0 must be at least 1"),
    (["check", "snake", "-T", "0"], "--horizon 0 must be at least 1"),
    (["check", "snake", "-T", "-1"], "--horizon -1 must be at least 1"),
    (["check", "identity", "--models", "-1"], "--models -1 must be at least 1"),
    (["gen-data", "--task", "sequence", "--count", "-2"],
     "--count -2 must be at least 1"),
    (["train", "--passes", "abc"], "bad value 'abc' for passes"),
    (["train", "--reference-quality", "best"],
     "reference_quality must be one of"),
    # the config is checked before the data path is read
    (["grid", "--task", "foo", "--data", "unread.txt"], "task must be one of"),
    (["grid"], "data path is required"),
])
def test_option_out_of_range_exits_one(runner, tmp_path, args, message):
    if args[0] in ("train", "bandit"):
        data = gen(runner, tmp_path, "multiclass", 10, "mc.csv")
        args = args + ["--task", "multiclass", "--data", str(data)]
    if args[0] in ("train", "gen-data"):
        args = args + ["--out", str(tmp_path / "out")]
    r = runner.invoke(cli.main, args)
    assert_clean_exit(r, 1)
    assert f"error: {message}" in r.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", [["--rounds", "0"], ["--eps", "1"]])
def test_counterexamples_option_checked_before_any_verdict(runner, option):
    r = runner.invoke(cli.main, ["check", "counterexamples"] + option)
    assert_clean_exit(r, 1)
    assert "[PASS]" not in r.output and "[FAIL]" not in r.output


def test_history_archive_round_trip(runner, tmp_path):
    data = gen(runner, tmp_path, "sequence", 12, "seq.tsv")
    history = tmp_path / "history.npz"
    r = runner.invoke(cli.main, train_args(data, "sequence", tmp_path / "m.model")
                      + ["--passes", "2", "--history-out", str(history)])
    assert r.exit_code == 0, r.output
    with np.load(history) as archive:
        # the untrained policy, then one snapshot per instance and pass
        assert len(archive["offsets"]) - 1 == 1 + 12 * 2
    r = runner.invoke(cli.main, ["eval", "--task", "sequence", "--data",
                                 str(data), "--history", str(history)])
    assert r.exit_code == 0, r.output
    name, value = r.output.split()
    assert name == "accuracy" and 0.0 <= float(value) <= 1.0


def test_eval_history_refuses_a_dense_snapshots_archive(runner, tmp_path):
    # the archive form `train --history-out` wrote before the pool's own,
    # one dense row per snapshot under the key `snapshots`, is refused by
    # name; the pool's own archive of the same run is read
    data = gen(runner, tmp_path, "sequence", 12, "seq.tsv")
    history, legacy = tmp_path / "history.npz", tmp_path / "legacy.npz"
    r = runner.invoke(cli.main, train_args(data, "sequence", tmp_path / "m.model")
                      + ["--passes", "2", "--history-out", str(history)])
    assert r.exit_code == 0, r.output
    np.savez_compressed(legacy, config="c",
                        snapshots=np.array(list(PolicyPool.load(history))))
    r = runner.invoke(cli.main, ["eval", "--task", "sequence", "--data",
                                 str(data), "--history", str(history)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(cli.main, ["eval", "--task", "sequence", "--data",
                                 str(data), "--history", str(legacy)])
    assert_clean_exit(r, 1)
    assert r.output.startswith("error:")
    assert "not a snapshot archive" in r.output
    assert "dense `snapshots` rows" in r.output


@pytest.mark.parametrize("dimension", [2**44, 2**62])
def test_eval_history_of_a_huge_dimension_exits_one(runner, tmp_path, dimension):
    # the archive's header declares the dimension; loading it allocates
    # by the entries it holds, and `eval` then refuses the mismatch
    from l2s import experiment
    data = gen(runner, tmp_path, "sequence", 5, "seq.tsv")
    history = tmp_path / "history.npz"
    pool_archive(dimension=dimension)(history)
    task = experiment.task_dimension(experiment.load_dataset("sequence", data))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    r = subprocess.run([sys.executable, "-m", "l2s.cli", "eval", "--task",
                        "sequence", "--data", str(data), "--history",
                        str(history)], env={**os.environ, "PYTHONPATH": src},
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 1, (r.stdout, r.stderr)
    assert (r.stdout, r.stderr) == (
        "", f"error: model dimension {dimension} != task {task}\n")
    assert "Traceback" not in r.stderr


def test_eval_model_and_history_together_exits_one(runner, tmp_path):
    model, history = tmp_path / "m.model", tmp_path / "history.npz"
    model.write_bytes(b"")
    history.write_bytes(b"")
    # a data path that does not exist: reading it would fail otherwise
    r = runner.invoke(cli.main, ["eval", "--task", "sequence", "--data",
                                 str(tmp_path / "missing.tsv"), "--model",
                                 str(model), "--history", str(history)])
    assert_clean_exit(r, 1)
    assert r.output == "error: eval takes one of --model and --history\n"


def test_history_archive_memory_is_bounded_by_writes(tmp_path):
    # 40 sentences x 2 passes: dense rows would take 81 x 163840 float64,
    # about 106 MB, in `train --history-out` and again in `eval --history`
    data, history = tmp_path / "seq.tsv", tmp_path / "history.npz"
    runner = CliRunner()
    r = runner.invoke(cli.main, ["gen-data", "--task", "sequence", "--count",
                                 "40", "--seed", "1", "--out", str(data)])
    assert r.exit_code == 0, r.output
    tracemalloc.start()
    try:
        r = runner.invoke(cli.main, train_args(data, "sequence", tmp_path / "m.model")
                          + ["--passes", "2", "--history-out", str(history)])
        assert r.exit_code == 0, r.output
        r = runner.invoke(cli.main, ["eval", "--task", "sequence", "--data",
                                     str(data), "--history", str(history)])
        assert r.exit_code == 0, r.output
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_bound_and_unbiasedness_suites_pass(runner):
    r = runner.invoke(cli.main, ["check", "bound", "--models", "2",
                                 "--rounds", "3"])
    assert r.exit_code == 0, r.output
    assert "[PASS] regret-bound: 10/10 model x beta runs satisfied" in r.output
    r = runner.invoke(cli.main, ["check", "unbiasedness", "--trials", "500"])
    assert r.exit_code == 0, r.output
    assert r.output.startswith("[PASS] bandit-unbiasedness: a0:")


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["sequence", "parse", "multiclass"]),
       blob=st.binary(max_size=64))
def test_any_data_file_exits_zero_one_or_two(kind, blob):
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data")
        with open(data, "wb") as fh:
            fh.write(blob)
        r = CliRunner().invoke(cli.main, train_args(
            data, kind, os.path.join(tmp, "m.model")) + ["--passes", "1"])
    assert r.exit_code in (0, 1, 2), r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), \
        repr(r.exception)
