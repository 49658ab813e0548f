"""Command-line harness: subcommands, exit codes, reproducibility."""

import json
import math
import struct

import pytest
from click.testing import CliRunner

from l2s import cli


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
    data = gen(runner, tmp_path, "multiclass", 10, "mc.csv")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"task = multiclass\ndata = {data}\npasses = 1\n"
                       "# comment\nseed = 2\n")
    model = tmp_path / "m.model"
    r = runner.invoke(cli.main, ["train", "--config", str(cfgfile),
                                 "--passes", "0", "--out", str(model)])
    assert r.exit_code == 0, r.output
    from l2s.cslearn import CostSensitiveLearner
    assert CostSensitiveLearner.load(model).updates == 0  # override won


def test_bad_config_key_exits_one(runner, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("nonsense = 1\n")
    r = runner.invoke(cli.main, ["train", "--config", str(cfgfile),
                                 "--out", str(tmp_path / "m")])
    assert r.exit_code == 1
    assert "nonsense" in r.output


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


def test_check_suites_pass(runner):
    r = runner.invoke(cli.main, ["check", "identity", "--models", "10"])
    assert r.exit_code == 0, r.output
    assert "[PASS]" in r.output
    r = runner.invoke(cli.main, ["check", "snake", "-T", "3"])
    assert r.exit_code == 0, r.output
    assert "4 updates" in r.output
    r = runner.invoke(cli.main, ["check", "counterexamples"])
    assert r.exit_code == 0, r.output


def test_failed_check_exits_three():
    with pytest.raises(SystemExit) as e:
        cli._report("demo", False, "forced failure")
    assert e.value.code == 3


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


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:20],
    lambda blob: blob[:-8],
    lambda blob: blob + bytes(8),
    lambda blob: blob[:-8] + struct.pack("<d", math.nan),
], ids=["short-header", "short-payload", "long-payload", "nan-weight"])
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
    for args in (["eval", "--task", "sequence", "--data", str(test),
                  "--model", str(model)],
                 ["grid", "--task", "sequence", "--data", str(train),
                  "--test-data", str(test), "--passes", "1"]):
        r = runner.invoke(cli.main, args)
        assert r.exit_code == code, r.output
        assert ("dimension" in r.output) == (code == 1)
