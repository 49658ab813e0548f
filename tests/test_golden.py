"""Golden digests of CLI output files, and the exact text of the checks.

Each train or bandit case writes a small seeded data file with
`l2s.tasks.synth`, runs one `l2s` command on it and compares the sha256
of every file the command writes with a recorded value. Each check case
compares the stdout of one `l2s check` suite with its recorded text. A
change meant to leave outputs alone must leave these values alone; a
change meant to alter them records the new values and says why.
"""

import hashlib

import numpy as np
import pytest
from click.testing import CliRunner

from l2s import cli
from l2s.tasks import synth, write_multiclass, write_sentences


def write_data(path, kind, count, seed):
    if kind == "sequence":
        write_sentences(path, [(toks, tags, None)
                               for toks, tags in synth.gen_sequences(count, seed)])
    elif kind == "parse":
        write_sentences(path, [(toks, None, heads)
                               for toks, heads in synth.gen_trees(count, seed)])
    else:
        write_multiclass(path, synth.gen_multiclass(count, seed))


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


TRAIN_CASES = {
    # kind: (instances, data seed, extra options, diagnostics sha256, model sha256)
    "sequence": (12, 5, ["--reference-quality", "suboptimal", "--beta", "0.5"],
                 "0fb6a8f5a4b89c8a3c8d1075bb897dcd4d1214d6e55a9ae8a4d78c3119ab8f09",
                 "f8bff88322de73dfed5fdaefa6619dd4680fffd5bc67dc97050fdd6fd09f6330"),
    "parse": (12, 6, ["--reference-quality", "bad", "--roll-out", "mixture"],
              "eb397aaa6b872d75fed1ebf276b20ed8656b008d56de8742ea2eabaac612c889",
              "f1ef250201fa1c563c5601863f072f48916d17eb0dce458d266aeacf5d5009c9"),
    "multiclass": (40, 7, ["--reference-quality", "suboptimal",
                           "--roll-in", "reference"],
                   "36a0327d99bdd3c30d29849dedacd7de6f25a7eacd6479eba738b7ebe12938cc",
                   "a0c3928ed8490509bed41e6eb34c3c730f0ca99c6f33ca3f2c3aaa3e06dde9f9"),
}


@pytest.mark.parametrize("kind", sorted(TRAIN_CASES))
def test_train_diagnostics_and_model_digests(tmp_path, monkeypatch, kind):
    # relative paths: the diagnostics rows carry a hash of the config,
    # and the config holds the data path
    monkeypatch.chdir(tmp_path)
    count, data_seed, options, diag_sha, model_sha = TRAIN_CASES[kind]
    write_data("data.txt", kind, count, data_seed)
    r = CliRunner().invoke(cli.main, [
        "train", "--task", kind, "--data", "data.txt", "--passes", "2",
        "--seed", "4", *options, "--out", "m.model",
        "--diagnostics-out", "diag.jsonl"])
    assert r.exit_code == 0, r.output
    assert (sha256("diag.jsonl"), sha256("m.model")) == (diag_sha, model_sha)


BANDIT_CASES = {
    # kind: (instances, rounds, log sha256, stdout); data seed 8, --epsilon 0.3
    "multiclass": (60, 500,
                   "7e105916bf3c340ee84915f9e2b282df7ac232948e52f2ba4c3f9755f8d33fa4",
                   "rounds 500  explored 135  exploit-loss (last 100): 0.5602\n"),
    "parse": (30, 200,
              "423fac1add6744c3a9925519a7c30f6b5109dea863de7da7cbf6bea0e948a5b9",
              "rounds 200  explored 54  exploit-loss (last 100): 0.6677\n"),
    "sequence": (30, 200,
                 "35f97d65585ed3795eed880e6501229dad8c392b5691b11e49e5885f96747d6d",
                 "rounds 200  explored 55  exploit-loss (last 100): 0.7361\n"),
}


@pytest.mark.parametrize("kind", sorted(BANDIT_CASES))
def test_bandit_log_digest(tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    count, rounds, log_sha, stdout = BANDIT_CASES[kind]
    write_data("data.txt", kind, count, 8)
    r = CliRunner().invoke(cli.main, [
        "bandit", "--task", kind, "--data", "data.txt",
        "--rounds", str(rounds), "--epsilon", "0.3", "--seed", "3",
        "--log-out", "log.jsonl"])
    assert r.exit_code == 0, r.output
    assert (sha256("log.jsonl"), r.output) == (log_sha, stdout)


CHECK_CASES = {
    # arguments of `l2s check`: its exact stdout
    ("identity",):
        "[PASS] difference-identity: 100 models x 10 pairs, "
        "max deviation 8.88e-16\n",
    ("bound", "--models", "5", "--rounds", "10"):
        "[PASS] regret-bound: 25/25 model x beta runs satisfied\n",
    ("counterexamples", "--rounds", "100"):
        "[PASS] reference-rollin-failure: unvisited [('e', 'f')], "
        "worst zero-regret J 100 vs reference J 0\n"
        "[PASS] reference-rollout-failure: learned J 0.9, "
        "best deviation J 0, mixture J 0\n",
    ("snake", "-T", "4"):
        "[PASS] snake-T4: 7 updates along "
        "0000->0001->0011->0111->0110->1110->1100->1101\n",
    ("unbiasedness", "--trials", "2000"):
        "[PASS] bandit-unbiasedness: "
        "a0: mc 0.9740 exact 1.0000 (3se 0.0671); "
        "a1: mc 1.0268 exact 1.0000 (3se 0.0678)\n",
}


@pytest.mark.parametrize("args", list(CHECK_CASES), ids=" ".join)
def test_check_output(args):
    r = CliRunner().invoke(cli.main, ["check", *args])
    assert r.exit_code == 0, r.output
    assert r.output == CHECK_CASES[args]


# `train --history-out` on 8 sequence instances (data seed 9), 2 passes:
# the sha256 of the snapshots' dense float64 rows with their shape and
# dtype (not of the .npz file, whose zip entries carry timestamps), and
# the stdout of `eval --history` on that archive
HISTORY_CASE = ((17, 163840), "float64",
                "1c17eb93829c6f86a19d9c1a96d44a5d3d12053a9ba7d58017273a1db7a205d3",
                "accuracy 0.181818\n")


def test_history_archive_and_averaged_eval(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_data("data.txt", "sequence", 8, 9)
    r = CliRunner().invoke(cli.main, [
        "train", "--task", "sequence", "--data", "data.txt", "--passes", "2",
        "--seed", "4", "--out", "m.model", "--history-out", "history.npz"])
    assert r.exit_code == 0, r.output
    # the dense rows, rebuilt here from the archive's keys: snapshot j is
    # snapshot j - 1 with entry j's values set at entry j's indices
    with np.load("history.npz") as archive:
        offsets, indices, values = (archive[k]
                                    for k in ("offsets", "indices", "values"))
        row = np.zeros(int(archive["dimension"]))
    snapshots = np.empty((len(offsets) - 1, len(row)), dtype=values.dtype)
    for j, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        row[indices[lo:hi]] = values[lo:hi]
        snapshots[j] = row
    r = CliRunner().invoke(cli.main, [
        "eval", "--task", "sequence", "--data", "data.txt", "--seed", "4",
        "--history", "history.npz"])
    assert r.exit_code == 0, r.output
    assert (snapshots.shape, str(snapshots.dtype),
            hashlib.sha256(snapshots.tobytes()).hexdigest(),
            r.output) == HISTORY_CASE


# `l2s gen-data --count 10 --seed 2`: the sha256 of the file it writes
GEN_DATA_CASES = {
    "multiclass": "a7d3d8c0224adc943d325f4764006f2e112602fb27ec116ab28efd9a7b57d626",
    "parse": "e243db28df9ed8ef5d69ed7b017a501418ba5c47f9ed740b8ca19668bbe20094",
    "sequence": "5b1fcee5d9c32a2ea70c3568573f86da8125fdeeb130e8ac068f766a636342b9",
}


@pytest.mark.parametrize("kind", sorted(GEN_DATA_CASES))
def test_gen_data_digest(tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    r = CliRunner().invoke(cli.main, [
        "gen-data", "--task", kind, "--count", "10", "--seed", "2",
        "--out", "data.txt"])
    assert r.exit_code == 0, r.output
    assert (sha256("data.txt"), r.output) == (
        GEN_DATA_CASES[kind], f"10 {kind} instances -> data.txt\n")


def write_held_out(path, kind):
    """A held-out file for `kind`: for sequence, 6 sentences of a 4-tag
    HMM, so it lacks the top tag of the 5-tag training data."""
    if kind == "sequence":
        write_sentences(path, [(toks, tags, None) for toks, tags
                               in synth.gen_sequences(6, 3, tag_count=4)])
    else:
        write_data(path, kind, 6, 3)


GRID_CASES = {
    # case: (kind, instances, data seed, held-out file or not,
    #        sha256 of the --out JSON, sha256 of stdout); --passes 1 --seed 4
    "multiclass": ("multiclass", 30, 5, False,
                   "b7f9af715983c298b21977b20a801a90255bb7b4410e1f3461ef8aa7069c026f",
                   "f26116a9f87c177f1dfea4789aba6f867d514912a935288f54d7640269b598c1"),
    "parse": ("parse", 10, 5, False,
              "ca9671e55ba0a0bf8ad1db6c901ceb7684e2078248dc556c465c45fdef9faa96",
              "59f2d311fcfcad6ce30896afae95794c75d693b122c3f31f4860ad39e39decf0"),
    "sequence": ("sequence", 10, 5, False,
                 "45e906066f35103fe8341054c03ade2e84f9c0295a117b59af7e1a58013025eb",
                 "153ebd7427e5152395c767113d66844706443b6dafb1256e44862e7934983099"),
    "sequence-held-out": ("sequence", 10, 5, True,
                          "85f4a4c8f7bab7ab867f3f12af31a1196b286864f07d51b4833e8d68ca600fa9",
                          "fc7ebc59b400fa03c31e361c4c6527a01c7382ae6ead518f433ed0ff9d1636d9"),
}


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_report_digest(tmp_path, monkeypatch, case):
    # relative paths: the report carries a hash of the config, and the
    # config holds the data paths
    monkeypatch.chdir(tmp_path)
    kind, count, data_seed, held_out, json_sha, stdout_sha = GRID_CASES[case]
    write_data("data.txt", kind, count, data_seed)
    options = []
    if held_out:
        write_held_out("test.txt", kind)
        options = ["--test-data", "test.txt"]
    r = CliRunner().invoke(cli.main, [
        "grid", "--task", kind, "--data", "data.txt", *options,
        "--passes", "1", "--seed", "4", "--out", "grid.json"])
    assert r.exit_code == 0, r.output
    assert (sha256("grid.json"),
            hashlib.sha256(r.output.encode()).hexdigest()) == (json_sha,
                                                                stdout_sha)


EVAL_CASES = {
    # case: (kind, instances, data seed, scored file, stdout); the model
    # is trained with --passes 1 --seed 4 on the data file
    "multiclass": ("multiclass", 30, 5, "data.txt", "avg_cost 0.324304\n"),
    "parse": ("parse", 10, 5, "data.txt", "uas 0.209302\n"),
    "sequence": ("sequence", 10, 5, "data.txt", "accuracy 0.202899\n"),
    # a model trained on 5 tags scores a file of 4
    "sequence-held-out": ("sequence", 10, 5, "test.txt", "accuracy 0.222222\n"),
}


@pytest.mark.parametrize("case", sorted(EVAL_CASES))
def test_eval_model_output(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    kind, count, data_seed, scored, stdout = EVAL_CASES[case]
    write_data("data.txt", kind, count, data_seed)
    write_held_out("test.txt", kind)
    r = CliRunner().invoke(cli.main, [
        "train", "--task", kind, "--data", "data.txt", "--passes", "1",
        "--seed", "4", "--out", "m.model"])
    assert r.exit_code == 0, r.output
    r = CliRunner().invoke(cli.main, [
        "eval", "--task", kind, "--data", scored, "--model", "m.model"])
    assert r.exit_code == 0, r.output
    assert r.output == stdout
