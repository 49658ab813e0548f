"""Golden digests of CLI output files.

Each case writes a small seeded data file with `l2s.tasks.synth`, runs
one `l2s` command on it and compares the sha256 of every file the
command writes with a recorded value. A change meant to leave outputs
alone must leave these digests alone; a change meant to alter them
records the new digests and says why.
"""

import hashlib

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
                 "d0225c624cfa35278b0e223cf0ca1c72dbac4fc76432b5687f4040f6d0b95a0b",
                 "f8bff88322de73dfed5fdaefa6619dd4680fffd5bc67dc97050fdd6fd09f6330"),
    "parse": (12, 6, ["--reference-quality", "bad", "--roll-out", "mixture"],
              "5c60b4913e9964c64940e6003315f84987ab0f08d383c2a53c6817bea78220a7",
              "f1ef250201fa1c563c5601863f072f48916d17eb0dce458d266aeacf5d5009c9"),
    "multiclass": (40, 7, ["--reference-quality", "suboptimal",
                           "--roll-in", "reference"],
                   "e553744efa422e9d37a54a61425640d21f2e34a56a55b69a97ea81aed9af9abf",
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
    # kind: (instances, rounds, log sha256); data seed 8, --epsilon 0.3
    "multiclass": (60, 500,
                   "362701c52a643437b594da6a5ad84fd71e2c8d048f6dab00dfaf0564696922c3"),
    "parse": (30, 200,
              "aab97ee8ec72dd6587c2cffde51bde7b6bf410a7d918512b094a664d354f8d80"),
    "sequence": (30, 200,
                 "3cf6cfbc8c8473b798aa33d160f900673bb565e6c400880bed1813a1a9cd77cc"),
}


@pytest.mark.parametrize("kind", sorted(BANDIT_CASES))
def test_bandit_log_digest(tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    count, rounds, log_sha = BANDIT_CASES[kind]
    write_data("data.txt", kind, count, 8)
    r = CliRunner().invoke(cli.main, [
        "bandit", "--task", kind, "--data", "data.txt",
        "--rounds", str(rounds), "--epsilon", "0.3", "--seed", "3",
        "--log-out", "log.jsonl"])
    assert r.exit_code == 0, r.output
    assert sha256("log.jsonl") == log_sha
