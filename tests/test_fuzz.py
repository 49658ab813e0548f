"""The exit-code contract under mutated data files.

A data file, however damaged, ends a run in exit 0, 1 or 2, and a
non-zero exit ends in an `error:` or `data error:` line, never a
traceback. A mutant that is still a valid file may exit 0. Hypothesis,
derandomized so that every run tries the same mutants, damages a
`gen-data` file of each task kind and runs `bandit` and `train` on it
in-process through `cli.main`.
"""

import re
import traceback

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from l2s import cli, experiment

# what a field is replaced by
FIELDS = [b"nan", b"inf", b"1e309", b"-0", b"12345678901234567890",
          b"\t", b",", b" ", b":", b""]
# the field separators of the three kinds' lines
SEPARATOR = re.compile(rb"([\t,: ])")
COMMANDS = (["bandit", "--rounds", "20"], ["train", "--passes", "1"])


@st.composite
def mutants(draw, blob):
    """`blob` truncated, with one byte changed, with a line inserted or
    emptied, or with one field of a line replaced from FIELDS."""
    how = draw(st.sampled_from(["truncate", "byte", "insert", "empty",
                                "field"]))
    if how == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if how == "byte":
        at = draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1:]
    lines = blob.split(b"\n")
    at = draw(st.integers(0, len(lines) - 1))
    if how == "insert":
        lines.insert(at, draw(st.sampled_from(lines + FIELDS)))
    elif how == "empty":
        lines[at] = b""
    else:
        parts = SEPARATOR.split(lines[at])
        field = draw(st.sampled_from(range(0, len(parts), 2)))
        parts[field] = draw(st.sampled_from(FIELDS))
        lines[at] = b"".join(parts)
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A working directory and each kind's valid `gen-data` bytes."""
    work = tmp_path_factory.mktemp("fuzz")
    blobs = {}
    for kind in experiment.TASK_KINDS:
        path = work / f"{kind}.data"
        experiment.KINDS[kind].write(path, 4, 1)
        blobs[kind] = path.read_bytes()
    return work, blobs


@pytest.mark.parametrize("kind", experiment.TASK_KINDS)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_data_file_exits_cleanly(originals, kind, data):
    work, blobs = originals
    path, model = work / "mutant.data", work / "m.model"
    # new files each time: ext4 flushes a file rewritten in place
    for written in (path, model):
        written.unlink(missing_ok=True)
    path.write_bytes(data.draw(mutants(blobs[kind])))
    for command in COMMANDS:
        args = [*command, "--task", kind, "--data", str(path)]
        if command[0] == "train":
            args += ["--out", str(model)]
        r = CliRunner().invoke(cli.main, args)
        assert r.exception is None or isinstance(r.exception, SystemExit), \
            "".join(traceback.format_exception(*r.exc_info))
        assert r.exit_code in (0, 1, 2), r.output
        if r.exit_code:
            last = r.output.splitlines()[-1:]
            assert last and last[0].startswith(("error: ", "data error: ")), \
                r.output
