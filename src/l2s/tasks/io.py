"""On-disk data formats.

Sequences / parses: TSV, one token per line (token, gold tag, gold head
index), blank line between sentences. Multiclass: CSV, one row per
example: a space-separated "index:value" features field, then k costs.
"""

import csv
import io
import math

from ..errors import DataFormatError


def _text(path, newline=None):
    """A file opened for reading as UTF-8 text; any other bytes are a
    DataFormatError."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return io.StringIO(fh.read(), newline=newline)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text: {exc}")


def write_sentences(path, sentences):
    """sentences: list of (tokens, tags or None, heads or None)."""
    with open(path, "w", encoding="utf-8") as fh:
        for tokens, tags, heads in sentences:
            for i, tok in enumerate(tokens):
                tag = "" if tags is None else str(tags[i])
                head = "" if heads is None else str(heads[i])
                fh.write(f"{tok}\t{tag}\t{head}\n")
            fh.write("\n")


def read_sentences(path):
    """Returns a list of (tokens, tags or None, heads or None).

    Tags must be non-negative; the head of token i (1-based) must lie in
    0..n and differ from i, and a sentence's heads must form one tree:
    exactly one token headed by 0, reached from every token.
    """
    sentences = []
    tokens, tags, heads, lines = [], [], [], []

    def ints(cells):
        """The column's integers, or None when a cell is empty."""
        if "" in cells:
            return None
        values = []
        for cell, no in zip(cells, lines):
            try:
                values.append(int(cell))
            except ValueError as exc:
                raise DataFormatError(str(exc), line=no)
        return values

    def flush():
        if not tokens:
            return
        n = len(tokens)
        sent_tags, sent_heads = ints(tags), ints(heads)
        for i, no in enumerate(lines):
            if sent_tags and sent_tags[i] < 0:
                raise DataFormatError(f"tag {sent_tags[i]} is negative", line=no)
            if sent_heads and not 0 <= sent_heads[i] <= n:
                raise DataFormatError(f"head {sent_heads[i]} outside 0..{n}", line=no)
            if sent_heads and sent_heads[i] == i + 1:
                raise DataFormatError(f"token {i + 1} is its own head", line=no)
        if sent_heads:
            _check_one_tree(sent_heads, lines[0])
        sentences.append((list(tokens), sent_tags, sent_heads))
        tokens.clear(), tags.clear(), heads.clear(), lines.clear()

    with _text(path) as fh:
        for no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                flush()
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise DataFormatError(f"expected 3 tab-separated columns, got {len(cols)}", line=no)
            tokens.append(cols[0])
            tags.append(cols[1])
            heads.append(cols[2])
            lines.append(no)
        flush()
    return sentences


def _check_one_tree(heads, line):
    """DataFormatError unless exactly one token is headed by 0 and every
    token reaches it through its heads: the one tree an arc-hybrid parse
    can build."""
    roots = heads.count(0)
    if roots != 1:
        raise DataFormatError(f"{roots} tokens headed by 0, need exactly 1",
                              line=line)
    for i in range(1, len(heads) + 1):
        j = i
        for _ in range(len(heads)):
            j = heads[j - 1]
            if j == 0:
                break
        else:
            raise DataFormatError(f"token {i} does not reach the root "
                                  "through its heads", line=line)


def write_multiclass(path, examples):
    """examples: list of (feature_pairs, costs)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        for pairs, costs in examples:
            feats = " ".join(f"{i}:{v:g}" for i, v in pairs)
            w.writerow([feats] + [f"{c:.6f}" for c in costs])


def read_multiclass(path):
    """Returns a list of (feature_pairs, costs); all rows must agree on k."""
    out = []
    k = None
    with _text(path, newline="") as fh:
        for no, row in enumerate(csv.reader(fh), 1):
            if not row:
                continue
            try:
                pairs = []
                for item in row[0].split():
                    i, v = item.split(":")
                    pairs.append((int(i), float(v)))
                costs = [float(c) for c in row[1:]]
            except ValueError as exc:
                raise DataFormatError(str(exc), line=no)
            if not all(map(math.isfinite, [v for _, v in pairs] + costs)):
                raise DataFormatError("non-finite feature value or cost", line=no)
            # bounds every partial sum the label tree makes of this row's
            # values, at a repeated index or a hash collision
            if not math.isfinite(sum(abs(v) for _, v in pairs)):
                raise DataFormatError("feature values overflow when summed", line=no)
            if len(costs) < 2:
                raise DataFormatError(
                    f"row has {len(costs)} cost columns, need at least 2", line=no)
            if k is None:
                k = len(costs)
            elif len(costs) != k:
                raise DataFormatError(f"expected {k} costs, got {len(costs)}", line=no)
            out.append((pairs, costs))
    return out
