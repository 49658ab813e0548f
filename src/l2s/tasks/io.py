"""On-disk data formats.

Sequences / parses: TSV, one token per line (token, gold tag, gold head
index), blank line between sentences. Multiclass: CSV, one row per
example: a space-separated "index:value" features field, then k costs.
"""

import csv

from ..errors import DataFormatError


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
    """Returns a list of (tokens, tags or None, heads or None)."""
    sentences = []
    tokens, tags, heads = [], [], []

    def flush(line_no):
        if not tokens:
            return
        has_tags = all(t != "" for t in tags)
        has_heads = all(h != "" for h in heads)
        try:
            sentences.append((
                list(tokens),
                [int(t) for t in tags] if has_tags else None,
                [int(h) for h in heads] if has_heads else None,
            ))
        except ValueError as exc:
            raise DataFormatError(str(exc), line=line_no)
        tokens.clear(), tags.clear(), heads.clear()

    with open(path, encoding="utf-8") as fh:
        for no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                flush(no)
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise DataFormatError(f"expected 3 tab-separated columns, got {len(cols)}", line=no)
            tokens.append(cols[0])
            tags.append(cols[1])
            heads.append(cols[2])
        flush(no if sentences or tokens else 0)
    return sentences


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
    with open(path, encoding="utf-8", newline="") as fh:
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
            if len(costs) < 2:
                raise DataFormatError(
                    f"row has {len(costs)} cost columns, need at least 2", line=no)
            if k is None:
                k = len(costs)
            elif len(costs) != k:
                raise DataFormatError(f"expected {k} costs, got {len(costs)}", line=no)
            out.append((pairs, costs))
    return out
