"""Seeded input generators for the benchmark, independent of `l2s`.

Each generator draws from its own `random.Random`, keyed by the workload
seed, and writes files in the formats `l2s.experiment.load_dataset`
reads: TSV sentences (token, tag, head) and CSV multiclass rows
("index:value" features, then one cost per label).  Lengths are spread
evenly over their range and then shuffled, so the amount of work per
input hardly depends on the seed.
"""

import random


def _rng(seed, stream):
    return random.Random(f"perfbench/{stream}/{seed}")


def _even_lengths(r, count, lo, hi):
    lengths = [lo + i % (hi - lo + 1) for i in range(count)]
    r.shuffle(lengths)
    return lengths


def _draw(r, probs):
    x = r.random()
    for i, p in enumerate(probs):
        x -= p
        if x < 0:
            return i
    return len(probs) - 1


def hmm_sentences(seed, count, tag_count, min_len, max_len, vocab_per_tag=8,
                  emission_noise=0.05, allowed_tags=None):
    """Tagged sentences from a seeded HMM; returns [(tokens, tags)].

    Every tag owns `vocab_per_tag` words; with probability
    `emission_noise` a word comes from a random tag's slice instead.
    `allowed_tags` restricts the hidden states (the transition rows are
    renormalised), which makes a file lacking the higher tags.
    """
    r = _rng(seed, "hmm")
    # transitions keep a uniform floor so every tag occurs often
    trans = [[0.5 / tag_count + 0.5 * w for w in _simplex(r, tag_count)]
             for _ in range(tag_count)]
    init = [1.0 / tag_count] * tag_count
    tags_ok = list(range(tag_count)) if allowed_tags is None else allowed_tags
    r = _rng(seed, f"hmm-draws-{len(tags_ok)}")
    out = []
    for n in _even_lengths(r, count, min_len, max_len):
        tags, tokens = [], []
        for t in range(n):
            row = init if t == 0 else trans[tags[-1]]
            probs = [row[k] if k in tags_ok else 0.0 for k in range(tag_count)]
            total = sum(probs)
            tag = _draw(r, [p / total for p in probs])
            src = r.randrange(tag_count) if r.random() < emission_noise else tag
            tags.append(tag)
            tokens.append(f"w{src:02d}_{r.randrange(vocab_per_tag):02d}")
        out.append((tokens, tags))
    return out


def _simplex(r, k):
    xs = [r.expovariate(1.0) for _ in range(k)]
    s = sum(xs)
    return [x / s for x in xs]


def _projective(lo, hi, head, r, heads):
    if lo > hi:
        return
    root = r.randint(lo, hi)
    heads[root - 1] = head
    _projective(lo, root - 1, root, r, heads)
    _projective(root + 1, hi, root, r, heads)


def projective_trees(seed, count, min_len, max_len, vocab=30):
    """Random projective dependency trees; returns [(tokens, heads)].

    Heads are 1-based with 0 the root.  Each token spells the direction
    of its head (r: root, l: left, g: right), so a linear parser has
    something to learn.
    """
    r = _rng(seed, "trees")
    out = []
    for n in _even_lengths(r, count, min_len, max_len):
        heads = [-1] * n
        _projective(1, n, 0, r, heads)
        tokens = []
        for i, h in enumerate(heads, 1):
            direction = "r" if h == 0 else ("l" if h < i else "g")
            tokens.append(f"t{direction}{r.randrange(vocab):02d}")
        out.append((tokens, heads))
    return out


def multiclass_examples(seed, count, label_count, noise_features=3):
    """Cost-sensitive examples; returns [(feature_pairs, costs)].

    The gold label costs 0 and every other label a uniform cost in
    [0.5, 1], rounded to the six decimals the file keeps, so the costs
    read back are exactly these.  One feature names the gold label; a
    few noise features pad it.
    """
    r = _rng(seed, "multiclass")
    out = []
    for _ in range(count):
        gold = r.randrange(label_count)
        costs = [float(f"{r.uniform(0.5, 1.0):.6f}") for _ in range(label_count)]
        costs[gold] = 0.0
        pairs = {(gold, 1.0)}
        for _ in range(noise_features):
            pairs.add((label_count + r.randrange(20), 1.0))
        out.append((sorted(pairs), costs))
    return out


def write_sentences(path, sentences, with_tags=True):
    """TSV, one token per line; the unused column is left empty."""
    with open(path, "w", encoding="utf-8") as fh:
        for tokens, labels in sentences:
            for tok, lab in zip(tokens, labels):
                tag, head = (lab, "") if with_tags else ("", lab)
                fh.write(f"{tok}\t{tag}\t{head}\n")
            fh.write("\n")


def write_multiclass(path, examples):
    with open(path, "w", encoding="utf-8") as fh:
        for pairs, costs in examples:
            feats = " ".join(f"{i}:{v:g}" for i, v in pairs)
            fh.write(",".join([feats] + [f"{c:.6f}" for c in costs]) + "\n")
