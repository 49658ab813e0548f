"""Seeded synthetic data: HMM sequences, projective trees, cost vectors."""

from .. import rng

# words per tag in a sequence vocabulary, and the chance that a word is
# drawn from a random tag's slice instead of its own
VOCAB_PER_TAG = 8
EMISSION_NOISE = 0.1
# distinct word ids per head direction in a tree's tokens
TREE_VOCAB = 30
# noise features per multiclass example, and the range of a wrong label's cost
NOISE_FEATURES = 3
OFF_COST_RANGE = (0.5, 1.0)


def gen_sequences(count, seed, tag_count=5, min_len=5, max_len=8):
    """Sentences from a seeded HMM with peaked, learnable emissions.

    Returns a list of (tokens, tags). Each tag owns a vocabulary slice of
    VOCAB_PER_TAG words; with probability EMISSION_NOISE a word is drawn
    from a random tag's slice instead.
    """
    g = rng.substream(seed, rng.DATA)
    trans = g.dirichlet([1.0] * tag_count, size=tag_count)
    init = g.dirichlet([1.0] * tag_count)
    out = []
    for _ in range(count):
        n = int(g.integers(min_len, max_len + 1))
        tags, tokens = [], []
        for t in range(n):
            probs = init if t == 0 else trans[tags[-1]]
            tag = int(g.choice(tag_count, p=probs))
            tags.append(tag)
            src = tag
            if g.random() < EMISSION_NOISE:
                src = int(g.integers(tag_count))
            word = f"w{src:02d}_{int(g.integers(VOCAB_PER_TAG)):02d}"
            tokens.append(word)
        out.append((tokens, tags))
    return out


def _random_projective(lo, hi, g, heads, head_of_span):
    """Pick a span root attached to head_of_span; recurse on both sides."""
    if lo > hi:
        return
    r = int(g.integers(lo, hi + 1))
    heads[r - 1] = head_of_span
    _random_projective(lo, r - 1, g, heads, r)
    _random_projective(r + 1, hi, g, heads, r)


def gen_trees(count, seed, min_len=3, max_len=6):
    """Random projective dependency trees with weakly indicative tokens.

    Returns a list of (tokens, gold_heads); heads are 1-based with 0 the
    root. Token strings encode the head offset direction so a linear
    model has signal to learn from.
    """
    g = rng.substream(seed, rng.DATA)
    out = []
    for _ in range(count):
        n = int(g.integers(min_len, max_len + 1))
        heads = [-1] * n
        _random_projective(1, n, g, heads, 0)
        tokens = []
        for i in range(1, n + 1):
            h = heads[i - 1]
            direction = "r" if h == 0 else ("l" if h < i else "g")
            word = f"t{direction}{int(g.integers(TREE_VOCAB)):02d}"
            tokens.append(word)
        out.append((tokens, heads))
    return out


def gen_multiclass(count, seed, label_count=8):
    """Cost-sensitive examples with all costs in [0, 1].

    The gold label costs 0; every other label draws a uniform cost in
    OFF_COST_RANGE. One feature indicates the gold label, padded with
    NOISE_FEATURES noise features. Returns a list of (feature_pairs, costs).
    """
    g = rng.substream(seed, rng.DATA)
    out = []
    for _ in range(count):
        gold = int(g.integers(label_count))
        costs = g.uniform(*OFF_COST_RANGE, size=label_count)
        costs[gold] = 0.0
        pairs = [(gold, 1.0)]
        for _ in range(NOISE_FEATURES):
            pairs.append((label_count + int(g.integers(20)), 1.0))
        pairs = sorted(set(pairs))
        out.append((pairs, costs))
    return out
