"""Independent oracles that only the tests read."""

from l2s.errors import L2SError
from l2s.theory.snake import neighbors


def is_induced_path(path, dim):
    """Every pair of non-consecutive vertices is at Hamming distance >= 2."""
    for i, u in enumerate(path):
        for j in range(i + 1, len(path)):
            d = bin(u ^ path[j]).count("1")
            if j == i + 1:
                if d != 1:
                    return False
            elif d < 2:
                return False
    return True


def longest_snake_bruteforce(dim):
    """Independent oracle: exhaustive search without the dimension-order
    pruning used by longest_snake.

    Tries every start vertex for dim <= 4; at dim 5 only vertex 0 (valid
    because the hypercube is vertex-transitive).
    """
    if dim > 5:
        raise L2SError("brute-force oracle limited to dimension 5")
    best = []

    def extend(path, on_path):
        nonlocal best
        if len(path) > len(best):
            best = list(path)
        blocked = set()
        for u in path[:-1]:
            blocked.update(neighbors(u, dim))
        for nxt in neighbors(path[-1], dim):
            if nxt in on_path or nxt in blocked:
                continue
            path.append(nxt)
            on_path.add(nxt)
            extend(path, on_path)
            on_path.remove(nxt)
            path.pop()

    starts = range(1 << dim) if dim <= 4 else (0,)
    for start in starts:
        extend([start], {start})
    return best
