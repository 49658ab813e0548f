"""Snake-in-the-box lower bound for best-neighbor policy descent.

Policies with depth-only features over a binary search space of horizon T
are bit-vectors; one-step deviations are Hamming neighbors. A cost
function that decreases monotonically along a longest induced path of the
hypercube (and is maximal elsewhere) forces best-neighbor descent to walk
the whole path, so local optimality can take Theta(2^T) updates.
"""

from ..errors import CheckFailed, L2SError

# on a 2-core machine the search takes ~3 s at dimension 6 and did not
# finish in 240 s at 7
MAX_DIMENSION = 6
OFF_PATH_COST = 2.0


def neighbors(v, dim):
    return [v ^ (1 << b) for b in range(dim)]


def longest_snake(dim):
    """Longest induced path in the dim-cube, by depth-first search.

    The start is fixed at vertex 0 and a new coordinate may only be
    flipped after all lower coordinates have been used (valid by
    hypercube symmetry; prunes heavily). Returns the vertex list; length
    in edges is len(path) - 1.

    `adjacent[v]` counts the path vertices next to v, kept up to date as
    the path grows and shrinks. A neighbour of the last vertex may join
    unless it is on the path or next to another path vertex, that is,
    unless its count exceeds the 1 the last vertex gives it.
    """
    if dim > MAX_DIMENSION:
        raise L2SError(f"dimension {dim} > {MAX_DIMENSION}")
    if dim == 0:
        return [0]
    around = [neighbors(v, dim) for v in range(1 << dim)]
    on_path = [False] * (1 << dim)
    adjacent = [0] * (1 << dim)
    best, path = [], []

    def mark(v, step):
        """Put v on the path (step 1) or take it off (step -1)."""
        on_path[v] = step > 0
        for w in around[v]:
            adjacent[w] += step

    def extend(used_dims):
        nonlocal best
        if len(path) > len(best):
            best = list(path)
        last = path[-1]
        for b in range(min(used_dims + 1, dim)):
            nxt = last ^ (1 << b)
            if on_path[nxt] or adjacent[nxt] > 1:
                continue
            path.append(nxt)
            mark(nxt, 1)
            extend(max(used_dims, b + 1))
            mark(nxt, -1)
            path.pop()

    path.append(0)
    mark(0, 1)
    extend(0)
    return best


def snake_costs(path, dim):
    """Monotone decreasing costs along the path, maximal cost elsewhere."""
    costs = {v: OFF_PATH_COST for v in range(1 << dim)}
    L = len(path)
    for i, v in enumerate(path):
        costs[v] = 1.0 - i / (L + 1)
    return costs


def best_neighbor_descent(costs, start, dim):
    """Greedy policy improvement over one-step deviations."""
    path = [start]
    cur = start
    while True:
        options = [(costs[n], n) for n in neighbors(cur, dim)]
        best_cost, best_v = min(options)
        if best_cost >= costs[cur]:
            return path
        cur = best_v
        path.append(cur)


def snake_lower_bound(dim):
    """Build the adversarial costs and run the descent.

    Returns (traversal as bit strings, update count); the update count
    equals the snake's edge count. A descent that does not walk the whole
    snake is a CheckFailed named `snake-T{dim}`, the check's name.
    """
    snake = longest_snake(dim)
    costs = snake_costs(snake, dim)
    traversal = best_neighbor_descent(costs, snake[0], dim)
    bits = [format(v, f"0{dim}b") for v in traversal]
    if traversal != snake:
        raise CheckFailed(f"snake-T{dim}: descent took "
                          f"{len(traversal) - 1} updates along "
                          f"{'->'.join(bits)}, not the snake's "
                          f"{len(snake) - 1}")
    return bits, len(traversal) - 1
