"""Parametric instance families used by the test suite and the CLI.

Two kinds of ground set appear.  Plain families (singletons, sunflowers,
random uniform) live directly on 0..n-1.  Graph families (cliques, Hamilton
cycles, perfect matchings) live on the edge set of the complete graph K_n:
ground vertex pair_index(i, j) represents the graph edge {i, j}, and each
hypergraph edge is the set of graph edges of one subgraph.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .core import Hypergraph, Rng, lex_key

__all__ = [
    "singletons",
    "sunflower",
    "cliques",
    "triangles",
    "hamilton_cycles",
    "perfect_matchings",
    "random_uniform",
    "pair_index",
    "pair_ground_size",
    "make_family",
    "FAMILIES",
]


def singletons(k: int) -> Hypergraph:
    """k disjoint single-vertex edges on a ground set of size k."""
    if k < 1:
        raise ValueError("need at least one singleton")
    return Hypergraph.from_masks(k, [1 << i for i in range(k)])


def sunflower(core: int, petals: int, petal_size: int) -> Hypergraph:
    """Edges sharing a common core, with pairwise disjoint petals.

    Edge i is the core 0..core-1 plus its own block of petal_size fresh
    vertices.  core may be 0, giving a disjoint family.
    """
    if core < 0 or petals < 1 or petal_size < 1:
        raise ValueError("need core >= 0, petals >= 1, petal_size >= 1")
    core_mask = (1 << core) - 1
    edges = []
    for i in range(petals):
        base = core + i * petal_size
        petal = ((1 << petal_size) - 1) << base
        edges.append(core_mask | petal)
    return Hypergraph.from_masks(core + petals * petal_size, edges)


# ---------------------------------------------------------------------------
# graph families on the edge set of K_n


def pair_index(i: int, j: int, n: int) -> int:
    """Ground index of graph edge {i, j} in K_n, pairs in lexicographic order."""
    if i > j:
        i, j = j, i
    if not 0 <= i < j < n:
        raise ValueError(f"not a K_{n} edge: ({i}, {j})")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def pair_ground_size(n: int) -> int:
    return n * (n - 1) // 2


def _subgraph_edge(pairs, n: int) -> int:
    mask = 0
    for i, j in pairs:
        mask |= 1 << pair_index(i, j, n)
    return mask


def cliques(n: int, r: int) -> Hypergraph:
    """All copies of K_r inside K_n, as sets of graph edges."""
    if not 2 <= r <= n:
        raise ValueError("need 2 <= r <= n")
    edges = []
    for verts in combinations(range(n), r):
        edges.append(_subgraph_edge(combinations(verts, 2), n))
    return Hypergraph.from_masks(pair_ground_size(n), edges)


def triangles(n: int) -> Hypergraph:
    return cliques(n, 3)


def hamilton_cycles(n: int) -> Hypergraph:
    """All Hamilton cycles of K_n; there are (n-1)!/2 of them for n >= 3.

    Each cycle is enumerated once: fix vertex 0 first and orient so the
    second vertex is smaller than the last.
    """
    if n < 3:
        raise ValueError("Hamilton cycles need n >= 3")
    edges = []
    for rest in permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue
        cycle = (0,) + rest
        pairs = [(cycle[k], cycle[(k + 1) % n]) for k in range(n)]
        edges.append(_subgraph_edge(pairs, n))
    return Hypergraph.from_masks(pair_ground_size(n), edges)


def perfect_matchings(n: int) -> Hypergraph:
    """All perfect matchings of K_n (n even); there are (n-1)!! of them."""
    if n < 2 or n % 2:
        raise ValueError("perfect matchings need even n >= 2")

    def go(unmatched: tuple[int, ...]):
        if not unmatched:
            yield ()
            return
        a = unmatched[0]
        for k in range(1, len(unmatched)):
            b = unmatched[k]
            rest = unmatched[1:k] + unmatched[k + 1 :]
            for tail in go(rest):
                yield ((a, b),) + tail

    edges = [_subgraph_edge(m, n) for m in go(tuple(range(n)))]
    return Hypergraph.from_masks(pair_ground_size(n), edges)


def random_uniform(n: int, k: int, m: int, seed: int) -> Hypergraph:
    """m distinct uniformly random k-subsets of 0..n-1, sorted for stability."""
    from math import comb

    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if not 1 <= m <= comb(n, k):
        raise ValueError(f"need 1 <= m <= C({n},{k})")
    rng = Rng(seed, path=(n, k, m))
    seen: set[int] = set()
    while len(seen) < m:
        idx = rng.generator.choice(n, size=k, replace=False)
        mask = 0
        for v in idx:
            mask |= 1 << int(v)
        seen.add(mask)
    ordered = sorted(seen, key=lex_key)
    return Hypergraph.from_masks(n, ordered)


FAMILIES = {
    "singletons": (singletons, 1),
    "sunflower": (sunflower, 3),
    "cliques": (cliques, 2),
    "triangles": (triangles, 1),
    "hamilton": (hamilton_cycles, 1),
    "matchings": (perfect_matchings, 1),
    "random-uniform": (random_uniform, 4),
}


def make_family(name: str, args: list[int]) -> Hypergraph:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(sorted(FAMILIES))}")
    fn, arity = FAMILIES[name]
    if len(args) != arity:
        raise ValueError(f"family {name!r} takes {arity} integer argument(s)")
    return fn(*args)
