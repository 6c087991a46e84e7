"""Smallness certificates and spread.

A cover G of a hypergraph H is a family such that every edge of H contains
some member of G; its weight at parameter q is sum of q^|R| over R in G.
H is q-small when some cover has weight at most 1/2.  The certified route
here computes the exact minimum cover weight, so "small" answers are
witnessed by an explicit cover and "not small" answers are exhaustive.

Only subsets of edges matter as cover members: a member covering nothing can
be dropped, and one covering edge S can be replaced by nothing heavier than
a subset of S.  The candidate pool is therefore the set of submasks of the
inclusion-minimal edges.  The search is branch and bound over that pool:
bounds are compared in floating point with a guard band for speed, and any
comparison inside the guard band is re-run in exact rational arithmetic, so
the returned minimum is exact.  The witness cover is the first optimum the
deterministic search order reaches.

The independent oracle `exhaustive_min_cover_weight` enumerates, for every
way of assigning each edge a covering submask, the union of the assignment.
Every minimal-weight cover is irredundant (dropping any member would uncover
some edge), hence is such a union, so the enumeration sees every optimum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .core import (
    MAX_GROUND_SIZE,
    FormatError,
    Hypergraph,
    ResourceLimitError,
    TrivialHypergraphError,
    VertexSet,
    _bounded_masks,
    iter_submasks,
    lex_key,
    minimize,
    undercovers,
)

__all__ = [
    "Cover",
    "SpreadWitness",
    "cover_weight",
    "min_cover_weight",
    "exhaustive_min_cover_weight",
    "is_q_small",
    "max_small_q",
    "spread_of",
    "check_spread_not_small",
    "validate_cover",
    "cover_to_json",
    "cover_from_json",
    "read_cover",
    "write_cover",
    "POOL_BUDGET",
    "NODE_BUDGET",
    "SPREAD_BUDGET",
]

POOL_BUDGET = 1 << 18
NODE_BUDGET = 2_000_000
SPREAD_BUDGET = 1 << 22

# Bound comparisons this close to the incumbent are re-decided exactly.
# Float bound error is bounded by ~1e-12 for desk-scale sums, far below it.
_GUARD = 1e-9


@dataclass(frozen=True)
class Cover:
    """A cover together with the q it certifies and its reported weight."""

    ground_size: int
    q: float
    edges: tuple[VertexSet, ...]
    weight: float

    def as_hypergraph(self) -> Hypergraph:
        return Hypergraph(self.ground_size, self.edges)


@dataclass(frozen=True)
class SpreadWitness:
    """The spread kappa of a hypergraph and the subset attaining it.

    kappa is the minimum over nonempty subsets Y of an edge of
    (edge_total / count)^(1/|Y|), where count is the number of distinct
    edges containing Y.  witness is the minimizing Y, ties broken by size
    then lexicographic order.
    """

    kappa: float
    witness: VertexSet
    count: int
    edge_total: int


def cover_weight(edges, q: float) -> Fraction:
    """Exact weight sum q^|R| of a family at parameter q.

    q is converted to an exact rational via Fraction(float), so equal float
    inputs always produce equal weights.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    qf = Fraction(q)
    return sum((qf ** len(r) for r in edges), Fraction(0))


# ---------------------------------------------------------------------------
# candidate pool


@dataclass(frozen=True)
class _Pool:
    cand_masks: tuple[int, ...]
    cand_sizes: tuple[int, ...]
    cand_covers: tuple[int, ...]  # bitmask over edge indices of the minimized graph
    by_edge: tuple[tuple[int, ...], ...]  # candidate indices per edge, largest first


@lru_cache(maxsize=64)
def _pool_for(hm: Hypergraph, pool_budget: int) -> _Pool:
    masks = hm.masks
    cost = sum(1 << m.bit_count() for m in masks)
    if cost > pool_budget:
        raise ResourceLimitError(
            f"candidate pool needs {cost} submask visits, budget is {pool_budget}"
        )
    covers: dict[int, int] = {}
    for j, m in enumerate(masks):
        bit = 1 << j
        for sub in iter_submasks(m):
            covers[sub] = covers.get(sub, 0) | bit
    cand_masks = sorted(covers, key=lex_key)
    index = {mk: i for i, mk in enumerate(cand_masks)}
    sizes = [mk.bit_count() for mk in cand_masks]
    by_edge = []
    for m in masks:
        lst = [index[sub] for sub in iter_submasks(m)]
        # Largest members first: for q < 1 that is cheapest first, which
        # tends to reach a good incumbent early.
        lst.sort(key=lambda i: (-sizes[i], cand_masks[i]))
        by_edge.append(tuple(lst))
    return _Pool(
        tuple(cand_masks),
        tuple(sizes),
        tuple(covers[mk] for mk in cand_masks),
        tuple(by_edge),
    )


# ---------------------------------------------------------------------------
# exact minimum cover weight

_GREEDY_POOL_LIMIT = 5000


def _greedy_cover(pool: _Pool, w_float: list[float], full: int) -> list[int]:
    covered = 0
    picks: list[int] = []
    while covered != full:
        best_i = -1
        best_ratio = float("inf")
        for i, cov in enumerate(pool.cand_covers):
            new = (cov & ~covered).bit_count()
            if new == 0:
                continue
            ratio = w_float[pool.cand_sizes[i]] / new
            if ratio < best_ratio:
                best_ratio = ratio
                best_i = i
        picks.append(best_i)
        covered |= pool.cand_covers[best_i]
    return picks


def min_cover_weight(
    h: Hypergraph,
    q: float,
    *,
    pool_budget: int = POOL_BUDGET,
    node_budget: int = NODE_BUDGET,
) -> tuple[Fraction, tuple[VertexSet, ...]]:
    """Exact minimum cover weight of h at q, with a witness cover.

    Minimizing h first changes nothing: covering an edge also covers every
    superset, so only inclusion-minimal edges constrain the cover.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    hm = minimize(h)
    if not hm.edges:
        return Fraction(0), ()
    pool = _pool_for(hm, pool_budget)
    qf = Fraction(q)
    max_size = max(pool.cand_sizes)
    w_exact = [qf**s for s in range(max_size + 1)]
    w_float = [float(w) for w in w_exact]
    edge_count = hm.edge_count
    full = (1 << edge_count) - 1
    edge_cand_count = [len(lst) for lst in pool.by_edge]

    def exact_of(picks) -> Fraction:
        return sum((w_exact[pool.cand_sizes[i]] for i in picks), Fraction(0))

    # Incumbents: the whole minimized edge set always covers, and so does
    # the single empty set (weight 1).  A greedy pass sharpens this when the
    # pool is small enough to afford it.
    cand_index = {mk: i for i, mk in enumerate(pool.cand_masks)}
    best_picks = [cand_index[m] for m in hm.masks]
    best_exact = exact_of(best_picks)
    empty_i = cand_index[0]
    if Fraction(1) < best_exact:
        best_picks, best_exact = [empty_i], Fraction(1)
    if len(pool.cand_masks) * edge_count <= _GREEDY_POOL_LIMIT * 10:
        g = _greedy_cover(pool, w_float, full)
        ge = exact_of(g)
        if ge < best_exact:
            best_picks, best_exact = g, ge
    best_float = float(best_exact)

    nodes = 0

    def lower_bound(covered: int, partial_f: float) -> float:
        lb = partial_f
        unc = full & ~covered
        rem = unc
        while rem:
            low = rem & -rem
            j = low.bit_length() - 1
            rem ^= low
            best_ratio = float("inf")
            for i in pool.by_edge[j]:
                r = w_float[pool.cand_sizes[i]] / (pool.cand_covers[i] & unc).bit_count()
                if r < best_ratio:
                    best_ratio = r
            lb += best_ratio
        return lb

    def lower_bound_exact(covered: int, partial_x: Fraction) -> Fraction:
        lb = partial_x
        unc = full & ~covered
        rem = unc
        while rem:
            low = rem & -rem
            j = low.bit_length() - 1
            rem ^= low
            best_ratio = None
            for i in pool.by_edge[j]:
                r = w_exact[pool.cand_sizes[i]] / (pool.cand_covers[i] & unc).bit_count()
                if best_ratio is None or r < best_ratio:
                    best_ratio = r
            lb += best_ratio
        return lb

    chosen: list[int] = []

    def visit(covered: int, partial_f: float) -> tuple[int, ...]:
        """Count and bound the node reached by `chosen`; return the
        candidates to branch on in search order, none if it is complete or
        pruned."""
        nonlocal nodes, best_picks, best_exact, best_float
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(
                f"cover search exceeded node budget {node_budget}"
            )
        if covered == full:
            ex = exact_of(chosen)
            if ex < best_exact:
                best_picks, best_exact, best_float = list(chosen), ex, float(ex)
            return ()
        lb = lower_bound(covered, partial_f)
        if lb > best_float + _GUARD:
            return ()
        if lb >= best_float - _GUARD:
            # Too close to call in floats; decide exactly.
            if lower_bound_exact(covered, exact_of(chosen)) >= best_exact:
                return ()
        # Branch on the uncovered edge with the fewest candidates.
        branch = -1
        branch_n = -1
        rem = full & ~covered
        while rem:
            low = rem & -rem
            j = low.bit_length() - 1
            rem ^= low
            if branch < 0 or edge_cand_count[j] < branch_n:
                branch, branch_n = j, edge_cand_count[j]
        return pool.by_edge[branch]

    # Depth-first with an explicit stack, one frame per node on the current
    # path (so len(stack) == len(chosen) + 1): each frame holds the node's
    # coverage, its float weight and an iterator over its untried children.
    stack = [(0, 0.0, iter(visit(0, 0.0)))]
    while stack:
        covered, partial_f, children = stack[-1]
        i = next(children, None)
        if i is None:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        chosen.append(i)
        child = covered | pool.cand_covers[i]
        child_f = partial_f + w_float[pool.cand_sizes[i]]
        stack.append((child, child_f, iter(visit(child, child_f))))

    picks_sorted = sorted(set(best_picks), key=lambda i: lex_key(pool.cand_masks[i]))
    witness = tuple(VertexSet(pool.cand_masks[i]) for i in picks_sorted)
    return best_exact, witness


def exhaustive_min_cover_weight(
    h: Hypergraph, q: float, *, max_assignments: int = 1 << 14
) -> tuple[Fraction, tuple[VertexSet, ...]]:
    """Oracle: minimum cover weight by brute force over edge assignments.

    Assign each minimized edge one of its submasks and take the union of the
    assignment as the cover.  Every minimal-weight cover is irredundant and
    hence arises this way, so the true minimum is among the enumerated
    weights.  The witness is the lexicographically least optimal union.
    Intended for small instances only.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    hm = minimize(h)
    if not hm.edges:
        return Fraction(0), ()
    count = prod(1 << m.bit_count() for m in hm.masks)
    if count > max_assignments:
        raise ResourceLimitError(
            f"{count} assignments exceed the oracle budget {max_assignments}"
        )
    qf = Fraction(q)
    choices = [tuple(iter_submasks(m)) for m in hm.masks]
    best: tuple[Fraction, tuple[tuple[int, ...], ...]] | None = None
    best_set: frozenset[int] = frozenset()

    def rec(pos: int, acc: frozenset[int]) -> None:
        nonlocal best, best_set
        if pos == len(choices):
            weight = sum((qf ** mk.bit_count() for mk in acc), Fraction(0))
            key = tuple(sorted(lex_key(mk) for mk in acc))
            if best is None or (weight, key) < best:
                best = (weight, key)
                best_set = acc
            return
        for sub in choices[pos]:
            rec(pos + 1, acc | {sub})

    rec(0, frozenset())
    assert best is not None
    witness = tuple(
        VertexSet(mk) for mk in sorted(best_set, key=lex_key)
    )
    return best[0], witness


def is_q_small(
    h: Hypergraph,
    q: float,
    *,
    pool_budget: int = POOL_BUDGET,
    node_budget: int = NODE_BUDGET,
) -> tuple[bool, Cover]:
    """Decide q-smallness exactly; the returned cover attains the minimum
    weight either way, so a False answer still carries the best evidence."""
    weight, witness = min_cover_weight(
        h, q, pool_budget=pool_budget, node_budget=node_budget
    )
    small = weight <= Fraction(1, 2)
    return small, Cover(h.ground_size, q, witness, float(weight))


def max_small_q(
    h: Hypergraph,
    *,
    tol: float = 1e-9,
    pool_budget: int = POOL_BUDGET,
    node_budget: int = NODE_BUDGET,
) -> float:
    """Largest q for which h is q-small, to within tol/2 by bisection.

    Cover weights are nondecreasing in q (members are sets, so each term
    q^|R| is), hence the small q form an interval anchored at 0.  q = 1 is
    never small for a hypergraph with an edge: any cover needs at least one
    member, of weight 1 at q = 1.
    """
    if not h.edges:
        raise ValueError("smallness threshold of a hypergraph with no edges")
    if h.has_empty_edge():
        raise TrivialHypergraphError(
            "the empty edge admits only the empty set as cover member, "
            "weight 1; no positive q is small (threshold 0 by convention)"
        )
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        weight, _ = min_cover_weight(
            h, mid, pool_budget=pool_budget, node_budget=node_budget
        )
        if weight <= Fraction(1, 2):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# spread


def spread_of(h: Hypergraph, *, budget: int = SPREAD_BUDGET) -> SpreadWitness:
    """Exact spread of h over distinct edges.

    Edges are deduplicated but deliberately not replaced by inclusion
    minimization: both the edge total and the containment counts change
    under minimization, and with them the spread.  Candidate subsets are
    enumerated as submasks of edges, each visit incrementing its containment
    count, so the whole computation costs sum of 2^|S| over distinct edges.

    Minimizer comparison is exact: (m/c1)^(1/y1) < (m/c2)^(1/y2) iff
    m^y2 * c2^y1 < m^y1 * c1^y2, an integer comparison.
    """
    distinct = sorted(set(h.masks), key=lex_key)
    if not any(distinct):
        raise ValueError("spread needs at least one nonempty edge")
    m = len(distinct)
    cost = sum(1 << mk.bit_count() for mk in distinct)
    if cost > budget:
        raise ResourceLimitError(
            f"spread enumeration needs {cost} submask visits, budget is {budget}"
        )
    counts: dict[int, int] = {}
    for mk in distinct:
        for sub in iter_submasks(mk):
            if sub:
                counts[sub] = counts.get(sub, 0) + 1
    best_y = -1
    best_c = -1
    best_mask = -1
    for mask in sorted(counts, key=lambda mk: (mk.bit_count(), lex_key(mk))):
        y, c = mask.bit_count(), counts[mask]
        if best_mask < 0:
            best_y, best_c, best_mask = y, c, mask
            continue
        # strict improvement test, integers only
        if m**best_y * best_c**y < m**y * c**best_y:
            best_y, best_c, best_mask = y, c, mask
    kappa = (m / best_c) ** (1.0 / best_y)
    return SpreadWitness(kappa, VertexSet(best_mask), best_c, m)


# ---------------------------------------------------------------------------
# certificate serialization and validation


def cover_to_json(cover: Cover) -> str:
    payload = {
        "ground_size": cover.ground_size,
        "q": cover.q,
        "weight": cover.weight,
        "edges": [list(r.indices()) for r in cover.edges],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cover_from_json(text: str) -> Cover:
    try:
        payload = json.loads(text)
        ground = int(payload["ground_size"])
        members = [list(e) for e in payload["edges"]]
        if not 0 <= ground <= MAX_GROUND_SIZE or not all(
            0 <= v < MAX_GROUND_SIZE for e in members for v in e
        ):
            raise ValueError(f"ground size or member index outside the limit {MAX_GROUND_SIZE}")
        edges = tuple(VertexSet(m) for m in _bounded_masks(members))
        return Cover(ground, float(payload["q"]), edges, float(payload["weight"]))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad certificate: {exc}") from exc


def read_cover(path) -> Cover:
    with open(path, "r", encoding="utf-8") as fh:
        return cover_from_json(fh.read())


def write_cover(cover: Cover, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cover_to_json(cover))


def validate_cover(
    h: Hypergraph, cover: Cover, *, weight_tol: float = 1e-12
) -> tuple[bool, list[str]]:
    """Check a claimed smallness certificate against h from scratch.

    Valid means: ground sets match, q is in range, every edge of h contains
    a cover member, the stored weight agrees with the recomputed exact one,
    and that weight is at most 1/2.
    """
    reasons: list[str] = []
    if cover.ground_size != h.ground_size:
        reasons.append(
            f"ground size mismatch: certificate {cover.ground_size}, "
            f"hypergraph {h.ground_size}"
        )
    if not 0.0 < cover.q <= 1.0:
        reasons.append(f"q={cover.q} outside (0, 1]")
    for r in cover.edges:
        if r.mask.bit_length() > h.ground_size:
            reasons.append(
                f"member {{{', '.join(map(str, r))}}} outside ground set "
                f"of size {h.ground_size}"
            )
    if reasons:
        return False, reasons
    g = cover.as_hypergraph()
    if not undercovers(g, h):
        uncovered = [
            s for s in h.edges if not any(r.issubset(s) for r in cover.edges)
        ]
        reasons.append(f"{len(uncovered)} edge(s) contain no cover member")
    exact = cover_weight(cover.edges, cover.q)
    if abs(float(exact) - cover.weight) > weight_tol:
        reasons.append(
            f"stored weight {cover.weight} differs from recomputed {float(exact)}"
        )
    if exact > Fraction(1, 2):
        reasons.append(f"weight {float(exact)} exceeds 1/2")
    return not reasons, reasons


def check_spread_not_small(
    h: Hypergraph,
    *,
    tol: float = 1e-9,
    spread_budget: int = SPREAD_BUDGET,
    pool_budget: int = POOL_BUDGET,
    node_budget: int = NODE_BUDGET,
) -> tuple[bool, dict]:
    """Spread bars smallness: at q = 1/kappa the family is never q-small.

    Computes kappa, then the exact minimum cover weight at q = min(1, 1/kappa).
    Two claims are checked together: the family is not q-small there (minimum
    weight > 1/2), and no undercovering family in fact gets below total weight
    1.  The weight-1 comparison gets ``tol`` of slack because kappa itself is
    a float.
    """
    sw = spread_of(h, budget=spread_budget)
    q = min(1.0, 1.0 / sw.kappa)
    small, cover = is_q_small(h, q, pool_budget=pool_budget, node_budget=node_budget)
    weight = cover_weight(cover.edges, q)
    passed = (not small) and float(weight) >= 1.0 - tol
    details = {
        "kappa": sw.kappa,
        "q": q,
        "is_q_small": small,
        "min_cover_weight": float(weight),
        "witness_size": len(sw.witness),
        "witness_count": sw.count,
        "cover_edges": len(cover.edges),
    }
    return passed, details
