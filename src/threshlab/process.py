"""Randomized fragmentation processes over a hypergraph.

All three processes repeatedly sample a random vertex set W, remove it from
the ground set, and replace edges by smaller residual edges.  The central
operation is the fragment of an edge S under W:

    frag(S, W) = S' \\ W   for the edge S' of H minimizing |S' \\ W|
                           subject to S' being inside W union S,

ties broken toward the lexicographically least minimizing edge.  Two facts
shape the engine.  First, frag(S, W) is always a subset of S and disjoint
from W, so iterated fragments of a chain shrink.  Second, if any edge of H
lies inside W then that edge is a candidate for every S, so every fragment
collapses to the empty set at once; this "found" event is therefore a
single per-round check instead of a per-edge one.

Fragments of all edges in one round are computed by indexing edges by their
residual S \\ W and enumerating submasks: S' is a candidate for S exactly
when the residual of S' is a subset of the residual of S.  The round then
costs on the order of sum over edges of 2^{residual size}, not edge count
squared.

Each run produces a ProcessTrace.  Fields proved by the underlying theory
(found implies an original edge lies inside the union of the W's; a
completed fragmentation schedule without found implies the exiled family
undercovers the input) are enforced as hard ProcessInvariantError checks.
The converse direction, that a found run cannot also end undercovering, is
recorded per run as `dichotomy_ok` but deliberately not enforced: a chain
can collapse while fragments exiled earlier happen to cover every edge, so
the exclusive-or is a property of instance structure, not of the process.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, fsum, log2
from typing import Callable, Sequence

from .certify import cover_weight
from .core import (
    Hypergraph,
    ResourceLimitError,
    ThreshlabError,
    TrivialHypergraphError,
    VertexSet,
    Rng,
    contains_edge,
    iter_submasks,
    lex_key,
    minimize,
    sample_bernoulli,
    sample_uniform_of_size,
    undercovers,
)

__all__ = [
    "ProcessInvariantError",
    "fragment",
    "lex_contained_edge",
    "halving_round",
    "tiebreaker_recovers_fragment",
    "RoundRecord",
    "ProcessTrace",
    "run_halving",
    "run_retry",
    "run_restart",
    "retry_round_count",
    "retry_round_threshold",
    "restart_attempt_count",
    "restart_rate",
    "round_sample_size",
    "trace_to_json",
    "trace_rounds_to_csv",
    "FRAGMENT_BUDGET",
]

FRAGMENT_BUDGET = 1 << 22


class ProcessInvariantError(ThreshlabError):
    """A theory-guaranteed process invariant failed; this is a bug."""


def fragment(h: Hypergraph, w: VertexSet, s: VertexSet) -> tuple[VertexSet, VertexSet]:
    """The fragment of edge s under w, together with the minimizing edge.

    s must be an edge of h; the edge s itself fits inside w | s, so a
    minimizer always exists.  Ties go to the lexicographically least edge.
    """
    if s.mask not in h.masks:
        raise ValueError("s must be an edge of h")
    z = (w | s).mask
    best_size = -1
    ties: list[VertexSet] = []
    for e in h.edges:
        if e.mask & ~z:
            continue
        r = (e.mask & ~w.mask).bit_count()
        if best_size < 0 or r < best_size:
            best_size, ties = r, [e]
        elif r == best_size:
            ties.append(e)
    chosen = min(ties, key=VertexSet.key)
    return chosen - w, chosen


def lex_contained_edge(h: Hypergraph, y: VertexSet) -> VertexSet:
    """The lexicographically least edge of h inside y; the canonical
    deterministic selector on the upward closure."""
    best = min((e for e in h.edges if e.issubset(y)), key=VertexSet.key, default=None)
    if best is None:
        raise ValueError("y contains no edge of h")
    return best


def tiebreaker_recovers_fragment(
    h: Hypergraph,
    w: VertexSet,
    s: VertexSet,
    *,
    chooser: Callable[[Hypergraph, VertexSet], VertexSet] | None = None,
) -> bool:
    """Check that w plus the fragment pins the fragment down again.

    Let t = frag(w, s) and z = w | t (a disjoint union, checked).  Any rule
    that picks some edge inside z must pick one whose part outside w is
    exactly t: that part is inside z \\ w = t, and no candidate beats the
    minimum size |t|.  In particular t is inside the picked edge.  The
    default chooser is the lexicographically least contained edge, and the
    claim holds for any other deterministic chooser as well.
    """
    t, _ = fragment(h, w, s)
    if not w.isdisjoint(t):
        return False
    z = w | t
    picked = (chooser or lex_contained_edge)(h, z)
    if not picked.issubset(z):
        raise ValueError("chooser returned an edge not inside its argument")
    return (picked - w) == t and t.issubset(picked)


# ---------------------------------------------------------------------------
# bulk fragment computation


def _fragment_all(
    lex_edges: Sequence[int], w_mask: int, budget: int
) -> tuple[int | None, list[int]]:
    """Fragments of every edge under w, or the collapse edge if one exists.

    lex_edges are distinct edge masks in lex order, as the canonical form
    and every process round keep them; the fragments line up with them.
    Returns (collapse_edge_mask, fragments); when collapse_edge_mask is not
    None every fragment is empty and the list is left empty.

    A residual is owned by the first edge in lex_edges with that residual,
    and a fragment is the residual minimizing (size, owner rank), encoded
    as the one integer size * len(lex_edges) + rank.
    """
    order: dict[int, int] = {}
    for rank, m in enumerate(lex_edges):
        r = m & ~w_mask
        order.setdefault(r, r.bit_count() * len(lex_edges) + rank)
    if 0 in order:
        return lex_edges[order[0]], []
    cost = sum(1 << r.bit_count() for r in order)
    if cost > budget:
        raise ResourceLimitError(
            f"fragment round needs {cost} submask visits, budget is {budget}"
        )
    frags: list[int] = []
    for m in lex_edges:
        best = r = m & ~w_mask
        best_order = order[r]
        for sub in iter_submasks(r):
            k = order.get(sub)
            if k is not None and k < best_order:
                best, best_order = sub, k
        frags.append(best)
    return None, frags


def halving_round(
    h: Hypergraph, w: VertexSet, *, budget: int = FRAGMENT_BUDGET
) -> tuple[VertexSet | None, tuple[VertexSet, ...]]:
    """One bulk fragmentation step at the hypergraph level.

    Returns (collapse_edge, fragments).  collapse_edge is the
    lexicographically least edge inside w when one exists, in which case all
    fragments are empty and an empty tuple is returned; otherwise fragments
    line up with h.edges.
    """
    lex_edges = sorted(set(h.masks), key=lex_key)
    collapse, frags = _fragment_all(lex_edges, w.mask, budget)
    if collapse is not None:
        return VertexSet(collapse), ()
    frag_of = dict(zip(lex_edges, frags))
    return None, tuple(VertexSet(frag_of[m]) for m in h.masks)


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class RoundRecord:
    """One sampling round.  outcome is process specific:

    halving: "ok" or "found";
    retry:   "success" or "failure" by the exile-weight threshold, with
             no-op rounds (nothing left to fragment) also "success";
    restart: "found" or "miss".

    per_t_weight lists (t, q^t * count of distinct exiled fragments of size
    t) for the exile range t in (ell/2, ell]; exiled_weight is its sum.
    """

    index: int
    ell: int
    ground_remaining: int
    w: VertexSet
    exiled: tuple[VertexSet, ...]
    exiled_weight: float
    outcome: str
    ell_factor: float = 8.0
    per_t_weight: tuple[tuple[int, float], ...] = ()
    threshold: float | None = None
    survivor_count: int = 0


@dataclass(frozen=True)
class ProcessTrace:
    variant: str
    ground_size: int
    q: float
    eps: float | None
    ell_start: int
    planned_rounds: int
    rounds: tuple[RoundRecord, ...]
    found: bool
    found_edge: VertexSet | None
    total_w: VertexSet
    u_edges: tuple[VertexSet, ...]
    u_weight: float
    contained: bool
    u_undercovers: bool
    dichotomy_ok: bool
    successes: int


def _finish_trace(
    *,
    variant: str,
    horig: Hypergraph,
    q: float,
    eps: float | None,
    ell_start: int,
    planned: int,
    rounds: list[RoundRecord],
    found: bool,
    found_edge: VertexSet | None,
    total_w: int,
    u_masks: set[int],
    successes: int,
) -> ProcessTrace:
    tw = VertexSet(total_w)
    u_edges = tuple(VertexSet(m) for m in sorted(u_masks, key=lex_key))
    u_weight = float(cover_weight(u_edges, q)) if u_edges else 0.0
    contained = contains_edge(horig, tw)
    u_under = undercovers(Hypergraph(horig.ground_size, u_edges), horig)
    if found and not contained:
        raise ProcessInvariantError(
            "found run without any original edge inside the union of the W's"
        )
    return ProcessTrace(
        variant=variant,
        ground_size=horig.ground_size,
        q=q,
        eps=eps,
        ell_start=ell_start,
        planned_rounds=planned,
        rounds=tuple(rounds),
        found=found,
        found_edge=found_edge,
        total_w=tw,
        u_edges=u_edges,
        u_weight=u_weight,
        contained=contained,
        u_undercovers=u_under,
        dichotomy_ok=found != u_under,
        successes=successes,
    )


def _check_entry(h: Hypergraph) -> Hypergraph:
    """Canonicalize the input: processes run on the minimized hypergraph,
    which has the same upward closure and so the same containment events."""
    if not h.edges:
        raise ValueError("fragmentation needs at least one edge")
    hd = minimize(h)
    if hd.has_empty_edge():
        raise TrivialHypergraphError(
            "the empty edge is inside every W; fragmentation is vacuous"
        )
    return hd


def _per_t_weights(ex_masks: Sequence[int], q: float) -> tuple[tuple[int, float], ...]:
    counts = Counter(m.bit_count() for m in ex_masks)
    return tuple((t, (q**t) * c) for t, c in sorted(counts.items()))


def round_sample_size(ell_factor: float, q: float, ground_remaining: int) -> int:
    """ceil(L * q * n) capped at n, with the product taken exactly.

    The ceiling is applied to the exact rational product of the given float
    arguments, so the result never depends on multiplication order or on
    intermediate rounding.  Note that representation noise in q itself is
    honored: the float 0.1 is a shade above 1/10, so L=8, q=0.1, n=10 gives
    ceil of a number just over 8, which is 9.
    """
    m = ceil(Fraction(ell_factor) * Fraction(q) * ground_remaining)
    return min(ground_remaining, m)


def _validate_factor(ell_factor: float) -> None:
    if not ell_factor > 1:
        raise ValueError("the sampling factor L must exceed 1")


def _lift_sample(active_mask: int, picked: VertexSet) -> int:
    """Map a sample of positions among the active vertices, drawn on a
    ground of size active_mask.bit_count(), onto those vertices."""
    active = lex_key(active_mask)
    w = 0
    for i in picked:
        w |= 1 << active[i]
    return w


def _validate_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")


def run_halving(
    h: Hypergraph,
    q: float,
    rng: Rng,
    *,
    ell_factor: int = 8,
    budget: int = FRAGMENT_BUDGET,
) -> ProcessTrace:
    """Fragment with a halving exile rule until edge sizes reach zero.

    Round i holds a size bound ell_i (starting at the largest edge size,
    halving each round, bit_length(ell) rounds planned).  It samples W of
    size ceil(8 q |X_i|) uniformly from the remaining ground, fragments
    every edge, exiles fragments larger than ell_i / 2 to the family U, and
    keeps the rest.  A run stops early when an edge lands inside W (found)
    or when nothing is left to fragment.  Without found, U provably
    undercovers the input.
    """
    _validate_q(q)
    _validate_factor(ell_factor)
    hd = _check_entry(h)
    ell_start = hd.max_edge_size()
    planned = ell_start.bit_length()
    active = VertexSet.full(hd.ground_size).mask
    cur: list[int] = list(hd.masks)
    u_masks: set[int] = set()
    rounds: list[RoundRecord] = []
    total_w = 0
    found = False
    found_edge: VertexSet | None = None
    ell = ell_start
    for i in range(1, planned + 1):
        if not cur:
            break
        n_rem = active.bit_count()
        m = round_sample_size(ell_factor, q, n_rem)
        w = _lift_sample(active, sample_uniform_of_size(n_rem, m, rng.substream(i)))
        total_w |= w
        active &= ~w
        collapse, frags = _fragment_all(cur, w, budget)
        if collapse is not None:
            found = True
            found_edge = VertexSet(collapse)
            rounds.append(
                RoundRecord(
                    i, ell, n_rem, VertexSet(w), (), 0.0, "found",
                    ell_factor=float(ell_factor),
                )
            )
            break
        half = ell // 2
        exiled = sorted({f for f in frags if f.bit_count() > half}, key=lex_key)
        survivors = sorted({f for f in frags if f.bit_count() <= half}, key=lex_key)
        for f in frags:
            if f.bit_count() > ell:
                raise ProcessInvariantError("fragment exceeds the round size bound")
        u_masks.update(exiled)
        ex_sets = tuple(VertexSet(f) for f in exiled)
        per_t = _per_t_weights(exiled, q)
        rounds.append(
            RoundRecord(
                i,
                ell,
                n_rem,
                VertexSet(w),
                ex_sets,
                fsum(v for _, v in per_t),
                "ok",
                ell_factor=float(ell_factor),
                per_t_weight=per_t,
                survivor_count=len(survivors),
            )
        )
        cur = survivors
        ell = half
    if not found and cur:
        raise ProcessInvariantError("edges survived the full halving schedule")
    trace = _finish_trace(
        variant="halving",
        horig=hd,
        q=q,
        eps=None,
        ell_start=ell_start,
        planned=planned,
        rounds=rounds,
        found=found,
        found_edge=found_edge,
        total_w=total_w,
        u_masks=u_masks,
        successes=sum(1 for r in rounds if r.outcome == "ok"),
    )
    if not trace.found and not trace.u_undercovers:
        raise ProcessInvariantError(
            "halving run ended without found and without undercovering"
        )
    return trace


# ---------------------------------------------------------------------------
# retry process


def retry_round_count(ell: int, eps: float) -> int:
    """6 * floor(log2(ell / eps)), the fixed round budget of the retry run.

    The ratio is formed exactly from the float eps, so the floor is the
    floor of the true ratio rather than of a rounded logarithm.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    fr = Fraction(ell) / Fraction(eps)
    return 6 * (fr.numerator // fr.denominator).bit_length() - 6


def retry_round_threshold(ell: int, ell_factor: float = 8) -> Fraction:
    """Exile-weight budget for a round at size bound ell: twice the expected
    bound 2 * sum over t in (ell/2, ell] of L^-t * C(ell, t)."""
    _validate_factor(ell_factor)
    fl = Fraction(ell_factor)
    lo = ell // 2 + 1
    return 2 * sum(
        (fl ** (-t) * comb(ell, t) for t in range(lo, ell + 1)),
        Fraction(0),
    )


_U_WEIGHT_CAP = Fraction(947, 2048)  # valid for ell_factor = 8


def run_retry(
    h: Hypergraph,
    q: float,
    eps: float,
    rng: Rng,
    *,
    ell_factor: int = 8,
    failure_mode: str = "fragment",
    budget: int = FRAGMENT_BUDGET,
) -> ProcessTrace:
    """Fixed-budget fragmentation that retries rounds with heavy exile.

    Runs exactly 6 * floor(log2(ell / eps)) rounds.  Each round fragments
    under a fresh W; if the would-be exiles (fragments larger than ell/2)
    weigh more than twice their expectation bound, the round is a failure:
    nothing is exiled, all fragments are kept, and the size bound stays.  On
    success the exiles join U, survivors continue, and the bound halves.
    Per round, failure has probability below 1/2, so enough successes
    accumulate with probability at least 1 - eps.

    Once the bound reaches zero or nothing is left, later rounds are no-ops
    recorded as successes.  The accumulated U provably weighs at most the
    sum of the success thresholds, below 1/2 for the default factor 8.

    failure_mode "setminus" replaces edges by S minus W on failure instead
    of by their fragments; both keep every theory guarantee checked here.
    """
    _validate_q(q)
    _validate_factor(ell_factor)
    if failure_mode not in ("fragment", "setminus"):
        raise ValueError("failure_mode must be 'fragment' or 'setminus'")
    hd = _check_entry(h)
    ell_start = hd.max_edge_size()
    planned = retry_round_count(ell_start, eps)
    active = VertexSet.full(hd.ground_size).mask
    cur: list[int] = list(hd.masks)
    u_masks: set[int] = set()
    rounds: list[RoundRecord] = []
    total_w = 0
    found = False
    found_edge: VertexSet | None = None
    ell = ell_start
    successes = 0
    threshold_sum = Fraction(0)
    for i in range(1, planned + 1):
        n_rem = active.bit_count()
        if not cur or all(m == 0 for m in cur) or ell < 1:
            rounds.append(
                RoundRecord(
                    i, ell, n_rem, VertexSet(0), (), 0.0, "success",
                    ell_factor=float(ell_factor), survivor_count=len(cur),
                )
            )
            successes += 1
            ell //= 2
            continue
        m = round_sample_size(ell_factor, q, n_rem)
        w = _lift_sample(active, sample_uniform_of_size(n_rem, m, rng.substream(i)))
        total_w |= w
        active &= ~w
        collapse, frags = _fragment_all(cur, w, budget)
        if collapse is not None:
            if not found:
                found = True
                found_edge = VertexSet(collapse)
            # Every fragment is empty: a weightless, trivially successful
            # filter round.  The process keeps to its fixed schedule.
            thr = retry_round_threshold(ell, ell_factor)
            rounds.append(
                RoundRecord(
                    i, ell, n_rem, VertexSet(w), (), 0.0, "success",
                    ell_factor=float(ell_factor), threshold=float(thr),
                    survivor_count=1,
                )
            )
            threshold_sum += thr
            successes += 1
            cur = [0]
            ell //= 2
            continue
        half = ell // 2
        exiled = sorted({f for f in frags if f.bit_count() > half}, key=lex_key)
        ex_sets = tuple(VertexSet(f) for f in exiled)
        ex_weight = cover_weight(ex_sets, q) if ex_sets else Fraction(0)
        thr = retry_round_threshold(ell, ell_factor)
        per_t = _per_t_weights(exiled, q)
        if ex_weight <= thr:
            u_masks.update(exiled)
            threshold_sum += thr
            survivors = sorted(
                {f for f in frags if f.bit_count() <= half}, key=lex_key
            )
            rounds.append(
                RoundRecord(
                    i, ell, n_rem, VertexSet(w), ex_sets,
                    fsum(v for _, v in per_t),
                    "success", ell_factor=float(ell_factor),
                    per_t_weight=per_t, threshold=float(thr),
                    survivor_count=len(survivors),
                )
            )
            cur = survivors
            ell = half
            successes += 1
        else:
            # The heavy would-be exile family is recorded (weights) but kept
            # in play: nothing joins U on failure.
            if failure_mode == "fragment":
                kept = sorted(set(frags), key=lex_key)
            else:
                kept = sorted({mk & ~w for mk in cur}, key=lex_key)
            rounds.append(
                RoundRecord(
                    i, ell, n_rem, VertexSet(w), (),
                    fsum(v for _, v in per_t),
                    "failure", ell_factor=float(ell_factor),
                    per_t_weight=per_t, threshold=float(thr),
                    survivor_count=len(kept),
                )
            )
            cur = kept
    needed = ell_start.bit_length()
    if (ell < 1) != (successes >= needed):
        raise ProcessInvariantError("size-bound schedule out of step with successes")
    trace = _finish_trace(
        variant="retry",
        horig=hd,
        q=q,
        eps=eps,
        ell_start=ell_start,
        planned=planned,
        rounds=rounds,
        found=found,
        found_edge=found_edge,
        total_w=total_w,
        u_masks=u_masks,
        successes=successes,
    )
    u_exact = cover_weight(trace.u_edges, q) if trace.u_edges else Fraction(0)
    if u_exact > threshold_sum:
        raise ProcessInvariantError("exiled family outweighs its round thresholds")
    if ell_factor == 8 and u_exact > _U_WEIGHT_CAP:
        raise ProcessInvariantError("exiled family exceeds the factor-8 weight cap")
    if not trace.found and ell < 1 and not trace.u_undercovers:
        raise ProcessInvariantError(
            "completed retry run without found and without undercovering"
        )
    return trace


# ---------------------------------------------------------------------------
# restart process


def restart_attempt_count(eps: float) -> int:
    """ceil(log2(1 / eps)) attempts, at least 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    fr = 1 / Fraction(eps)
    k = 0
    while Fraction(2) ** k < fr:
        k += 1
    return max(1, k)


def restart_rate(ell: int, q: float) -> float:
    """Per-attempt inclusion rate min(1, 8 q log2(2 ell))."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    return min(1.0, 8.0 * q * log2(2 * ell))


def run_restart(
    h: Hypergraph,
    q: float,
    eps: float,
    rng: Rng,
) -> ProcessTrace:
    """Independent Bernoulli attempts until an edge lies in the union.

    Each of the ceil(log2(1/eps)) attempts includes every remaining ground
    vertex independently at rate min(1, 8 q log2(2 ell)), removes the draw
    from the ground, and checks whether some original edge is inside the
    union of all draws so far.  Here found is that direct containment event
    by definition, so found and contained always agree, and each attempt
    succeeds with probability at least 1/2 when q is small enough for h.
    """
    _validate_q(q)
    hd = _check_entry(h)
    ell_start = hd.max_edge_size()
    planned = restart_attempt_count(eps)
    p = restart_rate(ell_start, q)
    active = VertexSet.full(hd.ground_size).mask
    total_w = 0
    rounds: list[RoundRecord] = []
    found = False
    found_edge: VertexSet | None = None
    for i in range(1, planned + 1):
        n_rem = active.bit_count()
        w = _lift_sample(active, sample_bernoulli(n_rem, p, rng.substream(i)))
        total_w |= w
        active &= ~w
        hit = contains_edge(hd, VertexSet(total_w))
        rounds.append(
            RoundRecord(
                i, ell_start, n_rem, VertexSet(w), (), 0.0,
                "found" if hit else "miss",
            )
        )
        if hit:
            found = True
            found_edge = lex_contained_edge(hd, VertexSet(total_w))
            break
    trace = _finish_trace(
        variant="restart",
        horig=hd,
        q=q,
        eps=eps,
        ell_start=ell_start,
        planned=planned,
        rounds=rounds,
        found=found,
        found_edge=found_edge,
        total_w=total_w,
        u_masks=set(),
        successes=sum(1 for r in rounds if r.outcome == "found"),
    )
    if trace.found != trace.contained:
        raise ProcessInvariantError("restart found flag out of step with containment")
    return trace


# ---------------------------------------------------------------------------
# serialization


def _trace_payload(trace: ProcessTrace) -> dict:
    return {
        "variant": trace.variant,
        "ground_size": trace.ground_size,
        "q": trace.q,
        "eps": trace.eps,
        "ell_start": trace.ell_start,
        "planned_rounds": trace.planned_rounds,
        "found": trace.found,
        "found_edge": list(trace.found_edge.indices()) if trace.found_edge else None,
        "total_w": list(trace.total_w.indices()),
        "u_edges": [list(e.indices()) for e in trace.u_edges],
        "u_weight": trace.u_weight,
        "contained": trace.contained,
        "u_undercovers": trace.u_undercovers,
        "dichotomy_ok": trace.dichotomy_ok,
        "successes": trace.successes,
        "rounds": [
            {
                "index": r.index,
                "ell": r.ell,
                "ground_remaining": r.ground_remaining,
                "w": list(r.w.indices()),
                "exiled": [list(e.indices()) for e in r.exiled],
                "exiled_weight": r.exiled_weight,
                "outcome": r.outcome,
                "ell_factor": r.ell_factor,
                "per_t_weight": [[t, v] for t, v in r.per_t_weight],
                "threshold": r.threshold,
                "survivor_count": r.survivor_count,
            }
            for r in trace.rounds
        ],
    }


def trace_to_json(trace: ProcessTrace) -> str:
    return json.dumps(_trace_payload(trace), sort_keys=True, indent=2) + "\n"


def trace_rounds_to_csv(trace: ProcessTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "index",
            "ell",
            "ground_remaining",
            "w_size",
            "exiled_count",
            "exiled_weight",
            "per_t_weight",
            "threshold",
            "outcome",
            "survivor_count",
        ]
    )
    for r in trace.rounds:
        per_t = ";".join(f"{t}:{v!r}" for t, v in r.per_t_weight)
        writer.writerow(
            [
                r.index,
                r.ell,
                r.ground_remaining,
                len(r.w),
                len(r.exiled),
                repr(r.exiled_weight),
                per_t,
                "" if r.threshold is None else repr(r.threshold),
                r.outcome,
                r.survivor_count,
            ]
        )
    return buf.getvalue()
