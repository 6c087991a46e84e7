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
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, fsum, log2
from typing import Callable, Sequence

import numpy as np

from .certify import cover_weight
from .core import (
    Hypergraph,
    ResourceLimitError,
    ThreshlabError,
    TrivialHypergraphError,
    VertexSet,
    Rng,
    _bits_of_mask,
    _mask_from_bits,
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


def _fragment_all(lex_edges: Sequence[int], w_mask: int) -> tuple[int | None, list[int]]:
    """Fragments of every edge under w, or the collapse edge if one exists.

    lex_edges are distinct edge masks in lex order, as the canonical form
    and every process round keep them; the fragments line up with them.
    Returns (collapse_edge_mask, fragments); when collapse_edge_mask is not
    None every fragment is empty and the list is left empty.

    A residual is owned by the first edge in lex_edges with that residual,
    and a fragment is the residual minimizing (size, owner rank), encoded
    as the one integer size * len(lex_edges) + rank.  The round's submask
    visits are checked against FRAGMENT_BUDGET, read at call time.
    """
    keep = ~w_mask
    order: dict[int, int] = {}
    for rank, m in enumerate(lex_edges):
        r = m & keep
        if not r:
            return m, []  # the first edge inside w owns the empty residual
        order.setdefault(r, r.bit_count() * len(lex_edges) + rank)
    cost = sum(1 << r.bit_count() for r in order)
    if cost > FRAGMENT_BUDGET:
        raise ResourceLimitError(
            f"fragment round needs {cost} submask visits, budget is {FRAGMENT_BUDGET}"
        )
    frags: list[int] = []
    for m in lex_edges:
        best = r = m & keep
        best_order = order[r]
        for sub in iter_submasks(r):
            k = order.get(sub)
            if k is not None and k < best_order:
                best, best_order = sub, k
        frags.append(best)
    return None, frags


def halving_round(
    h: Hypergraph, w: VertexSet
) -> tuple[VertexSet | None, tuple[VertexSet, ...]]:
    """One bulk fragmentation step at the hypergraph level.

    Returns (collapse_edge, fragments).  collapse_edge is the
    lexicographically least edge inside w when one exists, in which case all
    fragments are empty and an empty tuple is returned; otherwise fragments
    line up with h.edges.
    """
    lex_edges = sorted(set(h.masks), key=lex_key)
    collapse, frags = _fragment_all(lex_edges, w.mask)
    if collapse is not None:
        return VertexSet(collapse), ()
    frag_of = dict(zip(lex_edges, frags))
    return None, tuple(VertexSet(frag_of[m]) for m in h.masks)


def _split(frags: Sequence[int], half: int) -> tuple[list[int], list[int]]:
    """The distinct fragments in lex order, split into the would-be exiles
    (larger than half) and the survivors."""
    exiled = sorted({f for f in frags if f.bit_count() > half}, key=lex_key)
    survivors = sorted({f for f in frags if f.bit_count() <= half}, key=lex_key)
    return exiled, survivors


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


def round_sample_size(ell_factor: float, q: float, ground_remaining: int) -> int:
    """ceil(L * q * n) capped at n, with the product taken exactly.

    With L = a / b and q = c / d exactly, the ceiling is that of the integer
    ratio a * c * n / (b * d), so the result never depends on multiplication
    order or on intermediate rounding.  Note that representation noise in q
    itself is honored: the float 0.1 is a shade above 1/10, so L=8, q=0.1,
    n=10 gives ceil of a number just over 8, which is 9.
    """
    a, b = ell_factor.as_integer_ratio()
    c, d = q.as_integer_ratio()
    return min(ground_remaining, -(-a * c * ground_remaining // (b * d)))


def _validate_factor(ell_factor: float) -> None:
    if not ell_factor > 1:
        raise ValueError("the sampling factor L must exceed 1")


def _lift_sample(active_mask: int, picked: VertexSet) -> int:
    """Map a sample of positions among the active vertices, drawn on a
    ground of size active_mask.bit_count(), onto those vertices.

    Position i goes to the i-th active vertex in increasing order.  When
    the active vertices are 0..k-1, as in every first round, that is
    vertex i itself; otherwise the positions are gathered with numpy.
    """
    if active_mask & (active_mask + 1) == 0:
        return picked.mask
    active = np.flatnonzero(_bits_of_mask(active_mask))
    bits = np.zeros(active_mask.bit_length(), dtype=bool)
    bits[active[np.flatnonzero(_bits_of_mask(picked.mask))]] = True
    return _mask_from_bits(bits)


class _Run:
    """The state of one process run, shared by the three processes.

    Processes run on the minimized input, which has the same upward closure
    and so the same containment events.  Next to it the state holds the
    unsampled ground (active), the union of the W's, the round records, the
    found edge and the exiled family U, all as masks.
    """

    def __init__(self, h: Hypergraph, q: float, rng: Rng, ell_factor: float = 8) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        _validate_factor(ell_factor)
        if not h.edges:
            raise ValueError("fragmentation needs at least one edge")
        self.hd = minimize(h)
        if self.hd.has_empty_edge():
            raise TrivialHypergraphError(
                "the empty edge is inside every W; fragmentation is vacuous"
            )
        self.q = q
        self.rng = rng
        self.ell_factor = float(ell_factor)
        self.ell_start = self.hd.max_edge_size()
        self.active = VertexSet.full(self.hd.ground_size).mask
        self.total_w = 0
        self.rounds: list[RoundRecord] = []
        self.found_edge: int | None = None
        self.u_masks: set[int] = set()

    def take(self, picked: VertexSet) -> int:
        """Lift a sample drawn on the unsampled ground onto it; the lifted W
        joins the union of the W's and leaves the ground."""
        w = _lift_sample(self.active, picked)
        self.total_w |= w
        self.active &= ~w
        return w

    def fragment_round(
        self, i: int, cur: Sequence[int]
    ) -> tuple[int, int, int | None, list[int]]:
        """Round i of a fragmenting process: sample W of the round size
        uniformly from the unsampled ground and fragment cur (distinct masks
        in lex order) under it.  Returns the ground size before the draw, W,
        and the collapse edge and fragments as _fragment_all gives them."""
        n_rem = self.active.bit_count()
        m = round_sample_size(self.ell_factor, self.q, n_rem)
        w = self.take(sample_uniform_of_size(n_rem, m, self.rng.substream(i)))
        return (n_rem, w, *_fragment_all(cur, w))

    def record(
        self, i: int, ell: int, n_rem: int, w: int, outcome: str,
        exiles: Sequence[int] = (), *, exile: bool = True,
        threshold: float | None = None, survivors: int = 0,
    ) -> None:
        """Record round i.  exiles are the round's would-be exiles in lex
        order, weighed per size as RoundRecord says; unless exile is False
        they also join U."""
        per_t: tuple[tuple[int, float], ...] = ()
        ex_sets: tuple[VertexSet, ...] = ()
        weight = 0.0
        if exiles:
            counts = Counter(m.bit_count() for m in exiles)
            per_t = tuple((t, (self.q**t) * c) for t, c in sorted(counts.items()))
            weight = fsum(v for _, v in per_t)
            if exile:
                self.u_masks.update(exiles)
                ex_sets = tuple(VertexSet(f) for f in exiles)
        self.rounds.append(RoundRecord(
            i, ell, n_rem, VertexSet(w), ex_sets, weight,
            outcome, self.ell_factor, per_t, threshold, survivors,
        ))

    def finish(
        self, variant: str, eps: float | None, planned: int, success: str
    ) -> ProcessTrace:
        """The trace of the run; its successes are the rounds whose outcome
        is success."""
        hd = self.hd
        tw = VertexSet(self.total_w)
        u_edges = tuple(VertexSet(m) for m in sorted(self.u_masks, key=lex_key))
        # the exact weight of U, kept for the retry run's invariants
        self.u_weight = cover_weight(u_edges, self.q) if u_edges else 0
        contained = contains_edge(hd, tw)
        u_under = undercovers(Hypergraph(hd.ground_size, u_edges), hd)
        found = self.found_edge is not None
        if found and not contained:
            raise ProcessInvariantError(
                "found run without any original edge inside the union of the W's"
            )
        return ProcessTrace(
            variant=variant,
            ground_size=hd.ground_size,
            q=self.q,
            eps=eps,
            ell_start=self.ell_start,
            planned_rounds=planned,
            rounds=tuple(self.rounds),
            found=found,
            found_edge=None if self.found_edge is None else VertexSet(self.found_edge),
            total_w=tw,
            u_edges=u_edges,
            u_weight=float(self.u_weight),
            contained=contained,
            u_undercovers=u_under,
            dichotomy_ok=found != u_under,
            successes=[r.outcome for r in self.rounds].count(success),
        )


def run_halving(
    h: Hypergraph,
    q: float,
    rng: Rng,
    *,
    ell_factor: int = 8,
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
    run = _Run(h, q, rng, ell_factor)
    planned = run.ell_start.bit_length()
    cur: list[int] = list(run.hd.masks)
    ell = run.ell_start
    for i in range(1, planned + 1):
        if not cur:
            break
        n_rem, w, collapse, frags = run.fragment_round(i, cur)
        if collapse is not None:
            run.found_edge = collapse
            run.record(i, ell, n_rem, w, "found")
            break
        for f in frags:
            if f.bit_count() > ell:
                raise ProcessInvariantError("fragment exceeds the round size bound")
        exiled, cur = _split(frags, ell // 2)
        run.record(i, ell, n_rem, w, "ok", exiled, survivors=len(cur))
        ell //= 2
    if run.found_edge is None and cur:
        raise ProcessInvariantError("edges survived the full halving schedule")
    trace = run.finish("halving", None, planned, "ok")
    if not trace.found and not trace.u_undercovers:
        raise ProcessInvariantError(
            "halving run ended without found and without undercovering"
        )
    return trace


# ---------------------------------------------------------------------------
# retry process


def retry_round_count(ell: int, eps: float) -> int:
    """6 * floor(log2(ell / eps)), the fixed round budget of the retry run.

    With eps = a / d exactly, floor(ell / eps) is the integer floor of
    ell * d / a, so the floor is that of the true ratio rather than of a
    rounded logarithm.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    a, d = eps.as_integer_ratio()
    return 6 * (ell * d // a).bit_length() - 6


@lru_cache(maxsize=256)
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
    if failure_mode not in ("fragment", "setminus"):
        raise ValueError("failure_mode must be 'fragment' or 'setminus'")
    run = _Run(h, q, rng, ell_factor)
    planned = retry_round_count(run.ell_start, eps)
    cur: list[int] = list(run.hd.masks)
    ell = run.ell_start
    threshold_sum = Fraction(0)
    for i in range(1, planned + 1):
        if not cur or all(m == 0 for m in cur) or ell < 1:
            run.record(i, ell, run.active.bit_count(), 0, "success", survivors=len(cur))
            ell //= 2
            continue
        n_rem, w, collapse, frags = run.fragment_round(i, cur)
        if collapse is not None:
            # Every fragment is empty: a weightless, successful round that
            # leaves only no-op rounds in the fixed schedule.
            run.found_edge, frags = collapse, [0]
        exiled, survivors = _split(frags, ell // 2)
        thr = retry_round_threshold(ell, ell_factor)
        ex_weight = cover_weight([VertexSet(f) for f in exiled], q) if exiled else 0
        if ex_weight <= thr:
            threshold_sum += thr
            run.record(
                i, ell, n_rem, w, "success", exiled,
                threshold=float(thr), survivors=len(survivors),
            )
            cur = survivors
            ell //= 2
        else:
            # The heavy would-be exile family is recorded (weights) but kept
            # in play: nothing joins U on failure.
            if failure_mode == "fragment":
                kept = sorted(set(frags), key=lex_key)
            else:
                kept = sorted({mk & ~w for mk in cur}, key=lex_key)
            run.record(
                i, ell, n_rem, w, "failure", exiled, exile=False,
                threshold=float(thr), survivors=len(kept),
            )
            cur = kept
    trace = run.finish("retry", eps, planned, "success")
    if (ell < 1) != (trace.successes >= run.ell_start.bit_length()):
        raise ProcessInvariantError("size-bound schedule out of step with successes")
    if run.u_weight > threshold_sum:
        raise ProcessInvariantError("exiled family outweighs its round thresholds")
    if ell_factor == 8 and run.u_weight > _U_WEIGHT_CAP:
        raise ProcessInvariantError("exiled family exceeds the factor-8 weight cap")
    if not trace.found and ell < 1 and not trace.u_undercovers:
        raise ProcessInvariantError(
            "completed retry run without found and without undercovering"
        )
    return trace


# ---------------------------------------------------------------------------
# restart process


def restart_attempt_count(eps: float) -> int:
    """ceil(log2(1 / eps)) attempts, at least 1.

    With eps = a / d exactly, that is the least k with 2^k * a >= d, the
    bit length of ceil(d / a) - 1; eps < 1 makes it at least 1.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    a, d = eps.as_integer_ratio()
    return (-(-d // a) - 1).bit_length()


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
    run = _Run(h, q, rng)
    planned = restart_attempt_count(eps)
    p = restart_rate(run.ell_start, q)
    for i in range(1, planned + 1):
        n_rem = run.active.bit_count()
        w = run.take(sample_bernoulli(n_rem, p, rng.substream(i)))
        # The canonical masks are in lex order, so the first edge inside
        # the union is the lexicographically least one.
        outside = ~run.total_w
        run.found_edge = next((e for e in run.hd.masks if e & outside == 0), None)
        run.record(
            i, run.ell_start, n_rem, w, "miss" if run.found_edge is None else "found"
        )
        if run.found_edge is not None:
            break
    trace = run.finish("restart", eps, planned, "found")
    if trace.found != trace.contained:
        raise ProcessInvariantError("restart found flag out of step with containment")
    return trace



# ---------------------------------------------------------------------------
# serialization


def _plain(value):
    """A trace or one of its fields as JSON data: vertex sets become index
    lists, traces and round records dicts keyed by field name."""
    if isinstance(value, VertexSet):
        return list(value.indices())
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def trace_to_json(trace: ProcessTrace) -> str:
    return json.dumps(_plain(trace), sort_keys=True, indent=2) + "\n"


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
