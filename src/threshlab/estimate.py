"""Containment probabilities, critical thresholds, and verification checks.

For a hypergraph on n vertices let X_p keep each vertex independently with
probability p.  The chance that X_p contains some edge is a polynomial in p:
count, for each k, the subsets of size k containing an edge, then sum
c_k p^k (1-p)^(n-k).  The counts come from a bitset over all 2^n subsets,
2^(n-3) bytes: the edges' bits are closed upward in n word-parallel OR
passes and popcounted by size, O(n 2^n / 64) word operations, and cached
per hypergraph; anything above 24 ground vertices is refused rather than
ground through.  Monte Carlo estimates cover the rest.

The containment probability is nondecreasing in p (sampling at a higher rate
can be coupled to only add vertices), so the p where it crosses one half is
unique and bisection finds it.  The Monte Carlo variant of that search only
moves the bracket when the interval around the estimate clears one half at a
deliberately wide z, and stops as soon as a midpoint is statistically
indistinguishable from the threshold.

Randomness discipline: every trial block and every bisection step draws from
its own Rng substream, so results are a pure function of the seed and never
depend on scheduling.  `parallel_map` preserves input order for the same
reason.  All float accumulation goes through math.fsum.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, fsum, log2, sqrt
from typing import Callable, Iterable, TypeVar

import numpy as np

from .certify import _bisect, _check_tol, max_small_q, min_cover_weight, spread_of
from .core import (
    Hypergraph,
    ResourceLimitError,
    Rng,
    lex_key,
    minimize,
    sample_uniform_of_size,
)
from .process import (
    DEFAULT_ELL_FACTOR,
    RETRY_ROUNDS_PER_DOUBLING,
    _fragment_all,
    _validate_factor,
    round_sample_size,
)

__all__ = [
    "Z95",
    "EXACT_GROUND_LIMIT",
    "Q_ABOVE_FACTOR",
    "ThresholdEstimate",
    "CheckReport",
    "parallel_map",
    "containment_counts",
    "containment_probability",
    "inclusion_exclusion_probability",
    "mc_containment_probability",
    "wilson_interval",
    "critical_probability",
    "mc_critical_probability",
    "verify_threshold_bound",
    "verify_highprob_bound",
    "fragment_weight_samples",
    "verify_fragment_weight",
    "verify_first_moment",
    "verify_spread_not_small",
    "constant_check",
]

Z95 = 1.959963984540054
EXACT_GROUND_LIMIT = 24
_MC_BLOCK = 256
# Largest gathered temporary of one Monte Carlo block, in bytes: each edge
# group is tested in chunks of edges whose gathered rows stay under it.
_MC_GATHER_BYTES = 1 << 22
# Largest edge count inclusion-exclusion takes on: 2^16 subset terms.
_INCLEXCL_EDGE_LIMIT = 16
# Bisection steps of the Monte Carlo threshold search; 2^-40 is far below
# any interval its trials can resolve.
_MC_MAX_STEPS = 40
# Slack on both sides of the threshold sandwich q <= p_c <= 8 q log2(2 ell).
_THRESHOLD_TOL = 1e-6
# Slack on the spread check's weight-1 comparison: kappa itself is a float.
_SPREAD_TOL = 1e-9
# max_small_q(h) times this is a q just above the small range, where h is
# no longer q-small.
Q_ABOVE_FACTOR = 1.0 + 1e-6

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class ThresholdEstimate:
    """A Monte Carlo point estimate with its interval."""

    value: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    lhs and rhs are the two sides of the inequality that was tested, with
    `tolerance` of slack on the rhs.  `vacuous` flags checks that passed
    only because a bound clamped to something trivially true.
    """

    instance: str
    operation: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    vacuous: bool = False
    seed: int | None = None
    trials: int = 0
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def parallel_map(
    fn: Callable[[_T], _R], items: Iterable[_T], *, workers: int = 1
) -> list[_R]:
    """Order-preserving map, threaded when workers > 1.

    Work items must carry their own Rng substreams; the output is then
    independent of scheduling and a 1-worker run reproduces an 8-worker run
    byte for byte.
    """
    todo = list(items)
    if workers <= 1 or len(todo) <= 1:
        return [fn(x) for x in todo]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, todo))


# In-word closure masks: _LOW[i] holds the bit positions 0-63 whose bit i is
# clear, so (w & _LOW[i]) << 2^i moves each of them onto its partner with
# bit i set.
_LOW = tuple(
    np.uint64(sum(1 << b for b in range(64) if not b >> i & 1)) for i in range(6)
)
# _BY_SIZE[j] holds the bit positions 0-63 with popcount j.
_BY_SIZE = tuple(
    np.uint64(sum(1 << b for b in range(64) if b.bit_count() == j))
    for j in range(7)
)


@lru_cache(maxsize=32)
def containment_counts(h: Hypergraph) -> tuple[int, ...]:
    """Number of vertex subsets of each size that contain at least one edge.

    Entry k counts the k-subsets of the ground set containing some edge.
    The subsets are one bitset of 2^n bits, 2^(n-3) bytes: each distinct
    edge sets its own bit, n OR passes close the set upward, and a popcount
    by size reads off the counts, O(n 2^n / 64) word operations in all.
    Ground sets above EXACT_GROUND_LIMIT vertices raise ResourceLimitError.
    """
    n = h.ground_size
    if n > EXACT_GROUND_LIMIT:
        raise ResourceLimitError(
            f"exact counts need 2^{n} subset visits; the limit is "
            f"2^{EXACT_GROUND_LIMIT}"
        )
    if h.edge_count == 0:
        return (0,) * (n + 1)
    # bit y & 63 of word y >> 6 is set when subset y contains an edge
    w = np.zeros(1 << max(n - 6, 0), dtype=np.uint64)
    edges = np.fromiter(set(h.masks), dtype=np.uint64)
    np.bitwise_or.at(w, edges >> np.uint64(6), np.uint64(1) << (edges & np.uint64(63)))
    for i in range(min(n, 6)):
        w |= (w & _LOW[i]) << np.uint64(1 << i)
    for i in range(6, n):
        v = w.reshape(-1, 2, 1 << (i - 6))
        v[:, 1, :] |= v[:, 0, :]
    # subset y has size popcount(y >> 6) + popcount(y & 63); the weighted
    # bincount sums at most 2^24 in float64, so it stays exact
    word_size = np.bitwise_count(np.arange(w.size, dtype=np.uint64))
    counts = np.zeros(n + 7, dtype=np.int64)
    for j, positions in enumerate(_BY_SIZE):
        hits = np.bincount(word_size, weights=np.bitwise_count(w & positions))
        counts[j : j + hits.size] += hits.astype(np.int64)
    return tuple(int(c) for c in counts[: n + 1])


def containment_probability(h: Hypergraph, p: float) -> float:
    """Exact probability that a Bernoulli(p) vertex sample contains an edge."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("inclusion probability must lie in [0, 1]")
    if h.edge_count == 0:
        return 0.0
    if h.has_empty_edge():
        return 1.0
    n = h.ground_size
    counts = containment_counts(h)
    terms = [c * p**k * (1.0 - p) ** (n - k) for k, c in enumerate(counts) if c]
    return min(1.0, max(0.0, fsum(terms)))


def inclusion_exclusion_probability(h: Hypergraph, p: float) -> float:
    """Containment probability by inclusion-exclusion over edge subsets.

    Sums (-1)^(|T|+1) p^|union of T| over nonempty subsets T of the distinct
    edges.  Exponential in the edge count, so it refuses more than 16 edges;
    meant as an independent cross-check for the counting route, which shares
    no code with it.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("inclusion probability must lie in [0, 1]")
    distinct = sorted(set(h.masks))
    m = len(distinct)
    if m == 0:
        return 0.0
    if m > _INCLEXCL_EDGE_LIMIT:
        raise ResourceLimitError(
            f"inclusion-exclusion over {m} edges exceeds the "
            f"{_INCLEXCL_EDGE_LIMIT}-edge limit"
        )
    union = [0] * (1 << m)
    for t in range(1, 1 << m):
        low = t & -t
        union[t] = union[t ^ low] | distinct[low.bit_length() - 1]
    terms = [
        (p ** union[t].bit_count()) * (1.0 if t.bit_count() & 1 else -1.0)
        for t in range(1, 1 << m)
    ]
    return min(1.0, max(0.0, fsum(terms)))


def wilson_interval(
    successes: int, trials: int, z: float = Z95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    half /= denom
    return max(0.0, center - half), min(1.0, center + half)


def mc_containment_probability(
    h: Hypergraph, p: float, rng: Rng, *, trials: int = 10_000
) -> ThresholdEstimate:
    """Monte Carlo containment probability with a 95% Wilson interval.

    Trials run in fixed blocks of 256, each block on its own substream, so
    the estimate depends only on (seed, trials).

    Set-up walks only the set bits of the distinct edges, O(sum of |e|)
    steps, and groups the edges by size into index arrays.  A block then
    tests each group at once on its 256 x n sample rows, in chunks of edges
    whose gathered rows take at most 4 MiB (or one edge, if a single edge
    takes more), so a block needs its rows plus that bound however many
    edges there are.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("inclusion probability must lie in [0, 1]")
    if trials <= 0:
        raise ValueError("trials must be positive")
    n = h.ground_size
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for m in set(h.masks):
        by_size.setdefault(m.bit_count(), []).append(lex_key(m))
    chunks = []
    for k, members in by_size.items():
        step = max(1, _MC_GATHER_BYTES // (_MC_BLOCK * max(k, 1)))
        group = np.array(members, dtype=np.intp)
        chunks.extend(group[i : i + step] for i in range(0, len(members), step))
    successes = 0
    done = 0
    block = 0
    while done < trials:
        size = min(_MC_BLOCK, trials - done)
        gen = rng.substream(block).generator
        rows = gen.random((size, n)) < p
        hit = np.zeros(size, dtype=bool)
        for g in chunks:
            hit |= rows[:, g].all(axis=2).any(axis=1)
        successes += int(hit.sum())
        done += size
        block += 1
    lo, hi = wilson_interval(successes, trials)
    return ThresholdEstimate(successes / trials, lo, hi, trials, rng.seed)


def critical_probability(h: Hypergraph, *, tol: float = 1e-9) -> float:
    """The p at which the exact containment probability reaches one half.

    Bisection on the counting polynomial; monotonicity makes the crossing
    unique.  A hypergraph with an empty edge is contained by every sample,
    so its threshold is 0; one with no edges has no threshold at all.
    """
    _check_tol(tol)
    if h.edge_count == 0:
        raise ValueError("critical probability needs at least one edge")
    if h.has_empty_edge():
        return 0.0
    containment_counts(h)  # fail fast on oversized ground sets
    lo, hi = _bisect(lambda p: containment_probability(h, p) < 0.5, tol)
    return (lo + hi) / 2


def mc_critical_probability(
    h: Hypergraph,
    rng: Rng,
    *,
    trials: int = 4096,
    tol: float = 1e-2,
    decision_z: float = 3.5,
) -> ThresholdEstimate:
    """Bisection for the threshold driven by Monte Carlo estimates.

    Step k (from 0) samples its midpoint on substream k with `trials`
    samples; the bracket moves only when the Wilson interval at
    `decision_z` lies entirely on one side of one half.  The search stops
    at an ambiguous midpoint, after _MC_MAX_STEPS steps, or once the bracket
    is no wider than `tol`, and reports the bracket as the interval.
    """
    _check_tol(tol)
    if trials <= 0:
        raise ValueError("trials must be positive")
    if h.edge_count == 0:
        raise ValueError("critical probability needs at least one edge")
    if h.has_empty_edge():
        return ThresholdEstimate(0.0, 0.0, 0.0, 0, rng.seed)
    steps = 0

    def below(p: float) -> bool | None:
        nonlocal steps
        if steps == _MC_MAX_STEPS:
            return None
        est = mc_containment_probability(h, p, rng.substream(steps), trials=trials)
        steps += 1
        w_lo, w_hi = wilson_interval(round(est.value * trials), trials, decision_z)
        if w_hi < 0.5:
            return True
        if w_lo > 0.5:
            return False
        return None

    lo, hi = _bisect(below, tol)
    return ThresholdEstimate((lo + hi) / 2.0, lo, hi, steps * trials, rng.seed)


# ---------------------------------------------------------------------------
# verification checks


def verify_threshold_bound(
    h: Hypergraph,
    *,
    instance: str = "",
    q: float | None = None,
    pc: float | None = None,
) -> CheckReport:
    """Sandwich the exact threshold between the smallness bounds.

    Checks p_c <= min(1, 8 q log2(2 ell)) at the largest certified-small q,
    and alongside it the first-moment direction q <= p_c.  The report is
    vacuous when the upper bound clamped at 1.  Pass q or pc to reuse
    already-computed values.
    """
    qv = max_small_q(h) if q is None else q
    pcv = critical_probability(h) if pc is None else pc
    ell = h.max_edge_size()
    rhs_raw = 8.0 * qv * log2(2.0 * ell)
    rhs = min(1.0, rhs_raw)
    upper_ok = pcv <= rhs + _THRESHOLD_TOL
    first_moment_ok = qv <= pcv + _THRESHOLD_TOL
    return CheckReport(
        instance=instance,
        operation="threshold_bound",
        lhs=pcv,
        rhs=rhs,
        tolerance=_THRESHOLD_TOL,
        passed=upper_ok and first_moment_ok,
        vacuous=rhs_raw >= 1.0,
        seed=None,
        trials=0,
        details={
            "q": qv,
            "ell": ell,
            "rhs_unclamped": rhs_raw,
            "upper_ok": upper_ok,
            "first_moment_ok": first_moment_ok,
        },
    )


def verify_highprob_bound(
    h: Hypergraph,
    eps: float,
    rng: Rng,
    *,
    instance: str = "",
    q: float | None = None,
    trials: int = 10_000,
) -> CheckReport:
    """Above the smallness range, containment should be all but certain.

    Takes q a hair above the largest certified-small value, so the family is
    not q-small, and checks that at p = min(1, 48 q log2(ell / eps)) the
    containment probability reaches 1 - eps.  48 is the retry schedule's
    default sampling factor L = 8 times its 6 rounds per doubling of
    ell / eps, taken from the process module, so the check and the process
    cannot drift apart.  Exact route on small ground sets, Monte Carlo with
    three standard errors of slack otherwise.  Vacuous when the rate clamped
    at 1.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    if trials <= 0:
        raise ValueError("trials must be positive")
    qv = max_small_q(h) * Q_ABOVE_FACTOR if q is None else q
    ell = h.max_edge_size()
    rate_raw = DEFAULT_ELL_FACTOR * RETRY_ROUNDS_PER_DOUBLING * qv * log2(ell / eps)
    p = min(1.0, rate_raw)
    if p >= 1.0:
        # sampling at p = 1 keeps the whole ground set, which contains
        # every edge, so the probability is exactly 1
        phat = 1.0
        used = 0
        slack = 0.0
    elif h.ground_size <= EXACT_GROUND_LIMIT:
        phat = containment_probability(h, p)
        used = 0
        slack = 0.0
    else:
        est = mc_containment_probability(h, p, rng, trials=trials)
        phat = est.value
        used = est.trials
        slack = 3.0 * sqrt(phat * (1.0 - phat) / trials)
    return CheckReport(
        instance=instance,
        operation="highprob_bound",
        lhs=phat,
        rhs=1.0 - eps,
        tolerance=slack,
        passed=phat >= 1.0 - eps - slack,
        vacuous=rate_raw >= 1.0,
        seed=rng.seed,
        trials=used,
        details={"q": qv, "eps": eps, "p": p, "ell": ell, "rate_unclamped": rate_raw},
    )


def fragment_weight_samples(
    h: Hypergraph,
    q: float,
    rng: Rng,
    *,
    trials: int = 10_000,
    ell_factor: float = 8.0,
) -> np.ndarray:
    """Per-draw fragment weight, split by fragment size.

    Each draw samples one vertex set W of the round size (ceil of
    ell_factor * q * n, capped at n), fragments every edge of the minimized
    family against it, and scores q^t for each distinct nonempty fragment of
    size t.  Returns an array of shape (trials, ell) whose column t-1 holds
    the draw's total score at size t; a draw that collapses an edge scores
    zero everywhere.  Draw j runs on substream j.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    if trials <= 0:
        raise ValueError("trials must be positive")
    _validate_factor(ell_factor)
    hm = minimize(h)
    if hm.edge_count == 0:
        raise ValueError("fragment sampling needs at least one edge")
    ell = hm.max_edge_size()
    n = hm.ground_size
    m = round_sample_size(ell_factor, q, n)
    out = np.zeros((trials, ell))
    for j in range(trials):
        w = sample_uniform_of_size(n, m, rng.substream(j))
        collapse, frags = _fragment_all(hm.masks, w.mask)
        if collapse is not None:
            continue
        for fm in {f for f in frags if f}:
            t = fm.bit_count()
            out[j, t - 1] += q**t
    return out


def verify_fragment_weight(
    h: Hypergraph,
    q: float,
    rng: Rng,
    *,
    instance: str = "",
    trials: int = 10_000,
    ell_factor: float = 8.0,
    samples: np.ndarray | None = None,
) -> list[CheckReport]:
    """Sampled fragment weights against their per-size expectation bound.

    For each fragment size t the claim is that the expected total score
    q^t * |distinct fragments of size t| from one round-size draw is at most
    ell_factor^(-t) * C(ell, t).  One report per t, comparing the sample
    mean against that bound plus three standard errors of the mean.
    """
    if samples is None:
        samples = fragment_weight_samples(
            h, q, rng, trials=trials, ell_factor=ell_factor
        )
    n_draws, ell = samples.shape
    reports = []
    for t in range(1, ell + 1):
        col = samples[:, t - 1]
        mean = fsum(col) / n_draws
        if n_draws > 1:
            var = fsum((x - mean) ** 2 for x in col) / (n_draws - 1)
            sem = sqrt(var / n_draws)
        else:
            sem = 0.0
        rhs = ell_factor ** (-t) * comb(ell, t)
        reports.append(
            CheckReport(
                instance=instance,
                operation=f"fragment_weight_t{t}",
                lhs=mean,
                rhs=rhs,
                tolerance=3.0 * sem,
                passed=mean <= rhs + 3.0 * sem,
                vacuous=False,
                seed=rng.seed,
                trials=n_draws,
                details={"t": t, "q": q, "ell": ell, "ell_factor": ell_factor},
            )
        )
    return reports


def verify_first_moment(
    h: Hypergraph,
    *,
    instance: str = "",
    q: float | None = None,
    pc: float | None = None,
) -> CheckReport:
    """The largest certified-small q never exceeds the exact threshold."""
    qv = max_small_q(h) if q is None else q
    pcv = critical_probability(h) if pc is None else pc
    return CheckReport(
        instance=instance,
        operation="first_moment",
        lhs=qv,
        rhs=pcv,
        tolerance=_THRESHOLD_TOL,
        passed=qv <= pcv + _THRESHOLD_TOL,
        vacuous=False,
        seed=None,
        trials=0,
        details={},
    )


def verify_spread_not_small(h: Hypergraph, *, instance: str = "") -> CheckReport:
    """Spread bars smallness: at q = min(1, 1/kappa) no cover weighs under 1.

    lhs is the exact minimum cover weight at that q.  The check passes when
    h is not q-small there (that weight exceeds 1/2) and the weight reaches
    1 up to 1e-9 of slack, because kappa itself is a float.
    """
    kappa = spread_of(h).kappa
    q = min(1.0, 1.0 / kappa)
    weight, _ = min_cover_weight(h, q)
    small = weight <= Fraction(1, 2)
    return CheckReport(
        instance=instance,
        operation="spread_not_small",
        lhs=float(weight),
        rhs=1.0,
        tolerance=_SPREAD_TOL,
        passed=not small and float(weight) >= 1.0 - _SPREAD_TOL,
        vacuous=False,
        seed=None,
        trials=0,
        details={"kappa": kappa, "q": q, "is_q_small": small},
    )


def constant_check(*, terms: int = 4) -> CheckReport:
    """The halving weight constant sum_t C(2t-1, t) 8^(-t) stays under 1/4.

    A fragment of size t is only ever exiled while the size cap ell_s has
    t > ell_s / 2, so ell_s <= 2t - 1 and the binomial factor in its
    expectation bound is at most C(2t-1, t).  The first `terms` terms are
    summed exactly; the remainder is bounded by the geometric series
    (1/2) sum_t (1/2)^t via its closed form first/(1 - ratio), a derivation
    independent of the loop.  Each term's domination by (1/2)^(t+1) is
    spot-checked well past the cutoff.
    """
    if terms < 1:
        raise ValueError("need at least one exact term")
    partial = sum(Fraction(comb(2 * t - 1, t), 8**t) for t in range(1, terms + 1))
    first = Fraction(1, 2) ** (terms + 2)
    ratio = Fraction(1, 2)
    tail = first / (1 - ratio)
    total = partial + tail
    domination_ok = all(
        Fraction(comb(2 * t - 1, t), 8**t) <= Fraction(1, 2) ** (t + 1)
        for t in range(1, terms + 33)
    )
    passed = total < Fraction(1, 4) and domination_ok
    return CheckReport(
        instance="",
        operation="constant_check",
        lhs=float(total),
        rhs=0.25,
        tolerance=0.0,
        passed=passed,
        vacuous=False,
        seed=None,
        trials=0,
        details={
            "partial": f"{partial.numerator}/{partial.denominator}",
            "tail_bound": f"{tail.numerator}/{tail.denominator}",
            "total": f"{total.numerator}/{total.denominator}",
            "terms": terms,
            "domination_ok": domination_ok,
        },
    )
