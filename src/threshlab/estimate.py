"""Containment probabilities, critical thresholds, and verification checks.

For a hypergraph on n vertices let X_p keep each vertex independently with
probability p.  The chance that X_p contains some edge is a polynomial in p:
count, for each k, the subsets of size k containing an edge, then sum
c_k p^k (1-p)^(n-k).  The counts come from a single pass over all 2^n
subsets, done in numpy chunks with a 16-bit popcount table, and are cached
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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, fsum, log2, sqrt
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .certify import max_small_q
from .core import (
    Hypergraph,
    ResourceLimitError,
    Rng,
    minimize,
    sample_uniform_of_size,
)
from .process import FRAGMENT_BUDGET, _fragment_all, _validate_factor, round_sample_size

__all__ = [
    "Z95",
    "EXACT_GROUND_LIMIT",
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
    "constant_check",
]

Z95 = 1.959963984540054
EXACT_GROUND_LIMIT = 24
_MC_BLOCK = 256
# Largest edge count inclusion-exclusion takes on: 2^16 subset terms.
_INCLEXCL_EDGE_LIMIT = 16
# Bisection steps of the Monte Carlo threshold search; 2^-40 is far below
# any interval its trials can resolve.
_MC_MAX_STEPS = 40

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
        return {
            "instance": self.instance,
            "operation": self.operation,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "seed": self.seed,
            "trials": self.trials,
            "details": dict(self.details),
        }


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


def _popcount16() -> np.ndarray:
    v = np.arange(1 << 16, dtype=np.uint32)
    v = v - ((v >> 1) & 0x5555)
    v = (v & 0x3333) + ((v >> 2) & 0x3333)
    v = (v + (v >> 4)) & 0x0F0F
    return ((v + (v >> 8)) & 0xFF).astype(np.uint8)


_PC16 = _popcount16()


@lru_cache(maxsize=32)
def containment_counts(h: Hypergraph) -> tuple[int, ...]:
    """Number of vertex subsets of each size that contain at least one edge.

    Entry k counts the k-subsets of the ground set containing some edge.
    Cost is one vectorized pass over all 2^n subsets, so ground sets above
    EXACT_GROUND_LIMIT vertices raise ResourceLimitError.
    """
    n = h.ground_size
    if n > EXACT_GROUND_LIMIT:
        raise ResourceLimitError(
            f"exact counts need 2^{n} subset visits; the limit is "
            f"2^{EXACT_GROUND_LIMIT}"
        )
    counts = np.zeros(n + 1, dtype=np.int64)
    if h.edge_count == 0:
        return tuple(int(c) for c in counts)
    distinct = sorted(set(h.masks))
    total = 1 << n
    chunk = min(total, 1 << 20)
    for start in range(0, total, chunk):
        y = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        hit = np.zeros(y.shape[0], dtype=bool)
        for m in distinct:
            mm = np.uint32(m)
            hit |= (y & mm) == mm
        if not hit.any():
            continue
        yy = y[hit]
        sizes = _PC16[yy & np.uint32(0xFFFF)] + _PC16[yy >> np.uint32(16)]
        counts += np.bincount(sizes, minlength=n + 1).astype(np.int64)
    return tuple(int(c) for c in counts)


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
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("inclusion probability must lie in [0, 1]")
    if trials <= 0:
        raise ValueError("trials must be positive")
    n = h.ground_size
    distinct = sorted(set(h.masks))
    cols = [
        np.fromiter((v for v in range(n) if m >> v & 1), dtype=np.int64)
        for m in distinct
    ]
    successes = 0
    done = 0
    block = 0
    while done < trials:
        size = min(_MC_BLOCK, trials - done)
        gen = rng.substream(block).generator
        rows = gen.random((size, n)) < p
        hit = np.zeros(size, dtype=bool)
        for c in cols:
            if c.size == 0:
                hit[:] = True
                break
            hit |= rows[:, c].all(axis=1)
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
    if h.edge_count == 0:
        raise ValueError("critical probability needs at least one edge")
    if h.has_empty_edge():
        return 0.0
    containment_counts(h)  # fail fast on oversized ground sets
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if containment_probability(h, mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def mc_critical_probability(
    h: Hypergraph,
    rng: Rng,
    *,
    trials: int = 4096,
    tol: float = 1e-2,
    decision_z: float = 3.5,
) -> ThresholdEstimate:
    """Bisection for the threshold driven by Monte Carlo estimates.

    Each midpoint gets a fresh substream and `trials` samples; the bracket
    moves only when the Wilson interval at `decision_z` lies entirely on one
    side of one half.  The search stops at an ambiguous midpoint or once the
    bracket is narrower than `tol`, and reports the bracket as the interval.
    """
    if h.edge_count == 0:
        raise ValueError("critical probability needs at least one edge")
    if h.has_empty_edge():
        return ThresholdEstimate(0.0, 0.0, 0.0, 0, rng.seed)
    lo, hi = 0.0, 1.0
    used = 0
    for step in range(_MC_MAX_STEPS):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        est = mc_containment_probability(h, mid, rng.substream(step), trials=trials)
        used += est.trials
        hits = round(est.value * est.trials)
        w_lo, w_hi = wilson_interval(hits, est.trials, decision_z)
        if w_hi < 0.5:
            lo = mid
        elif w_lo > 0.5:
            hi = mid
        else:
            break
    return ThresholdEstimate((lo + hi) / 2.0, lo, hi, used, rng.seed)


# ---------------------------------------------------------------------------
# verification checks


def verify_threshold_bound(
    h: Hypergraph,
    *,
    instance: str = "",
    q: float | None = None,
    pc: float | None = None,
    tol: float = 1e-6,
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
    upper_ok = pcv <= rhs + tol
    first_moment_ok = qv <= pcv + tol
    return CheckReport(
        instance=instance,
        operation="threshold_bound",
        lhs=pcv,
        rhs=rhs,
        tolerance=tol,
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
    containment probability reaches 1 - eps.  Exact route on small ground
    sets, Monte Carlo with three standard errors of slack otherwise.
    Vacuous when the rate clamped at 1.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    qv = max_small_q(h) * (1.0 + 1e-6) if q is None else q
    ell = h.max_edge_size()
    rate_raw = 48.0 * qv * log2(ell / eps)
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
        collapse, frags = _fragment_all(hm.masks, w.mask, FRAGMENT_BUDGET)
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
    tol: float = 1e-6,
) -> CheckReport:
    """The largest certified-small q never exceeds the exact threshold."""
    qv = max_small_q(h) if q is None else q
    pcv = critical_probability(h) if pc is None else pc
    return CheckReport(
        instance=instance,
        operation="first_moment",
        lhs=qv,
        rhs=pcv,
        tolerance=tol,
        passed=qv <= pcv + tol,
        vacuous=False,
        seed=None,
        trials=0,
        details={},
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
