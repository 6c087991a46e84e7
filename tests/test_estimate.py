"""Exact and Monte Carlo containment, thresholds, and verification checks.

The independent oracle here is a plain 2^n subset loop: no bit tricks, no
numpy, no shared code with the counting route or with inclusion-exclusion.
Monte Carlo assertions are frozen per seed; estimators are deterministic
given (seed, trials), so those tests are exact regressions.
"""

from itertools import combinations
from math import comb, fsum, log2

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import threshlab.estimate as estimate
import threshlab.process as process
from threshlab.certify import max_small_q, min_cover_weight, spread_of
from threshlab.core import Hypergraph, ResourceLimitError, Rng
from threshlab.estimate import (
    EXACT_GROUND_LIMIT,
    CheckReport,
    ThresholdEstimate,
    constant_check,
    containment_counts,
    containment_probability,
    critical_probability,
    fragment_weight_samples,
    inclusion_exclusion_probability,
    mc_containment_probability,
    mc_critical_probability,
    parallel_map,
    verify_first_moment,
    verify_fragment_weight,
    verify_highprob_bound,
    verify_spread_not_small,
    verify_threshold_bound,
    wilson_interval,
)
from threshlab.families import (
    hamilton_cycles,
    perfect_matchings,
    singletons,
    sunflower,
    triangles,
)
from threshlab.process import (
    DEFAULT_ELL_FACTOR,
    RETRY_ROUNDS_PER_DOUBLING,
    retry_round_count,
    run_retry,
)


def hg(n, *edges):
    return Hypergraph.from_edge_lists(n, edges)


def brute_containment(h, p):
    """Sum p^k (1-p)^(n-k) over the k-subsets of range(n) that contain an
    edge (vertex sets): every subset listed, every edge tried."""
    n = h.ground_size
    edges = [set(e.indices()) for e in h.edges]
    terms = []
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            chosen = set(subset)
            if any(edge <= chosen for edge in edges):
                terms.append(p**k * (1 - p) ** (n - k))
    return fsum(terms)


# ---------------------------------------------------------------------------
# exact containment


def test_containment_probability_worked_examples():
    assert containment_probability(hg(2, (0, 1)), 0.5) == 0.25
    assert containment_probability(singletons(2), 0.5) == 0.75


def test_containment_probability_degenerate():
    assert containment_probability(Hypergraph(3), 0.7) == 0.0
    assert containment_probability(hg(2, ()), 0.3) == 1.0
    with pytest.raises(ValueError):
        containment_probability(singletons(2), -0.1)
    with pytest.raises(ValueError):
        containment_probability(singletons(2), 1.1)


def test_containment_probability_closed_form_triangles4():
    # four triangles, pairwise sharing one slot: 4p^3 - 6p^5 + 3p^6
    h = triangles(4)
    for p in (0.1, 0.3, 0.5, 0.8):
        expect = 4 * p**3 - 6 * p**5 + 3 * p**6
        assert containment_probability(h, p) == pytest.approx(expect, abs=1e-12)
    assert containment_probability(h, 0.3) == pytest.approx(0.095607, abs=1e-12)


@pytest.mark.parametrize(
    "h",
    [triangles(4), perfect_matchings(4), sunflower(1, 3, 2), singletons(4),
     hg(5, (0, 1, 2), (1, 3), (2, 3, 4), (0, 4))],
    ids=["triangles-4", "matchings-4", "sunflower-1-3-2", "singletons-4", "adhoc"],
)
def test_counting_matches_brute_force_and_inclusion_exclusion(h):
    for p in (0.0, 0.2, 0.5, 0.77, 1.0):
        exact = containment_probability(h, p)
        assert exact == pytest.approx(brute_containment(h, p), abs=1e-12)
        assert exact == pytest.approx(
            inclusion_exclusion_probability(h, p), abs=1e-12
        )


def test_counting_ignores_duplicate_edges():
    a = hg(3, (0, 1), (0, 1), (2,))
    b = hg(3, (0, 1), (2,))
    for p in (0.3, 0.6):
        assert containment_probability(a, p) == containment_probability(b, p)


def test_containment_counts_small_values():
    # subsets of {0,1} containing the full pair: just the pair itself
    assert containment_counts(hg(2, (0, 1))) == (0, 0, 1)
    # subsets containing a singleton edge: {0}, {1}, {0,1}
    assert containment_counts(singletons(2)) == (0, 2, 1)
    assert containment_counts(Hypergraph(2)) == (0, 0, 0)


def plain_counts(n, edges):
    """For each k, how many k-subsets of range(n) contain one of the edges
    (vertex sets): every subset listed, every edge tried."""
    counts = []
    for k in range(n + 1):
        found = 0
        for subset in combinations(range(n), k):
            chosen = set(subset)
            if any(edge <= chosen for edge in edges):
                found += 1
        counts.append(found)
    return tuple(counts)


@st.composite
def ground_and_edges(draw):
    n = draw(st.integers(0, 13))
    vertex = st.integers(0, n - 1) if n else st.nothing()
    edges = draw(st.lists(st.frozensets(vertex), max_size=6))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    return n, edges


@settings(max_examples=150, deadline=None)
@given(ground_and_edges())
# the word boundary: 2^6 subsets fill one 64-bit word, 2^7 two
@example((6, []))
@example((6, [frozenset(), frozenset({1, 4})]))
@example((6, [frozenset({0, 5}), frozenset({0, 5}), frozenset({3})]))
@example((7, []))
@example((7, [frozenset({6}), frozenset({6}), frozenset({0, 1, 2})]))
@example((7, [frozenset(range(7)), frozenset()]))
@example((0, []))
@example((0, [frozenset()]))
def test_containment_counts_match_a_plain_subset_count(case):
    n, edges = case
    h = Hypergraph.from_edge_lists(n, [sorted(e) for e in edges])
    assert containment_counts(h) == plain_counts(n, set(edges))


def test_containment_counts_closed_forms_at_the_limit():
    # twelve disjoint pairs: a k-subset misses every pair when it takes at
    # most one vertex of each, C(12, k) 2^k ways
    h = sunflower(0, 12, 2)
    assert h.ground_size == EXACT_GROUND_LIMIT == 24
    assert containment_counts(h) == tuple(
        comb(24, k) - comb(12, k) * 2**k for k in range(25)
    )
    # every nonempty subset contains a singleton
    assert containment_counts(singletons(24)) == (0,) + tuple(
        comb(24, k) for k in range(1, 25)
    )


def test_containment_counts_respects_ground_limit():
    too_big = sunflower(0, 13, 2)  # 26 vertices
    assert too_big.ground_size > EXACT_GROUND_LIMIT
    with pytest.raises(ResourceLimitError):
        containment_counts(too_big)
    with pytest.raises(ResourceLimitError):
        critical_probability(too_big)


def test_inclusion_exclusion_limits():
    assert inclusion_exclusion_probability(Hypergraph(3), 0.4) == 0.0
    with pytest.raises(ResourceLimitError):
        inclusion_exclusion_probability(triangles(6), 0.4)  # 20 edges


# ---------------------------------------------------------------------------
# critical probability


def test_critical_probability_worked_examples():
    assert abs(critical_probability(hg(1, (0,))) - 0.5) <= 1e-9
    assert abs(critical_probability(singletons(2)) - (1 - 2 ** (-1 / 2))) <= 2e-9


@pytest.mark.parametrize(
    "h,expected",
    [
        (singletons(5), 1 - 2 ** (-1 / 5)),
        (perfect_matchings(4), (1 - 2 ** (-1 / 3)) ** 0.5),
        (sunflower(0, 8, 2), (1 - 2 ** (-1 / 8)) ** 0.5),
        (hamilton_cycles(4), 2 ** -0.5),  # root of 3p^4 - 2p^6 = 1/2
        (triangles(4), 0.5795392454833745),  # frozen from the brute oracle
    ],
    ids=["singletons-5", "matchings-4", "sunflower-0-8-2", "hamilton-4",
         "triangles-4"],
)
def test_critical_probability_frozen(h, expected):
    got = critical_probability(h)
    assert abs(got - expected) <= 2e-9
    assert containment_probability(h, got) == pytest.approx(0.5, abs=1e-6)


def test_critical_probability_degenerate():
    with pytest.raises(ValueError):
        critical_probability(Hypergraph(2))
    assert critical_probability(hg(2, ())) == 0.0
    # at 0 or below the bisection used to spin on adjacent floats forever, at
    # nan or inf to return 0.5 after no step at all
    # the Monte Carlo bisection once ran on such a tol too; both refuse it
    # also where an empty edge needs no search
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        for h in (hg(2, (0,), (1,)), hg(2, ())):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                critical_probability(h, tol=tol)
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                mc_critical_probability(h, Rng(0), trials=64, tol=tol)
    # 1e-300 is below the float spacing at either answer: the bisection once
    # spun there forever, and now stops on adjacent floats
    assert max_small_q(singletons(2), tol=1e-300) == 0.25
    fine = critical_probability(singletons(2), tol=1e-300)
    assert abs(fine - critical_probability(singletons(2))) <= 1e-9


# ---------------------------------------------------------------------------
# Wilson intervals and Monte Carlo


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert 0.0 <= lo < 0.5 < hi <= 1.0
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == pytest.approx(0.0, abs=1e-12) and hi0 > 0.01
    lo1, hi1 = wilson_interval(100, 100)
    assert hi1 == pytest.approx(1.0, abs=1e-12) and lo1 < 0.99
    # z = 0 collapses the interval onto the point estimate
    assert wilson_interval(30, 100, z=0.0) == (0.3, 0.3)


def test_wilson_interval_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
    with pytest.raises(ValueError):
        wilson_interval(-1, 4)


def test_mc_containment_extremes():
    h = triangles(4)
    assert mc_containment_probability(h, 0.0, Rng(1), trials=500).value == 0.0
    assert mc_containment_probability(h, 1.0, Rng(1), trials=500).value == 1.0


def test_mc_containment_is_deterministic():
    h = triangles(4)
    a = mc_containment_probability(h, 0.4, Rng(11), trials=700)
    b = mc_containment_probability(h, 0.4, Rng(11), trials=700)
    assert a == b
    c = mc_containment_probability(h, 0.4, Rng(12), trials=700)
    assert a.value != c.value


def test_mc_containment_brackets_exact_value():
    # frozen seed: the 95% interval around 4000 draws covers the exact value
    h = triangles(4)
    p = critical_probability(h)
    est = mc_containment_probability(h, p, Rng(11), trials=4000)
    assert est.ci_low <= 0.5 <= est.ci_high
    assert est.trials == 4000 and est.seed == 11


def mc_oracle_successes(h, p, rng, trials):
    """Redraw each block of 256 sample rows from its substream and check
    every edge against every row with plain loops."""
    n = h.ground_size
    edges = [[v for v in range(n) if m >> v & 1] for m in h.masks]
    successes = 0
    for block, start in enumerate(range(0, trials, 256)):
        size = min(256, trials - start)
        rows = rng.substream(block).generator.random((size, n)) < p
        for row in rows.tolist():
            if any(all(row[v] for v in e) for e in edges):
                successes += 1
    return successes


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mc_containment_matches_a_plain_oracle(data):
    # mixed edge sizes, duplicate edges, the empty edge, edgeless inputs,
    # trial counts that end in a partial block, and gather chunks from one
    # edge up to the whole group
    n = data.draw(st.integers(0, 10))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    if masks:
        masks += data.draw(st.lists(st.sampled_from(masks), max_size=3))
    if data.draw(st.booleans()):
        masks.append(0)
    h = Hypergraph.from_masks(n, data.draw(st.permutations(masks)))
    p = data.draw(st.floats(0.0, 1.0))
    trials = data.draw(st.integers(1, 900).filter(lambda t: t % 256))
    seed = data.draw(st.integers(0, 2**32))
    gather = data.draw(st.sampled_from([None, 1, 256 * 2, 256 * 3 * 2]))
    with pytest.MonkeyPatch.context() as mp:
        if gather is not None:
            mp.setattr(estimate, "_MC_GATHER_BYTES", gather)
        est = mc_containment_probability(h, p, Rng(seed), trials=trials)
    hits = mc_oracle_successes(h, p, Rng(seed), trials)
    assert est.trials == trials and est.seed == seed
    assert est.value == hits / trials
    assert (est.ci_low, est.ci_high) == wilson_interval(hits, trials)


def test_mc_containment_spans_several_gather_chunks(monkeypatch):
    # 9 distinct pairs and 5 distinct triples on 24 vertices, one pair twice
    pairs = [(2 * i, 2 * i + 1) for i in range(9)]
    triples = [(18 + i, (19 + i) % 24, (20 + i) % 24) for i in range(5)]
    h = hg(24, *pairs, *triples, pairs[4])
    whole = mc_containment_probability(h, 0.45, Rng(3), trials=1000)
    # 2048 bytes hold 256 rows of 4 pairs or of 2 triples, so the pairs take
    # 3 chunks and the triples 3
    monkeypatch.setattr(estimate, "_MC_GATHER_BYTES", 256 * 2 * 4)
    chunked = mc_containment_probability(h, 0.45, Rng(3), trials=1000)
    hits = mc_oracle_successes(h, 0.45, Rng(3), 1000)
    assert 0 < hits < 1000
    assert chunked == whole
    assert chunked.value == hits / 1000


def test_mc_containment_validation():
    with pytest.raises(ValueError):
        mc_containment_probability(triangles(4), 1.2, Rng(0))
    with pytest.raises(ValueError):
        mc_containment_probability(triangles(4), 0.5, Rng(0), trials=0)


def test_mc_critical_probability_brackets_exact():
    h = singletons(3)
    est = mc_critical_probability(h, Rng(5), trials=4096, tol=1e-2)
    exact = critical_probability(h)
    assert est.ci_low <= exact <= est.ci_high
    assert est.ci_low <= est.value <= est.ci_high
    assert est.trials % 4096 == 0 and est.trials > 0
    # five decided steps, then an ambiguous sixth midpoint stops the search
    assert est == ThresholdEstimate(0.203125, 0.1875, 0.21875, 24576, 5)


def test_mc_critical_probability_stops(monkeypatch):
    # four decided steps leave a bracket no wider than tol
    assert mc_critical_probability(
        singletons(3), Rng(5), trials=4096, tol=0.1
    ) == ThresholdEstimate(0.21875, 0.1875, 0.25, 16384, 5)
    # the fourth midpoint is ambiguous
    assert mc_critical_probability(
        triangles(5), Rng(7), trials=1024, tol=1e-6
    ) == ThresholdEstimate(0.4375, 0.375, 0.5, 4096, 7)
    # the step budget ends the search after its last step
    monkeypatch.setattr(estimate, "_MC_MAX_STEPS", 2)
    assert mc_critical_probability(
        singletons(3), Rng(5), trials=4096, tol=1e-2
    ) == ThresholdEstimate(0.125, 0.0, 0.25, 8192, 5)


def test_mc_critical_probability_degenerate():
    with pytest.raises(ValueError):
        mc_critical_probability(Hypergraph(2), Rng(0))
    est = mc_critical_probability(hg(2, ()), Rng(0))
    assert est.value == 0.0 and est.trials == 0
    # the empty edge's answer needs no samples, but trials=0 is still refused
    with pytest.raises(ValueError, match="trials must be positive"):
        mc_critical_probability(hg(2, ()), Rng(0), trials=0)


# ---------------------------------------------------------------------------
# verification checks


def test_threshold_bound_non_vacuous_case():
    r = verify_threshold_bound(singletons(5), instance="singletons-5")
    assert r.passed and not r.vacuous
    assert r.rhs == pytest.approx(0.8, abs=1e-7)  # 8 * (1/10) * log2(2)
    assert r.lhs == pytest.approx(1 - 2 ** (-1 / 5), abs=1e-7)
    assert r.details["first_moment_ok"]


def test_threshold_bound_vacuous_case():
    r = verify_threshold_bound(triangles(4), instance="triangles-4")
    assert r.passed and r.vacuous
    assert r.rhs == 1.0
    assert r.details["rhs_unclamped"] > 1.0


def test_threshold_bound_uses_injected_values():
    r = verify_threshold_bound(singletons(5), q=0.1, pc=0.13)
    assert r.lhs == 0.13
    assert r.details["q"] == 0.1


def test_highprob_bound_vacuous_shortcut():
    # the derived rate clamps at 1, so containment is certain by definition
    r = verify_highprob_bound(singletons(2), 0.25, Rng(3))
    assert r.passed and r.vacuous
    assert r.lhs == 1.0 and r.trials == 0


def test_highprob_bound_exact_route():
    h = sunflower(0, 8, 2)
    r = verify_highprob_bound(h, 0.5, Rng(3), q=0.004)
    assert not r.vacuous and r.trials == 0
    p = 48.0 * 0.004 * log2(2 / 0.5)
    assert r.details["p"] == pytest.approx(p)
    assert r.lhs == pytest.approx(1 - (1 - p * p) ** 8, abs=1e-12)
    assert r.passed


def test_highprob_rate_is_the_retry_schedule_factor():
    # 48 is the retry run's default sampling factor times its rounds per
    # doubling of ell / eps, both as the process module runs them
    per_doubling = retry_round_count(4, 0.25) - retry_round_count(2, 0.25)
    assert per_doubling == RETRY_ROUNDS_PER_DOUBLING
    tr = run_retry(sunflower(0, 8, 2), 0.05, 0.5, Rng(1))
    assert {r.ell_factor for r in tr.rounds} == {DEFAULT_ELL_FACTOR}
    assert DEFAULT_ELL_FACTOR * per_doubling == 48
    r = verify_highprob_bound(sunflower(0, 8, 2), 0.5, Rng(3), q=0.004)
    assert r.details["rate_unclamped"] == 48.0 * 0.004 * log2(2 / 0.5)


def test_highprob_bound_mc_route_frozen():
    h = sunflower(0, 50, 2)  # 100 vertices forces the sampled route
    r = verify_highprob_bound(h, 0.5, Rng(4), q=0.01, trials=2000)
    assert r.passed and not r.vacuous
    assert r.trials == 2000
    assert r.details["p"] == pytest.approx(0.96)
    assert r.lhs == 1.0  # every one of the 2000 draws contained an edge


def test_highprob_bound_validation():
    with pytest.raises(ValueError):
        verify_highprob_bound(singletons(2), 0.0, Rng(0))
    with pytest.raises(ValueError):
        verify_highprob_bound(singletons(2), 1.0, Rng(0))
    # trials is checked before the route is chosen, so the exact route and
    # the p >= 1 shortcut, which never sample, reject it too
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trials must be positive"):
            verify_highprob_bound(
                sunflower(0, 8, 2), 0.5, Rng(0), q=0.004, trials=trials
            )
        with pytest.raises(ValueError, match="trials must be positive"):
            verify_highprob_bound(singletons(2), 0.25, Rng(0), trials=trials)


def test_fragment_weight_samples_shape_and_determinism():
    h = triangles(5)
    a = fragment_weight_samples(h, 1 / 16, Rng(6), trials=50)
    assert a.shape == (50, 3)
    assert (a >= 0.0).all()
    b = fragment_weight_samples(h, 1 / 16, Rng(6), trials=50)
    assert (a == b).all()


def test_fragment_weight_samples_validation(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(process, "FRAGMENT_BUDGET", 1)
        with pytest.raises(ResourceLimitError):
            fragment_weight_samples(triangles(5), 0.01, Rng(0), trials=1)
    with pytest.raises(ValueError):
        fragment_weight_samples(triangles(5), 0.0, Rng(0))
    with pytest.raises(ValueError):
        fragment_weight_samples(triangles(5), 0.1, Rng(0), trials=0)
    with pytest.raises(ValueError):
        fragment_weight_samples(Hypergraph(3), 0.1, Rng(0))


def test_verify_fragment_weight_frozen():
    reports = verify_fragment_weight(triangles(5), 1 / 16, Rng(6), trials=400)
    assert [r.operation for r in reports] == [
        "fragment_weight_t1", "fragment_weight_t2", "fragment_weight_t3",
    ]
    assert all(r.passed for r in reports)
    for t, r in enumerate(reports, start=1):
        assert r.rhs == 8.0 ** (-t) * comb(3, t)
        assert r.trials == 400
        assert r.tolerance >= 0.0


def test_verify_fragment_weight_accepts_precomputed_samples():
    samples = fragment_weight_samples(triangles(5), 1 / 16, Rng(6), trials=400)
    fresh = verify_fragment_weight(triangles(5), 1 / 16, Rng(6), trials=400)
    reused = verify_fragment_weight(triangles(5), 1 / 16, Rng(6), samples=samples)
    assert [r.lhs for r in fresh] == [r.lhs for r in reused]


def test_verify_spread_not_small_reports_the_check():
    h = triangles(4)
    kappa = spread_of(h).kappa
    assert abs(kappa - 4 ** (1 / 3)) <= 1e-12
    weight, _ = min_cover_weight(h, 1.0 / kappa)
    r = verify_spread_not_small(h, instance="triangles-4")
    assert (r.instance, r.operation, r.passed) == ("triangles-4", "spread_not_small", True)
    assert (r.lhs, r.rhs, r.tolerance) == (float(weight), 1.0, 1e-9)
    assert r.lhs >= 1.0 - 1e-9
    assert (r.vacuous, r.seed, r.trials) == (False, None, 0)
    assert r.details == {"kappa": kappa, "q": 1.0 / kappa, "is_q_small": False}


def test_verify_first_moment():
    r = verify_first_moment(singletons(4), instance="singletons-4")
    assert r.passed
    assert r.lhs == pytest.approx(0.125, abs=1e-7)
    assert r.rhs == pytest.approx(1 - 2 ** (-1 / 4), abs=1e-7)


def test_constant_check_frozen_fractions():
    r = constant_check()
    assert r.passed
    assert r.details["partial"] == "819/4096"
    assert r.details["tail_bound"] == "1/32"
    assert r.details["total"] == "947/4096"
    assert r.lhs == 947 / 4096
    assert r.rhs == 0.25
    assert r.details["domination_ok"]


def test_constant_check_more_terms_still_passes():
    r = constant_check(terms=6)
    assert r.passed
    assert r.details["tail_bound"] == "1/128"
    with pytest.raises(ValueError):
        constant_check(terms=0)


# ---------------------------------------------------------------------------
# report plumbing


def test_parallel_map_preserves_order():
    items = list(range(25))
    assert parallel_map(lambda x: x * x, items) == [x * x for x in items]
    assert parallel_map(lambda x: x * x, items, workers=4) == [
        x * x for x in items
    ]
    assert parallel_map(lambda x: x, []) == []


def test_check_report_as_dict_keys_are_stable():
    r = CheckReport("i", "op", 1.0, 2.0, 0.1, True)
    assert list(r.as_dict()) == [
        "instance", "operation", "lhs", "rhs", "tolerance",
        "passed", "vacuous", "seed", "trials", "details",
    ]


def test_threshold_estimate_is_a_plain_record():
    est = ThresholdEstimate(0.5, 0.4, 0.6, 100, 7)
    assert (est.value, est.ci_low, est.ci_high, est.trials, est.seed) == (
        0.5, 0.4, 0.6, 100, 7,
    )
