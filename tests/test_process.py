"""Fragment operator, bulk rounds, and the three fragmentation processes.

Seeded assertions here were frozen after probing: the seed is part of the
test, and the process is deterministic given (instance, q, eps, seed), so
these are exact regressions rather than statistical claims.
"""

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshlab import process
from threshlab.core import (
    Hypergraph,
    ResourceLimitError,
    Rng,
    TrivialHypergraphError,
    VertexSet,
    lex_key,
    minimize,
)
from threshlab.families import singletons, sunflower, triangles
from threshlab.process import (
    ProcessInvariantError,
    _lift_sample,
    fragment,
    halving_round,
    lex_contained_edge,
    restart_attempt_count,
    restart_rate,
    retry_round_count,
    retry_round_threshold,
    round_sample_size,
    run_halving,
    run_restart,
    run_retry,
    tiebreaker_recovers_fragment,
    trace_rounds_to_csv,
    trace_to_json,
)


def hg(n, *edges):
    return Hypergraph.from_edge_lists(n, edges)


def vs(*indices):
    return VertexSet.from_indices(indices)


# ---------------------------------------------------------------------------
# fragment


def test_fragment_prefers_smaller_residual():
    h = hg(3, (0, 1), (2,))
    t, chosen = fragment(h, vs(0), vs(0, 1))
    assert t == vs(1)
    assert chosen == vs(0, 1)  # (2,) is not inside W | S


def test_fragment_can_collapse_to_empty():
    h = hg(2, (0, 1), (1,))
    t, chosen = fragment(h, vs(1), vs(0, 1))
    assert t == VertexSet()
    assert chosen == vs(1)


def test_fragment_under_empty_w_is_a_minimal_subedge():
    h = hg(3, (0, 1), (0, 2))
    t, chosen = fragment(h, VertexSet(), vs(0, 1))
    assert t == vs(0, 1) and chosen == vs(0, 1)


def test_fragment_breaks_ties_lexicographically():
    h = hg(3, (0, 1), (0, 2))
    # both edges have residual {0} inside W | S = {0,1,2}
    t, chosen = fragment(h, vs(1, 2), vs(0, 1))
    assert t == vs(0)
    assert chosen == vs(0, 1)


def test_fragment_requires_an_edge():
    with pytest.raises(ValueError):
        fragment(hg(2, (0,)), VertexSet(), vs(1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fragment_is_inside_s_and_misses_w(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    h = Hypergraph.from_masks(n, masks)
    s = h.edges[data.draw(st.integers(0, len(masks) - 1))]
    w = VertexSet(data.draw(st.integers(0, (1 << n) - 1)))
    t, chosen = fragment(h, w, s)
    assert t.issubset(s)
    assert t.isdisjoint(w)
    assert chosen.mask in h.masks
    assert chosen.issubset(w | s)
    assert (chosen - w) == t


# ---------------------------------------------------------------------------
# tiebreaker recovery


def test_lex_contained_edge():
    h = hg(3, (1, 2), (0, 1))
    assert lex_contained_edge(h, VertexSet.full(3)) == vs(0, 1)
    with pytest.raises(ValueError):
        lex_contained_edge(h, vs(0))


def test_recovery_worked_example():
    h = hg(2, (0, 1))
    assert tiebreaker_recovers_fragment(h, vs(0), vs(0, 1))


def test_recovery_with_empty_fragment():
    h = hg(1, (0,))
    assert tiebreaker_recovers_fragment(h, vs(0), vs(0))


def greedy_largest_chooser(h, y):
    """A deliberately different selector: most vertices first, then lex."""
    best = None
    for e in h.edges:
        if e.issubset(y) and (best is None or (len(e), e.key()) > (len(best), best.key())):
            best = e
    if best is None:
        raise ValueError("no contained edge")
    return best


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_recovery_holds_for_any_in_family_chooser(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    h = Hypergraph.from_masks(n, masks)
    s = h.edges[data.draw(st.integers(0, len(masks) - 1))]
    w = VertexSet(data.draw(st.integers(0, (1 << n) - 1)))
    assert tiebreaker_recovers_fragment(h, w, s)
    assert tiebreaker_recovers_fragment(h, w, s, chooser=greedy_largest_chooser)


def test_recovery_rejects_cheating_chooser():
    h = hg(3, (0,), (1, 2))
    with pytest.raises(ValueError):
        tiebreaker_recovers_fragment(
            h, VertexSet(), vs(0), chooser=lambda hh, y: vs(1, 2)
        )


# ---------------------------------------------------------------------------
# halving_round vs the per-edge operator


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_halving_round_matches_per_edge_fragment(data):
    # edges in any order, duplicates and the empty edge included
    n = data.draw(st.integers(min_value=1, max_value=7))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    h = Hypergraph.from_masks(n, data.draw(st.permutations(masks)))
    w = VertexSet(data.draw(st.integers(0, (1 << n) - 1)))
    collapse, frags = halving_round(h, w)
    if collapse is not None:
        assert frags == ()
        assert collapse == lex_contained_edge(h, w)
        for s in h.edges:
            t, chosen = fragment(h, w, s)
            assert t == VertexSet()
            assert chosen == collapse  # lex-least empty-residual edge
    else:
        assert frags == tuple(fragment(h, w, s)[0] for s in h.edges)


def test_halving_round_collapse_edge_is_lex_least():
    h = hg(3, (1,), (0,), (2,))
    collapse, frags = halving_round(h, VertexSet.full(3))
    assert collapse == vs(0)
    assert frags == ()


def test_halving_round_budget(monkeypatch):
    # The budget is read when a round runs, so a patched constant applies.
    monkeypatch.setattr(process, "FRAGMENT_BUDGET", 1)
    h = sunflower(0, 8, 2)
    with pytest.raises(ResourceLimitError):
        halving_round(h, VertexSet())


# ---------------------------------------------------------------------------
# lifting a sample onto the active vertices


def lift_reference(active_mask, picked):
    active = lex_key(active_mask)
    w = 0
    for i in lex_key(picked.mask):
        w |= 1 << active[i]
    return w


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lift_sample_matches_a_loop_over_the_active_vertices(data):
    width = data.draw(st.sampled_from([1, 7, 8, 9, 64, 65, 400, 1000, 1030]))
    kind = data.draw(st.sampled_from(["full", "low", "high", "sparse", "dense"]))
    if kind == "full":
        active = (1 << width) - 1
    elif kind == "low":
        active = (1 << data.draw(st.integers(0, width))) - 1
    elif kind == "high":
        active = ((1 << width) - 1) ^ ((1 << data.draw(st.integers(1, width))) - 1)
    elif kind == "sparse":
        bits = data.draw(st.sets(st.integers(0, width - 1), max_size=12))
        active = sum(1 << v for v in bits)
    else:
        active = data.draw(st.integers(0, (1 << width) - 1))
    picked = VertexSet(data.draw(st.integers(0, (1 << active.bit_count()) - 1)))
    assert _lift_sample(active, picked) == lift_reference(active, picked)


# ---------------------------------------------------------------------------
# schedule arithmetic


# Unit-interval floats for eps and q: any float in (0, 1), subnormals
# included, plus the extremes and exact powers of two drawn on purpose.
unit_floats = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1 - 2**-53, 0.1, 0.5]),
    st.integers(1, 1074).map(lambda k: 2.0**-k),
)
factors = st.one_of(
    st.sampled_from([8, 3.5, 1.1]),
    st.floats(1.0, 1e12, exclude_min=True),
)


@settings(max_examples=300, deadline=None)
@given(factors, unit_floats, st.integers(0, 10**6))
def test_round_sample_size_exact_ceiling(ell_factor, q, n):
    # float 0.1 is a shade above 1/10, so the exact product tops 8 and the
    # ceiling honestly lands at 9
    assert round_sample_size(8, 0.1, 10) == 9
    # with exactly representable q the product is exact and no step is added
    assert round_sample_size(8, 0.0625, 10) == 5
    assert round_sample_size(8, 0.5, 3) == 3  # capped at the ground size
    assert round_sample_size(2, 0.3, 5) == 3
    assert round_sample_size(8, 0.9, 10) == 10
    # drawn inputs against the ceiling of the exact Fraction product
    oracle = min(n, ceil(Fraction(ell_factor) * Fraction(q) * n))
    assert round_sample_size(ell_factor, q, n) == oracle


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6), unit_floats)
def test_retry_round_count(ell, eps):
    assert retry_round_count(2, 0.5) == 12  # 6 * floor(log2 4)
    assert retry_round_count(1, 0.5) == 6
    assert retry_round_count(4, 0.5) == 18
    assert retry_round_count(8, 0.25) == 30
    with pytest.raises(ValueError):
        retry_round_count(0, 0.5)
    with pytest.raises(ValueError):
        retry_round_count(2, 1.0)
    # drawn inputs against the floor of the exact Fraction ratio
    fr = Fraction(ell) / Fraction(eps)
    oracle = 6 * (fr.numerator // fr.denominator).bit_length() - 6
    assert retry_round_count(ell, eps) == oracle


def test_retry_round_threshold_exact():
    assert retry_round_threshold(2) == Fraction(1, 32)
    assert retry_round_threshold(1) == Fraction(1, 4)
    assert retry_round_threshold(4) == Fraction(33, 2048)
    with pytest.raises(ValueError):
        retry_round_threshold(2, ell_factor=1.0)


@settings(max_examples=300, deadline=None)
@given(unit_floats)
def test_restart_attempt_count(eps):
    assert restart_attempt_count(0.5) == 1
    assert restart_attempt_count(0.6) == 1
    assert restart_attempt_count(0.25) == 2
    assert restart_attempt_count(0.125) == 3
    assert restart_attempt_count(0.1) == 4
    with pytest.raises(ValueError):
        restart_attempt_count(0.0)
    with pytest.raises(ValueError):
        restart_attempt_count(1.0)
    # drawn inputs against a search over powers of two in Fractions
    k = 0
    while Fraction(2) ** k < 1 / Fraction(eps):
        k += 1
    assert restart_attempt_count(eps) == max(1, k)


def test_restart_rate():
    assert restart_rate(1, 0.05) == pytest.approx(0.4)
    assert restart_rate(4, 0.05) == 1.0  # 8 * 0.05 * 3 clamps
    with pytest.raises(ValueError):
        restart_rate(0, 0.05)


# ---------------------------------------------------------------------------
# run_halving


def test_halving_found_run_frozen():
    tr = run_halving(singletons(2), 0.5, Rng(3))
    assert tr.found and tr.found_edge == vs(0)
    assert tr.contained
    assert len(tr.rounds) == 1 and tr.rounds[0].outcome == "found"
    assert tr.successes == 0
    assert tr.u_edges == () and tr.u_weight == 0.0
    assert tr.dichotomy_ok  # found, and the empty family covers nothing


def test_halving_undercover_run_frozen():
    tr = run_halving(sunflower(0, 8, 2), 0.01, Rng(1))
    assert not tr.found
    assert tr.u_undercovers
    assert len(tr.rounds) == 2 == tr.planned_rounds
    assert len(tr.u_edges) == 8
    assert tr.u_weight == pytest.approx(0.0206)  # 2 singletons + 6 pairs
    assert tr.dichotomy_ok


def test_halving_trace_bookkeeping():
    tr = run_halving(sunflower(0, 8, 2), 0.01, Rng(1))
    union = 0
    for r in tr.rounds:
        union |= r.w.mask
        assert sum(v for _, v in r.per_t_weight) == pytest.approx(r.exiled_weight)
        half = r.ell // 2
        assert all(len(e) > half for e in r.exiled)
    assert union == tr.total_w.mask
    assert tr.successes == sum(1 for r in tr.rounds if r.outcome == "ok")
    assert tr.ell_start == 2 and tr.planned_rounds == 2


def test_halving_is_deterministic_and_minimization_invariant():
    h = sunflower(0, 8, 2)
    a = trace_to_json(run_halving(h, 0.01, Rng(1)))
    b = trace_to_json(run_halving(h, 0.01, Rng(1)))
    assert a == b
    fat = Hypergraph(h.ground_size, h.edges + (h.edges[0], h.edges[0] | h.edges[1]))
    assert trace_to_json(run_halving(fat, 0.01, Rng(1))) == a
    assert trace_to_json(run_halving(h, 0.01, Rng(2))) != a


def test_halving_budget_and_validation(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(process, "FRAGMENT_BUDGET", 1)
        with pytest.raises(ResourceLimitError):
            run_halving(sunflower(0, 8, 2), 0.01, Rng(0))
        with pytest.raises(ResourceLimitError):
            run_retry(sunflower(0, 8, 2), 0.01, 0.5, Rng(0))
    with pytest.raises(ValueError):
        run_halving(singletons(2), 0.0, Rng(0))
    with pytest.raises(ValueError):
        run_halving(singletons(2), 1.0, Rng(0))
    with pytest.raises(ValueError):
        run_halving(singletons(2), 0.1, Rng(0), ell_factor=1)
    with pytest.raises(ValueError):
        run_halving(Hypergraph(3), 0.1, Rng(0))
    with pytest.raises(TrivialHypergraphError):
        run_halving(hg(2, ()), 0.1, Rng(0))


# ---------------------------------------------------------------------------
# run_retry


def test_retry_runs_the_full_schedule():
    tr = run_retry(sunflower(0, 8, 2), 0.05, 0.5, Rng(1))
    assert tr.planned_rounds == retry_round_count(2, 0.5) == 12
    assert len(tr.rounds) == 12  # no early exit, even after found
    assert tr.found and tr.successes == 12
    assert tr.u_weight <= 947 / 2048


def test_retry_undercover_run_frozen():
    tr = run_retry(sunflower(0, 8, 2), 0.01, 0.5, Rng(1))
    assert not tr.found
    assert tr.u_undercovers
    assert tr.successes == 12
    assert tr.u_weight == pytest.approx(0.0206)


def test_retry_failure_round_frozen():
    # 15 pairs on a 6-clique, padded with isolated vertices: W can miss the
    # clique entirely, making the would-be exile (15 pairs at q^2) outweigh
    # the ell=2 threshold 1/32.  Seed 22 hits that in round 1.
    edges = [tuple(c) for c in combinations(range(6), 2)]
    h = Hypergraph.from_edge_lists(200, edges)
    tr = run_retry(h, 0.05, 0.5, Rng(22))
    first = tr.rounds[0]
    assert first.outcome == "failure"
    assert first.exiled == ()  # nothing joins U on failure
    assert first.threshold == float(Fraction(1, 32))
    assert first.exiled_weight == pytest.approx(15 * 0.05**2)
    assert first.survivor_count == 15
    assert tr.successes == 11 and tr.found


def test_retry_setminus_mode_keeps_invariants():
    edges = [tuple(c) for c in combinations(range(6), 2)]
    h = Hypergraph.from_edge_lists(200, edges)
    tr = run_retry(h, 0.05, 0.5, Rng(22), failure_mode="setminus")
    assert tr.planned_rounds == 12
    assert tr.found or tr.u_undercovers


def test_retry_validation():
    with pytest.raises(ValueError):
        run_retry(singletons(2), 0.1, 0.5, Rng(0), failure_mode="drop")
    with pytest.raises(ValueError):
        run_retry(singletons(2), 0.1, 1.5, Rng(0))


def test_retry_is_deterministic():
    h = sunflower(0, 8, 2)
    a = trace_to_json(run_retry(h, 0.05, 0.25, Rng(9)))
    b = trace_to_json(run_retry(h, 0.05, 0.25, Rng(9)))
    assert a == b


# ---------------------------------------------------------------------------
# run_restart


def test_restart_miss_run_frozen():
    tr = run_restart(sunflower(0, 8, 2), 0.01, 0.125, Rng(2))
    assert tr.planned_rounds == 3
    assert len(tr.rounds) == 3
    assert not tr.found and not tr.contained
    assert tr.u_edges == () and tr.u_weight == 0.0
    assert all(r.outcome == "miss" for r in tr.rounds)


def test_restart_found_run_frozen():
    tr = run_restart(sunflower(0, 8, 2), 0.04, 0.5, Rng(0))
    assert tr.found and tr.contained
    assert len(tr.rounds) == 1
    assert tr.rounds[0].outcome == "found"
    assert tr.found_edge is not None
    assert tr.found_edge.issubset(tr.total_w)
    assert tr.found_edge.mask in sunflower(0, 8, 2).masks


def test_restart_found_always_equals_contained():
    h = sunflower(0, 8, 2)
    for seed in range(10):
        tr = run_restart(h, 0.02, 0.25, Rng(seed))
        assert tr.found == tr.contained


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_restart_found_edge_is_the_lex_least_edge_in_the_union(data):
    n = data.draw(st.integers(2, 9))
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=8))
    h = Hypergraph.from_masks(n, masks)
    q = data.draw(st.floats(0.01, 0.2))
    tr = run_restart(h, q, 0.1, Rng(data.draw(st.integers(0, 2**32))))
    hd = minimize(h)
    union = VertexSet()
    for r in tr.rounds:
        union |= r.w
        assert (r.outcome == "found") == any(e.issubset(union) for e in hd.edges)
    assert union == tr.total_w
    assert tr.found_edge == (lex_contained_edge(hd, union) if tr.found else None)


def test_restart_validation():
    with pytest.raises(ValueError):
        run_restart(singletons(2), 0.5, 1.0, Rng(0))
    with pytest.raises(TrivialHypergraphError):
        run_restart(hg(2, ()), 0.1, 0.5, Rng(0))


# ---------------------------------------------------------------------------
# serialization


def test_trace_json_shape():
    tr = run_halving(sunflower(0, 8, 2), 0.01, Rng(1))
    payload = json.loads(trace_to_json(tr))
    assert payload["variant"] == "halving"
    assert payload["found"] is False
    assert payload["u_undercovers"] is True
    assert len(payload["rounds"]) == len(tr.rounds)
    assert payload["rounds"][0]["per_t_weight"]  # sizes recorded per round


def test_trace_csv_shape():
    tr = run_retry(sunflower(0, 8, 2), 0.05, 0.5, Rng(1))
    text = trace_rounds_to_csv(tr)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "index,ell,ground_remaining,w_size,exiled_count,exiled_weight,"
        "per_t_weight,threshold,outcome,survivor_count"
    )
    assert len(lines) == 1 + len(tr.rounds)
    assert all(line.count(",") == 9 for line in lines)


def test_process_invariant_error_is_importable():
    # the error type is part of the public surface even though a correct
    # engine never raises it
    assert issubclass(ProcessInvariantError, Exception)


# ---------------------------------------------------------------------------
# whole traces, byte for byte


def _cliques_on(n, *cores):
    """Pairs of a clique on each run of vertices, on a ground of size n."""
    edges = []
    start = 0
    for k in cores:
        edges += combinations(range(start, start + k), 2)
        start += k
    return Hypergraph.from_edge_lists(n, edges)


# (instance, q, ell_factor, seeds).  Two disjoint 12-cliques at seed 2 fail
# retry round 1 at both factors: W misses the second clique, whose pairs are
# the heavy exiles, and meets the first in one vertex, whose other pairs
# fragment to singletons, so the "fragment" and "setminus" modes keep
# different families.  The padded 6-clique at seed 22 fails round 1 too
# (test_retry_failure_round_frozen).
PINNED_CELLS = (
    (sunflower(0, 8, 2), 0.01, 8, (0, 1, 2)),
    (sunflower(0, 8, 2), 0.05, 3.5, (0, 1, 2)),
    (sunflower(1, 4, 3), 0.05, 8, (0, 1, 2)),
    (triangles(5), 0.05, 3.5, (0, 1, 2)),
    (_cliques_on(200, 6), 0.05, 8, (22,)),
    (_cliques_on(50, 12, 12), 0.0225, 8, (2,)),
    (_cliques_on(50, 12, 12), 0.18 / 3.5, 3.5, (2,)),
)

# sha256 of the JSON and CSV text of every trace of one variant over
# PINNED_CELLS, in order.
PINNED_DIGESTS = {
    "halving": "1a81ddcc0410b03aa40344dad3fdc8a590d35ae33bdd87731ca87def9f7ed88b",
    "retry-fragment": "8f6ff67a5bfba5cb9fbec93f57a5111cfc17f3c5cafc673ce81d5a8d68a1c157",
    "retry-setminus": "fc8e36f2f4ab83f1b90fc8d52d50c275c0f091c1244b617199799ae35b6ac404",
    "restart": "55ad500da0d54bcc6a84261e614fbfec71c348d07c06311fd7bb82058ab8c66e",
}


def _pinned_traces():
    out = {name: [] for name in PINNED_DIGESTS}
    for h, q, factor, seeds in PINNED_CELLS:
        for seed in seeds:
            out["halving"].append(run_halving(h, q, Rng(seed), ell_factor=factor))
            for mode in ("fragment", "setminus"):
                out[f"retry-{mode}"].append(
                    run_retry(h, q, 0.25, Rng(seed), ell_factor=factor, failure_mode=mode)
                )
            out["restart"].append(run_restart(h, q, 0.25, Rng(seed)))
    return out


def test_pinned_traces_are_byte_identical():
    traces = _pinned_traces()
    digests = {}
    for name, trs in traces.items():
        text = "".join(trace_to_json(tr) + trace_rounds_to_csv(tr) for tr in trs)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == PINNED_DIGESTS
    # The grid reaches every branch the digests are meant to pin.
    for name in ("halving", "retry-fragment", "retry-setminus"):
        assert any(r.exiled for tr in traces[name] for r in tr.rounds)
        assert any(tr.found for tr in traces[name])
        assert any(not tr.found for tr in traces[name])
    for mode in ("fragment", "setminus"):
        assert any(r.outcome == "failure" for tr in traces[f"retry-{mode}"] for r in tr.rounds)
    assert any(
        trace_to_json(a) != trace_to_json(b)
        for a, b in zip(traces["retry-fragment"], traces["retry-setminus"])
    )
    assert {r.ell_factor for tr in traces["retry-fragment"] for r in tr.rounds} == {8.0, 3.5}
    assert {tr.found for tr in traces["restart"]} == {True, False}
