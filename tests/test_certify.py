"""Cover weights, smallness certificates, and spread.

Expected values come from two places that share no code with the package
search: closed forms (worked out per family below) and a set-cover dynamic
program over covered-edge states defined in this file.  The branch and
bound, the assignment enumerator, and the DP must all agree exactly.
"""

import json
import sys
from dataclasses import replace
from fractions import Fraction
from math import nextafter, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import threshlab.certify as certify
from threshlab.certify import (
    cover_from_json,
    cover_to_json,
    cover_weight,
    exhaustive_min_cover_weight,
    is_q_small,
    max_small_q,
    min_cover_weight,
    read_cover,
    spread_of,
    validate_cover,
    write_cover,
)
from threshlab.core import (
    FormatError,
    Hypergraph,
    ResourceLimitError,
    TrivialHypergraphError,
    VertexSet,
    iter_submasks,
    minimize,
    undercovers,
)
from threshlab.estimate import verify_spread_not_small
from threshlab.families import (
    hamilton_cycles,
    perfect_matchings,
    singletons,
    sunflower,
    triangles,
)

QTOL = 2e-9  # bisection tolerance 1e-9 plus closed-form float slack


def hg(n, *edges):
    return Hypergraph.from_edge_lists(n, edges)


# ---------------------------------------------------------------------------
# oracle: minimum cover weight as a set-cover DP over covered-edge states.
# Candidates are submasks of minimized edges (anything else covers nothing
# it could not cover cheaper); dp[state] is the least weight covering the
# edge set `state`, filled in increasing state order.


def dp_min_cover_weight(h, q):
    hm = minimize(h)
    masks = hm.masks
    k = len(masks)
    if k == 0:
        return Fraction(0)
    qf = Fraction(q)
    cov = {}
    for j, m in enumerate(masks):
        for sub in iter_submasks(m):
            cov[sub] = cov.get(sub, 0) | (1 << j)
    cands = [(qf ** c.bit_count(), hits) for c, hits in cov.items()]
    full = (1 << k) - 1
    dp = [None] * (1 << k)
    dp[0] = Fraction(0)
    for state in range(full):
        cur = dp[state]
        if cur is None:
            continue
        un = ~state & full
        j = (un & -un).bit_length() - 1
        for w, hits in cands:
            if not (hits >> j) & 1:
                continue
            ns = state | hits
            nw = cur + w
            if dp[ns] is None or nw < dp[ns]:
                dp[ns] = nw
    return dp[full]


# ---------------------------------------------------------------------------
# cover_weight


def test_cover_weight_worked_example():
    edges = (VertexSet.from_indices([0]), VertexSet.from_indices([1, 2]))
    w = cover_weight(edges, 0.25)
    assert w == Fraction(5, 16)
    assert float(w) == 0.3125


def test_cover_weight_empty_member_weighs_one():
    assert cover_weight((VertexSet(),), 0.3) == 1


def test_cover_weight_no_members_weighs_zero():
    assert cover_weight((), 0.9) == 0


def test_cover_weight_rejects_bad_q():
    with pytest.raises(ValueError):
        cover_weight((), 0.0)
    with pytest.raises(ValueError):
        cover_weight((), 1.5)


# ---------------------------------------------------------------------------
# min_cover_weight and friends on worked examples


def test_min_cover_single_edge():
    w, witness = min_cover_weight(hg(1, (0,)), 0.3)
    assert w == Fraction(0.3)
    assert witness == (VertexSet.from_indices([0]),)


def test_min_cover_empty_hypergraph():
    assert min_cover_weight(Hypergraph(3), 0.5) == (Fraction(0), ())


def test_single_edge_is_small_exactly_up_to_half():
    small, cover = is_q_small(hg(1, (0,)), 0.5)
    assert small and cover.weight == 0.5
    small, _ = is_q_small(hg(1, (0,)), 0.6)
    assert not small


def test_max_small_q_single_vertex():
    assert abs(max_small_q(hg(1, (0,))) - 0.5) <= QTOL


# ---------------------------------------------------------------------------
# frozen thresholds
#
# singletons(k): every edge needs its own singleton, so the best cover is the
# family itself; k q = 1/2 at q = 1/(2k).
# sunflower(0,k,2): per-edge best member is the full pair; k q^2 = 1/2.
# sunflower(1,3,2): min(q, 3 q^3) reaches 1/2 last at 3 q^3 = 1/2.
# sunflower(2,5,2): the shared core gives weight q^2; q = 2^(-1/2).
# triangles(4):   the family itself, 4 q^3 = 1/2 at exactly q = 1/2.
# triangles(5):   likewise 10 q^3 = 1/2.
# matchings(4):   three disjoint pairs, 3 q^2 = 1/2.
# hamilton(4):    three 4-edge cycles, 3 q^4 = 1/2 (DP-checked boundary).


@pytest.mark.parametrize("k", range(1, 9))
def test_max_small_q_singletons_closed_form(k):
    assert abs(max_small_q(singletons(k)) - 1 / (2 * k)) <= QTOL


@pytest.mark.parametrize(
    "h,expected",
    [
        (sunflower(0, 8, 2), 0.25),
        (sunflower(1, 3, 2), (1 / 6) ** (1 / 3)),
        (sunflower(2, 5, 2), 2 ** -0.5),
        (triangles(4), 0.5),
        (triangles(5), (1 / 20) ** (1 / 3)),
        (perfect_matchings(4), 6 ** -0.5),
        (hamilton_cycles(4), (1 / 6) ** 0.25),
    ],
    ids=["sunflower-0-8-2", "sunflower-1-3-2", "sunflower-2-5-2",
         "triangles-4", "triangles-5", "matchings-4", "hamilton-4"],
)
def test_max_small_q_frozen(h, expected):
    assert abs(max_small_q(h) - expected) <= QTOL
    # the closed form really is the boundary: the DP crosses 1/2 there
    assert dp_min_cover_weight(h, expected * (1 - 1e-7)) <= Fraction(1, 2)
    assert dp_min_cover_weight(h, expected * (1 + 1e-7)) > Fraction(1, 2)


@pytest.mark.parametrize(
    "h,q,expected",
    [
        (triangles(4), 0.5, Fraction(1, 2)),
        (triangles(5), 0.25, Fraction(5, 32)),
        (perfect_matchings(4), 0.25, Fraction(3, 16)),
        (hamilton_cycles(4), 0.5, Fraction(3, 16)),
        (sunflower(1, 3, 2), 0.25, Fraction(3, 64)),
        (sunflower(2, 5, 2), 0.6, Fraction(0.6) ** 2),
        (singletons(5), 0.3, Fraction(1)),  # the empty set beats 5 q > 1
    ],
    ids=["triangles-4", "triangles-5", "matchings-4", "hamilton-4",
         "sunflower-1-3-2", "sunflower-2-5-2-core", "singletons-empty-set"],
)
def test_min_cover_weight_frozen_exact(h, q, expected):
    w, witness = min_cover_weight(h, q)
    assert w == expected
    assert cover_weight(witness, q) == w
    assert undercovers(Hypergraph(h.ground_size, witness), h)
    assert dp_min_cover_weight(h, q) == expected


# ---------------------------------------------------------------------------
# three-route agreement


# The last three stretch the search's integer weights: 2^-1074 (the least
# positive float) and 2^-60 give large common denominators, and 1 - 2^-53
# gives ratios that floats round together.
GRID_QS = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0, 5e-324, 2**-60, 1 - 2**-53)
ORACLE_ASSIGNMENTS = 1 << 16


@pytest.mark.parametrize(
    "h",
    [singletons(4), sunflower(0, 4, 2), sunflower(1, 3, 2),
     triangles(4), perfect_matchings(4), hamilton_cycles(4)],
    ids=["singletons-4", "sunflower-0-4-2", "sunflower-1-3-2",
         "triangles-4", "matchings-4", "hamilton-4"],
)
def test_branch_and_bound_matches_dp_and_enumeration(h):
    for q in GRID_QS:
        w, witness = min_cover_weight(h, q)
        assert w == dp_min_cover_weight(h, q)
        we, _ = exhaustive_min_cover_weight(h, q, max_assignments=1 << 16)
        assert w == we
        assert cover_weight(witness, q) == w
        assert undercovers(Hypergraph(h.ground_size, witness), h)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_instances_agree_across_all_routes(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    edge_count = data.draw(st.integers(min_value=1, max_value=5))
    masks = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=(1 << n) - 1),
            min_size=edge_count, max_size=edge_count,
        )
    )
    q = data.draw(
        st.sampled_from((0.15, 0.33, 0.5, 0.8, 0.1, 5e-324, 2**-60, 1 - 2**-53))
    )
    h = Hypergraph.from_masks(n, masks)
    # Only instances the enumeration oracle can afford: it assigns each
    # minimized edge one of its 2^|S| submasks.
    assume(prod(1 << m.bit_count() for m in minimize(h).masks) <= ORACLE_ASSIGNMENTS)
    w, witness = min_cover_weight(h, q)
    assert w == dp_min_cover_weight(h, q)
    we, _ = exhaustive_min_cover_weight(h, q, max_assignments=ORACLE_ASSIGNMENTS)
    assert w == we
    assert cover_weight(witness, q) == w
    assert undercovers(Hypergraph(n, witness), h)


def test_weight_is_monotone_in_q():
    h = triangles(4)
    weights = [min_cover_weight(h, q)[0] for q in (0.2, 0.4, 0.6, 0.8)]
    assert weights == sorted(weights)


def test_threshold_ignores_padding_and_redundant_edges():
    h = sunflower(1, 3, 2)
    base = max_small_q(h)
    assert max_small_q(Hypergraph(h.ground_size + 4, h.edges)) == base
    fat = Hypergraph(h.ground_size, h.edges + (h.edges[0] | h.edges[1], h.edges[2]))
    assert max_small_q(fat) == base


# ---------------------------------------------------------------------------
# resource limits and degenerate inputs


def test_pool_budget_enforced(monkeypatch):
    # The first call builds and caches the pool; the budget read at call
    # time must still refuse it.
    min_cover_weight(triangles(4), 0.3)
    monkeypatch.setattr(certify, "POOL_BUDGET", 10)
    with pytest.raises(ResourceLimitError):
        min_cover_weight(triangles(4), 0.3)
    with pytest.raises(ResourceLimitError):
        max_small_q(triangles(4))


def test_node_budget_enforced(monkeypatch):
    monkeypatch.setattr(certify, "NODE_BUDGET", 0)
    with pytest.raises(ResourceLimitError):
        min_cover_weight(triangles(5), 0.3)
    with pytest.raises(ResourceLimitError):
        verify_spread_not_small(triangles(4))


def test_exact_tie_prunes_at_the_root(monkeypatch):
    # At q = 1/2 the least weight per newly covered edge is 1/8 for every
    # triangle of K4 (q^3/1 = q^2/2), so the root bound 4 * 1/8 = 1/2 equals
    # the incumbent 4q^3 exactly and the search must stop after one node.
    monkeypatch.setattr(certify, "NODE_BUDGET", 1)
    w, witness = min_cover_weight(triangles(4), 0.5)
    assert w == Fraction(1, 2)
    assert cover_weight(witness, 0.5) == w


def test_cover_search_leaves_the_recursion_limit_alone(monkeypatch):
    # The limit is process-global and the suite runs searches in worker
    # threads, so a search that raised and restored it could leave it raised.
    def refuse(limit):
        raise AssertionError(f"cover search set the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    h = triangles(5)
    w, witness = min_cover_weight(h, 0.3)
    assert w == dp_min_cover_weight(h, 0.3)
    assert undercovers(Hypergraph(h.ground_size, witness), h)


def test_exhaustive_budget_enforced():
    with pytest.raises(ResourceLimitError):
        exhaustive_min_cover_weight(triangles(5), 0.3)  # 8^10 assignments


def test_max_small_q_degenerate_inputs():
    with pytest.raises(ValueError):
        max_small_q(Hypergraph(2))
    with pytest.raises(TrivialHypergraphError):
        max_small_q(hg(2, ()))
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            max_small_q(hg(1, (0,)), tol=tol)


def test_bisect_stops_on_adjacent_floats():
    # 1e-300 is far below the float spacing at 0.3, so the bracket stops
    # shrinking at two adjacent floats; the search once spun there forever
    calls = 0

    def below(x):
        nonlocal calls
        calls += 1
        if calls > 2000:
            raise AssertionError("the bisection did not stop")
        return x < 0.3

    lo, hi = certify._bisect(below, 1e-300)
    assert lo < 0.3 <= hi and nextafter(lo, 1.0) == hi


def test_bisect_stops_where_the_predicate_cannot_decide():
    assert certify._bisect(lambda x: None, 1e-9) == (0.0, 1.0)
    assert certify._bisect(lambda x: None if x < 0.3 else False, 1e-9) == (0.0, 0.5)


def test_min_cover_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        min_cover_weight(hg(1, (0,)), 0.0)
    with pytest.raises(ValueError):
        min_cover_weight(hg(1, (0,)), 1.0001)


# ---------------------------------------------------------------------------
# spread


def brute_spread(h):
    """The definition, verbatim: min over nonempty Y inside an edge of
    (edge_total / count)^(1/|Y|)."""
    distinct = sorted(set(h.masks))
    m = len(distinct)
    counts = {}
    for mk in distinct:
        for sub in iter_submasks(mk):
            if sub:
                counts[sub] = counts.get(sub, 0) + 1
    return min((m / c) ** (1.0 / s.bit_count()) for s, c in counts.items())


@pytest.mark.parametrize(
    "h,kappa",
    [
        (singletons(5), 5.0),
        (triangles(4), 4 ** (1 / 3)),
        (triangles(5), 10 ** (1 / 3)),
        (sunflower(0, 8, 2), 8 ** 0.5),
        (sunflower(1, 3, 2), 1.0),
        (perfect_matchings(4), 3 ** 0.5),
        (hamilton_cycles(4), 1.5 ** 0.5),
    ],
    ids=["singletons-5", "triangles-4", "triangles-5", "sunflower-0-8-2",
         "sunflower-1-3-2", "matchings-4", "hamilton-4"],
)
def test_spread_frozen_values(h, kappa):
    sw = spread_of(h)
    assert abs(sw.kappa - kappa) <= 1e-12
    assert abs(sw.kappa - brute_spread(h)) <= 1e-12
    # the witness attains the reported value
    attained = (sw.edge_total / sw.count) ** (1.0 / len(sw.witness))
    assert abs(sw.kappa - attained) <= 1e-12


def test_spread_witness_details():
    sw = spread_of(triangles(4))
    assert sw.witness.indices() == (0, 1, 3)  # a full triangle, count 1
    assert (sw.count, sw.edge_total) == (1, 4)
    sw = spread_of(sunflower(1, 3, 2))
    assert sw.witness.indices() == (0,)  # the shared core vertex
    assert (sw.count, sw.edge_total) == (3, 3)
    sw = spread_of(hg(2, (0, 1)))
    assert sw.kappa == 1.0
    assert sw.witness.indices() == (0,)


def test_spread_counts_distinct_edges_only():
    h = hg(3, (0, 1), (0, 1), (2,))
    assert spread_of(h).edge_total == 2


def test_spread_degenerate_inputs(monkeypatch):
    with pytest.raises(ValueError):
        spread_of(Hypergraph(2))
    with pytest.raises(ValueError):
        spread_of(hg(2, ()))
    monkeypatch.setattr(certify, "SPREAD_BUDGET", 10)
    with pytest.raises(ResourceLimitError):
        spread_of(triangles(4))


def test_verify_spread_not_small_with_shared_core():
    # kappa = 1 pins q at 1, where any nonempty cover weighs at least 1
    r = verify_spread_not_small(sunflower(1, 3, 2))
    assert r.passed
    assert r.details["q"] == 1.0
    assert r.lhs >= 1.0


# ---------------------------------------------------------------------------
# certificate serialization and validation


def make_cover(h, q):
    return is_q_small(h, q)[1]


def test_cover_json_round_trip(tmp_path):
    cover = make_cover(triangles(4), 0.5)
    again = cover_from_json(cover_to_json(cover))
    assert again == cover
    path = tmp_path / "cert.json"
    write_cover(cover, path)
    assert read_cover(path) == cover


def test_cover_from_json_rejects_garbage():
    for text in ("", "[]", "{\"q\": 0.5}", "{not json"):
        with pytest.raises(FormatError):
            cover_from_json(text)


def test_cover_from_json_caps_sizes_before_building_masks():
    doc = {"ground_size": 4, "q": 0.5, "weight": 0.25, "edges": [[0, 1]]}
    for bad in ({"ground_size": 10**12}, {"ground_size": -1},
                {"edges": [[0, 10**12]]}, {"edges": [[-1]]},
                {"ground_size": 1 << 20, "edges": [[(1 << 20) - 1]] * 300}):
        with pytest.raises(FormatError):
            cover_from_json(json.dumps({**doc, **bad}))


def test_validate_cover_accepts_the_real_thing():
    h = triangles(4)
    ok, reasons = validate_cover(h, make_cover(h, 0.5))
    assert ok and reasons == []


def test_validate_cover_rejects_tampering():
    h = triangles(4)
    cover = make_cover(h, 0.5)

    ok, reasons = validate_cover(h, replace(cover, weight=cover.weight / 2))
    assert not ok and any("weight" in r for r in reasons)

    ok, reasons = validate_cover(h, replace(cover, weight=float("nan")))
    assert not ok and any("stored weight nan differs" in r for r in reasons)

    ok, reasons = validate_cover(h, replace(cover, edges=cover.edges[:1]))
    assert not ok and any("no cover member" in r for r in reasons)

    ok, reasons = validate_cover(h, replace(cover, ground_size=7))
    assert not ok and any("ground size" in r for r in reasons)

    ok, reasons = validate_cover(h, replace(cover, q=0.0))
    assert not ok

    outside = VertexSet.from_indices([1, h.ground_size])
    ok, reasons = validate_cover(h, replace(cover, edges=cover.edges + (outside,)))
    assert not ok
    assert reasons == [f"member {{1, {h.ground_size}}} outside ground set of size "
                       f"{h.ground_size}"]


def test_validate_cover_rejects_heavy_cover():
    h = triangles(4)
    cover = make_cover(h, 0.51)  # best cover, but its weight tops 1/2
    ok, reasons = validate_cover(h, cover)
    assert not ok and any("exceeds 1/2" in r for r in reasons)


def test_cover_as_hypergraph():
    cover = make_cover(singletons(3), 0.1)
    g = cover.as_hypergraph()
    assert g.ground_size == 3
    assert undercovers(g, singletons(3))
