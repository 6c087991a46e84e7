"""Core types, set operations, samplers, and the text format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshlab.core import (
    MAX_GROUND_SIZE,
    MAX_INPUT_BITS,
    FormatError,
    Hypergraph,
    Rng,
    VertexSet,
    contains_edge,
    format_hypergraph,
    iter_submasks,
    minimize,
    parse_hypergraph,
    read_hypergraph,
    sample_bernoulli,
    sample_uniform_of_size,
    undercovers,
)
from threshlab.families import sunflower


def vs(*indices):
    return VertexSet.from_indices(indices)


def hg(n, *edges):
    return Hypergraph.from_edge_lists(n, edges)


# ---------------------------------------------------------------------------
# VertexSet


def test_vertexset_round_trip():
    s = vs(0, 3, 7)
    assert s.mask == 0b10001001
    assert s.indices() == (0, 3, 7)
    assert list(s) == [0, 3, 7]
    assert len(s) == 3


def test_vertexset_membership_and_truthiness():
    s = vs(1, 4)
    assert 1 in s and 4 in s
    assert 0 not in s and 5 not in s
    assert -1 not in s
    assert s
    assert not VertexSet()


def test_vertexset_algebra():
    a, b = vs(0, 1, 2), vs(1, 3)
    assert (a | b).indices() == (0, 1, 2, 3)
    assert (a & b).indices() == (1,)
    assert (a - b).indices() == (0, 2)
    assert vs(1).issubset(a)
    assert not a.issubset(b)
    assert vs(5).isdisjoint(a)
    assert not b.isdisjoint(a)


def test_vertexset_full_and_key():
    assert VertexSet.full(3).mask == 0b111
    assert VertexSet.full(0).mask == 0
    assert vs(2, 0).key() == (0, 2)
    assert repr(vs(0, 2)) == "VertexSet{0,2}"


def test_vertexset_rejects_negative():
    with pytest.raises(ValueError):
        VertexSet(-1)
    with pytest.raises(ValueError):
        VertexSet.from_indices([0, -2])


# ---------------------------------------------------------------------------
# Hypergraph


def test_hypergraph_accessors():
    h = hg(4, (0, 1), (2,), (0, 1))
    assert h.ground_size == 4
    assert h.edge_count == 3
    assert h.masks == (0b11, 0b100, 0b11)
    assert h.max_edge_size() == 2
    assert not h.has_empty_edge()
    assert hg(2, ()).has_empty_edge()


def test_hypergraph_preserves_order_and_duplicates():
    h = hg(3, (2,), (0, 1), (2,))
    assert [e.indices() for e in h.edges] == [(2,), (0, 1), (2,)]


def test_hypergraph_rejects_oversized_edge():
    with pytest.raises(ValueError):
        hg(2, (0, 2))
    with pytest.raises(ValueError):
        Hypergraph(-1)


def test_hypergraph_fit_check_allocates_no_ground_mask():
    # the fit is checked by bit length, never by building 1 << ground_size
    h = Hypergraph(10**12, (vs(0, 5),))
    assert h.max_edge_size() == 2


def test_max_edge_size_needs_an_edge():
    with pytest.raises(ValueError):
        Hypergraph(3).max_edge_size()


# ---------------------------------------------------------------------------
# contains_edge / undercovers


def test_contains_edge_basic():
    h = hg(3, (0, 1))
    assert contains_edge(h, vs(0, 1, 2))
    assert not contains_edge(h, vs(0, 2))


def test_contains_edge_empty_edge_always_contained():
    h = hg(0, ())
    assert contains_edge(h, VertexSet())


def test_contains_edge_no_edges():
    assert not contains_edge(Hypergraph(3), VertexSet.full(3))


def test_undercovers_basic():
    h = hg(3, (0, 1), (0, 2))
    assert undercovers(hg(3, (0,)), h)
    assert not undercovers(hg(3, (1,)), hg(3, (0, 2)))


def test_undercovers_is_reflexive():
    h = hg(4, (0, 1), (2, 3), (1, 2))
    assert undercovers(h, h)


def test_undercovers_edge_cases():
    assert undercovers(Hypergraph(2), Hypergraph(2))  # nothing to cover
    assert not undercovers(Hypergraph(2), hg(2, (0,)))
    with pytest.raises(ValueError):
        undercovers(hg(2, (0,)), hg(3, (0,)))


def test_undercovers_transitive_on_fixed_chain():
    g1 = hg(4, (0,))
    g2 = hg(4, (0, 1), (0, 2))
    h = hg(4, (0, 1, 3), (0, 2, 3))
    assert undercovers(g2, h)
    assert undercovers(g1, g2)
    assert undercovers(g1, h)


# ---------------------------------------------------------------------------
# minimize


def test_minimize_drops_supersets():
    h = hg(2, (0,), (0, 1))
    assert minimize(h) == hg(2, (0,))


def test_minimize_dedupes():
    h = hg(2, (0, 1), (0, 1))
    assert minimize(h) == hg(2, (0, 1))


def test_minimize_fixes_antichains():
    h = hg(2, (0,), (1,))
    assert minimize(h) == h
    assert minimize(minimize(h)) == minimize(h)
    assert minimize(h) is minimize(h)
    assert minimize(minimize(h)) is minimize(h)
    fat = hg(3, (1, 2), (0,), (0, 2), (1, 2))
    assert minimize(fat) is minimize(fat)
    assert minimize(minimize(fat)) is minimize(fat)


def test_minimize_sorts_lexicographically():
    h = hg(4, (2, 3), (0, 1))
    assert [e.indices() for e in minimize(h).edges] == [(0, 1), (2, 3)]


def test_minimize_keeps_upward_closure():
    h = hg(5, (0, 1, 2), (1, 2), (3,), (3, 4), (1, 2, 4))
    hm = minimize(h)
    for w_mask in range(1 << 5):
        w = VertexSet(w_mask)
        assert contains_edge(h, w) == contains_edge(hm, w)


# ---------------------------------------------------------------------------
# isolated vertices


def test_pad_preserves_containment_on_old_ground():
    h = hg(3, (0, 1), (2,))
    p = Hypergraph(h.ground_size + 4, h.edges)
    for w_mask in range(1 << 3):
        w = VertexSet(w_mask)
        assert contains_edge(h, w) == contains_edge(p, w)


# ---------------------------------------------------------------------------
# iter_submasks


def test_iter_submasks_descending_with_zero():
    assert list(iter_submasks(0b101)) == [0b101, 0b100, 0b001, 0b000]
    assert list(iter_submasks(0)) == [0]


def test_iter_submasks_counts():
    for mask in (0b1, 0b111, 0b1011):
        subs = list(iter_submasks(mask))
        assert len(subs) == 1 << mask.bit_count()
        assert len(set(subs)) == len(subs)
        assert all(s & ~mask == 0 for s in subs)


# ---------------------------------------------------------------------------
# Rng


def test_rng_is_reproducible():
    a = Rng(42).generator.random(8)
    b = Rng(42).generator.random(8)
    assert (a == b).all()


def test_rng_substreams_are_stable_and_distinct():
    base = Rng(7, path=(3,))
    s2_first = base.substream(2).generator.random(4)
    # deriving other substreams in between changes nothing
    base.substream(0).generator.random(4)
    s2_again = Rng(7, path=(3,)).substream(2).generator.random(4)
    assert (s2_first == s2_again).all()
    s3 = Rng(7, path=(3,)).substream(3).generator.random(4)
    assert (s2_first != s3).any()
    # a parent that only hands out substreams never builds its own stream
    assert "generator" not in vars(base)


def test_rng_seed_must_fit_64_bits():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(1 << 64)
    Rng((1 << 64) - 1)  # boundary is fine


# ---------------------------------------------------------------------------
# samplers


def test_bernoulli_extremes():
    rng = Rng(1)
    assert sample_bernoulli(10, 0.0, rng).mask == 0
    assert sample_bernoulli(10, 1.0, rng) == VertexSet.full(10)
    assert sample_bernoulli(0, 0.5, rng).mask == 0


def test_bernoulli_rejects_bad_p():
    with pytest.raises(ValueError):
        sample_bernoulli(4, -0.1, Rng(0))
    with pytest.raises(ValueError):
        sample_bernoulli(4, 1.1, Rng(0))


def test_bernoulli_mean_size_is_plausible():
    # 2000 draws of Bern(0.3) over 50 vertices; mean within 3 sigma
    n, p, draws = 50, 0.3, 2000
    rng = Rng(123)
    total = sum(len(sample_bernoulli(n, p, rng.substream(i))) for i in range(draws))
    mean = total / draws
    sigma = (n * p * (1 - p) / draws) ** 0.5
    assert abs(mean - n * p) <= 3 * sigma


def test_uniform_of_size_extremes():
    rng = Rng(5)
    assert sample_uniform_of_size(6, 0, rng).mask == 0
    assert sample_uniform_of_size(6, 6, rng) == VertexSet.full(6)
    assert sample_uniform_of_size(0, 0, rng).mask == 0


def test_uniform_of_size_has_exact_size():
    rng = Rng(9)
    for i in range(50):
        w = sample_uniform_of_size(12, 5, rng.substream(i))
        assert len(w) == 5
        assert w.mask < 1 << 12


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_uniform_of_size_is_the_choice_on_its_substream(data):
    n = data.draw(st.integers(0, 300))
    m = data.draw(st.integers(0, n))
    base = Rng(data.draw(st.integers(0, 2**64 - 1)))
    index = data.draw(st.integers(0, 1000))
    w = sample_uniform_of_size(n, m, base.substream(index))
    assert len(w) == m
    assert w.mask >> n == 0
    idx = base.substream(index).generator.choice(n, size=m, replace=False)
    mask = 0
    for v in idx:
        mask |= 1 << int(v)
    assert w.mask == mask


def test_uniform_of_size_rejects_bad_m():
    with pytest.raises(ValueError):
        sample_uniform_of_size(4, 5, Rng(0))
    with pytest.raises(ValueError):
        sample_uniform_of_size(4, -1, Rng(0))


def test_uniform_of_size_touches_every_vertex():
    rng = Rng(77)
    seen = 0
    for i in range(200):
        seen |= sample_uniform_of_size(8, 3, rng.substream(i)).mask
    assert seen == (1 << 8) - 1


# ---------------------------------------------------------------------------
# text format


def test_format_parse_round_trip_is_exact():
    h = hg(5, (2, 0), (4,), (), (2, 0))  # duplicates and an empty edge
    text = format_hypergraph(h)
    assert parse_hypergraph(text) == h
    assert text == "n 5\n0 2\n4\n-\n0 2\n"


def test_parse_ignores_comments_and_blanks():
    text = "# family\n\nn 3  # ground\n0 1\n\n2  # last\n"
    assert parse_hypergraph(text) == hg(3, (0, 1), (2,))


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_hypergraph("")  # missing header
    with pytest.raises(FormatError):
        parse_hypergraph("m 3\n")
    with pytest.raises(FormatError):
        parse_hypergraph("n x\n")
    with pytest.raises(FormatError):
        parse_hypergraph("n -2\n")
    with pytest.raises(FormatError):
        parse_hypergraph("n 3\n0 one\n")
    with pytest.raises(FormatError):
        parse_hypergraph("n 3\n0 3\n")  # vertex out of range


def test_parse_caps_the_ground_size_before_building_masks():
    assert parse_hypergraph(f"n {MAX_GROUND_SIZE}\n0\n").ground_size == MAX_GROUND_SIZE
    for n in (MAX_GROUND_SIZE + 1, 10**10, 10**12):
        with pytest.raises(FormatError, match="exceeds the limit"):
            parse_hypergraph(f"n {n}\n{n - 1}\n")


def test_parse_caps_the_total_mask_bits():
    # 300 edges on the top vertex would be 300 ints of 2^20 bits each.
    top = MAX_GROUND_SIZE - 1
    assert 300 * MAX_GROUND_SIZE > MAX_INPUT_BITS
    with pytest.raises(FormatError, match="bits in total"):
        parse_hypergraph(f"n {MAX_GROUND_SIZE}\n" + f"{top}\n" * 300)
    # The largest file the generator is documented to write stays readable.
    big = sunflower(0, 5000, 2)
    assert parse_hypergraph(format_hypergraph(big)) == big


def test_read_write_files(tmp_path):
    h = hg(4, (0, 3), (1,))
    path = tmp_path / "h.txt"
    path.write_text(format_hypergraph(h), encoding="utf-8")
    assert read_hypergraph(path) == h
