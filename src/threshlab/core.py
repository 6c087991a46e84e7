"""Ground sets, hypergraphs, and seeded sampling of vertex subsets.

A ground set is the contiguous index range 0..n-1.  Vertex subsets are bit
masks: bit v is set exactly when vertex v is present.  Python integers are
arbitrary precision, so one mask type covers every desk-scale ground size
with no separate multi-word fallback.

Hypergraphs are immutable: a ground size plus an ordered tuple of edges.
Input order and duplicate edges are preserved so that text files round-trip
bit for bit.  `minimize` produces the canonical form (distinct inclusion
minimal edges in lexicographic order) that certification and process entry
points work on; replacing a hypergraph by its minimization changes neither
its upward closure nor anything derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "ThreshlabError",
    "FormatError",
    "ResourceLimitError",
    "TrivialHypergraphError",
    "VertexSet",
    "Hypergraph",
    "Rng",
    "contains_edge",
    "undercovers",
    "minimize",
    "sample_bernoulli",
    "sample_uniform_of_size",
    "iter_submasks",
    "parse_hypergraph",
    "format_hypergraph",
    "read_hypergraph",
]

# Largest ground size the text and certificate readers accept.  They check it
# before building any mask, so a one-line input cannot ask for gigabytes; it
# is far above the 10 000 vertices of the largest family the suite builds.
MAX_GROUND_SIZE = 1 << 20

# Largest total of mask bit lengths the readers build from one input.  Inside
# the ground-size cap each line naming a vertex near 2^20 is its own 128 KiB
# int, so without a total a 1 MB file could ask for gigabytes.  2^28 bits is
# 32 MiB, ten times the 25 005 000 bits of `gen sunflower 0 5000 2`.
MAX_INPUT_BITS = 1 << 28


class ThreshlabError(Exception):
    """Base class for errors raised by this package."""


class FormatError(ThreshlabError):
    """Malformed hypergraph or certificate text."""


class ResourceLimitError(ThreshlabError):
    """An exact computation exceeded its configured budget."""


class TrivialHypergraphError(ThreshlabError):
    """The hypergraph contains the empty edge.

    The empty edge can only be covered by the empty set itself, whose weight
    is q^0 = 1 > 1/2, so no q in (0, 1) makes such a hypergraph small.  By
    convention its smallness threshold is reported as 0.
    """


def lex_key(mask: int) -> tuple[int, ...]:
    """The ascending index tuple of a mask.

    Comparing these tuples is the lexicographic order behind every
    deterministic tie break in this package: sorted edge lists, the edge a
    fragment is charged to, witnesses and the canonical form of `minimize`.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class VertexSet:
    """An immutable subset of a ground set, stored as a bit mask."""

    mask: int = 0

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValueError("vertex set mask must be non-negative")

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "VertexSet":
        m = 0
        for v in indices:
            if v < 0:
                raise ValueError(f"negative vertex index {v}")
            m |= 1 << v
        return cls(m)

    @classmethod
    def full(cls, ground_size: int) -> "VertexSet":
        return cls((1 << ground_size) - 1)

    def indices(self) -> tuple[int, ...]:
        return lex_key(self.mask)

    def __iter__(self) -> Iterator[int]:
        return iter(lex_key(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, v: int) -> bool:
        return v >= 0 and (self.mask >> v) & 1 == 1

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask & ~other.mask)

    def issubset(self, other: "VertexSet") -> bool:
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "VertexSet") -> bool:
        return self.mask & other.mask == 0

    def key(self) -> tuple[int, ...]:
        """Sort key in the package's lexicographic order; see `lex_key`."""
        return lex_key(self.mask)

    def __repr__(self) -> str:
        return "VertexSet{" + ",".join(str(v) for v in self) + "}"


@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph: edges over the ground set 0..ground_size-1."""

    ground_size: int
    edges: tuple[VertexSet, ...] = ()

    def __post_init__(self) -> None:
        if self.ground_size < 0:
            raise ValueError("ground size must be non-negative")
        for e in self.edges:
            if e.mask.bit_length() > self.ground_size:
                raise ValueError(
                    f"edge {e!r} does not fit in ground set of size {self.ground_size}"
                )

    @classmethod
    def from_masks(cls, ground_size: int, masks: Iterable[int]) -> "Hypergraph":
        return cls(ground_size, tuple(VertexSet(m) for m in masks))

    @classmethod
    def from_edge_lists(
        cls, ground_size: int, lists: Iterable[Iterable[int]]
    ) -> "Hypergraph":
        return cls(ground_size, tuple(VertexSet.from_indices(xs) for xs in lists))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(e.mask for e in self.edges)

    @cached_property
    def _minimized(self) -> "Hypergraph":
        # The canonical form behind `minimize`, built once per object.
        unique = sorted(set(self.masks), key=int.bit_count)
        kept: list[int] = []
        smaller: list[int] = []
        prev_size = -1
        for m in unique:
            size = m.bit_count()
            if size != prev_size:
                smaller = list(kept)
                prev_size = size
            if not any(k & ~m == 0 for k in smaller):
                kept.append(m)
        kept.sort(key=lex_key)
        hm = Hypergraph.from_masks(self.ground_size, kept)
        hm.__dict__["_minimized"] = hm  # a canonical form is its own
        return hm

    @cached_property
    def _max_edge_size(self) -> int:
        if not self.edges:
            raise ValueError("max_edge_size of a hypergraph with no edges")
        return max(m.bit_count() for m in self.masks)

    @cached_property
    def _has_empty_edge(self) -> bool:
        return 0 in self.masks

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def max_edge_size(self) -> int:
        """Largest edge cardinality.  Raises on an edgeless hypergraph."""
        return self._max_edge_size

    def has_empty_edge(self) -> bool:
        return self._has_empty_edge

    def __repr__(self) -> str:
        inner = ", ".join(repr(e) for e in self.edges[:6])
        if len(self.edges) > 6:
            inner += f", ... {len(self.edges)} edges"
        return f"Hypergraph(n={self.ground_size}, [{inner}])"


# ---------------------------------------------------------------------------
# basic operations


def contains_edge(h: Hypergraph, w: VertexSet) -> bool:
    """True when some edge of h is entirely inside w."""
    wm = w.mask
    return any(e & ~wm == 0 for e in h.masks)


def undercovers(g: Hypergraph, h: Hypergraph) -> bool:
    """True when every edge of h contains some edge of g.

    Both hypergraphs must live on the same ground set.  An edgeless h is
    undercovered by anything; a nonempty h is never undercovered by an
    edgeless g.
    """
    if g.ground_size != h.ground_size:
        raise ValueError("undercovers requires a common ground set")
    gm = g.masks
    return all(any(r & ~s == 0 for r in gm) for s in h.masks)


def minimize(h: Hypergraph) -> Hypergraph:
    """Canonical form: distinct inclusion-minimal edges, lexicographic order.

    The result has the same upward closure as h, which is all any smallness,
    spread, containment, or fragmentation question depends on.  Edges of
    equal size cannot strictly contain one another, so each edge is tested
    only against the strictly smaller kept ones; uniform families need no
    containment tests at all.

    The result is computed once per hypergraph object and returned again on
    later calls; it is its own canonical form, so minimizing it returns it.
    """
    return h._minimized


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, descending, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# ---------------------------------------------------------------------------
# randomness


@dataclass
class Rng:
    """Deterministic random source with reproducible substreams.

    The stream is numpy PCG64 seeded through SeedSequence.  substream(i)
    derives an independent child from (seed, path + (i,)) by the fixed
    SeedSequence spawn-key hash, so trial i always sees the same stream no
    matter which worker runs it or in what order.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def generator(self) -> np.random.Generator:
        """Built on first use, so an Rng that only hands out substreams is cheap.

        The seed sequence is SeedSequence(seed, spawn_key=path), given as the
        one uint32 entropy array that SeedSequence assembles from them: the
        seed's words, padded with zeros to the pool size of 4 when a path
        follows, then the words of each path element.  That hashes the same
        words in the same order and skips numpy's per-element coercion.  The
        generator is cached by hand: functools.cached_property takes a lock
        on every first use before Python 3.12, and most Rng objects are used
        once.
        """
        gen = self.__dict__.get("_generator")
        if gen is None:
            words = _entropy_words(self.seed)
            if self.path:
                words += [0] * (4 - len(words))
                for p in self.path:
                    words += _entropy_words(p)
            ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
            gen = self._generator = np.random.Generator(np.random.PCG64(ss))
        return gen

    def substream(self, index: int) -> "Rng":
        return Rng(self.seed, self.path + (index,))


def _entropy_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence reads one: its 32-bit words, least
    significant first, and [0] for 0."""
    if n < 0:
        raise ValueError("seed and path entries must be non-negative")
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


def _mask_from_bits(bits: np.ndarray) -> int:
    if bits.size == 0:
        return 0
    packed = np.packbits(bits, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _bits_of_mask(mask: int) -> np.ndarray:
    """The inverse of _mask_from_bits: bit v of mask as entry v of a bool
    array, padded with False to a whole number of bytes."""
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little").view(bool)


def sample_bernoulli(ground_size: int, p: float, rng: Rng) -> VertexSet:
    """Include each vertex independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("inclusion probability must lie in [0, 1]")
    bits = rng.generator.random(ground_size) < p
    return VertexSet(_mask_from_bits(bits))


def sample_uniform_of_size(ground_size: int, m: int, rng: Rng) -> VertexSet:
    """A uniformly random m-element subset of the ground set."""
    if not 0 <= m <= ground_size:
        raise ValueError("sample size out of range")
    if m == ground_size:
        return VertexSet.full(ground_size)
    bits = np.zeros(ground_size, dtype=bool)
    bits[rng.generator.choice(ground_size, size=m, replace=False)] = True
    return VertexSet(_mask_from_bits(bits))


# ---------------------------------------------------------------------------
# text format
#
# Line oriented.  '#' starts a comment, blank lines are skipped.  The first
# data line is "n <ground_size>".  Every further data line is one edge: its
# vertex indices separated by spaces, or a single "-" for the empty edge.
# The writer emits exactly this shape (indices ascending, edges in stored
# order), so parse(format(h)) == h including duplicates and edge order.


def _bounded_masks(index_lists: Iterable[Sequence[int]]) -> Iterator[int]:
    """The masks of in-range index lists, refusing oversized input.

    Keeps a running sum of each list's bit length (largest index plus one)
    and raises FormatError before building the mask that takes the sum past
    MAX_INPUT_BITS.
    """
    total = 0
    for indices in index_lists:
        total += max(indices, default=-1) + 1
        if total > MAX_INPUT_BITS:
            raise FormatError(f"masks need more than {MAX_INPUT_BITS} bits in total")
        mask = 0
        for v in indices:
            mask |= 1 << v
        yield mask


def parse_hypergraph(text: str) -> Hypergraph:
    ground: int | None = None
    edges: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if ground is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise FormatError(f"line {lineno}: expected header 'n <ground_size>'")
            try:
                ground = int(tokens[1])
            except ValueError:
                raise FormatError(f"line {lineno}: ground size is not an integer") from None
            if ground < 0:
                raise FormatError(f"line {lineno}: ground size must be non-negative")
            if ground > MAX_GROUND_SIZE:
                raise FormatError(
                    f"line {lineno}: ground size {ground} exceeds the limit {MAX_GROUND_SIZE}"
                )
            continue
        if tokens == ["-"]:
            edges.append([])
            continue
        indices = []
        for tok in tokens:
            try:
                v = int(tok)
            except ValueError:
                raise FormatError(f"line {lineno}: bad vertex index {tok!r}") from None
            if not 0 <= v < ground:
                raise FormatError(
                    f"line {lineno}: vertex {v} outside ground set of size {ground}"
                )
            indices.append(v)
        edges.append(indices)
    if ground is None:
        raise FormatError("missing header line 'n <ground_size>'")
    return Hypergraph.from_masks(ground, _bounded_masks(edges))


def format_hypergraph(h: Hypergraph) -> str:
    lines = [f"n {h.ground_size}"]
    for m in h.masks:
        lines.append(" ".join(map(str, lex_key(m))) if m else "-")
    return "\n".join(lines) + "\n"


def read_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())
