"""exact-desk: certify and estimate on exact-size shapes, every input new.

One op is one desk query on a relabelled shape: max_small_q, a certificate
round trip at the returned q (is_q_small, cover_to_json, cover_from_json,
validate_cover), spread_of, and critical_probability when the ground set is
at most EXACT_GROUND_LIMIT vertices.  Each query draws a fresh vertex
permutation, so no input repeats and the package's caches miss, while q*,
p_c and kappa stay bit for bit the same and are checked against refs.json.
"""

from __future__ import annotations

import numpy as np

import threshlab.certify as certify
import threshlab.core as core
from harness import cold_caches, count_calls
from threshlab.certify import (
    cover_from_json,
    cover_to_json,
    is_q_small,
    max_small_q,
    min_cover_weight,
    spread_of,
    validate_cover,
)
from threshlab.core import Hypergraph, minimize
from threshlab.estimate import EXACT_GROUND_LIMIT, containment_counts, critical_probability
from threshlab.families import (
    cliques,
    hamilton_cycles,
    perfect_matchings,
    random_uniform,
    singletons,
    sunflower,
    triangles,
)

MATRIX_SEED = 20260823

# name -> (constructor, copies per pass).  The sixteen suite desk shapes run six
# times per pass so that a pass has enough cheap ops beside the costly ones,
# and p50 and p90 fall inside groups of like ops rather than between them:
# sunflower-2-5-2 runs 24 times, so that the median falls in its middle, and
# triangles-7 eight times, so that the p90 does; more copies of these two
# also give each run more samples near the two percentiles.
SHAPES = {
    "singletons-5": (lambda: singletons(5), 6),
    "singletons-6": (lambda: singletons(6), 6),
    "singletons-8": (lambda: singletons(8), 6),
    "sunflower-1-3-2": (lambda: sunflower(1, 3, 2), 6),
    "sunflower-2-5-2": (lambda: sunflower(2, 5, 2), 24),
    "sunflower-0-8-2": (lambda: sunflower(0, 8, 2), 6),
    "triangles-4": (lambda: triangles(4), 6),
    "triangles-5": (lambda: triangles(5), 6),
    "triangles-6": (lambda: triangles(6), 6),
    "triangles-7": (lambda: triangles(7), 8),
    "hamilton-4": (lambda: hamilton_cycles(4), 6),
    "hamilton-5": (lambda: hamilton_cycles(5), 6),
    "matchings-4": (lambda: perfect_matchings(4), 6),
    "matchings-6": (lambda: perfect_matchings(6), 6),
    "cliques-5-4": (lambda: cliques(5, 4), 6),
    "random-12-3-20": (lambda: random_uniform(12, 3, 20, MATRIX_SEED), 6),
    "hamilton-6": (lambda: hamilton_cycles(6), 1),
    "cliques-7-4": (lambda: cliques(7, 4), 1),
    "random-20-3-30": (lambda: random_uniform(20, 3, 30, MATRIX_SEED), 1),
    "random-21-3-40": (lambda: random_uniform(21, 3, 40, MATRIX_SEED), 1),
    "random-22-4-30": (lambda: random_uniform(22, 4, 30, MATRIX_SEED), 1),
    "random-23-4-20": (lambda: random_uniform(23, 4, 20, MATRIX_SEED), 1),
    "random-24-5-24": (lambda: random_uniform(24, 5, 24, MATRIX_SEED), 1),
    "sunflower-0-100-2": (lambda: sunflower(0, 100, 2), 1),
    "sunflower-0-1000-2": (lambda: sunflower(0, 1000, 2), 1),
}

Q_TOL = 1e-9  # max_small_q's default tol; its answer is exact to tol / 2


def relabel(h: Hypergraph, perm) -> Hypergraph:
    out = []
    for m in h.masks:
        r = 0
        while m:
            low = m & -m
            r |= 1 << int(perm[low.bit_length() - 1])
            m ^= low
        out.append(r)
    return Hypergraph.from_masks(h.ground_size, out)


def pool_size(hm: Hypergraph) -> int:
    """Distinct submasks of the minimized edges: the cover search's candidates."""
    pool = set()
    for m in hm.masks:
        sub = m
        while True:
            pool.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    return len(pool)


class ExactDesk:
    name = "exact-desk"
    probe_threads = 1  # threads the ops keep busy; pace.probe uses as many

    def __init__(self, seed: int, refs: dict) -> None:
        self.seed = seed
        self.refs = refs

    def setup(self) -> None:
        self.base = {name: build() for name, (build, _) in SHAPES.items()}
        self.expect = self.refs["exact"]
        self.seen: set = set()
        self.run_op(("singletons-5", self.base["singletons-5"]))
        cold_caches()

    def make_pass(self, index: int) -> list:
        g = np.random.default_rng([self.seed, index])
        ops = []
        for name, (_, copies) in SHAPES.items():
            h = self.base[name]
            for _ in range(copies):
                while True:
                    hr = relabel(h, g.permutation(h.ground_size))
                    if hr not in self.seen:
                        break
                self.seen.add(hr)
                ops.append((name, hr))
        return [ops[i] for i in g.permutation(len(ops))]

    def run_op(self, op):
        _, h = op
        q = max_small_q(h)
        _, cover = is_q_small(h, q)
        back = cover_from_json(cover_to_json(cover))
        ok, _ = validate_cover(h, back)
        kappa = spread_of(h).kappa
        pc = critical_probability(h) if h.ground_size <= EXACT_GROUND_LIMIT else None
        return q, cover, back, ok, kappa, pc

    def input_key(self, op):
        return op[1]

    def digest_item(self, op, res) -> bytes:
        q, _, _, ok, kappa, pc = res
        return repr((op[0], q, ok, kappa, pc)).encode()

    def check(self, op, res) -> tuple[list[str], bool]:
        name = op[0]
        q, cover, back, ok, kappa, pc = res
        ref = self.expect[name]
        wrong = []
        if abs(q - ref["q_star"]) > Q_TOL / 2:
            wrong.append(f"{name}: q* {q!r}, reference {ref['q_star']!r}")
        if pc != ref["p_c"]:
            wrong.append(f"{name}: p_c {pc!r}, reference {ref['p_c']!r}")
        if kappa != ref["kappa"]:
            wrong.append(f"{name}: kappa {kappa!r}, reference {ref['kappa']!r}")
        if back != cover:
            wrong.append(f"{name}: certificate changed in the JSON round trip")
        # A certificate rejected at the q max_small_q returned is a failed
        # op, not a wrong answer: the validator itself reports it.
        return wrong, not ok

    # -- traced run -----------------------------------------------------------

    def replay(self, op, res, trace, span, op_id) -> list[str]:
        name, h = op
        q, _, back, ok, _, _ = res
        s = trace.sums
        s["ops"] += 1
        s["rejected"] += not ok
        counts = {"minimize": 0, "min_cover_weight": 0}
        hm = trace.call("core.minimize", span, op_id, minimize, h)
        s["pool"] += pool_size(hm)
        cold_caches()
        with count_calls(counts, {"minimize": (core, "minimize"),
                                  "min_cover_weight": (certify, "min_cover_weight")}):
            trace.call("certify.max_small_q", span, op_id, max_small_q, h)
            s["bisection_steps"] += counts["min_cover_weight"]
            trace.call("certify.min_cover_weight", span, op_id, min_cover_weight, h, q)
            trace.call("certify.validate_cover", span, op_id, validate_cover, h, back)
            trace.call("certify.spread_of", span, op_id, spread_of, h)
            if h.ground_size <= EXACT_GROUND_LIMIT:
                cold_caches()
                trace.call("estimate.containment_counts", span, op_id, containment_counts, h)
                s["subsets"] += 1 << h.ground_size
                trace.call("estimate.critical_probability", span, op_id,
                           critical_probability, h)
        s["minimize_calls"] += counts["minimize"]
        return []

    def layer_metrics(self, trace) -> dict:
        s = trace.sums
        ops = s["ops"]
        counted = trace.calls.get("estimate.containment_counts", 0)
        return {
            "core.minimize.us_per_call": trace.per_call("core.minimize", 1e-3),
            "core.minimize.calls_per_op": s["minimize_calls"] / ops,
            "certify.max_small_q.ms_per_call": trace.per_call("certify.max_small_q", 1e-6),
            "certify.max_small_q.bisection_steps": s["bisection_steps"] / ops,
            "certify.min_cover_weight.ms_per_call":
                trace.per_call("certify.min_cover_weight", 1e-6),
            "certify.candidate_pool_size": s["pool"] / ops,
            "certify.spread_of.ms_per_call": trace.per_call("certify.spread_of", 1e-6),
            "certify.validate_cover.ms_per_call":
                trace.per_call("certify.validate_cover", 1e-6),
            "certify.cert_rejected_frac": s["rejected"] / ops,
            "estimate.containment_counts.ms_per_call":
                trace.per_call("estimate.containment_counts", 1e-6),
            "estimate.containment_counts.subsets_per_call": s["subsets"] / max(1, counted),
            "estimate.critical_probability.ms_per_call":
                trace.per_call("estimate.critical_probability", 1e-6),
        }
