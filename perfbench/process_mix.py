"""process-mix: the halving, retry and restart runs of suite criteria 7-9.

One op is one run_halving, run_retry or run_restart call.  A pass holds the
suite's cells (instance, eps) in the suite's 10000 : 2000 : 2000 run
proportion, 76 runs in a seed-drawn order; every run draws from its own
substream and instance objects are built once and reused, as in the suite.
"""

from __future__ import annotations

import numpy as np

import threshlab.core as core
from harness import count_calls
from threshlab.certify import cover_weight
from threshlab.core import (
    Hypergraph,
    Rng,
    VertexSet,
    contains_edge,
    minimize,
    sample_bernoulli,
    sample_uniform_of_size,
    undercovers,
)
from threshlab.families import singletons, sunflower, triangles
from threshlab.process import (
    halving_round,
    restart_rate,
    run_halving,
    run_restart,
    run_retry,
    trace_to_json,
)

# The suite's q_star(name) * (1 + 1e-6) at the parent commit, kept as
# literals so that a change to max_small_q cannot move these traces.
Q = {
    "singletons-6": 0.08333341682188725,
    "singletons-8": 0.06250006296566175,
    "triangles-5": 0.36840351863752163,
    "sunflower-0-50-2": 0.10000010009313234,
    "sunflower-0-200-2": 0.050000050279397044,
}

BUILD = {
    "singletons-6": lambda: singletons(6),
    "singletons-8": lambda: singletons(8),
    "triangles-5": lambda: triangles(5),
    "sunflower-0-50-2": lambda: sunflower(0, 50, 2),
    "sunflower-0-200-2": lambda: sunflower(0, 200, 2),
}

# (variant, instance, eps, runs per pass)
CELLS = (
    *(("halving", n, None, 10) for n in
      ("singletons-6", "singletons-8", "sunflower-0-50-2", "sunflower-0-200-2")),
    *(("retry", n, e, 2) for n in ("triangles-5", "sunflower-0-50-2", "sunflower-0-200-2")
      for e in (0.5, 0.25, 0.1)),
    *(("restart", n, e, 2) for n in ("singletons-6", "singletons-8", "sunflower-0-200-2")
      for e in (0.5, 0.25, 0.125)),
)

U_WEIGHT_CAP = 947 / 2048


def _undercovered(u_masks, edge_masks) -> bool:
    """Every edge contains some member of u; members indexed by lowest vertex."""
    by_low: dict[int, list[int]] = {}
    for r in u_masks:
        if r == 0:
            return True
        by_low.setdefault(r & -r, []).append(r)
    for s in edge_masks:
        m, hit = s, False
        while m and not hit:
            low = m & -m
            hit = any(r & ~s == 0 for r in by_low.get(low, ()))
            m ^= low
        if not hit:
            return False
    return True


def _real_rounds(tr):
    """Rounds that sampled a W; retry's no-op rounds carry no threshold."""
    if tr.variant == "retry":
        return [r for r in tr.rounds if r.threshold is not None]
    return list(tr.rounds)


class ProcessMix:
    name = "process-mix"
    probe_threads = 1  # threads the ops keep busy; pace.probe uses as many

    def __init__(self, seed: int, refs: dict) -> None:
        self.seed = seed
        self.refs = refs

    def setup(self) -> None:
        self.h = {name: build() for name, build in BUILD.items()}
        self.masks = {name: h.masks for name, h in self.h.items()}
        warm = Rng(self.seed, (1 << 30,))
        for variant, name, eps, _ in CELLS:
            self.run_op((variant, name, eps, warm))

    def make_pass(self, index: int) -> list:
        ops = [
            (variant, name, eps, Rng(self.seed, (c, index, j)))
            for c, (variant, name, eps, runs) in enumerate(CELLS)
            for j in range(runs)
        ]
        order = np.random.default_rng([self.seed, index]).permutation(len(ops))
        return [ops[i] for i in order]

    def run_op(self, op):
        variant, name, eps, rng = op
        if variant == "halving":
            return run_halving(self.h[name], Q[name], rng)
        if variant == "retry":
            return run_retry(self.h[name], Q[name], eps, rng)
        return run_restart(self.h[name], Q[name], eps, rng)

    def input_key(self, op):
        return op[1]

    def digest_item(self, op, tr) -> bytes:
        return trace_to_json(tr).encode()

    def check(self, op, tr) -> tuple[list[str], bool]:
        variant, name, _, _ = op
        edges = self.masks[name]
        tw = tr.total_w.mask
        u = [e.mask for e in tr.u_edges]
        wrong = []
        if tr.contained != any(e & ~tw == 0 for e in edges):
            wrong.append("contained flag disagrees with the union of the W's")
        if tr.u_undercovers != _undercovered(u, edges):
            wrong.append("u_undercovers flag disagrees with U")
        if tr.found and (tr.found_edge is None or tr.found_edge.mask & ~tw):
            wrong.append("found edge is not inside the union of the W's")
        if variant == "halving" and tr.found == tr.u_undercovers:
            wrong.append("halving dichotomy broken")
        if variant == "retry" and tr.u_weight > U_WEIGHT_CAP:
            wrong.append("retry U weight above the factor-8 cap")
        if variant == "restart" and tr.found != tr.contained:
            wrong.append("restart found flag differs from containment")
        return wrong, False

    # -- traced run -----------------------------------------------------------

    def replay(self, op, tr, trace, span, op_id) -> list[str]:
        variant, name, eps, rng = op
        h, q = self.h[name], Q[name]
        counts = {"minimize": 0, "substream": 0}
        with count_calls(counts, {"minimize": (core, "minimize"),
                                  "substream": (Rng, "substream")}):
            self.run_op(op)
        trace.sums["minimize_calls"] += counts["minimize"]
        trace.sums["substream_calls"] += counts["substream"]
        trace.sums["ops"] += 1
        trace.sums["rounds"] += len(tr.rounds)
        trace.sums["found"] += tr.found
        if variant == "retry":
            real = _real_rounds(tr)
            trace.sums["retry_attempted"] += len(real)
            trace.sums["retry_accepted"] += sum(r.outcome == "success" for r in real)

        call = trace.call
        hd = call("core.minimize", span, op_id, minimize, h)
        n = hd.ground_size
        rounds = _real_rounds(tr)
        for r in rounds:
            sub = call("core.Rng.substream", span, op_id, rng.substream, r.index)
            if variant == "restart":
                p = restart_rate(tr.ell_start, q)
                call("core.sample_bernoulli", span, op_id, sample_bernoulli,
                     r.ground_remaining, p, sub)
            else:
                call("core.sample_uniform_of_size", span, op_id, sample_uniform_of_size,
                     r.ground_remaining, len(r.w), sub)
        if variant == "restart":
            acc = 0
            for r in rounds:
                acc |= r.w.mask
                call("core.contains_edge", span, op_id, contains_edge, hd, VertexSet(acc))
        else:
            self._replay_rounds(tr, rounds, hd, q, trace, span, op_id)
        if tr.u_edges:
            call("certify.cover_weight", span, op_id, cover_weight, tr.u_edges, q)
            if variant == "retry":
                call("certify.cover_weight", span, op_id, cover_weight, tr.u_edges, q)
        call("core.contains_edge", span, op_id, contains_edge, hd, tr.total_w)
        call("core.undercovers", span, op_id, undercovers,
             Hypergraph(n, tr.u_edges), hd)
        return []

    def _replay_rounds(self, tr, rounds, hd, q, trace, span, op_id) -> None:
        """Fragment each round's W against the family the round saw."""
        cur = list(hd.masks)
        n = hd.ground_size
        for r in rounds:
            w = r.w.mask
            visits = sum(1 << (m & ~w).bit_count() for m in cur)
            collapse, frags = trace.call(
                "process.halving_round", span, op_id, halving_round,
                Hypergraph.from_masks(n, cur), r.w,
            )
            if collapse is not None:
                break
            trace.sums["submask_visits"] += visits
            fm = [f.mask for f in frags]
            half = r.ell // 2
            exiled = sorted({f for f in fm if f.bit_count() > half}, key=_lex)
            if tr.variant == "retry" and exiled:
                trace.call("certify.cover_weight", span, op_id, cover_weight,
                           tuple(VertexSet(f) for f in exiled), q)
            if r.outcome == "failure":
                cur = sorted(set(fm), key=_lex)
            else:
                cur = sorted({f for f in fm if f.bit_count() <= half}, key=_lex)

    def layer_metrics(self, trace) -> dict:
        s = trace.sums
        ops = s["ops"]
        rounds = trace.calls.get("process.halving_round", 0)
        return {
            "core.minimize.us_per_call": trace.per_call("core.minimize", 1e-3),
            "core.minimize.calls_per_op": s["minimize_calls"] / ops,
            "core.Rng.substream.us_per_call": trace.per_call("core.Rng.substream", 1e-3),
            "core.Rng.substream.calls_per_op": s["substream_calls"] / ops,
            "core.sample_uniform_of_size.us_per_call":
                trace.per_call("core.sample_uniform_of_size", 1e-3),
            "core.sample_bernoulli.us_per_call": trace.per_call("core.sample_bernoulli", 1e-3),
            "core.contains_edge.us_per_call": trace.per_call("core.contains_edge", 1e-3),
            "core.undercovers.us_per_call": trace.per_call("core.undercovers", 1e-3),
            "process.halving_round.us_per_call":
                trace.per_call("process.halving_round", 1e-3),
            "process.halving_round.calls_per_op": rounds / ops,
            "process.halving_round.submask_visits_per_call": s["submask_visits"] / max(1, rounds),
            "process.glue_us_per_op": s["op_ns_minus_layers"] / ops * 1e-3,
            "process.rounds_per_op": s["rounds"] / ops,
            "process.retry.accepted_round_frac":
                s["retry_accepted"] / max(1, s["retry_attempted"]),
            "process.found_frac": s["found"] / ops,
            "certify.cover_weight.us_per_call": trace.per_call("certify.cover_weight", 1e-3),
        }


def _lex(mask: int) -> tuple[int, ...]:
    return VertexSet(mask).key()
