"""mc-large: numpy Monte Carlo on large disjoint sunflowers.

One op is one mc_containment_probability call at TRIALS trials, or one
mc_critical_probability call on a small instance.  Instances are
sunflower-0-P-2 for P from 50 to 2000, each p drawn within 10% of that
instance's threshold.  Closed forms give exact references:
P(contains an edge) = 1 - (1 - p^2)^P and p_c = sqrt(1 - 2^(-1/P)).
"""

from __future__ import annotations

from math import sqrt

import numpy as np

import threshlab.estimate as estimate
from harness import count_calls
from threshlab.core import Rng
from threshlab.estimate import mc_containment_probability, mc_critical_probability
from threshlab.families import sunflower

TRIALS = 1024
BLOCK = 256  # mc_containment_probability's block size at the parent commit
CRIT_Z = 5.0  # decision z for the threshold search; a wrong step is ~1e-6 likely
CHECK_Z = 6.0  # a correct estimate leaves this Wilson interval ~1e-9 of the time

# (kind, P, ops per pass).  The pass is sized so that the median op falls in
# the middle of the P = 100 group and the p90 op inside the P = 500 group,
# not on the edge between two groups of unlike ops.
MIX = (
    ("containment", 50, 6),
    ("containment", 100, 12),
    ("containment", 200, 4),
    ("containment", 500, 2),
    ("containment", 1000, 1),
    ("containment", 2000, 1),
    ("critical", 50, 2),
    ("critical", 100, 1),
)


def exact_containment(p: float, petals: int) -> float:
    return 1.0 - (1.0 - p * p) ** petals


def exact_threshold(petals: int) -> float:
    return sqrt(1.0 - 2.0 ** (-1.0 / petals))


def wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


class McLarge:
    name = "mc-large"
    probe_threads = 1  # threads the ops keep busy; pace.probe uses as many

    def __init__(self, seed: int, refs: dict) -> None:
        self.seed = seed
        self.refs = refs

    def setup(self) -> None:
        self.h = {petals: sunflower(0, petals, 2) for _, petals, _ in MIX}
        mc_containment_probability(self.h[50], 0.1, Rng(self.seed, (1 << 30,)), trials=BLOCK)

    def make_pass(self, index: int) -> list:
        g = np.random.default_rng([self.seed, index])
        ops = []
        for c, (kind, petals, count) in enumerate(MIX):
            for j in range(count):
                p = exact_threshold(petals) * float(g.uniform(0.9, 1.1))
                ops.append((kind, petals, p, Rng(self.seed, (c, index, j))))
        return [ops[i] for i in g.permutation(len(ops))]

    def run_op(self, op):
        kind, petals, p, rng = op
        if kind == "containment":
            return mc_containment_probability(self.h[petals], p, rng, trials=TRIALS)
        return mc_critical_probability(self.h[petals], rng, trials=TRIALS, decision_z=CRIT_Z)

    def input_key(self, op):
        return op[1]

    def digest_item(self, op, est) -> bytes:
        if op[0] == "containment":
            return repr(round(est.value * est.trials)).encode()
        return repr((est.value, est.ci_low, est.ci_high, est.trials)).encode()

    def check(self, op, est) -> tuple[list[str], bool]:
        kind, petals, p, _ = op
        wrong = []
        if kind == "containment":
            exact = exact_containment(p, petals)
            lo, hi = wilson(round(est.value * est.trials), est.trials, CHECK_Z)
            if est.trials != TRIALS or not lo <= exact <= hi:
                wrong.append(f"P={petals} p={p!r}: estimate {est.value!r} "
                             f"over {est.trials} trials, exact {exact!r}")
        else:
            pc = exact_threshold(petals)
            if est.trials % TRIALS or not est.ci_low <= pc <= est.ci_high:
                wrong.append(f"P={petals}: bracket [{est.ci_low!r}, {est.ci_high!r}] "
                             f"misses p_c {pc!r}")
        return wrong, False

    # -- traced run -----------------------------------------------------------

    def replay(self, op, est, trace, span, op_id) -> list[str]:
        kind, petals, p, rng = op
        h = self.h[petals]
        s = trace.sums
        s["ops"] += 1
        counts = {"substream": 0, "mc": 0}
        targets = {"substream": (Rng, "substream"),
                   "mc": (estimate, "mc_containment_probability")}
        if kind == "critical":
            with count_calls(counts, targets):
                self.run_op(op)
            s["critical_calls"] += 1
            s["critical_steps"] += counts["mc"]
        else:
            # Intercept and slope from two calls that differ only in trial count.
            name = "estimate.mc_containment_probability"
            with count_calls(counts, targets):
                trace.call(name, span, op_id, mc_containment_probability, h, p, rng,
                           trials=TRIALS)
            t_full = trace.last_ns
            trace.call(name, span, op_id, mc_containment_probability, h, p, rng, trials=BLOCK)
            block_ns = (t_full - trace.last_ns) / (TRIALS // BLOCK - 1)
            s["pairs"] += 1
            s["block_ns"] += block_ns
            s["call_ns"] += trace.last_ns - block_ns
            # Computed, not measured: eight bytes of random doubles and one of
            # their comparison per vertex, one gathered byte per edge vertex,
            # and the all() result and the hit update per edge.
            n, m = h.ground_size, h.edge_count
            s["bytes_per_trial"] += 9 * n + sum(x.bit_count() for x in h.masks) + 2 * m
            for b in range(TRIALS // BLOCK):
                trace.call("core.Rng.substream", span, op_id, rng.substream, b)
        s["substream_calls"] += counts["substream"]
        return []

    def layer_metrics(self, trace) -> dict:
        s = trace.sums
        pairs = max(1, s["pairs"])
        return {
            "core.Rng.substream.us_per_call": trace.per_call("core.Rng.substream", 1e-3),
            "core.Rng.substream.calls_per_op": s["substream_calls"] / s["ops"],
            "estimate.mc_containment_probability.call_ms": s["call_ns"] / pairs * 1e-6,
            "estimate.mc_containment_probability.block_ms": s["block_ns"] / pairs * 1e-6,
            "estimate.mc_containment_probability.bytes_per_trial":
                s["bytes_per_trial"] / pairs,
            "estimate.mc_critical_probability.steps_per_call":
                s["critical_steps"] / max(1, s["critical_calls"]),
        }
