"""suite-slice: the acceptance suite from cold caches, at two workers.

One op is run_suite(seed, workers=2, only=SUITE_SLICE) after every package
cache is emptied, as a user's `threshlab suite` starts.  Criteria 7-9 are
left out because they are long and process-mix, exact-desk and mc-large
cover their layers; criterion 12 replays at 4 and 8 workers, more than this
two-core budget.  The records text is the byte-identity gate: its digest is
stored for the default seed, and the rows of criteria 1-4, 10 and 11, which
do not depend on the seed, are checked on every seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from harness import cold_caches
from metrics import SUITE_SLICE
from threshlab.core import Rng
from threshlab.estimate import fragment_weight_samples, parallel_map
from threshlab.suite import DESK_INSTANCES, get_instance, pc_exact, q_star, run_suite

WORKERS = 2
SEED_FREE = {"1", "2", "3", "4", "10", "11"}

# The parallel_map probe: criterion 5's work in smaller blocks.
PROBE_INSTANCES = ("triangles-5", "triangles-6", "triangles-7", "hamilton-4", "hamilton-5")
PROBE_Q = 1.0 / 16.0
PROBE_BLOCKS = 2
PROBE_TRIALS = 400


def fragment_block(item) -> np.ndarray:
    """One probe item; module level so that a process pool can pickle it."""
    name, seed, block = item
    rng = Rng(seed, (5, PROBE_INSTANCES.index(name), block))
    return fragment_weight_samples(get_instance(name), PROBE_Q, rng, trials=PROBE_TRIALS)


def seed_free_rows(csv_text: str) -> str:
    lines = csv_text.splitlines(keepends=True)
    return "".join(line for line in lines[1:] if line.split(",", 1)[0] in SEED_FREE)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fill_exact() -> None:
    """The exact per-instance answers the slice caches: q* and p_c."""
    for name in DESK_INSTANCES + tuple(f"singletons-{k}" for k in range(1, 9)):
        q_star(name)
        pc_exact(name)


class SuiteSlice:
    name = "suite-slice"
    # The ops' two threads are GIL-bound, so they take turns like the
    # probe's two threads; a one-thread probe tracked them worse than none.
    probe_threads = WORKERS

    def __init__(self, seed: int, refs: dict) -> None:
        self.seed = seed
        self.refs = refs

    def setup(self) -> None:
        self.seed_free = self.refs["suite_seed_free_rows"]
        self.probe = [(name, self.seed, b) for name in PROBE_INSTANCES
                      for b in range(PROBE_BLOCKS)]

    def make_pass(self, index: int) -> list:
        cold_caches()
        return [index]

    def run_op(self, op):
        return run_suite(self.seed, workers=WORKERS, only=SUITE_SLICE)

    def input_key(self, op):
        return self.seed

    def digest_item(self, op, res) -> bytes:
        return (res.csv_text + res.json_text).encode()

    def check(self, op, res) -> tuple[list[str], bool]:
        wrong = []
        if not res.passed:
            wrong.append("suite reported FAIL:\n" + res.summary_text)
        if text_digest(seed_free_rows(res.csv_text)) != self.seed_free:
            wrong.append("rows of the seed-free criteria differ from the stored digest")
        return wrong, False

    # -- traced run -----------------------------------------------------------

    def replay(self, op, res, trace, span, op_id) -> list[str]:
        cold_caches()
        trace.call("suite.cold_exact", span, op_id, fill_exact)
        for c in SUITE_SLICE:
            trace.call(f"suite.criterion_{c:02d}", span, op_id, run_suite,
                       self.seed, workers=WORKERS, only=(c,))
        one = trace.call("estimate.parallel_map.w1", span, op_id, parallel_map,
                         fragment_block, self.probe, workers=1)
        two = trace.call("estimate.parallel_map.w2", span, op_id, parallel_map,
                         fragment_block, self.probe, workers=2)
        if not all(np.array_equal(a, b) for a, b in zip(one, two)):
            return ["parallel_map gave different results at 1 and 2 workers"]
        return []

    def layer_metrics(self, trace) -> dict:
        out = {f"suite.criterion_{c:02d}.s": trace.per_call(f"suite.criterion_{c:02d}", 1e-9)
               for c in SUITE_SLICE}
        w1 = trace.busy_ns["estimate.parallel_map.w1"]
        out.update({
            "suite.cold_exact_s": trace.per_call("suite.cold_exact", 1e-9),
            "estimate.fragment_weight_samples.ms_per_call":
                w1 / (trace.calls["estimate.parallel_map.w1"] * len(self.probe)) * 1e-6,
            "estimate.parallel_map.speedup_w2": w1 / trace.busy_ns["estimate.parallel_map.w2"],
        })
        return out
