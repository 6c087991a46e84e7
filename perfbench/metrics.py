"""Names and units of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same names; selfcheck.py
fails when the two disagree.
"""

# (name, unit, better)
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# The tail percentile each workload reports as op_tail_ms.  A run with fewer
# than ten ops beyond it, and every suite-slice run, which has a few ops at
# most, reports the median op instead.
TAIL = {"process-mix": 0.90, "exact-desk": 0.90, "mc-large": 0.90, "suite-slice": None}

SUITE_SLICE = (1, 2, 3, 4, 5, 6, 10, 11)

# (name, unit, better).  A layer metric that a workload's replays do not
# measure reads 0 on that workload; NOTES.md says where each one is measured.
PER_LAYER = (
    ("core.minimize.us_per_call", "us", "lower"),
    ("core.minimize.calls_per_op", "count", "lower"),
    ("core.Rng.substream.us_per_call", "us", "lower"),
    ("core.Rng.substream.calls_per_op", "count", "lower"),
    ("core.sample_uniform_of_size.us_per_call", "us", "lower"),
    ("core.sample_bernoulli.us_per_call", "us", "lower"),
    ("core.contains_edge.us_per_call", "us", "lower"),
    ("core.undercovers.us_per_call", "us", "lower"),
    ("process.halving_round.us_per_call", "us", "lower"),
    ("process.halving_round.calls_per_op", "count", "lower"),
    ("process.halving_round.submask_visits_per_call", "count", "lower"),
    ("process.glue_us_per_op", "us", "lower"),
    ("process.rounds_per_op", "count", "lower"),
    ("process.retry.accepted_round_frac", "frac", "higher"),
    ("process.found_frac", "frac", "higher"),
    ("certify.max_small_q.ms_per_call", "ms", "lower"),
    ("certify.max_small_q.bisection_steps", "count", "lower"),
    ("certify.min_cover_weight.ms_per_call", "ms", "lower"),
    ("certify.candidate_pool_size", "count", "lower"),
    ("certify.spread_of.ms_per_call", "ms", "lower"),
    ("certify.validate_cover.ms_per_call", "ms", "lower"),
    ("certify.cert_rejected_frac", "frac", "lower"),
    ("certify.cover_weight.us_per_call", "us", "lower"),
    ("estimate.containment_counts.ms_per_call", "ms", "lower"),
    ("estimate.containment_counts.subsets_per_call", "count", "lower"),
    ("estimate.critical_probability.ms_per_call", "ms", "lower"),
    ("estimate.mc_containment_probability.call_ms", "ms", "lower"),
    ("estimate.mc_containment_probability.block_ms", "ms", "lower"),
    ("estimate.mc_containment_probability.bytes_per_trial", "B", "lower"),
    ("estimate.mc_critical_probability.steps_per_call", "count", "lower"),
    ("estimate.fragment_weight_samples.ms_per_call", "ms", "lower"),
    ("estimate.parallel_map.speedup_w2", "ratio", "higher"),
    *((f"suite.criterion_{c:02d}.s", "s", "lower") for c in SUITE_SLICE),
    ("suite.cold_exact_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("input.repeat_frac", "frac", "higher"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
