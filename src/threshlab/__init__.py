"""A desk-scale laboratory for hypergraph threshold phenomena.

Build hypergraph families, certify q-smallness with exact minimum-weight
covers, compute spread, locate critical probabilities exactly or by Monte
Carlo, and run three randomized fragmentation processes whose invariants are
checked on every trace.  A fixed-seed acceptance suite ties it together.
"""

from .certify import (
    Cover,
    SpreadWitness,
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
from .core import (
    FormatError,
    Hypergraph,
    ResourceLimitError,
    Rng,
    ThreshlabError,
    TrivialHypergraphError,
    VertexSet,
    contains_edge,
    format_hypergraph,
    minimize,
    parse_hypergraph,
    read_hypergraph,
    sample_bernoulli,
    sample_uniform_of_size,
    undercovers,
)
from .estimate import (
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
    verify_threshold_bound,
    wilson_interval,
)
from .families import (
    cliques,
    hamilton_cycles,
    make_family,
    perfect_matchings,
    random_uniform,
    singletons,
    sunflower,
    triangles,
)
from .process import (
    ProcessInvariantError,
    ProcessTrace,
    RoundRecord,
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
from .suite import DEFAULT_SEED, SuiteResult, run_suite

__version__ = "0.1.0"
