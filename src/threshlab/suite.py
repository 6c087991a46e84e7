"""Deterministic acceptance suite.

Twelve numbered checks cover the package end to end: the exact halving
constant, closed-form singleton families, certified smallness against exact
thresholds, the clamped threshold upper bound, sampled fragment weights, the
tiebreaker recovery property, the three fragmentation processes, the
spread-blocks-smallness lemma, oracle cross-checks for the cover search and
the counting polynomial, and finally byte-for-byte reproducibility of this
very suite across worker counts.

The instance matrix is fixed.  Desk instances keep the ground set at or
below 24 vertices so thresholds and covers are exact; three large disjoint
sunflowers exercise the processes and the Monte Carlo route.  The one random
instance, random-12-3-20, is built from a hard-coded seed so the matrix does
not move with the run seed.

Determinism: criteria 5 to 9 run grids of cells times blocks of 500 runs.
A cell holds indices into the criterion's instance (and eps) lists, and
criterion c draws from Rng(seed, (c, *cell)): run j of the cell draws
substream(j), but criterion 5 draws substream(b) for block b and criterion
6 has the one empty cell.  Criterion 8's high-probability checks draw
Rng(seed, (8, 100 + k)).  Exact per-instance quantities (largest small q,
exact threshold, spread) are cached across reruns; every sampled quantity is
recomputed from its substream, so rerunning at another worker count
genuinely replays the parallel paths and must reproduce the records byte
for byte.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import lru_cache
from math import prod, sqrt
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .certify import (
    check_spread_not_small,
    exhaustive_min_cover_weight,
    is_q_small,
    max_small_q,
    min_cover_weight,
)
from .core import Hypergraph, Rng, VertexSet, minimize, undercovers
from .estimate import (
    CheckReport,
    constant_check,
    containment_probability,
    critical_probability,
    fragment_weight_samples,
    inclusion_exclusion_probability,
    parallel_map,
    verify_first_moment,
    verify_fragment_weight,
    verify_highprob_bound,
    verify_threshold_bound,
)
from .families import (
    cliques,
    hamilton_cycles,
    perfect_matchings,
    random_uniform,
    singletons,
    sunflower,
    triangles,
)
from .process import fragment, run_halving, run_restart, run_retry, tiebreaker_recovers_fragment

__all__ = [
    "DEFAULT_SEED",
    "DESK_INSTANCES",
    "SuiteResult",
    "get_instance",
    "q_star",
    "pc_exact",
    "run_suite",
    "CRITERIA",
]

DEFAULT_SEED = 20260823
_MATRIX_SEED = 20260823

# every ground set here is at most 24 vertices, so thresholds are exact
DESK_INSTANCES = (
    "singletons-5",
    "singletons-6",
    "singletons-8",
    "sunflower-1-3-2",
    "sunflower-2-5-2",
    "sunflower-0-8-2",
    "triangles-4",
    "triangles-5",
    "triangles-6",
    "triangles-7",
    "hamilton-4",
    "hamilton-5",
    "matchings-4",
    "matchings-6",
    "cliques-5-4",
    "random-12-3-20",
)

Q_FRAG = 1.0 / 16.0
FRAG_INSTANCES = ("triangles-5", "triangles-6", "triangles-7", "hamilton-4", "hamilton-5")
FRAG_TRIALS = 10_000

TRIPLE_TRIALS = 10_000

HALVING_INSTANCES = ("singletons-6", "singletons-8", "sunflower-0-50-2", "sunflower-0-200-2")
HALVING_RUNS = 10_000

RETRY_INSTANCES = ("triangles-5", "sunflower-0-50-2", "sunflower-0-200-2")
RETRY_EPS = (0.5, 0.25, 0.1)
RETRY_RUNS = 2_000

HIGHPROB_INSTANCE = "sunflower-0-5000-2"
HIGHPROB_EPS = (0.5, 0.25, 0.1)
HIGHPROB_TRIALS = 10_000

RESTART_INSTANCES = ("singletons-6", "singletons-8", "sunflower-0-200-2")
RESTART_EPS = (0.5, 0.25, 0.125)
RESTART_RUNS = 2_000

ORACLE_QS = (0.2, 0.45, 0.7)
ORACLE_PS = (0.1, 0.3, 0.5, 0.7, 0.9)
ORACLE_ASSIGN_LIMIT = 1 << 14
ORACLE_PROB_INSTANCES = ("triangles-4", "triangles-5")

_BLOCK = 500


@lru_cache(maxsize=None)
def get_instance(name: str) -> Hypergraph:
    parts = name.split("-")
    family, args = parts[0], [int(a) for a in parts[1:]]
    if family == "singletons":
        return singletons(args[0])
    if family == "sunflower":
        return sunflower(args[0], args[1], args[2])
    if family == "triangles":
        return triangles(args[0])
    if family == "hamilton":
        return hamilton_cycles(args[0])
    if family == "matchings":
        return perfect_matchings(args[0])
    if family == "cliques":
        return cliques(args[0], args[1])
    if family == "random":
        return random_uniform(args[0], args[1], args[2], _MATRIX_SEED)
    raise ValueError(f"unknown instance name {name!r}")


@lru_cache(maxsize=None)
def q_star(name: str) -> float:
    return max_small_q(get_instance(name))


@lru_cache(maxsize=None)
def pc_exact(name: str) -> float:
    return critical_probability(get_instance(name))


@lru_cache(maxsize=None)
def _spread_check(name: str) -> tuple[bool, tuple]:
    passed, details = check_spread_not_small(get_instance(name))
    return passed, tuple(sorted(details.items()))


@dataclass(frozen=True)
class _Ctx:
    seed: int
    workers: int


def _sigma3(p: float, n: int) -> float:
    return 3.0 * sqrt(p * (1.0 - p) / n)


def _q_above(name: str) -> float:
    """The q the process criteria run at: just above the largest small q."""
    return q_star(name) * (1.0 + 1e-6)


def _run_block(item: tuple) -> object:
    work, rng, cell, b = item
    return work(rng, cell, b)


def _grid(
    ctx: _Ctx, crit: int, work: Callable, cells: Sequence[tuple], runs: int
) -> list[list]:
    """Run `runs` trials of every cell in blocks of _BLOCK.

    Block b of a cell is work(Rng(seed, (crit, *cell)), cell, b).  Every
    block of every cell goes through one parallel_map call as a plain,
    picklable item, so `work` must be a module-level function.  Returns
    each cell's block results in block order, cells in the given order.
    """
    blocks = runs // _BLOCK
    items = [
        (work, Rng(ctx.seed, (crit, *cell)), cell, b)
        for cell in cells
        for b in range(blocks)
    ]
    res = iter(parallel_map(_run_block, items, workers=ctx.workers))
    return [[next(res) for _ in range(blocks)] for _ in cells]


# ---------------------------------------------------------------------------
# criteria


def criterion_01(ctx: _Ctx) -> list[CheckReport]:
    """The exact halving constant stays under 1/4."""
    return [constant_check()]


def _singleton_checks(k: int) -> list[CheckReport]:
    name = f"singletons-{k}"
    qv, pv = q_star(name), pc_exact(name)
    q_expect = 1.0 / (2.0 * k)
    p_expect = 1.0 - 2.0 ** (-1.0 / k)
    return [
        CheckReport(name, "singleton_q", qv, q_expect, 1e-9,
                    abs(qv - q_expect) <= 1e-9),
        CheckReport(name, "singleton_pc", pv, p_expect, 1e-9,
                    abs(pv - p_expect) <= 1e-9),
    ]


def criterion_02(ctx: _Ctx) -> list[CheckReport]:
    """Singleton families against their closed forms, k = 1..8."""
    pairs = parallel_map(_singleton_checks, range(1, 9), workers=ctx.workers)
    return [r for pair in pairs for r in pair]


def _first_moment_check(name: str) -> CheckReport:
    return verify_first_moment(
        get_instance(name), instance=name, q=q_star(name), pc=pc_exact(name)
    )


def criterion_03(ctx: _Ctx) -> list[CheckReport]:
    """Certified smallness never outruns the exact threshold."""
    return parallel_map(_first_moment_check, DESK_INSTANCES, workers=ctx.workers)


def _threshold_check(name: str) -> CheckReport:
    return verify_threshold_bound(
        get_instance(name), instance=name, q=q_star(name), pc=pc_exact(name)
    )


def criterion_04(ctx: _Ctx) -> list[CheckReport]:
    """Threshold upper bound on every desk instance, enough of them unclamped."""
    recs = parallel_map(_threshold_check, DESK_INSTANCES, workers=ctx.workers)
    unclamped = [r.instance for r in recs if not r.vacuous]
    recs.append(
        CheckReport(
            "matrix", "threshold_nonvacuous", float(len(unclamped)), 3.0, 0.0,
            len(unclamped) >= 3, False, None, 0, {"unclamped": unclamped},
        )
    )
    return recs


def _fragment_block(rng: Rng, cell: tuple[int], b: int) -> np.ndarray:
    h = get_instance(FRAG_INSTANCES[cell[0]])
    return fragment_weight_samples(h, Q_FRAG, rng.substream(b), trials=_BLOCK)


def criterion_05(ctx: _Ctx) -> list[CheckReport]:
    """Sampled per-size fragment weights against their expectation bounds."""
    cells = [(i,) for i in range(len(FRAG_INSTANCES))]
    chunks = _grid(ctx, 5, _fragment_block, cells, FRAG_TRIALS)
    recs: list[CheckReport] = []
    for cell, name, part in zip(cells, FRAG_INSTANCES, chunks):
        recs.extend(
            verify_fragment_weight(
                get_instance(name), Q_FRAG, Rng(ctx.seed, (5, *cell)),
                instance=name, samples=np.vstack(part),
            )
        )
    return recs


def _triples_block(rng: Rng, cell: tuple[()], b: int) -> int:
    ok = 0
    for j in range(b * _BLOCK, (b + 1) * _BLOCK):
        g = rng.substream(j).generator
        n = int(g.integers(3, 11))
        m = int(g.integers(1, 11))
        h = Hypergraph.from_masks(
            n, (int(g.integers(1, 1 << n)) for _ in range(m))
        )
        w = VertexSet(int(g.integers(0, 1 << n)))
        s = h.edges[int(g.integers(0, h.edge_count))]
        t, _ = fragment(h, w, s)
        if t.isdisjoint(w) and tiebreaker_recovers_fragment(h, w, s):
            ok += 1
    return ok


def criterion_06(ctx: _Ctx) -> list[CheckReport]:
    """Tiebreaker recovery on random (hypergraph, W, edge) triples."""
    (oks,) = _grid(ctx, 6, _triples_block, [()], TRIPLE_TRIALS)
    total = sum(oks)
    return [
        CheckReport(
            "random-triples", "tiebreaker_recovery", float(total),
            float(TRIPLE_TRIALS), 0.0, total == TRIPLE_TRIALS, False,
            ctx.seed, TRIPLE_TRIALS, {},
        )
    ]


def _halving_block(rng: Rng, cell: tuple[int], b: int) -> tuple[int, int]:
    name = HALVING_INSTANCES[cell[0]]
    h, q = get_instance(name), _q_above(name)
    found = dichotomy = 0
    for j in range(b * _BLOCK, (b + 1) * _BLOCK):
        tr = run_halving(h, q, rng.substream(j))
        found += tr.found
        dichotomy += tr.dichotomy_ok
    return found, dichotomy


def criterion_07(ctx: _Ctx) -> list[CheckReport]:
    """Halving runs: found-or-undercovered every time, and found often."""
    cells = [(i,) for i in range(len(HALVING_INSTANCES))]
    res = _grid(ctx, 7, _halving_block, cells, HALVING_RUNS)
    recs: list[CheckReport] = []
    for name, part in zip(HALVING_INSTANCES, res):
        found = sum(x[0] for x in part)
        dichotomy = sum(x[1] for x in part)
        phat = found / HALVING_RUNS
        sig = _sigma3(phat, HALVING_RUNS)
        q = _q_above(name)
        recs.append(
            CheckReport(name, "halving_dichotomy", float(dichotomy),
                        float(HALVING_RUNS), 0.0, dichotomy == HALVING_RUNS,
                        False, ctx.seed, HALVING_RUNS, {"q": q})
        )
        recs.append(
            CheckReport(name, "halving_found_rate", phat, 0.5, sig,
                        phat > 0.5 - sig, False, ctx.seed, HALVING_RUNS, {"q": q})
        )
    return recs


def _retry_block(rng: Rng, cell: tuple[int, int], b: int) -> tuple[int, int, int, float]:
    i, e = cell
    name = RETRY_INSTANCES[i]
    h, q = get_instance(name), _q_above(name)
    fails = fail_rounds = rounds = 0
    w_max = 0.0
    for j in range(b * _BLOCK, (b + 1) * _BLOCK):
        tr = run_retry(h, q, RETRY_EPS[e], rng.substream(j))
        if tr.successes < tr.ell_start.bit_length():
            fails += 1
        fail_rounds += sum(1 for r in tr.rounds if r.outcome == "failure")
        rounds += len(tr.rounds)
        w_max = max(w_max, tr.u_weight)
    return fails, fail_rounds, rounds, w_max


def criterion_08(ctx: _Ctx) -> list[CheckReport]:
    """Retry runs: weight cap, failure rates, round-level success odds."""
    cells = [(i, e) for i in range(len(RETRY_INSTANCES)) for e in range(len(RETRY_EPS))]
    res = dict(zip(cells, _grid(ctx, 8, _retry_block, cells, RETRY_RUNS)))

    recs: list[CheckReport] = []
    for i, name in enumerate(RETRY_INSTANCES):
        q = _q_above(name)
        small, _ = is_q_small(get_instance(name), q)
        inst_fail_rounds = inst_rounds = 0
        inst_w_max = 0.0
        for e, eps in enumerate(RETRY_EPS):
            part = res[i, e]
            fails = sum(x[0] for x in part)
            inst_fail_rounds += sum(x[1] for x in part)
            inst_rounds += sum(x[2] for x in part)
            inst_w_max = max(inst_w_max, max(x[3] for x in part))
            rate = fails / RETRY_RUNS
            sig = _sigma3(eps, RETRY_RUNS)
            recs.append(
                CheckReport(name, f"retry_failure_rate_eps{eps}", rate, eps, sig,
                            rate <= eps + sig, False, ctx.seed, RETRY_RUNS,
                            {"q": q, "not_small": not small})
            )
        recs.append(
            CheckReport(name, "retry_weight_cap", inst_w_max, 0.5, 0.0,
                        inst_w_max < 0.5, False, ctx.seed,
                        RETRY_RUNS * len(RETRY_EPS), {})
        )
        markov = inst_fail_rounds / inst_rounds
        sig = 3.0 * sqrt(0.25 / inst_rounds)
        recs.append(
            CheckReport(name, "retry_round_markov", markov, 0.5, sig,
                        markov < 0.5 + sig, False, ctx.seed, inst_rounds, {})
        )

    hp_recs = [
        verify_highprob_bound(
            get_instance(HIGHPROB_INSTANCE), eps, Rng(ctx.seed, (8, 100 + k)),
            instance=HIGHPROB_INSTANCE, q=_q_above(HIGHPROB_INSTANCE),
            trials=HIGHPROB_TRIALS,
        )
        for k, eps in enumerate(HIGHPROB_EPS)
    ]
    recs.extend(hp_recs)
    live = sum(1 for r in hp_recs if not r.vacuous and r.passed)
    recs.append(
        CheckReport("matrix", "highprob_nonvacuous", float(live), 1.0, 0.0,
                    live >= 1, False, ctx.seed, 0, {})
    )
    return recs


def _restart_block(rng: Rng, cell: tuple[int, int], b: int) -> int:
    i, e = cell
    name = RESTART_INSTANCES[i]
    h, q = get_instance(name), _q_above(name)
    return sum(
        not run_restart(h, q, RESTART_EPS[e], rng.substream(j)).found
        for j in range(b * _BLOCK, (b + 1) * _BLOCK)
    )


def criterion_09(ctx: _Ctx) -> list[CheckReport]:
    """Restart runs fail no more often than eps allows."""
    cells = [(i, e) for i in range(len(RESTART_INSTANCES)) for e in range(len(RESTART_EPS))]
    recs = []
    for (i, e), part in zip(cells, _grid(ctx, 9, _restart_block, cells, RESTART_RUNS)):
        name, eps = RESTART_INSTANCES[i], RESTART_EPS[e]
        rate = sum(part) / RESTART_RUNS
        sig = _sigma3(eps, RESTART_RUNS)
        recs.append(
            CheckReport(name, f"restart_failure_rate_eps{eps}", rate, eps,
                        sig, rate <= eps + sig, False, ctx.seed,
                        RESTART_RUNS, {"q": _q_above(name)})
        )
    return recs


def _spread_record(name: str) -> CheckReport:
    passed, items = _spread_check(name)
    details = dict(items)
    return CheckReport(
        name, "spread_not_small", details["min_cover_weight"], 1.0, 1e-9,
        passed, False, None, 0,
        {"kappa": details["kappa"], "q": details["q"],
         "is_q_small": details["is_q_small"]},
    )


def criterion_10(ctx: _Ctx) -> list[CheckReport]:
    """At q = 1/kappa no cover gets below weight one."""
    return parallel_map(_spread_record, DESK_INSTANCES, workers=ctx.workers)


def _oracle_check(item: tuple[str, float]) -> CheckReport:
    name, q = item
    h = get_instance(name)
    bw, bwit = min_cover_weight(h, q)
    ow, owit = exhaustive_min_cover_weight(h, q, max_assignments=ORACLE_ASSIGN_LIMIT)
    covers_ok = undercovers(
        Hypergraph(h.ground_size, tuple(bwit)), h
    ) and undercovers(Hypergraph(h.ground_size, tuple(owit)), h)
    return CheckReport(
        name, f"bb_vs_exhaustive_q{q}", float(bw), float(ow), 0.0,
        bw == ow and covers_ok, False, None, 0,
        {"q": q, "covers_ok": covers_ok},
    )


def criterion_11(ctx: _Ctx) -> list[CheckReport]:
    """Cover search against the exhaustive oracle; counting against
    inclusion-exclusion."""
    eligible = [
        name
        for name in DESK_INSTANCES
        if prod(1 << len(s) for s in minimize(get_instance(name)).edges)
        <= ORACLE_ASSIGN_LIMIT
    ]
    items = [(name, q) for name in eligible for q in ORACLE_QS]
    recs = parallel_map(_oracle_check, items, workers=ctx.workers)
    for name in ORACLE_PROB_INSTANCES:
        h = get_instance(name)
        for p in ORACLE_PS:
            a = containment_probability(h, p)
            b = inclusion_exclusion_probability(h, p)
            recs.append(
                CheckReport(name, f"counts_vs_inclexcl_p{p}", a, b, 1e-12,
                            abs(a - b) <= 1e-12, False, None, 0, {})
            )
    return recs


CRITERIA = {
    1: criterion_01,
    2: criterion_02,
    3: criterion_03,
    4: criterion_04,
    5: criterion_05,
    6: criterion_06,
    7: criterion_07,
    8: criterion_08,
    9: criterion_09,
    10: criterion_10,
    11: criterion_11,
}


# ---------------------------------------------------------------------------
# rendering and the reproducibility criterion

_CSV_HEADER = (
    "criterion", "instance", "operation", "lhs", "rhs", "tolerance",
    "passed", "vacuous", "seed", "trials", "details",
)


def _render_csv(rows: list[tuple[int, CheckReport]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for crit, r in rows:
        writer.writerow(
            [
                crit, r.instance, r.operation, repr(r.lhs), repr(r.rhs),
                repr(r.tolerance), str(r.passed), str(r.vacuous),
                "" if r.seed is None else str(r.seed), str(r.trials),
                json.dumps(r.details, sort_keys=True, separators=(",", ":")),
            ]
        )
    return buf.getvalue()


def _render_json(seed: int, rows: list[tuple[int, CheckReport]]) -> str:
    payload = {
        "seed": seed,
        "records": [dict(criterion=crit, **r.as_dict()) for crit, r in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _run_criteria(seed: int, workers: int, numbers: Iterable[int]) -> list[tuple[int, CheckReport]]:
    ctx = _Ctx(seed, workers)
    rows: list[tuple[int, CheckReport]] = []
    for c in numbers:
        rows.extend((c, r) for r in CRITERIA[c](ctx))
    return rows


def criterion_12(
    seed: int, workers: int, base_rows: list[tuple[int, CheckReport]],
    numbers: tuple[int, ...],
) -> list[CheckReport]:
    """The suite reproduces itself byte for byte at 1, 4 and 8 workers."""
    texts = {workers: (_render_csv(base_rows), _render_json(seed, base_rows))}
    for w in (1, 4, 8):
        if w in texts:
            continue
        rows = _run_criteria(seed, w, numbers)
        texts[w] = (_render_csv(rows), _render_json(seed, rows))
    csv_ok = len({t[0] for t in texts.values()}) == 1
    json_ok = len({t[1] for t in texts.values()}) == 1
    details = {"workers": sorted(texts)}
    return [
        CheckReport("suite", "csv_identical", float(csv_ok), 1.0, 0.0,
                    csv_ok, False, seed, 0, details),
        CheckReport("suite", "json_identical", float(json_ok), 1.0, 0.0,
                    json_ok, False, seed, 0, details),
    ]


@dataclass(frozen=True)
class SuiteResult:
    seed: int
    workers: int
    rows: tuple[tuple[int, CheckReport], ...]
    csv_text: str
    json_text: str
    summary_text: str

    @property
    def passed(self) -> bool:
        return all(r.passed for _, r in self.rows)

    def records(self, criterion: int) -> list[CheckReport]:
        return [r for c, r in self.rows if c == criterion]


def _summary(rows: list[tuple[int, CheckReport]]) -> str:
    lines = []
    for c in sorted({c for c, _ in rows}):
        recs = [r for cc, r in rows if cc == c]
        good = sum(1 for r in recs if r.passed)
        vac = sum(1 for r in recs if r.vacuous)
        tail = f", {vac} vacuous" if vac else ""
        verdict = "PASS" if good == len(recs) else "FAIL"
        lines.append(f"criterion {c:2d}: {verdict} ({good}/{len(recs)} checks{tail})")
    overall = "PASS" if all(r.passed for _, r in rows) else "FAIL"
    lines.append(f"suite: {overall}")
    return "\n".join(lines) + "\n"


def run_suite(
    seed: int = DEFAULT_SEED,
    *,
    workers: int = 1,
    out_dir: str | Path | None = None,
    only: Iterable[int] | None = None,
) -> SuiteResult:
    """Run the acceptance suite and, optionally, write its records.

    Records land in records.csv and records.json under out_dir; both files
    are byte-identical for a fixed seed no matter the worker count.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    selected = tuple(sorted(set(only))) if only is not None else tuple(range(1, 13))
    if any(c < 1 or c > 12 for c in selected):
        raise ValueError("criteria numbers run from 1 to 12")
    base = tuple(c for c in selected if c <= 11)
    rows = _run_criteria(seed, workers, base)
    if 12 in selected:
        rows = rows + [(12, r) for r in criterion_12(seed, workers, rows, base)]
    csv_text = _render_csv(rows)
    json_text = _render_json(seed, rows)
    summary = _summary(rows)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "records.csv").write_text(csv_text, encoding="utf-8")
        (out / "records.json").write_text(json_text, encoding="utf-8")
        (out / "summary.txt").write_text(summary, encoding="utf-8")
    return SuiteResult(seed, workers, tuple(rows), csv_text, json_text, summary)
