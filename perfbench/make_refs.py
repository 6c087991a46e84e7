#!/usr/bin/env python3
"""Regenerate perfbench/refs.json.

    python3 perfbench/make_refs.py

Exact-desk answers come from the package and are re-derived, wherever the
shape allows, by the package's independent oracles and by closed forms; the
script stops if any of them disagree.  Output digests are recorded for the
default seed only.  Rerun it only when a change is meant to move a stored
answer, and say in CHANGES.md what moved and why.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from run import HERE, load_package, workload_class

load_package()

from harness import DEFAULT_SEED, pass_digests  # noqa: E402
from suite_slice import seed_free_rows, text_digest  # noqa: E402
from threshlab.certify import exhaustive_min_cover_weight, max_small_q, spread_of  # noqa: E402
from threshlab.core import minimize  # noqa: E402
from threshlab.estimate import (  # noqa: E402
    EXACT_GROUND_LIMIT,
    critical_probability,
    inclusion_exclusion_probability,
)
from threshlab.suite import run_suite  # noqa: E402
import exact_desk  # noqa: E402
from metrics import SUITE_SLICE  # noqa: E402

TOL = 1e-9
ORACLE_ASSIGNMENTS = 1 << 14
ORACLE_EDGES = 16
DIGEST_PASSES = {"process-mix": 8, "exact-desk": 1, "mc-large": 3, "suite-slice": 3}


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"reference disagreement: {what}")


def bisect(decide) -> float:
    """max_small_q's and critical_probability's bisection on another decider."""
    lo, hi = 0.0, 1.0
    while hi - lo > TOL:
        mid = (lo + hi) / 2
        if decide(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def brute_spread(h) -> float:
    """min over nonempty Y inside an edge of (m / #edges containing Y)^(1/|Y|)."""
    edges = sorted(set(h.masks))
    subsets = set()
    for e in edges:
        sub = e
        while sub:
            subsets.add(sub)
            sub = (sub - 1) & e
    m = len(edges)
    return min((m / sum(1 for e in edges if y & ~e == 0)) ** (1 / y.bit_count())
               for y in subsets)


def closed_forms(name: str):
    """(q*, p_c, kappa) where a closed form is known, else None."""
    parts = name.split("-")
    if parts[0] == "singletons":
        k = int(parts[1])
        return 1 / (2 * k), 1 - 2 ** (-1 / k), float(k)
    if parts[0] == "sunflower" and parts[1] == "0" and parts[3] == "2":
        petals = int(parts[2])
        return math.sqrt(1 / (2 * petals)), math.sqrt(1 - 2 ** (-1 / petals)), math.sqrt(petals)
    return None


def exact_reference(name: str, h) -> dict:
    q = max_small_q(h)
    pc = critical_probability(h) if h.ground_size <= EXACT_GROUND_LIMIT else None
    kappa = spread_of(h).kappa
    checked = []
    hm = minimize(h)
    if math.prod(1 << e.bit_count() for e in hm.masks) <= ORACLE_ASSIGNMENTS:
        q_oracle = bisect(lambda x: exhaustive_min_cover_weight(
            h, x, max_assignments=ORACLE_ASSIGNMENTS)[0] <= Fraction(1, 2))
        require(q_oracle == q, (name, q, q_oracle))
        checked.append("q_star=exhaustive_min_cover_weight")
    if pc is not None and len(set(h.masks)) <= ORACLE_EDGES:
        pc_oracle = bisect(lambda p: inclusion_exclusion_probability(h, p) < 0.5)
        require(abs(pc_oracle - pc) <= TOL, (name, pc, pc_oracle))
        checked.append("p_c=inclusion_exclusion_probability")
    require(math.isclose(brute_spread(h), kappa, rel_tol=1e-12), name)
    checked.append("kappa=brute force")
    forms = closed_forms(name)
    if forms is not None:
        fq, fp, fk = forms
        require(abs(q - fq) <= TOL / 2, (name, q, fq))
        require(pc is None or abs(pc - fp) <= TOL, (name, pc, fp))
        require(math.isclose(kappa, fk, rel_tol=1e-12), (name, kappa, fk))
        checked.append("closed form")
    return {"q_star": q, "p_c": pc, "kappa": kappa, "checked_by": checked}


def main() -> None:
    refs = {
        "seed": DEFAULT_SEED,
        "exact": {name: exact_reference(name, build())
                  for name, (build, _) in exact_desk.SHAPES.items()},
    }
    fixed = run_suite(DEFAULT_SEED, workers=1, only=SUITE_SLICE).csv_text
    refs["suite_seed_free_rows"] = text_digest(seed_free_rows(fixed))
    refs["digests"] = {}
    for name, passes in DIGEST_PASSES.items():
        wl = workload_class(name)(DEFAULT_SEED, refs)
        wl.setup()
        refs["digests"][name] = pass_digests(wl, passes)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
