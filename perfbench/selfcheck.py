#!/usr/bin/env python3
"""The benchmark's own checks; they are not part of the test suite.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json names the metrics metrics.py defines, with their units.
2. Relabelling keeps q*, p_c and kappa of every exact-desk shape bit for bit.
3. A wrong answer, and an altered stored digest, count as failed ops and
   make the run incorrect.
4. Smoke: every workload runs for one second, traced and untraced, and
   prints every metric name with its unit.
5. Without the package sources beside it the benchmark exits non-zero and
   prints no result.
Takes about two minutes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np

from run import HERE, OUT, ROOT, WORKLOADS, load_package, workload_class

load_package()

import exact_desk  # noqa: E402
import harness  # noqa: E402
from metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402


def check_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, spec in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        if listed != list(spec):
            raise SystemExit(f"BENCHMARK.json {key} differs from metrics.py")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from run.py")
    print("ok  BENCHMARK.json matches metrics.py")


def check_relabelling(refs: dict) -> None:
    wl = workload_class("exact-desk")(harness.DEFAULT_SEED, refs)
    wl.setup()
    g = np.random.default_rng(1)
    for name, h in wl.base.items():
        for _ in range(2):
            hr = exact_desk.relabel(h, g.permutation(h.ground_size))
            q, _, _, _, kappa, pc = wl.run_op((name, hr))
            ref = refs["exact"][name]
            if (q, pc, kappa) != (ref["q_star"], ref["p_c"], ref["kappa"]):
                raise SystemExit(f"relabelling moved {name}: {(q, pc, kappa)} vs {ref}")
    print(f"ok  relabelling keeps q*, p_c and kappa on {len(wl.base)} shapes")


def _tampered(name: str, res):
    """The op's result with one answer made wrong."""
    if name == "process-mix":
        return dataclasses.replace(res, contained=not res.contained)
    if name == "exact-desk":
        return (res[0] + 1e-6,) + res[1:]
    if name == "mc-large":
        return dataclasses.replace(res, value=float(res.value < 0.5), ci_low=2.0, ci_high=3.0)
    return dataclasses.replace(res, rows=(), summary_text="tampered",
                               csv_text=res.csv_text.replace("True", "False"))


def check_failures_count(refs: dict) -> None:
    for name in ("process-mix", "exact-desk", "mc-large"):
        wl = workload_class(name)(harness.DEFAULT_SEED, refs)
        wl.setup()
        real = wl.run_op
        wl.run_op = lambda op, _real=real, _name=name: _tampered(_name, _real(op))
        loop = harness.measure(wl, 0.0)
        if loop.failed != loop.attempted or not loop.wrong:
            raise SystemExit(f"{name}: wrong answers were not counted as failed ops")
        altered = copy.deepcopy(refs)
        altered["digests"][name][0] = "0" * 64
        wl = workload_class(name)(harness.DEFAULT_SEED, altered)
        wl.setup()
        loop = harness.measure(wl, 0.0)
        if not any("digest" in w for w in loop.wrong):
            raise SystemExit(f"{name}: an altered digest went unnoticed")
    wl = workload_class("suite-slice")(harness.DEFAULT_SEED, refs)
    wl.setup()
    res = wl.run_op(0)
    if not wl.check(0, _tampered("suite-slice", res))[0]:
        raise SystemExit("suite-slice: a failing suite result was accepted")
    print("ok  wrong answers and altered digests count as failed ops")


def check_smoke() -> None:
    for trace, spec in ((0, END_TO_END), (1, PER_LAYER)):
        for name in WORKLOADS:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != {n: u for n, u, _ in spec} or not result["correct"]:
                raise SystemExit(f"smoke {name} trace {trace}: {result}")
    for name, unit, _ in END_TO_END + PER_LAYER:
        print(f"    {name:52s} {unit}")
    print("ok  smoke: every workload prints every metric with its unit")


def check_refuses_without_sources() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mc-large", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        raise SystemExit("the benchmark ran without the package sources")
    print("ok  without ./src the benchmark exits", out.returncode, "and prints no result")


def main() -> None:
    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    check_benchmark_json()
    check_relabelling(refs)
    check_failures_count(refs)
    check_smoke()
    check_refuses_without_sources()
    print("units:", len(UNITS), "metrics")


if __name__ == "__main__":
    main()
