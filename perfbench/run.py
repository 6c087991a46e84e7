#!/usr/bin/env python3
"""The threshlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src, never
from an installed copy; without ./src/threshlab the script exits non-zero
and prints no result.  Inputs are a function of --seed.  Whole passes over
the workload's inputs are measured for about --seconds seconds, every output
is checked, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run measures an untraced half
and a traced half, reports the per-layer metrics and writes its spans.
Everything a run writes goes under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("process-mix", "exact-desk", "mc-large", "suite-slice")
SETUPS = 9  # set-ups per run; setup_s reports their median


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 1 << 63:
        ap.error("--seed must be a non-negative 63-bit integer")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def load_package() -> None:
    """Import threshlab from ./src, never from an installed copy."""
    init = SRC / "threshlab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a threshlab checkout")
    sys.path.insert(0, str(SRC))
    import threshlab

    if Path(threshlab.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported threshlab from {threshlab.__file__}, not {init}")


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import the package
    and the benchmark's workload modules."""
    code = "import exact_desk, mc_large, process_mix, suite_slice"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(HERE)))}
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def workload_class(name: str):
    import exact_desk, mc_large, process_mix, suite_slice  # noqa: E401

    return {
        "process-mix": process_mix.ProcessMix,
        "exact-desk": exact_desk.ExactDesk,
        "mc-large": mc_large.McLarge,
        "suite-slice": suite_slice.SuiteSlice,
    }[name]


def set_up(cls, seed: int):
    """Build the workload SETUPS times; keep the last, report the median."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
        wl = cls(seed, refs)
        wl.setup()
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times)


def op_stats(wl, op_ns: list[float], pass_ns: list[float]) -> tuple[dict, str]:
    """ops_per_s, op_p50_ms and op_tail_ms from op and pass times in ns."""
    from harness import percentile
    from metrics import TAIL

    op_ms = [ns * 1e-6 for ns in op_ns]
    tail_p = TAIL[wl.name]
    tail, beyond = percentile(op_ms, tail_p) if tail_p else (0.0, 0)
    if beyond >= 10:
        tail_label = f"p{round(tail_p * 100)} of {len(op_ms)} ops ({beyond} beyond)"
    else:
        tail = statistics.median(op_ms)
        tail_label = f"median of {len(op_ms)} ops (too few for a tail percentile)"
    stats = {
        "ops_per_s": len(op_ms) / len(pass_ns) / (statistics.median(pass_ns) * 1e-9),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": tail,
    }
    return stats, tail_label


def end_to_end(wl, loop, setup_s: float) -> tuple[dict, list[str]]:
    from harness import peak_rss_mb, reference_times

    ref_ops, ref_passes = reference_times(loop)
    stats, tail_label = op_stats(wl, ref_ops, ref_passes)
    raw, _ = op_stats(wl, loop.op_ns, loop.pass_ns)
    values = {**stats, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    notes = [
        f"wall_s: {statistics.median(ref_passes) * 1e-9:.6g} s, the median reference time "
        f"of one pass ({len(loop.pass_ns)} passes, "
        f"{len(loop.op_ns) // len(loop.pass_ns)} ops each)",
        f"op_tail_ms: {tail_label}",
        "op times above are in reference time (perfbench/pace.py); in wall time: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
        + f", wall_s {statistics.median(loop.pass_ns) * 1e-9:.6g}",
        f"reference kernel: {len(loop.probe_ns)} probes, median "
        f"{statistics.median(loop.probe_ns) * 1e-6:.4g} ms, quartiles "
        + " / ".join(f"{q * 1e-6:.4g}" for q in statistics.quantiles(loop.probe_ns, n=4))
        + " ms",
    ]
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import harness
    from metrics import PER_LAYER, UNITS

    facts = harness.machine_facts(ROOT)
    wl, setup_s = set_up(workload_class(args.workload), args.seed)
    setup_s += import_seconds()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        untraced = harness.measure(wl, args.seconds / 2)
        trace = harness.Trace()
        traced = harness.measure(wl, args.seconds / 2, trace,
                                 pass_offset=len(untraced.pass_ns))
        loops = (untraced, traced)
        values = {name: 0.0 for name, _, _ in PER_LAYER}
        values.update(wl.layer_metrics(trace))
        values["trace.overhead_frac"] = (
            (untraced.attempted / untraced.wall_s) / (traced.attempted / traced.wall_s) - 1.0
        )
        values["input.repeat_frac"] = harness.repeat_frac(
            untraced.input_keys + traced.input_keys)
        trace.write(OUT / f"{stem}-spans.json")
        notes = [f"spans: {len(trace.spans)} written to perfbench/out/{stem}-spans.json"]
    else:
        loop = harness.measure(wl, args.seconds)
        loops = (loop,)
        values, notes = end_to_end(wl, loop, setup_s)
        notes.append(f"input.repeat_frac: {harness.repeat_frac(loop.input_keys):.6g}")

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    wrong = [w for lp in loops for w in lp.wrong]
    facts["loadavg_end"] = harness.loadavg()
    notes.append(f"failed_frac: {failed / max(1, attempted):.6g} ({failed} of {attempted} ops)")

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "facts": facts, "notes": notes, "problems": wrong[:50], **result},
                   indent=2) + "\n",
        encoding="utf-8",
    )
    for w in wrong[:10]:
        print("problem:", w, file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for k, v in values.items():
        print(f"  {k:52s} {v:14.6g} {UNITS[k]}")
    for note in notes:
        print("  " + note)
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
