"""The closed op loop, spans, call counters and machine facts.

Every workload is one client in one process: it sends its next op only after
the previous one returned.  Ops come in passes; a pass is the workload's
fixed multiset of inputs in a seed-drawn order, and a run measures whole
passes only, so every run times the same mix whatever its length.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pace
import threshlab

# Digests of the outputs are stored for this seed only; every other seed is
# checked by invariants and closed forms.
DEFAULT_SEED = 20260823

# Op time between two probes of the reference kernel (see pace.py).
PROBE_GAP_NS = 150_000_000


def threshlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "threshlab" or name.startswith("threshlab.")]


def cold_caches() -> None:
    """Empty every functools cache in the package, as a fresh process has."""
    for mod in threshlab_modules():
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


@contextmanager
def count_calls(counts: dict, targets: dict):
    """Count calls to functions while the block runs.

    targets maps a counter key to (owner, attribute).  An owner that is a
    package function is replaced wherever a package module binds it, so a
    caller that imported it by name is counted too; a class attribute is
    replaced on the class.
    """
    patched = []
    try:
        for key, (owner, attr) in targets.items():
            orig = getattr(owner, attr)
            places = [owner] if isinstance(owner, type) else [
                m for m in threshlab_modules() if getattr(m, attr, None) is orig
            ]

            def wrapper(*args, _orig=orig, _key=key, **kwargs):
                counts[_key] += 1
                return _orig(*args, **kwargs)

            for place in places:
                setattr(place, attr, wrapper)
                patched.append((place, attr, orig))
        yield counts
    finally:
        for place, attr, orig in reversed(patched):
            setattr(place, attr, orig)


class Trace:
    """In-memory spans plus per-layer busy time and call counts.

    A span is (id, name, start_ns, end_ns, parent id, op id); spans of one op
    share its op id.  Layer spans come from replaying a layer's public
    function on the op's own inputs after the op, outside its timing.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.sums: dict[str, float] = defaultdict(float)
        self.op_layer_ns = 0
        self.last_ns = 0

    def add(self, name: str, start: int, end: int, parent: int, op_id: int) -> int:
        span_id = len(self.spans) + 1
        self.spans.append((span_id, name, start, end, parent, op_id))
        return span_id

    def call(self, name: str, parent: int, op_id: int, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter_ns()
        self.add(name, t0, t1, parent, op_id)
        self.last_ns = t1 - t0
        self.busy_ns[name] += t1 - t0
        self.calls[name] += 1
        self.op_layer_ns += t1 - t0
        return out

    def per_call(self, name: str, scale: float) -> float:
        n = self.calls.get(name, 0)
        return self.busy_ns[name] / n * scale if n else 0.0

    def write(self, path: Path) -> None:
        rows = [
            {"id": s, "name": n, "start_ns": a, "end_ns": b, "parent": p, "op": o}
            for s, n, a, b, p, o in self.spans
        ]
        path.write_text(json.dumps(rows, separators=(",", ":")) + "\n", encoding="utf-8")


@dataclass
class Loop:
    """What one measured segment saw."""

    op_ns: list[int] = field(default_factory=list)
    op_pass: list[int] = field(default_factory=list)
    pass_ns: list[int] = field(default_factory=list)
    probe_at: list[int] = field(default_factory=list)
    probe_ns: list[int] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    input_keys: list = field(default_factory=list)


def measure(wl, seconds: float, trace: Trace | None = None, pass_offset: int = 0) -> Loop:
    """Run whole passes until the next one would end past `seconds`.

    At least one pass always runs.  Op time covers the op's calls only;
    checking, digesting and, when traced, the layer replays happen outside,
    and so do the reference kernel's probes, one at the start, one after
    every PROBE_GAP_NS of op time and one at the end.
    """
    loop = Loop()
    start = time.perf_counter()
    index = pass_offset
    since_probe = 0

    def take_probe():
        loop.probe_at.append(len(loop.op_ns))
        loop.probe_ns.append(pace.probe(since_probe, wl.probe_threads))

    take_probe()
    while True:
        ops = wl.make_pass(index)
        digest = hashlib.sha256() if wl.seed == DEFAULT_SEED else None
        p0 = time.perf_counter()
        pass_ns = 0
        for op in ops:
            op_id = loop.attempted + 1
            if trace is not None:
                trace.op_layer_ns = 0
            t0 = time.perf_counter_ns()
            try:
                res = wl.run_op(op)
            except Exception:
                t1 = time.perf_counter_ns()
                loop.attempted += 1
                loop.failed += 1
                loop.wrong.append(f"op {op_id} raised: " + traceback.format_exc(limit=3))
                continue
            t1 = time.perf_counter_ns()
            loop.attempted += 1
            loop.op_ns.append(t1 - t0)
            loop.op_pass.append(len(loop.pass_ns))
            pass_ns += t1 - t0
            since_probe += t1 - t0
            loop.input_keys.append(wl.input_key(op))
            wrong, failed = wl.check(op, res)
            if wrong:
                loop.wrong.extend(f"op {op_id}: {w}" for w in wrong)
            if wrong or failed:
                loop.failed += 1
            if digest is not None:
                digest.update(wl.digest_item(op, res))
            if trace is not None:
                span = trace.add("op." + wl.name, t0, t1, 0, op_id)
                wrong = wl.replay(op, res, trace, span, op_id)
                if wrong:
                    loop.wrong.extend(f"op {op_id} replay: {w}" for w in wrong)
                    loop.failed += 1
                trace.sums["op_ns_minus_layers"] += (t1 - t0) - trace.op_layer_ns
            if since_probe >= PROBE_GAP_NS:
                take_probe()
                since_probe = 0
        loop.pass_ns.append(pass_ns)
        if digest is not None:
            stored = wl.refs["digests"][wl.name]
            if index < len(stored) and digest.hexdigest() != stored[index]:
                loop.wrong.append(f"pass {index}: output digest differs from the stored one")
        index += 1
        last = time.perf_counter() - p0
        if time.perf_counter() - start + last > seconds:
            break
    take_probe()
    loop.wall_s = time.perf_counter() - start
    return loop


def reference_times(loop: Loop) -> tuple[list[float], list[float]]:
    """Op times and pass times in reference ns (see pace.py)."""
    scales = pace.op_scales(loop.probe_at, loop.probe_ns, len(loop.op_ns))
    ops = [ns * f for ns, f in zip(loop.op_ns, scales)]
    passes = [0.0] * len(loop.pass_ns)
    for ns, k in zip(ops, loop.op_pass):
        passes[k] += ns
    return ops, passes


def pass_digests(wl, passes: int) -> list[str]:
    """Output digests of the first passes, as measure() computes them."""
    out = []
    for index in range(passes):
        digest = hashlib.sha256()
        for op in wl.make_pass(index):
            digest.update(wl.digest_item(op, wl.run_op(op)))
        out.append(digest.hexdigest())
    return out


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def repeat_frac(keys: list) -> float:
    """Share of ops whose input equals an earlier op's input."""
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _git_revision(root: Path) -> str:
    head = _read(str(root / ".git" / "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        rev = _read(str(root / ".git" / ref))
        if not rev:
            for line in _read(str(root / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    rev = line.split()[0]
        return rev or "unknown"
    return head or "unknown"


def machine_facts(root: Path) -> dict:
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(index / "size"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "cache": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threshlab": threshlab.__version__,
        "git_revision": _git_revision(root),
        "loadavg": loadavg(),
    }


def loadavg() -> str:
    return _read("/proc/loadavg")
