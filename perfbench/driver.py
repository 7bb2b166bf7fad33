"""Benchmark driver: one workload, one process (started by ``run.py``).

Sets up the workload (input generation, construction, warm-up), then
times it in chunks of roughly one second until ``--seconds`` have passed.
A machine probe runs before and after every chunk, with a
``gc.collect()`` ahead of it; timed figures are probe-adjusted (see
:mod:`perfbench.probe`). After the timed window the workload's output
checks run. The last line of stdout is one JSON object.

With ``--trace 1`` chunks alternate between untraced and traced, pairs
of chunks sharing the same inputs; the traced ones give the per-layer
metrics and the pairs give the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import sys
import time

import numpy as np

T_LAUNCH = float(os.environ.get("PERFBENCH_T0", time.monotonic()))

from perfbench import workloads  # noqa: E402  (imports the program)
from perfbench.probe import MachineProbe, NOMINAL_PROBE_MS, adjust  # noqa: E402
from perfbench.tracer import ROOT, Tracer  # noqa: E402

#: Ops a run needs before its p95 has ten samples beyond it.
MIN_LATENCY_OPS = 200
#: Traced chunks whose counts are reported (the first ones, fixed inputs).
COUNTED_CHUNKS = 2
#: Allowed mismatch between summed self times and traced wall time.
COVERAGE_TOLERANCE = 0.05
WORK_DIR = pathlib.Path(".perfbench")
KERNEL_PREFIX = "vectorized.backends.kernel."


def _percentile_ms(values, q: float) -> float:
    return 1e3 * float(np.percentile(np.asarray(values), q))


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Segments:
    """A chunk's timeline, split by probes the workload may request.

    A workload whose ops are short calls ``checkpoint()`` between ops;
    each checkpoint closes a segment with a probe, so a slow spell of the
    machine inside a long chunk is caught by the probes nearest to it.
    Probe time is excluded from every segment.
    """

    def __init__(self, probe: MachineProbe, before_ms: float, enabled: bool):
        self._probe = probe
        self._enabled = enabled
        self._before = before_ms
        #: ``(raw seconds, probe before, probe after)`` per closed segment.
        self.parts = []
        self._start = time.perf_counter()
        self._end = None

    def checkpoint(self) -> int:
        """Close the current segment; returns its index."""
        if not self._enabled:
            return 0
        t = time.perf_counter()
        after = self._probe.measure_ms()
        self.parts.append((t - self._start, self._before, after))
        self._before = after
        self._start = time.perf_counter()
        return len(self.parts) - 1

    def stop(self) -> None:
        self._end = time.perf_counter()

    def close(self, after_ms: float) -> None:
        self.parts.append((self._end - self._start, self._before, after_ms))


class Chunk:
    def __init__(self, index, segments: Segments, traced, result):
        self.index = index
        self.parts = segments.parts
        self.raw_s = sum(raw for raw, _, _ in self.parts)
        self.adjusted_s = sum(adjust(*part) for part in self.parts)
        self.probes = [self.parts[0][1]] + [after for _, _, after in self.parts]
        self.traced = traced
        self.result = result

    def factor(self, segment: int = 0) -> float:
        return NOMINAL_PROBE_MS / (0.5 * (self.parts[segment][1] + self.parts[segment][2]))

    @property
    def chunk_factor(self) -> float:
        return self.adjusted_s / self.raw_s


def measure(workload, probe: MachineProbe, seconds: float, tracer=None):
    """Run chunks until ``seconds`` have passed; returns the chunks."""
    min_chunks = 2 * COUNTED_CHUNKS if tracer else 3
    chunks = []
    index = 0
    prepared = workload.prepare(0)
    gc.collect()
    before = probe.measure_ms()
    deadline = time.monotonic() + seconds
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.op = index
            tracer.install()
            tracer.begin_root()
        # Traced runs keep chunks whole, so the traced chunk and its
        # untraced twin are timed alike.
        segments = Segments(probe, before, enabled=tracer is None)
        raw = workload.execute(prepared, segments.checkpoint)
        segments.stop()
        if traced:
            tracer.end_root()
            tracer.uninstall()
        result = workload.collect(prepared, raw)
        index += 1
        # Under tracing, chunk pairs (2k, 2k+1) share inputs so the traced
        # chunk can be compared with its untraced twin.
        prepared = workload.prepare(index // 2 if tracer else index)
        gc.collect()
        before = probe.measure_ms()
        segments.close(before)
        chunks.append(Chunk(index - 1, segments, traced, result))
        if time.monotonic() >= deadline and len(chunks) >= min_chunks:
            return chunks


def end_to_end(chunks, setup_s: float):
    results = [c.result for c in chunks]
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    latencies = [
        lat * c.factor(seg)
        for c in chunks
        for lat, seg in zip(c.result.latencies, c.result.segments or [0] * len(c.result.latencies))
    ]
    rates = [c.result.ops / c.adjusted_s for c in chunks]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (_percentile_ms(latencies, 50), "ms"),
        "op_p95_ms": (_percentile_ms(latencies, 95), "ms"),
        "max_rel_err": (max(r.max_rel_err for r in results), "ratio"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    if len(latencies) < MIN_LATENCY_OPS:
        print(
            f"perfbench: {len(latencies)} op latencies (< {MIN_LATENCY_OPS}); "
            "p95 has fewer than ten samples beyond it",
            file=sys.stderr,
        )
    print(
        f"perfbench: {len(chunks)} chunks; median probe "
        f"{statistics.median(p for c in chunks for p in c.probes):.3f} ms; "
        f"median raw rate {statistics.median(c.result.ops / c.raw_s for c in chunks):.4g}/s",
        file=sys.stderr,
    )
    return attempted, failed, metrics


def per_layer(chunks, tracer: Tracer, errors):
    traced = [c for c in chunks if c.traced]
    plain = [c for c in chunks if not c.traced]
    wall = sum(c.raw_s for c in traced)
    selfs = tracer.self_times()

    def share(*layers):
        return 100.0 * sum(selfs.get(layer, 0.0) for layer in layers) / wall

    kernels = [KERNEL_PREFIX + k for k in ("push_sum", "push_flow", "pcf", "pcf_hardened")]
    counted = traced[:COUNTED_CHUNKS]
    counted_ops = {c.index for c in counted}

    def per_chunk_calls(*layers):
        n = sum(1 for s in tracer.spans if s[0] in layers and s[4] in counted_ops)
        return n / len(counted)

    def count(key):
        return sum(c.result.layer.get(key, 0.0) for c in counted) / len(counted)

    coverage = 100.0 * sum(selfs.values()) / wall
    if abs(coverage - 100.0) > 100.0 * COVERAGE_TOLERANCE:
        errors.append(
            f"traced self times cover {coverage:.1f}% of the traced wall time"
        )
    twins = {c.index: c for c in plain}
    pairs = [(c, twins[c.index - 1]) for c in traced if c.index - 1 in twins]
    overhead = 100.0 * (
        statistics.median(t.adjusted_s / p.adjusted_s for t, p in pairs) - 1.0
    )
    programs = [p * c.chunk_factor for c in traced for p in c.result.programs]
    values = {
        "service.admission_pct": (share("service.admission"), "%"),
        "service.queue_wait_pct": (count("service.queue_wait_pct"), "%"),
        "service.groups": (count("service.groups"), "count"),
        "service.jobs_per_group": (count("service.jobs_per_group"), "count"),
        "service.group_rounds": (count("service.group_rounds"), "count"),
        "service.batch.self_pct": (share("service.batch"), "%"),
        "vectorized.program_ms": (1e3 * statistics.median(programs), "ms"),
        "vectorized.batched.build_pct": (share("vectorized.batched.build"), "%"),
        "topology.arrays_builds": (per_chunk_calls("topology.arrays"), "count"),
        "topology.arrays_pct": (share("topology.arrays"), "%"),
        "vectorized.engine_init_pct": (share("vectorized.engine_init"), "%"),
        "vectorized.batched.step_self_pct": (share("vectorized.batched.step"), "%"),
        "vectorized.batched.stop_pct": (share("vectorized.batched.stop"), "%"),
        "vectorized.batched.active_share": (
            count("vectorized.batched.active_share"), "%"),
        "vectorized.backends.kernel_pct": (share(*kernels), "%"),
    }
    for name in kernels:
        values[name + "_pct"] = (share(name), "%")
    values.update({
        "vectorized.backends.kernel_calls": (per_chunk_calls(*kernels), "count"),
        "vectorized.backends.messages": (count("vectorized.backends.messages"), "count"),
        "vectorized.single.step_self_pct": (share("vectorized.single.step"), "%"),
        "reduction.self_pct": (share("reduction"), "%"),
        "reduction.rounds": (count("reduction.rounds"), "count"),
        "linalg.service_self_pct": (share("linalg.service"), "%"),
        "linalg.local_pct": (share("linalg.dmgs"), "%"),
        "campaigns.runner_self_pct": (share("campaigns.runner"), "%"),
        "campaigns.observers_pct": (share("campaigns.observers"), "%"),
        "campaigns.unrecovered_cells": (count("campaigns.unrecovered_cells"), "count"),
        "trace.unattributed_pct": (share(ROOT), "%"),
        "trace.coverage_pct": (coverage, "%"),
        "trace.overhead_pct": (overhead, "%"),
        "trace.wall_s": (wall, "s"),
        "trace.ops": (float(sum(c.result.ops for c in traced)), "count"),
        "machine.probe_ms": (
            statistics.median(p for c in chunks for p in c.probes), "ms"),
        "machine.raw_wall_s": (statistics.median(c.raw_s for c in plain), "s"),
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.driver")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    launch_probe_ms = float(os.environ.get("PERFBENCH_PROBE_MS", NOMINAL_PROBE_MS))

    work_dir = WORK_DIR / f"work-{os.getpid()}"
    workload = workloads.build(args.workload, args.seed, work_dir)
    try:
        workload.warm_up()
        setup_raw_s = time.monotonic() - T_LAUNCH
        probe = MachineProbe()
        if args.setup_only:
            probe_ms = probe.measure_ms()
            print(json.dumps({"setup_s": adjust(setup_raw_s, launch_probe_ms, probe_ms)}))
            return 0
        tracer = Tracer() if args.trace else None
        chunks = measure(workload, probe, args.seconds, tracer)
        errors = workload.verify()
    finally:
        workload.close()

    setup_s = adjust(setup_raw_s, launch_probe_ms, chunks[0].probes[0])
    attempted, failed, metrics = end_to_end(chunks, setup_s)
    if tracer is not None:
        metrics = per_layer(chunks, tracer, errors)
        WORK_DIR.mkdir(exist_ok=True)
        tracer.write(WORK_DIR / f"trace-{args.workload}-{args.seed}.json")
    for message in errors:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_s": setup_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
