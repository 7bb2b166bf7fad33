"""The benchmark's workloads, each driving one public API of ``repro``.

A workload generates all of its inputs from the ``--seed`` in its
constructor (the program sees only those inputs), warms up with one op
per group key, and then runs *chunks*: ``prepare(i)`` builds chunk ``i``'s
inputs outside the timer, ``execute`` is the timed part, and ``collect``
turns its raw outputs into a :class:`ChunkResult` outside the timer.
``verify`` runs the output checks after the timed window.

Chunk ``i`` always uses schedule seeds derived from ``(seed, i)``, so
repeated chunks do the same amount of work without repeating the same
computation.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.campaigns import CampaignSpec, run_campaign
from repro.exceptions import (
    JobFailedError,
    LinalgError,
    ServiceError,
    TopologyError,
)
from repro.linalg import (
    ReductionService,
    RowDistributedMatrix,
    dmgs,
    factorization_error,
)
from repro.service import ReductionDaemon
from repro.topology import hypercube_for_nodes
from repro.topology.random_graphs import erdos_renyi, random_regular


@dataclasses.dataclass
class ChunkResult:
    """What one chunk did, for the end-to-end and per-layer metrics."""

    ops: int
    failed: int
    #: Per-op latency in raw seconds (one entry per completed op).
    latencies: List[float]
    max_rel_err: float
    #: Segment of the chunk each latency fell in (None: all in one).
    segments: Optional[List[int]]
    #: Raw seconds of each whole-array program the chunk ran.
    programs: List[float]
    #: Per-layer values taken from the chunk's outputs (exact counts
    #: and ratios), keyed by per-layer metric name.
    layer: Dict[str, float]


def _derived_seeds(seed: int, index: int, count: int) -> List[int]:
    state = np.random.SeedSequence([seed, index]).generate_state(count)
    return [int(s) for s in state]


def bit_identical(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise float64 equality (NaN/inf patterns included)."""
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    b = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class Workload:
    """One workload: inputs from a seed, warm-up, chunks, output checks."""

    errors: List[str]

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int):
        raise NotImplementedError

    def execute(self, prepared, checkpoint: Callable[[], int]):
        """The timed part; may call ``checkpoint()`` between ops."""
        raise NotImplementedError

    def collect(self, prepared, raw) -> ChunkResult:
        raise NotImplementedError

    def verify(self) -> List[str]:
        """Output checks after the timed window; returns error messages."""
        return list(self.errors)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Reduction daemon: closed-loop waves of 64 tenants
# ----------------------------------------------------------------------
class ServiceWaves(Workload):
    """Bulk-synchronous waves of 64 jobs through a ``ReductionDaemon``.

    64 tenants each keep one job outstanding, as dmGS ranks do: the load
    thread submits a whole wave, then waits for every result before the
    next wave. Each tenant has one ``(algorithm, d)`` group key and one
    network family (hypercube, random 4-regular or Erdos-Renyi p=0.2,
    n=32); every wave of the pool draws its own networks and partials, so
    a slow-mixing network slows only the chunks of its wave. Tenants
    submit in group-key order: a job submitted after its group's linger
    window closed would start a group of its own, so any other order makes
    the group count depend on thread timing.

    Jobs stop at eps, the paper's oracle termination, with a 1000-round
    cap as a safety net. The daemon's defaults fail a few jobs that do
    converge: the 60-round stall window stops some hardened-PCF SUM jobs
    on an error plateau (seed 3, chunk 1, tenant-53: 7.8e-11 at round 309,
    7.0e-14 at round 336 without the window), and the default cap of 430
    rounds stops some hardened-PCF jobs just short (seed 109, chunk 4,
    tenant-61: 6.8e-13 at round 430, converged at round 432).
    """

    ALGORITHMS = (
        "push_sum",
        "push_flow",
        "push_cancel_flow",
        "push_cancel_flow_hardened",
    )
    DIMENSIONS = (1, 3)
    #: Tenants per ``(algorithm, d)`` key, in key order (64 in all). The
    #: sizes are uneven so that neither the 50th nor the 95th latency
    #: percentile falls on the step between two groups' completions.
    GROUP_SIZES = (9, 7, 8, 6, 10, 8, 9, 7)
    N = 32
    EPSILON = 1e-13
    #: Distinct waves of networks and partials; chunk i runs wave i % 8.
    WAVE_POOL = 8
    MAX_ROUNDS = 1000
    #: Jobs per wave whose results are replayed serially (every 4th).
    REPLAY_STRIDE = 4
    RESULT_TIMEOUT_S = 60.0

    def __init__(self, seed: int, *, workers: int) -> None:
        self.seed = seed
        self.errors: List[str] = []
        rng = np.random.default_rng(seed)
        keys = [(a, d) for a in self.ALGORITHMS for d in self.DIMENSIONS]
        cube = hypercube_for_nodes(self.N)
        self._key_leads = [sum(self.GROUP_SIZES[:k]) for k in range(len(keys))]
        self.waves: List[List[dict]] = []
        for _ in range(self.WAVE_POOL):
            wave = []
            for (algorithm, d), size in zip(keys, self.GROUP_SIZES):
                for j in range(size):
                    family = len(wave) % 3
                    if d == 1:
                        partials = [float(x) for x in rng.standard_normal(self.N)]
                    else:
                        partials = list(rng.standard_normal((self.N, d)))
                    wave.append(
                        {
                            "tenant": f"tenant-{len(wave)}",
                            "algorithm": algorithm,
                            "topology": (
                                cube if family == 0 else self._random_topology(family, rng)
                            ),
                            "partials": partials,
                            "epsilon": self.EPSILON,
                            "aggregate": ("average", "sum")[j % 2],
                            "max_rounds": self.MAX_ROUNDS,
                            "stall_rounds": None,
                        }
                    )
            self.waves.append(wave)
        self.daemon = ReductionDaemon(workers=workers, tenant_quota=1)
        #: (job kwargs, estimates) of the sampled jobs of the first and
        #: latest chunk, replayed by ``verify``.
        self._first_sample: Optional[list] = None
        self._last_sample: Optional[list] = None

    def _random_topology(self, family: int, rng: np.random.Generator):
        # The rejection samplers give up after a fixed number of attempts
        # (a 4-regular graph on 32 nodes now and then); draw a new seed.
        while True:
            try:
                if family == 1:
                    return random_regular(self.N, 4, seed=int(rng.integers(2**31)))
                return erdos_renyi(self.N, 0.2, seed=int(rng.integers(2**31)))
            except TopologyError:
                continue

    def warm_up(self) -> None:
        # One job per group key, all on the hypercube, so that set-up time
        # does not depend on how fast the seed's random networks mix.
        cube = hypercube_for_nodes(self.N)
        jobs = [dict(self.waves[0][k], seed=k, topology=cube) for k in self._key_leads]
        ids = [self.daemon.submit(**kw) for kw in jobs]
        for job_id in ids:
            self.daemon.result(job_id, timeout=self.RESULT_TIMEOUT_S)

    def prepare(self, index: int) -> List[dict]:
        wave = self.waves[index % self.WAVE_POOL]
        seeds = _derived_seeds(self.seed, index, len(wave))
        return [dict(kw, seed=s) for kw, s in zip(wave, seeds)]

    def execute(self, jobs: List[dict], checkpoint):
        daemon = self.daemon
        submitted = []
        for kw in jobs:
            t_submit = time.monotonic()
            try:
                submitted.append((daemon.submit(**kw), t_submit))
            except ServiceError:
                submitted.append((None, t_submit))
        results = []
        for job_id, _ in submitted:
            result = None
            if job_id is not None:
                try:
                    result = daemon.result(job_id, timeout=self.RESULT_TIMEOUT_S)
                except (JobFailedError, TimeoutError):
                    pass
            results.append(result)
        return submitted, results

    def collect(self, jobs: List[dict], raw) -> ChunkResult:
        submitted, results = raw
        done = [
            (kw, t_submit, res)
            for kw, (_, t_submit), res in zip(jobs, submitted, results)
            if res is not None
        ]
        failed = sum(1 for _, _, res in done if not res.converged)
        failed += len(jobs) - len(done)
        sample = [
            (jobs[k], results[k].estimates)
            for k in range(0, len(jobs), self.REPLAY_STRIDE)
            if results[k] is not None
        ]
        if self._first_sample is None:
            self._first_sample = sample
        else:
            self._last_sample = sample

        # A group's jobs complete together: group by key and batch size,
        # completion time = submission + the daemon's own latency. Groups
        # run one after another, so a group's time is the gap since the
        # previous completion (the first one's since the wave started).
        groups: Dict[tuple, list] = {}
        for kw, t_submit, res in done:
            key = (kw["algorithm"], np.ndim(kw["partials"][0]), res.batched_with)
            groups.setdefault(key, []).append((t_submit + res.latency_s, res))
        group_time = {}
        previous = submitted[0][1]
        for end, key in sorted((max(t for t, _ in m), key) for key, m in groups.items()):
            group_time[key] = end - previous
            previous = end
        waits = [
            max(0.0, res.latency_s - group_time[key]) / res.latency_s
            for key, members in groups.items()
            for _, res in members
            if res.latency_s > 0
        ]
        rounds = [res.rounds for _, _, res in done]
        stepped = sum(
            max(r.rounds for _, r in members) * len(members)
            for members in groups.values()
        )
        return ChunkResult(
            ops=len(jobs),
            failed=failed,
            latencies=[res.latency_s for _, _, res in done],
            segments=None,
            max_rel_err=max((res.max_error for _, _, res in done), default=np.inf),
            programs=list(group_time.values()),
            layer={
                "service.groups": float(len(groups)),
                "service.jobs_per_group": len(done) / len(groups) if groups else 0.0,
                "service.group_rounds": (
                    sum(max(r.rounds for _, r in m) for m in groups.values())
                    / len(groups)
                    if groups
                    else 0.0
                ),
                "service.queue_wait_pct": 100.0 * float(np.mean(waits)) if waits else 0.0,
                "reduction.rounds": float(np.mean(rounds)) if rounds else 0.0,
                "vectorized.backends.messages": float(
                    sum(res.messages_sent for _, _, res in done)
                ),
                "vectorized.batched.active_share": (
                    100.0 * sum(rounds) / stepped if stepped else 0.0
                ),
            },
        )

    def verify(self) -> List[str]:
        errors = list(self.errors)
        samples = (self._first_sample or []) + (self._last_sample or [])
        if not samples:
            errors.append("no daemon job completed; nothing to replay")
        for kw, estimates in samples:
            service = ReductionService(
                kw["topology"],
                algorithm=kw["algorithm"],
                epsilon=kw["epsilon"],
                seed=kw["seed"],
                aggregate=kw["aggregate"],
                max_rounds=kw["max_rounds"],
                stall_rounds=kw["stall_rounds"],
            )
            serial = service.all_reduce_sum(kw["partials"])
            if not bit_identical(serial, estimates):
                errors.append(
                    f"daemon job ({kw['tenant']}, {kw['algorithm']}, seed "
                    f"{kw['seed']}) is not bit-identical to its serial replay"
                )
        return errors

    def close(self) -> None:
        self.daemon.close()


# ----------------------------------------------------------------------
# dmGS over the serial reduction service (paper Fig. 8 setup)
# ----------------------------------------------------------------------
class _TimedService:
    """Times each ``all_reduce_sum`` call dmGS makes; delegates the rest.

    After each call it requests a probe checkpoint, so each op is adjusted
    by the probes on either side of it.
    """

    def __init__(self, service: ReductionService, checkpoint) -> None:
        self.service = service
        self.checkpoint = checkpoint
        self.latencies: List[float] = []
        self.segments: List[int] = []

    @property
    def topology(self):
        return self.service.topology

    @property
    def stats(self):
        return self.service.stats

    def all_reduce_sum(self, partials):
        t0 = time.perf_counter()
        try:
            return self.service.all_reduce_sum(partials)
        finally:
            self.latencies.append(time.perf_counter() - t0)
            self.segments.append(self.checkpoint())


class DmgsSerial(Workload):
    """Repeated dmGS QR of V in R^{64x16} on hypercube(64), PCF, eps=1e-15.

    One row per node, two-phase mode: 31 reductions per factorization,
    one caller, closed loop. An op is one ``all_reduce_sum`` call.
    """

    NODES = 64
    COLS = 16
    EPSILON = 1e-15
    #: The paper's Fig. 8 accuracy bar for dmGS(PCF).
    MAX_FACTORIZATION_ERROR = 1e-13
    MATRIX_POOL = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.errors: List[str] = []
        rng = np.random.default_rng(seed)
        self.matrices = [
            rng.uniform(-1.0, 1.0, size=(self.NODES, self.COLS))
            for _ in range(self.MATRIX_POOL)
        ]
        self.topology = hypercube_for_nodes(self.NODES)

    def _service(self, seed: int, checkpoint=lambda: 0) -> _TimedService:
        return _TimedService(
            ReductionService(
                self.topology,
                algorithm="push_cancel_flow",
                epsilon=self.EPSILON,
                seed=seed,
            ),
            checkpoint,
        )

    def warm_up(self) -> None:
        service = self._service(self.seed)
        v = self.matrices[0]
        service.all_reduce_sum([row[:1] for row in v])
        service.all_reduce_sum(list(v[:, 1:]))

    def prepare(self, index: int):
        return self.matrices[index % self.MATRIX_POOL], _derived_seeds(
            self.seed, index, 1
        )[0]

    def execute(self, prepared, checkpoint):
        v, seed = prepared
        service = self._service(seed, checkpoint)
        try:
            result = dmgs(RowDistributedMatrix.from_matrix(v, self.NODES), service)
        except LinalgError as exc:
            return service, exc
        return service, result

    def collect(self, prepared, raw) -> ChunkResult:
        v, _ = prepared
        service, result = raw
        stats = service.stats
        failed = stats.failed_calls + stats.failed_to_converge
        ops = stats.calls + stats.failed_calls
        if isinstance(result, Exception):
            self.errors.append(f"dmgs raised {type(result).__name__}: {result}")
            failed = ops
        else:
            error = factorization_error(v, result.q, result.r_blocks)
            if not error <= self.MAX_FACTORIZATION_ERROR:
                self.errors.append(
                    f"dmGS factorization error {error:.3e} exceeds "
                    f"{self.MAX_FACTORIZATION_ERROR:.0e}"
                )
        return ChunkResult(
            ops=ops,
            failed=failed,
            latencies=list(service.latencies),
            segments=list(service.segments),
            max_rel_err=stats.worst_error,
            programs=list(service.latencies),
            layer={
                "reduction.rounds": stats.total_rounds / max(stats.calls, 1),
                "vectorized.backends.messages": float(stats.total_messages),
                "vectorized.batched.active_share": 100.0,
            },
        )


# ----------------------------------------------------------------------
# Fault campaign on the batched engine
# ----------------------------------------------------------------------
class CampaignPcf(Workload):
    """``run_campaign`` of PCF on hypercube(1024), batched engine, in-process.

    Faults: none and one link failure at round 80; one seed per campaign,
    a fresh one every chunk;
    eps=1e-14; a 600-round horizon (fault-free cells need 330 to 510
    rounds). An op is one cell. A cell fails when its record is missing or
    not ``ok``, or when a fault-free cell misses eps. A link-failure cell
    that never reaches eps is a recorded outcome of the campaign (PCF
    keeps a residual after the failure on some seeds), counted in
    ``campaigns.unrecovered_cells``; ``max_rel_err`` covers the fault-free
    cells.
    """

    name = "campaign-pcf-n1024"
    NODES = 1024
    ROUNDS = 600
    EPSILON = 1e-14
    FAULTS = ({"kind": "none"}, {"kind": "link_failure", "round": 80})

    def __init__(self, seed: int, *, work_dir: pathlib.Path) -> None:
        self.seed = seed
        self.errors: List[str] = []
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)

    def _spec(self, seeds: Sequence[int], faults=FAULTS) -> CampaignSpec:
        return CampaignSpec.from_dict(
            {
                "name": self.name,
                "algorithms": ["push_cancel_flow"],
                "topologies": [{"family": "hypercube", "n": self.NODES}],
                "faults": list(faults),
                "seeds": list(seeds),
                "rounds": self.ROUNDS,
                "epsilon": self.EPSILON,
                "engine": "batched",
            }
        )

    def warm_up(self) -> None:
        out = self.work_dir / "warm-up"
        run_campaign(self._spec([self.seed % 2**31], self.FAULTS[:1]), out)
        shutil.rmtree(out)

    def prepare(self, index: int):
        seed = _derived_seeds(self.seed, index, 1)[0] % 2**31
        return self._spec([seed]), self.work_dir / f"chunk-{index}"

    def execute(self, prepared, checkpoint):
        spec, out = prepared
        started = time.time()
        run = run_campaign(spec, out)
        return started, run

    def collect(self, prepared, raw) -> ChunkResult:
        spec, out = prepared
        started, _ = raw
        expected = {c["cell_id"] for c in spec.expand()}
        lines = (out / "results.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines if line.strip()]
        shutil.rmtree(out)
        by_cell: Dict[str, list] = {}
        for rec in records:
            by_cell.setdefault(rec["cell_id"], []).append(rec)
        if set(by_cell) != expected or any(len(v) != 1 for v in by_cell.values()):
            self.errors.append(
                f"campaign wrote {len(records)} records for {len(expected)} "
                "cells; expected exactly one per cell"
            )
        ok = [v[0] for v in by_cell.values() if len(v) == 1 and v[0]["status"] == "ok"]
        clean = [r for r in ok if r["fault"] == "none"]
        faulted = [r for r in ok if r["fault"] != "none"]
        failed = len(expected) - len(ok) + sum(1 for r in clean if not r["converged"])
        rounds = [r["rounds"] for r in ok]
        latencies = [r["recorded_at"] - started for r in ok]
        return ChunkResult(
            ops=len(expected),
            failed=failed,
            latencies=latencies,
            segments=None,
            max_rel_err=max(
                (np.inf if r["final_error"] is None else r["final_error"] for r in clean),
                default=np.inf,
            ),
            # One batched group per campaign: its program ends with the
            # last record.
            programs=[max(latencies)] if latencies else [],
            layer={
                "reduction.rounds": float(np.mean(rounds)) if rounds else 0.0,
                "vectorized.backends.messages": float(
                    sum(r["messages_sent"] for r in ok)
                ),
                "vectorized.batched.active_share": (
                    100.0 * sum(rounds) / (len(rounds) * max(rounds)) if rounds else 0.0
                ),
                "campaigns.unrecovered_cells": float(
                    sum(1 for r in faulted if r["rounds_to_tolerance"] is None)
                ),
            },
        )

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOAD_NAMES = (
    "service-waves",
    "service-workers",
    "dmgs-serial",
    "campaign-pcf-n1024",
)


def build(name: str, seed: int, work_dir: pathlib.Path) -> Workload:
    """Construct a workload: input generation plus system construction."""
    if name == "service-waves":
        return ServiceWaves(seed, workers=0)
    if name == "service-workers":
        return ServiceWaves(seed, workers=1)
    if name == "dmgs-serial":
        return DmgsSerial(seed)
    if name == "campaign-pcf-n1024":
        return CampaignPcf(seed, work_dir=work_dir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}")
