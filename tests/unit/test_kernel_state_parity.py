"""Full-state differential suite: numpy kernels vs the numba loop kernels.

The numba backend's loop kernels, run as plain Python
(``NumbaKernels(jit=False)``), are an independent per-message
implementation of the same rounds. This suite drives the push-sum, PCF
and hardened-PCF engines with each backend under the same schedule and
compares *every* state array bit for bit (``tobytes``: signed zeros and
NaN payloads included) plus the handshake counters — not just the
estimates, which a flipped flow copy or a stale frozen reference could
leave unchanged for a while.
"""

import numpy as np
import pytest

from repro.dynamics import poisson_churn
from repro.faults.events import LinkFailure
from repro.topology import erdos_renyi, hypercube
from repro.vectorized.backends import NumbaKernels, NumpyKernels
from repro.vectorized.batched import BatchedEngine, BatchedRun
from repro.vectorized.parity import vector_engine_for

ALGORITHMS = ("push_sum", "push_cancel_flow", "push_cancel_flow_hardened")

STATE = (
    "_val",
    "_w",
    "_fval",
    "_fw",
    "_c",
    "_r",
    "_frozen_val",
    "_frozen_w",
    "_phi_val",
    "_phi_w",
)

#: Handshake counters per algorithm: (cancellations, swaps / catch-ups).
COUNTERS = {
    "push_sum": (),
    "push_cancel_flow": ("cancellations", "swaps"),
    "push_cancel_flow_hardened": ("cancellations", "catch_ups"),
}


def _state(engine):
    return {k: getattr(engine, k).tobytes() for k in STATE if hasattr(engine, k)}


def _counters(engine, algorithm):
    return tuple(getattr(engine, name) for name in COUNTERS[algorithm])


def _assert_same(ref, alt, algorithm, where):
    a, b = _state(ref), _state(alt)
    assert a.keys() == b.keys()
    diff = [k for k in a if a[k] != b[k]]
    assert not diff, f"state differs in {diff} {where}"
    assert _counters(ref, algorithm) == _counters(alt, algorithm), where


def _lockstep(engines, rounds, check, every=25):
    for rnd in range(1, rounds + 1):
        for engine in engines:
            engine.step()
        if rnd % every == 0 or rnd == rounds:
            check(rnd)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize(
    "loss, d",
    [(0.0, 1), (0.0, 3), (0.3, 1), (0.3, 3), (0.3, 15), (1.0, 3)],
)
def test_single_engine_full_state(algorithm, loss, d):
    topo = hypercube(6)
    values = np.random.default_rng(5).normal(size=(topo.n, d))
    ref, alt = (
        vector_engine_for(algorithm)(
            topo,
            values,
            np.ones(topo.n),
            seed=11,
            loss_probability=loss,
            backend=kernels,
        )
        for kernels in (NumpyKernels(), NumbaKernels(jit=False))
    )
    _lockstep(
        (ref, alt), 300, lambda rnd: _assert_same(ref, alt, algorithm, rnd)
    )
    assert ref.messages_delivered == alt.messages_delivered
    counters = _counters(ref, algorithm)
    if loss == 1.0:
        # Nothing is delivered: only the send side may move state.
        assert ref.messages_delivered == 0
        assert all(c == 0 for c in counters)
    else:
        # The run exercised every handshake branch it can count.
        assert all(c > 0 for c in counters), counters


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_irregular_topology_full_state(algorithm):
    # Unequal degrees leave padded slots in the edge arrays.
    topo = erdos_renyi(48, 0.15, seed=3)
    values = np.random.default_rng(6).normal(size=(topo.n, 3))
    ref, alt = (
        vector_engine_for(algorithm)(
            topo,
            values,
            np.ones(topo.n),
            seed=2,
            loss_probability=0.2,
            backend=kernels,
        )
        for kernels in (NumpyKernels(), NumbaKernels(jit=False))
    )
    assert len(set(topo.degree(i) for i in topo.nodes())) > 1
    _lockstep(
        (ref, alt), 200, lambda rnd: _assert_same(ref, alt, algorithm, rnd)
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_batched_faults_full_state(algorithm):
    # A link failure in run 0 (blocked, then handled) and churn in run 1
    # (departures, rejoins): delivered subsets, zeroed edges and reset
    # nodes all flow through the kernels.
    topo = hypercube(5)
    churn = poisson_churn(topo, rate=0.2, start=10, end=120, seed=4)

    def batch(kernels):
        data = np.random.default_rng(8).normal(size=(3, topo.n, 3))
        runs = [
            BatchedRun(
                topology=topo,
                values=data[r],
                weights=np.ones(topo.n),
                rng=100 + r,
                loss_probability=0.1 * r,
                link_failures=(
                    (LinkFailure(round=40, u=0, v=1, detection_delay=5),)
                    if r == 0
                    else ()
                ),
                topology_schedule=churn if r == 1 else None,
            )
            for r in range(3)
        ]
        return BatchedEngine(algorithm, runs, backend=kernels)

    ref, alt = batch(NumpyKernels()), batch(NumbaKernels(jit=False))
    assert len(churn) > 0
    _lockstep(
        (ref, alt),
        300,
        lambda rnd: _assert_same(ref._engine, alt._engine, algorithm, rnd),
    )
    assert ref.messages_delivered.tolist() == alt.messages_delivered.tolist()
    assert (ref.messages_delivered < ref.messages_sent).all()


def test_numpy_kernels_refuse_non_contiguous_state():
    # The numpy kernels write through reshaped views of the state; a
    # strided array would reshape to a copy and silently drop the round.
    topo = hypercube(3)
    engine = vector_engine_for("push_cancel_flow")(
        topo, np.ones(topo.n), np.ones(topo.n)
    )
    engine._fval = np.zeros(engine._fval.shape + (2,))[..., 0]
    with pytest.raises(ValueError, match="C-contiguous"):
        engine.step()
