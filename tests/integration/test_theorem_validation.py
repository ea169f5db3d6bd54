"""Empirical validation of Theorems 1-2 on the functional cluster.

The theorems give worst-case guarantees: with serial adds, data
survives any t_p client crashes plus up to d_SERIAL storage crashes.
We inject exactly that budget — t_p partial writers (crashed at random
points of their add sequence) and d storage-node crashes — under many
random schedules and require every stripe to be recoverable with the
pre-failure values of all *completed* writes intact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.resiliency import d_serial
from repro.client.config import ClientConfig
from repro.core.cluster import Cluster
from repro.ids import Tid


def run_budgeted_failure_schedule(
    k: int, n: int, t_p: int, t_d: int, rng: np.random.Generator
) -> None:
    """Inject t_p partial writers + t_d storage crashes; verify."""
    cluster = Cluster(k=k, n=n, block_size=32, seed=int(rng.integers(1 << 30)))
    vol = cluster.client("good", ClientConfig(recovery_wait_limit=20,
                                              backoff=0.0001))
    committed = {}
    for i in range(k):
        value = int(rng.integers(1, 128))
        vol.write_block(i, bytes([value]))
        committed[i] = value

    # t_p clients crash mid-write: swap always lands; each add of the
    # serial sequence lands with probability 1/2 *in order* (a serial
    # writer can crash between any two adds, never skipping ahead).
    for w in range(t_p):
        client_id = f"partial-{w}"
        doomed = cluster.protocol_client(client_id)
        index = int(rng.integers(0, k))
        ntid = Tid(1, index, client_id)
        value = np.full(32, 200 + w, np.uint8)
        swap = doomed.rpc("write", 0, index, "swap", value, ntid)
        if swap.block is None:
            cluster.crash_client(client_id)
            continue
        committed.pop(index, None)  # outcome now ambiguous (roll either way)
        diff = np.bitwise_xor(value, swap.block)
        for j in range(k, n):  # serial adds, crash at a random point
            if rng.random() < 0.5:
                break
            payload = np.asarray(
                cluster.code.delta(j, index, value, swap.block)
            )
            doomed.rpc("write", 0, j, "add", payload, ntid, swap.otid,
                       swap.epoch)
        cluster.crash_client(client_id)

    # t_d storage crashes at random positions.
    slots = list(rng.permutation(n)[:t_d])
    for slot in slots:
        cluster.crash_storage(int(slot))

    # The theorem's promise: the stripe is still recoverable.
    vol.monitor.stale_after = 0.0
    report = vol.monitor_sweep([0])
    assert cluster.stripe_consistent(0), (k, n, t_p, t_d, slots)
    for index, value in committed.items():
        assert vol.read_block(index)[0] == value, (index, value)


CODES = [(2, 4), (3, 5), (4, 6), (3, 6)]


class TestTheorem1Budgets:
    @pytest.mark.parametrize("k,n", CODES)
    @pytest.mark.parametrize("t_p", [0, 1, 2])
    def test_serial_budget_always_recoverable(self, k, n, t_p):
        t_d = d_serial(n, k, t_p)
        if t_d < 0:
            pytest.skip("budget infeasible for this code")
        rng = np.random.default_rng(hash((k, n, t_p)) % (1 << 32))
        for _ in range(5):  # several random schedules per configuration
            run_budgeted_failure_schedule(k, n, t_p, t_d, rng)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from(CODES),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_randomized_schedules_within_budget(self, code, t_p, seed):
        k, n = code
        t_d = d_serial(n, k, t_p)
        if t_d < 0:
            return
        rng = np.random.default_rng(seed)
        run_budgeted_failure_schedule(k, n, t_p, t_d, rng)

    def test_zero_failures_trivially_fine(self):
        rng = np.random.default_rng(0)
        run_budgeted_failure_schedule(2, 4, 0, 0, rng)
