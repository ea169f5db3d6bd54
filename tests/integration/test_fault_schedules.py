"""Property-based fault-schedule testing.

Hypothesis drives random schedules of writes, reads, storage crashes,
client partial-write crashes, GC rounds and monitor sweeps against a
live cluster, then checks the global invariants:

* no operation ever returns garbage (reads return a value some write
  put there, or the initial zeros);
* after a final monitor sweep, every stripe satisfies the erasure-code
  equations;
* every block whose last write *completed* still holds that value,
  as long as the schedule stayed within the failure budget.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client.config import ClientConfig
from repro.core.cluster import Cluster
from repro.ids import BlockAddr, Tid


class ScheduleRunner:
    """Applies one random schedule to a fresh 2-of-4 cluster."""

    K, N, BS = 2, 4, 32
    STRIPES = 3

    def __init__(self):
        self.cluster = Cluster(k=self.K, n=self.N, block_size=self.BS)
        self.vol = self.cluster.client(
            "main", ClientConfig(order_retry_limit=3, backoff=0.0002)
        )
        self.expected: dict[int, int] = {}
        # Values a read of each block may legally return: the initial
        # zeros, the last completed write, plus any partial writer's
        # value until a recovery collapses the ambiguity.
        self.admissible: dict[int, set[int]] = {}
        self.storage_crashes = 0
        self.partial_counter = 0

    # -- schedule actions ---------------------------------------------------

    def do_write(self, block: int, value: int) -> None:
        self.vol.write_block(block, bytes([value]))
        self.expected[block] = value
        self.admissible[block] = {value}

    def do_read(self, block: int) -> None:
        value = self.vol.read_block(block)[0]
        allowed = self.admissible.get(block, {0})
        assert value in allowed | {0}, (block, value, allowed)

    def do_storage_crash(self, position: int) -> None:
        if self.storage_crashes >= self.N - self.K - 1:
            return  # keep one crash in reserve for partial-write overlap
        slot = position % self.N
        node_id = self.cluster.directory.node_id(slot)
        if not self.cluster.transport.is_crashed(node_id):
            self.cluster.crash_storage(slot)
            self.storage_crashes += 1

    def do_partial_write(self, block: int) -> None:
        """A client that swaps and dies (values 200.. mark partials)."""
        self.partial_counter += 1
        value = 200 + (self.partial_counter % 56)
        client_id = f"doomed-{self.partial_counter}"
        doomed = self.cluster.protocol_client(client_id)
        stripe, index = divmod(block, self.K)
        try:
            result = doomed.rpc(
                "write", stripe, index, "swap",
                np.full(self.BS, value, np.uint8),
                Tid(1, index, client_id),
            )
        except Exception:
            # The target node is down or locked; the doomed client dies
            # before accomplishing anything.
            self.cluster.crash_client(client_id)
            return
        if result.block is not None:
            # The swap landed; this value may win (completed by a later
            # recovery) or be rolled back — both are legal outcomes.
            self.expected.pop(block, None)
            self.admissible.setdefault(block, {0}).add(value)
        self.cluster.crash_client(client_id)

    def do_gc(self) -> None:
        self.vol.collect_garbage()

    def do_monitor(self) -> None:
        self.vol.monitor.stale_after = 0.0
        self.vol.monitor_sweep(range(self.STRIPES))

    # -- final checks --------------------------------------------------------

    def finish(self) -> None:
        self.vol.monitor.stale_after = 0.0
        self.vol.monitor_sweep(range(self.STRIPES))
        for stripe in range(self.STRIPES):
            assert self.cluster.stripe_consistent(stripe), stripe
        # Quiescent lemma: with all writes settled, every NORM block is
        # in the maximal consistent set — no hidden divergence survives.
        from repro.client.consistency import find_consistent
        from repro.storage.state import OpMode

        for stripe in range(self.STRIPES):
            data = {
                j: self.cluster.node_for_slot(
                    self.cluster.layout.node_of_stripe_index(stripe, j)
                ).get_state(BlockAddr(self.vol.protocol.volume, stripe, j))
                for j in range(self.N)
            }
            norm = {j for j in data if data[j].opmode is OpMode.NORM}
            assert find_consistent(data, self.K) == frozenset(norm), stripe
        for block, value in self.expected.items():
            got = self.vol.read_block(block)[0]
            assert got == value, (block, value, got)


ACTIONS = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 5), st.integers(1, 199)),
    st.tuples(st.just("read"), st.integers(0, 5), st.just(0)),
    st.tuples(st.just("crash_storage"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("partial"), st.integers(0, 5), st.just(0)),
    st.tuples(st.just("gc"), st.just(0), st.just(0)),
    st.tuples(st.just("monitor"), st.just(0), st.just(0)),
)


class TestRandomFaultSchedules:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(st.lists(ACTIONS, min_size=1, max_size=20))
    def test_invariants_hold_under_random_schedules(self, schedule):
        runner = ScheduleRunner()
        for action, a, b in schedule:
            if action == "write":
                runner.do_write(a, b)
            elif action == "read":
                runner.do_read(a)
            elif action == "crash_storage":
                runner.do_storage_crash(a)
            elif action == "partial":
                runner.do_partial_write(a)
            elif action == "gc":
                runner.do_gc()
            elif action == "monitor":
                runner.do_monitor()
        runner.finish()

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**31 - 1))
    def test_crash_heavy_schedule(self, seed):
        """Alternating write / crash / monitor cycles, always within the
        one-storage-crash-at-a-time budget (each monitor sweep restores
        full redundancy, resetting the budget — §4 'Resetting')."""
        rng = np.random.default_rng(seed)
        runner = ScheduleRunner()
        for round_no in range(3):
            for _ in range(3):
                runner.do_write(int(rng.integers(0, 6)), int(rng.integers(1, 199)))
            slot = int(rng.integers(0, 4))
            node_id = runner.cluster.directory.node_id(slot)
            if not runner.cluster.transport.is_crashed(node_id):
                runner.cluster.crash_storage(slot)
            runner.do_monitor()  # restore full resiliency
        runner.finish()
