"""Monitoring mechanism (§3.10)."""

from __future__ import annotations

import numpy as np

from repro.core.cluster import Cluster
from repro.ids import Tid
from repro.storage.state import LockMode


def fill(size, value):
    return np.full(size, value % 256, dtype=np.uint8)


class TestMonitorDetection:
    def test_healthy_system_untouched(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(0, b"ok")
        vol.collect_garbage()
        vol.collect_garbage()
        report = vol.monitor_sweep([0])
        assert report.recovered_stripes == []
        assert report.init_blocks == 0
        assert report.probed == 4

    def test_detects_init_blocks_after_crash(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(0, b"aa")
        small_cluster.crash_storage(small_cluster.layout.node_of_stripe_index(0, 0))
        report = vol.monitor_sweep([0])
        assert report.recovered_stripes == [0]
        assert small_cluster.stripe_consistent(0)
        assert vol.read_block(0)[:2] == b"aa"

    def test_detects_stale_partial_write(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(0, b"vv")
        vol.collect_garbage()
        vol.collect_garbage()
        bad = small_cluster.protocol_client("bad")
        bad.rpc("write", 0, 0, "swap", fill(64, 9), Tid(1, 0, "bad"))
        small_cluster.crash_client("bad")
        vol.monitor.stale_after = 0.0
        report = vol.monitor_sweep([0])
        assert report.stale_writes >= 1
        assert report.recovered_stripes == [0]
        assert small_cluster.stripe_consistent(0)
        assert vol.read_block(0)[:2] == b"vv"  # rolled back

    def test_detects_expired_lock(self, small_cluster):
        vol = small_cluster.client("c")
        vol.write_block(0, b"qq")
        vol.collect_garbage()
        vol.collect_garbage()
        holder = small_cluster.protocol_client("holder")
        holder.rpc("recovery_phase1", 0, 2, "trylock", LockMode.L1,
                   "holder")
        small_cluster.crash_client("holder")
        report = vol.monitor_sweep([0])
        assert report.expired_locks >= 1
        assert report.recovered_stripes == [0]
        assert small_cluster.stripe_consistent(0)

    def test_restores_resiliency_beyond_tp_budget(self):
        """§3.10's strongest claim: even if more than t_p clients
        crashed mid-write, a monitor pass before any storage crash
        restores full recoverability."""
        cluster = Cluster(k=2, n=4, block_size=64)
        vol = cluster.client("good")
        vol.write_block(0, b"base")
        vol.write_block(1, b"base")
        # t_p + 1 = 2 clients crash mid-write on the same stripe.
        for who, index in (("bad1", 0), ("bad2", 1)):
            bad = cluster.protocol_client(who)
            bad.rpc("write", 0, index, "swap", fill(64, 100), Tid(1, index, who))
            cluster.crash_client(who)
        vol.monitor.stale_after = 0.0
        report = vol.monitor_sweep([0])
        assert report.recovered_stripes == [0]
        assert cluster.stripe_consistent(0)
        # Now a storage crash is tolerable again.
        cluster.crash_storage(cluster.layout.node_of_stripe_index(0, 0))
        assert vol.read_block(0) is not None
        assert cluster.stripe_consistent(0)

    def test_sweep_covers_multiple_stripes(self, cluster_3of5):
        vol = cluster_3of5.client("c")
        for b in range(9):
            vol.write_block(b, bytes([b + 1]))
        cluster_3of5.crash_storage(0)
        report = vol.monitor_sweep(range(3))
        assert len(report.recovered_stripes) >= 1
        for s in range(3):
            assert cluster_3of5.stripe_consistent(s)
        for b in range(9):
            assert vol.read_block(b)[:1] == bytes([b + 1])


class TestTriggerIdempotence:
    """Regression: two sweeps observing the same damage instance must
    run exactly one recovery.  The trigger memo is per (stripe, epoch):
    an in-flight or completed trigger for the observed epoch suppresses
    re-detection, while genuinely new damage — which always surfaces at
    a strictly newer epoch — still fires."""

    def test_memo_suppresses_same_epoch_and_admits_newer(self, small_cluster):
        from repro.client.monitor import Monitor

        mon = Monitor(small_cluster.protocol_client("m"), stale_after=0.0)
        assert mon._should_trigger(0, 3)
        assert not mon._should_trigger(0, 3)  # in flight
        assert not mon._should_trigger(0, 5)  # in flight blocks any epoch
        mon._finish_trigger(0, 3, completed=True)
        assert not mon._should_trigger(0, 3)  # handled
        assert not mon._should_trigger(0, 2)  # older observation, too
        assert mon._should_trigger(0, 4)  # new damage instance
        mon._finish_trigger(0, 4, completed=False)
        assert mon._should_trigger(0, 4)  # incomplete stays retriable

    def test_overlapping_sweeps_run_exactly_one_recovery(self, small_cluster):
        import threading

        from repro.client.monitor import Monitor
        from repro.crashpoints import CrashPlan

        vol = small_cluster.client("c")
        vol.write_block(0, b"aa")
        small_cluster.crash_storage(
            small_cluster.layout.node_of_stripe_index(0, 0)
        )
        prober = small_cluster.protocol_client("m")
        mon = Monitor(prober, stale_after=0.0)
        entered = threading.Event()
        release = threading.Event()

        def pause(point, count, detail):
            entered.set()
            assert release.wait(5.0), "sweep B never released sweep A"

        plan = CrashPlan()
        plan.arm("monitor.before_recover", action=pause)
        prober.crashpoints = plan
        reports = {}
        thread = threading.Thread(
            target=lambda: reports.__setitem__("a", mon.sweep([0]))
        )
        thread.start()
        assert entered.wait(5.0), "sweep A never reached its trigger"
        # Sweep B sees the same damaged stripe while A is in flight.
        reports["b"] = mon.sweep([0])
        release.set()
        thread.join(5.0)
        assert not thread.is_alive()
        assert reports["b"].duplicate_triggers == 1
        assert reports["b"].recovered_stripes == []
        assert reports["a"].recovered_stripes == [0]
        assert small_cluster.stripe_consistent(0)
        assert vol.read_block(0)[:2] == b"aa"
        # The damage is gone: a third sweep is a no-op, not a re-trigger.
        again = mon.sweep([0])
        assert again.recovered_stripes == []
        assert again.duplicate_triggers == 0
