"""CrashPlan mechanics: arming, hit counting, pause actions, the null guard."""

from __future__ import annotations

import pytest

from repro.crashpoints import CRASH_POINT_CATALOGUE, NULL_CRASHPOINTS, CrashPlan
from repro.errors import ClientCrash


class TestCatalogue:
    def test_every_point_documents_paper_step_and_aftermath(self):
        assert len(CRASH_POINT_CATALOGUE) >= 10
        for point, (step, leaves) in CRASH_POINT_CATALOGUE.items():
            assert "." in point
            assert step and leaves

    def test_covers_write_recovery_gc_and_monitor(self):
        prefixes = {p.split(".")[0] for p in CRASH_POINT_CATALOGUE}
        assert prefixes == {
            "write", "recovery", "gc", "monitor",
            "rebalance", "directory",
        }


class TestCrashPlan:
    def test_fires_exactly_once_at_the_armed_hit(self):
        plan = CrashPlan()
        plan.arm("write.after_swap", hit=2)
        plan.hit("write.after_swap")  # hit 1: below threshold
        with pytest.raises(ClientCrash) as exc:
            plan.hit("write.after_swap")
        assert exc.value.point == "write.after_swap"
        assert exc.value.hit == 2
        assert plan.fired("write.after_swap")
        # Subsequent hits at the same point do not re-fire.
        plan.hit("write.after_swap")

    def test_detail_is_carried_on_the_exception(self):
        plan = CrashPlan()
        plan.arm("gc.between_phases")
        with pytest.raises(ClientCrash) as exc:
            plan.hit("gc.between_phases", stripe=3)
        assert exc.value.detail == {"stripe": 3}

    def test_unarmed_points_count_but_never_fire(self):
        plan = CrashPlan()
        for _ in range(5):
            plan.hit("write.after_swap")
        assert not plan.fired("write.after_swap")
        assert plan.hits["write.after_swap"] == 5

    def test_pause_action_runs_callable_instead_of_crashing(self):
        seen = []
        plan = CrashPlan()
        plan.arm(
            "write.after_swap",
            action=lambda point, hit, detail: seen.append((point, hit, detail)),
        )
        plan.hit("write.after_swap", stripe=0)
        assert seen == [("write.after_swap", 1, {"stripe": 0})]
        assert plan.fired("write.after_swap")

    def test_unknown_point_rejected_at_arm_time(self):
        plan = CrashPlan()
        with pytest.raises(ValueError):
            plan.arm("write.no_such_point")

    def test_bad_hit_rejected(self):
        plan = CrashPlan()
        with pytest.raises(ValueError):
            plan.arm("write.after_swap", hit=0)

    def test_disarm(self):
        plan = CrashPlan()
        plan.arm("write.after_swap")
        plan.disarm("write.after_swap")
        plan.hit("write.after_swap")  # no longer armed: no crash
        assert not plan.fired("write.after_swap")


class TestNullGuard:
    def test_null_plan_is_disabled_and_inert(self):
        assert NULL_CRASHPOINTS.enabled is False
        NULL_CRASHPOINTS.hit("write.after_swap", stripe=1)  # no-op

    def test_real_plan_is_enabled(self):
        assert CrashPlan().enabled is True
