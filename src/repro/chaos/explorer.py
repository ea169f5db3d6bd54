"""Deterministic crash-point schedule explorer.

The chaos soaks randomize *when* faults land; this harness instead
explores *where a client dies in the protocol*, by construction.  A
schedule is a short sequence of :class:`CrashStep`\\ s, each of which:

1. runs one protocol operation (write / recovery / GC round / monitor
   sweep) on a fresh victim client whose
   :class:`~repro.crashpoints.CrashPlan` is armed to raise
   :class:`~repro.errors.ClientCrash` at one named point (see
   ``CRASH_POINT_CATALOGUE``);
2. reports the death to the cluster (locks expire, Fig. 6 "upon
   failure"), and
3. optionally lands one *companion fault*: a storage-node crash, a
   targeted partition, a concurrent second writer, or a concurrent
   second recovery.

After the last step the harness drives monitor → recovery → GC to
quiescence with a fresh, healthy driver client and checks the full
invariant pack (:mod:`repro.analysis.invariants`) plus the §3.1
regular-register condition over the recorded history.

Everything is deterministic: no chaos transport, SERIAL writes, fixed
client names, and a seeded RNG only for *generating* the random
multi-point schedules — so ``repro explore --seed S`` twice yields the
same schedule digest, and a failing schedule serialized to JSON
replays bit-for-bit (``repro replay-schedule``).  Failing schedules
are delta-debugged down to a minimal reproducing schedule by greedy
step removal and companion weakening.

Budget classification follows §3.10: an outcome may legitimately be
``data_loss`` only when the schedule exceeded the failure model —
more than t_p partial client writes *combined with* a storage fault,
or more than t_d storage faults.  Beyond-budget schedules must still
leave no stripe locked; within-budget schedules must pass the whole
pack.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.invariants import (
    STRIPE_INVARIANTS,
    InvariantViolation,
    check_history,
    check_stripe,
)
from repro.analysis.registers import HistoryRecorder
from repro.client.config import ClientConfig, WriteStrategy
from repro.client.gc import GcManager
from repro.client.monitor import Monitor
from repro.core.cluster import Cluster
from repro.crashpoints import CRASH_POINT_CATALOGUE, CrashPlan
from repro.errors import (
    ClientCrash,
    ReadFailedError,
    RecoveryFailedError,
    WriteAbortedError,
)
from repro.obs import Observability

SCHEDULE_FORMAT = "repro-crash-schedule/1"

#: Companion faults swept against every crash point.
COMPANIONS = (
    "none",
    "storage_crash",
    "partition",
    "second_writer",
    "second_recovery",
)

#: Crash point -> operation template that reaches it.
POINT_OPS = {
    "write.after_swap": "write",
    "write.after_add": "write",
    "write.before_note_completed": "write",
    "recovery.phase1.after_lock": "recover",
    "recovery.after_phase1": "recover",
    "recovery.phase2.after_weaken": "recover",
    "recovery.phase3.before_reconstruct": "recover",
    "recovery.phase3.before_finalize": "recover",
    "gc.between_phases": "gc",
    "monitor.before_recover": "monitor",
}


@dataclass(frozen=True)
class CrashStep:
    """One victim operation killed at a named point, plus a companion."""

    point: str
    hit: int = 1
    #: Data index the victim write targets (write ops only).
    index: int = 0
    companion: str = "none"
    #: Stripe position the companion storage crash / partition targets.
    companion_pos: int = 0

    @property
    def op(self) -> str:
        return POINT_OPS[self.point]

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "hit": self.hit,
            "index": self.index,
            "companion": self.companion,
            "companion_pos": self.companion_pos,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CrashStep":
        return cls(
            point=raw["point"],
            hit=int(raw.get("hit", 1)),
            index=int(raw.get("index", 0)),
            companion=raw.get("companion", "none"),
            companion_pos=int(raw.get("companion_pos", 0)),
        )


@dataclass(frozen=True)
class Schedule:
    steps: tuple[CrashStep, ...]

    def key(self) -> str:
        return "; ".join(
            f"{s.point}#{s.hit}@{s.index}+{s.companion}:{s.companion_pos}"
            for s in self.steps
        )


@dataclass
class ScheduleOutcome:
    """What one schedule execution observed and concluded."""

    schedule: Schedule
    result: str  # "clean" | "data_loss" | "violations"
    crash_fired: list[bool] = field(default_factory=list)
    partial_writes: int = 0
    storage_faults: int = 0
    budget_exceeded: bool = False
    data_loss: str | None = None
    violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def verdict(self) -> dict:
        """The replay-comparable summary of this outcome."""
        return {
            "result": self.result,
            "violations": sorted({v.invariant for v in self.violations}),
        }


@dataclass(frozen=True)
class ExplorerConfig:
    """Tunables for one explorer run."""

    k: int = 2
    n: int = 4
    block_size: int = 16
    stripe: int = 0
    seed: int = 0
    #: Random multi-point schedules to run after the exhaustive sweep.
    schedules: int = 12
    #: Steps per random schedule are drawn from [2, max_depth].
    max_depth: int = 3
    #: Run the exhaustive single-point x companion sweep first.
    exhaustive: bool = True
    #: Monitor/recovery rounds allowed before quiescence is declared failed.
    quiesce_rounds: int = 6
    #: Re-introduce the PR 2 dropped-setlock-release bug in every client
    #: (explorer self-test: the sweep must catch and minimize it).
    inject_regression: bool = False
    #: Where minimized schedules + flight dumps go on failure (None = skip).
    artifact_dir: str | None = None

    def client_config(self) -> ClientConfig:
        """Deterministic, fast-converging protocol tunables for every
        client the explorer creates.  SERIAL keeps per-add granularity
        and a fixed RPC order; the small wait/backoff bounds keep the
        phase-2 wait loop (spun in full by schedules that strand fewer
        than k+t_d consistent blocks) cheap."""
        return ClientConfig(
            strategy=WriteStrategy.SERIAL,
            backoff=0.0005,
            backoff_cap=0.002,
            max_write_attempts=8,
            max_op_attempts=40,
            order_retry_limit=4,
            recovery_wait_limit=8,
            test_drop_setlock_release=self.inject_regression,
        )


@dataclass
class ExplorerReport:
    """Aggregate of one run: every outcome plus minimized failures."""

    config: ExplorerConfig
    outcomes: list[ScheduleOutcome] = field(default_factory=list)
    minimized: list[tuple[Schedule, ScheduleOutcome]] = field(
        default_factory=list
    )
    artifacts: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[ScheduleOutcome]:
        return [o for o in self.outcomes if o.failed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def digest(self) -> str:
        """Stable digest over schedules and verdicts (never timing)."""
        payload = [
            {"schedule": o.schedule.key(), **o.verdict()}
            for o in self.outcomes
        ]
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def summary(self) -> str:
        by_result: dict[str, int] = {}
        for o in self.outcomes:
            by_result[o.result] = by_result.get(o.result, 0) + 1
        lines = [
            "crash-point explorer: "
            + ("PASS" if self.passed else "FAIL")
            + f" ({len(self.outcomes)} schedules, seed {self.config.seed})",
            "  results: "
            + ", ".join(f"{k}={v}" for k, v in sorted(by_result.items())),
            f"  schedule digest: {self.digest()}",
        ]
        for outcome in self.failures:
            lines.append(f"  FAILED: {outcome.schedule.key()}")
            for v in outcome.violations:
                lines.append(f"    {v}")
        for schedule, outcome in self.minimized:
            lines.append(
                f"  minimized ({len(schedule.steps)} steps): {schedule.key()}"
                f" -> {sorted({v.invariant for v in outcome.violations})}"
            )
        for path in self.artifacts:
            lines.append(f"  artifact: {path}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# schedule execution
# ----------------------------------------------------------------------


def _value(config: ExplorerConfig, tag: int) -> np.ndarray:
    """Deterministic distinct block contents per write."""
    return np.full(config.block_size, (0x11 * (tag + 1)) % 251, dtype=np.uint8)


class _Run:
    """One schedule execution against a fresh in-process cluster."""

    def __init__(
        self,
        config: ExplorerConfig,
        schedule: Schedule,
        obs: Observability | None,
    ):
        self.config = config
        self.schedule = schedule
        self.obs = obs
        self.cluster = Cluster(
            config.k,
            config.n,
            block_size=config.block_size,
            observability=obs,
        )
        self.client_config = config.client_config()
        self.history = HistoryRecorder()
        self.outcome = ScheduleOutcome(schedule=schedule, result="clean")
        self._tag = 0
        # Every client id this run may ever create, so a targeted
        # partition can block pairs for victims registered later.
        self._client_names = ["loader", "driver"]
        for i in range(len(schedule.steps)):
            self._client_names += [
                f"victim-{i}",
                f"straggler-{i}a",
                f"straggler-{i}b",
                f"companion-{i}",
            ]

    # -- plumbing ------------------------------------------------------

    def _next_tag(self) -> int:
        self._tag += 1
        return self._tag

    def _write(self, client, index: int) -> None:
        """One recorded write to the target stripe.  Any write that
        raises — by the armed crash or otherwise — may still have been
        partially applied (and later rolled forward), so it is always
        recorded as forever-in-flight on error."""
        stripe = self.config.stripe
        tag = self._next_tag()
        value = _value(self.config, tag)
        with self.history.operation(
            "write",
            key=(stripe, index),
            value=value.tobytes(),
            incomplete_on_error=True,
        ):
            client.write(stripe, index, value)

    def _crash(self, client, partial_writes: int = 0) -> None:
        """Report a victim's death, which left ``partial_writes`` writes
        unfinished: locks expire, id never reused."""
        self.cluster.crash_client(client.client_id)
        self.outcome.partial_writes += partial_writes

    def _partial_write(self, name: str, index: int, point: str, hit: int) -> None:
        """A helper client that dies mid-write, to damage the stripe.
        On an already-sick stripe (multi-point schedules) the write may
        fail before reaching the point; the straggler then just stays
        alive and the step proceeds with whatever damage exists."""
        straggler = self.cluster.protocol_client(name, self.client_config)
        plan = CrashPlan()
        plan.arm(point, hit=hit)
        straggler.crashpoints = plan
        try:
            self._write(straggler, index)
        except ClientCrash:
            self._crash(straggler, 1)
        except RecoveryFailedError as exc:
            self._note_data_loss(str(exc))
        except WriteAbortedError:
            pass

    # -- step templates ------------------------------------------------

    def _run_step(self, i: int, step: CrashStep) -> bool:
        """Execute one step; returns whether the armed point fired."""
        stripe = self.config.stripe
        if step.op == "recover":
            # Strand two diverging partial writes first so every
            # recovery phase (including the phase-2 wait loop) is
            # reachable: one write that only swapped, one that swapped
            # and landed exactly one add.
            self._partial_write(f"straggler-{i}a", 0, "write.after_swap", 1)
            self._partial_write(
                f"straggler-{i}b", 1 % self.config.k, "write.after_add", 1
            )
        elif step.op == "monitor":
            # Damage the stripe so the sweep has a recovery to start.
            self._partial_write(f"straggler-{i}a", 0, "write.after_swap", 1)
        victim = self.cluster.protocol_client(
            f"victim-{i}", self.client_config
        )
        plan = CrashPlan()
        plan.arm(step.point, hit=step.hit)
        victim.crashpoints = plan

        def action() -> None:
            if step.op == "write":
                self._write(victim, step.index)
            elif step.op == "recover":
                victim.recover(stripe)
            elif step.op == "gc":
                gc = GcManager(victim)
                # Round 1 moves the first generation recent->old on the
                # nodes; a fresh completed write then makes round 2 run
                # both phases, with the armed point between them (hit 1
                # fires in round 1, hit 2 in round 2).
                self._write(victim, 0)
                self._write(victim, 1 % self.config.k)
                gc.run_once()
                self._write(victim, 0)
                gc.run_once()
            elif step.op == "monitor":
                Monitor(victim, stale_after=0.0).sweep([stripe])
            else:  # pragma: no cover - POINT_OPS is exhaustive
                raise ValueError(f"unknown op {step.op!r}")

        try:
            action()
        except ClientCrash:
            self._crash(victim, 1 if step.op == "write" else 0)
            return True
        except RecoveryFailedError as exc:
            # The op tripped over pre-existing (or companion) damage
            # before reaching its point; the budget verdict decides
            # whether this loss was legitimate.
            self._note_data_loss(str(exc))
        except (WriteAbortedError, ReadFailedError):
            pass  # victim is alive; the drive repairs what it can
        return False

    def _run_companion(self, i: int, step: CrashStep) -> None:
        stripe = self.config.stripe
        if step.companion == "none":
            return
        if step.companion == "storage_crash":
            slot = self.cluster.layout.node_of_stripe_index(
                stripe, step.companion_pos
            )
            self.cluster.crash_storage(slot)
            self.outcome.storage_faults += 1
        elif step.companion == "partition":
            slot = self.cluster.layout.node_of_stripe_index(
                stripe, step.companion_pos
            )
            node_id = self.cluster.directory.node_id(slot)
            self.cluster.transport.partition([node_id], self._client_names)
            # Under the remap policy a node partitioned from every
            # client is as lost as a crashed one; count it against t_d
            # so the budget verdict matches what recovery experiences.
            self.outcome.storage_faults += 1
        elif step.companion == "second_writer":
            writer = self.cluster.protocol_client(
                f"companion-{i}", self.client_config
            )
            try:
                self._write(writer, step.index)
            except RecoveryFailedError as exc:
                self._note_data_loss(str(exc))
            except WriteAbortedError:
                pass
        elif step.companion == "second_recovery":
            recoverer = self.cluster.protocol_client(
                f"companion-{i}", self.client_config
            )
            try:
                recoverer.recover(stripe)
            except RecoveryFailedError as exc:
                self._note_data_loss(str(exc))
        else:
            raise ValueError(f"unknown companion {step.companion!r}")

    # -- quiescence drive + verdict ------------------------------------

    def _note_data_loss(self, detail: str) -> None:
        if self.outcome.data_loss is None:
            self.outcome.data_loss = detail

    def _drive_to_quiescence(self) -> None:
        """Monitor -> recovery -> GC until a sweep finds nothing."""
        stripe = self.config.stripe
        driver = self.cluster.protocol_client("driver", self.client_config)
        monitor = Monitor(driver, stale_after=0.0)
        quiet = False
        for _ in range(self.config.quiesce_rounds):
            try:
                report = monitor.sweep([stripe], deep=True)
            except RecoveryFailedError as exc:
                self._note_data_loss(str(exc))
                return
            if not report.recovered_stripes:
                quiet = True
                break
        if not quiet:
            self.outcome.violations.append(
                InvariantViolation(
                    "quiescence",
                    stripe,
                    f"monitor still found work after "
                    f"{self.config.quiesce_rounds} rounds",
                )
            )
            return
        # GC drain (a dead victim's completed tids were already cleared
        # by recovery's finalize; this collects the survivors' books).
        gc = GcManager(driver)
        gc.run_once()
        gc.run_once()
        final = monitor.sweep([stripe], deep=True)
        if final.recovered_stripes:
            self.outcome.violations.append(
                InvariantViolation(
                    "quiescence", stripe, "GC drain re-damaged the stripe"
                )
            )
            return
        # Final recorded reads feed the regular-register check.
        for index in range(self.config.k):
            with self.history.operation("read", key=(stripe, index)) as ctx:
                ctx.value = driver.read(stripe, index).tobytes()

    def execute(self) -> ScheduleOutcome:
        config, outcome = self.config, self.outcome
        loader = self.cluster.protocol_client("loader", self.client_config)
        for index in range(config.k):
            self._write(loader, index)
        for i, step in enumerate(self.schedule.steps):
            outcome.crash_fired.append(self._run_step(i, step))
            self._run_companion(i, step)
        self._drive_to_quiescence()
        self.cluster.transport.heal()
        outcome.budget_exceeded = (
            outcome.partial_writes > self.client_config.t_p
            and outcome.storage_faults >= 1
        ) or outcome.storage_faults > self.client_config.t_d
        if outcome.data_loss is not None:
            # Beyond the failure model loss is permitted, but a failed
            # recovery must still release its locks; within the model
            # any loss is itself a violation.
            outcome.result = "data_loss"
            if not outcome.budget_exceeded:
                outcome.violations.append(
                    InvariantViolation(
                        "failure_budget",
                        config.stripe,
                        f"data loss within budget (partial_writes="
                        f"{outcome.partial_writes}, storage_faults="
                        f"{outcome.storage_faults}): {outcome.data_loss}",
                    )
                )
            outcome.violations.extend(
                check_stripe(
                    self.cluster,
                    config.stripe,
                    invariants=("no_stripe_locked",),
                )
            )
        else:
            outcome.violations.extend(
                check_stripe(
                    self.cluster, config.stripe, invariants=STRIPE_INVARIANTS
                )
            )
            outcome.violations.extend(
                check_history(
                    self.history.history(),
                    initial=bytes(config.block_size),
                )
            )
            if outcome.violations:
                outcome.result = "violations"
        obs = self.obs
        if obs is not None and obs.registry.enabled:
            obs.registry.counter(
                "explorer_schedules_total", result=outcome.result
            ).inc()
            for step in self.schedule.steps:
                obs.registry.counter("explorer_steps_total", op=step.op).inc()
            for violation in outcome.violations:
                obs.registry.counter(
                    "explorer_invariant_failures_total",
                    invariant=violation.invariant,
                ).inc()
        return outcome


def run_schedule(
    config: ExplorerConfig,
    schedule: Schedule,
    obs: Observability | None = None,
) -> ScheduleOutcome:
    """Execute one schedule on a fresh cluster; fully deterministic."""
    return _Run(config, schedule, obs).execute()


# ----------------------------------------------------------------------
# schedule generation
# ----------------------------------------------------------------------


def point_variants(config: ExplorerConfig) -> list[tuple[str, int]]:
    """Every (point, hit) the exhaustive sweep exercises: each serial
    add subset, first and last phase-1 lock, and hit 1 elsewhere."""
    variants: list[tuple[str, int]] = []
    for point in sorted(CRASH_POINT_CATALOGUE):
        if point not in POINT_OPS:
            # Points outside the explorer's op vocabulary (e.g. the
            # rebalance.* migration points, exercised by the elastic
            # soak instead) — skipping keeps explorer schedules and
            # digests stable as the catalogue grows.
            continue
        if point == "write.after_add":
            variants += [(point, h) for h in range(1, config.n - config.k + 1)]
        elif point == "recovery.phase1.after_lock":
            variants += [(point, 1), (point, config.n)]
        elif point == "gc.between_phases":
            # Hit 1: round 1, nothing discarded yet, first generation
            # still in recentlists.  Hit 2: round 2, oldlists already
            # dropped, the newer generation stranded in recentlists.
            variants += [(point, 1), (point, 2)]
        else:
            variants.append((point, 1))
    return variants


def exhaustive_schedules(config: ExplorerConfig) -> list[Schedule]:
    """The single-point sweep: every point variant x every companion.
    Companion faults target the last redundant position; victim writes
    target data index 0."""
    out = []
    for point, hit in point_variants(config):
        for companion in COMPANIONS:
            out.append(
                Schedule(
                    steps=(
                        CrashStep(
                            point=point,
                            hit=hit,
                            index=0,
                            companion=companion,
                            companion_pos=config.n - 1,
                        ),
                    )
                )
            )
    return out


def random_schedules(config: ExplorerConfig) -> list[Schedule]:
    """Seeded multi-point (depth >= 2) schedules."""
    rng = random.Random(config.seed)
    variants = point_variants(config)
    out = []
    for _ in range(config.schedules):
        depth = rng.randint(2, max(2, config.max_depth))
        steps = []
        for _ in range(depth):
            point, hit = rng.choice(variants)
            steps.append(
                CrashStep(
                    point=point,
                    hit=hit,
                    index=rng.randrange(config.k),
                    companion=rng.choice(COMPANIONS),
                    companion_pos=rng.randrange(config.n),
                )
            )
        out.append(Schedule(steps=tuple(steps)))
    return out


# ----------------------------------------------------------------------
# delta debugging
# ----------------------------------------------------------------------


def minimize_schedule(
    config: ExplorerConfig,
    schedule: Schedule,
    obs: Observability | None = None,
) -> tuple[Schedule, ScheduleOutcome]:
    """Greedy delta debugging: repeatedly drop one step, then weaken
    one companion to "none", keeping any change that still fails.
    Each probe is a full deterministic re-execution on a fresh
    cluster.  Returns the minimal failing schedule and its outcome."""
    outcome = run_schedule(config, schedule, obs)
    if not outcome.failed:
        raise ValueError("cannot minimize a passing schedule")
    current, current_outcome = schedule, outcome
    changed = True
    while changed:
        changed = False
        for i in range(len(current.steps)):
            candidate = Schedule(
                steps=current.steps[:i] + current.steps[i + 1 :]
            )
            if not candidate.steps:
                continue
            probe = run_schedule(config, candidate, obs)
            if probe.failed:
                current, current_outcome = candidate, probe
                changed = True
                break
        if changed:
            continue
        for i, step in enumerate(current.steps):
            if step.companion == "none":
                continue
            candidate = Schedule(
                steps=current.steps[:i]
                + (replace(step, companion="none"),)
                + current.steps[i + 1 :]
            )
            probe = run_schedule(config, candidate, obs)
            if probe.failed:
                current, current_outcome = candidate, probe
                changed = True
                break
    return current, current_outcome


# ----------------------------------------------------------------------
# serialization + replay
# ----------------------------------------------------------------------


def save_schedule(
    path: str,
    config: ExplorerConfig,
    schedule: Schedule,
    outcome: ScheduleOutcome | None = None,
) -> str:
    """Serialize a schedule (plus its expected verdict) for replay."""
    payload = {
        "format": SCHEDULE_FORMAT,
        "config": {
            "k": config.k,
            "n": config.n,
            "block_size": config.block_size,
            "stripe": config.stripe,
            "quiesce_rounds": config.quiesce_rounds,
            "inject_regression": config.inject_regression,
        },
        "steps": [step.to_dict() for step in schedule.steps],
    }
    if outcome is not None:
        payload["expect"] = outcome.verdict()
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_schedule(path: str) -> tuple[ExplorerConfig, Schedule, dict | None]:
    """Read a serialized schedule; returns (config, schedule, expect)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != SCHEDULE_FORMAT:
        raise ValueError(
            f"{path}: unsupported schedule format "
            f"{payload.get('format')!r} (want {SCHEDULE_FORMAT})"
        )
    raw = payload.get("config", {})
    config = ExplorerConfig(
        k=int(raw.get("k", 2)),
        n=int(raw.get("n", 4)),
        block_size=int(raw.get("block_size", 16)),
        stripe=int(raw.get("stripe", 0)),
        quiesce_rounds=int(raw.get("quiesce_rounds", 6)),
        inject_regression=bool(raw.get("inject_regression", False)),
    )
    schedule = Schedule(
        steps=tuple(CrashStep.from_dict(s) for s in payload["steps"])
    )
    return config, schedule, payload.get("expect")


# ----------------------------------------------------------------------
# the full run
# ----------------------------------------------------------------------


def run_explorer(
    config: ExplorerConfig, obs: Observability | None = None
) -> ExplorerReport:
    """Exhaustive sweep + seeded multi-point schedules; failures are
    minimized and (with ``artifact_dir``) serialized for replay."""
    report = ExplorerReport(config=config)
    schedules: list[Schedule] = []
    if config.exhaustive:
        schedules += exhaustive_schedules(config)
    schedules += random_schedules(config)
    for schedule in schedules:
        report.outcomes.append(run_schedule(config, schedule, obs))
    for idx, outcome in enumerate(report.outcomes):
        if not outcome.failed:
            continue
        minimal, minimal_outcome = minimize_schedule(
            config, outcome.schedule, obs
        )
        report.minimized.append((minimal, minimal_outcome))
        if config.artifact_dir:
            path = os.path.join(
                config.artifact_dir, f"minimized-{idx}.json"
            )
            report.artifacts.append(
                save_schedule(path, config, minimal, minimal_outcome)
            )
    if config.artifact_dir and not report.passed and obs is not None:
        dump = obs.flight.dump(
            os.path.join(config.artifact_dir, "explorer-flight.json"),
            reason="explorer schedules failed invariants",
            extra={
                "digest": report.digest(),
                "failures": [o.schedule.key() for o in report.failures],
            },
        )
        report.artifacts.append(dump)
    return report
