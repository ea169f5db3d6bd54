"""The shared soak harness: the seeded op loop, the settle tail, the
flight dump, and the CLI table built on top of them."""

from __future__ import annotations

import math
import pathlib
import random

import pytest

from repro.chaos import harness, restart_soak
from repro.chaos.harness import (
    VALUE_WIDTH,
    SettledCore,
    SoakHarness,
    client_config,
    digest,
    payload,
)
from repro.chaos.soak import SoakConfig
from repro.errors import WriteAbortedError
from repro.ids import BlockAddr
from repro.net.chaos import FaultPlan
from repro.storage.wal import WalStore

SALT = (101, 7)


def build(classify=None, **overrides) -> SoakHarness:
    """A fault-free harness over the chaos soak's config shape."""
    config = SoakConfig(**{"seed": 3, "blocks": 6, "observe": False, **overrides})
    return SoakHarness(
        config,
        SettledCore(seed=config.seed),
        name="test-soak",
        tag="t",
        salt=SALT,
        plan=FaultPlan([], seed=config.seed),
        client_ids=["c0", "c1"],
        clients=client_config(config),
        classify=classify,
        store_factory=lambda slot: WalStore(tag=f"slot{slot}"),
    )


def logged(h: SoakHarness) -> list[tuple[str, int]]:
    """(verb, block) per op-log line."""
    return [(line.split()[2], int(line.split()[3])) for line in h.oplog]


class TestOpStream:
    def test_block_is_drawn_before_read_or_write(self):
        h = build()
        h.run_ops(40)
        rng = random.Random(h.config.seed * SALT[0] + SALT[1])
        expected = []
        for _ in range(40):
            block = rng.randrange(h.config.blocks)
            is_read = rng.random() < h.config.read_fraction
            expected.append(("read" if is_read else "write", block))
        assert logged(h) == expected
        assert h.report.ops_run == 40 and h.report.op_failures == 0

    def test_reads_only_consumes_no_read_write_draw(self):
        """The directory soak's quorum-loss window: a read-only batch
        draws blocks alone, so the mixed batch after it picks up the
        RNG exactly one draw per read later."""
        h = build()
        h.run_ops(10, reads_only=True)
        h.run_ops(10)
        rng = random.Random(h.config.seed * SALT[0] + SALT[1])
        expected = [("read", rng.randrange(h.config.blocks)) for _ in range(10)]
        for _ in range(10):
            block = rng.randrange(h.config.blocks)
            is_read = rng.random() < h.config.read_fraction
            expected.append(("read" if is_read else "write", block))
        assert logged(h) == expected

    def test_clients_take_turns_and_writes_carry_the_op_index(self):
        h = build(read_fraction=0.0)
        h.run_ops(4)
        assert [line.split()[1] for line in h.oplog] == ["c0", "c1", "c0", "c1"]
        assert h.oplog[3].endswith(repr(payload("t", 3, 3)))


class TestPayload:
    @pytest.mark.parametrize("tag", list("srgcedp"))
    def test_width_is_the_same_for_every_tag(self, tag):
        for seed in (0, 7, 996, 997, 10**9):
            for index, unit in ((0, "i"), (999_999, "i"), (11, "b")):
                assert len(payload(tag, seed, index, unit)) == VALUE_WIDTH

    def test_todays_bytes(self):
        assert payload("s", 7, 12) == b"s007i000012"
        assert payload("p", 1000, 5, "b") == b"p003b000005"


class _AbortingVolume:
    """Stands in for a client whose every write aborts."""

    client_id = "c0"

    def write_block(self, block, value):
        raise WriteAbortedError("node down")

    def collect_garbage(self):
        pass


class TestFailureClassifier:
    def test_in_window_abort_is_not_an_op_failure(self):
        h = build(
            classify=lambda i, exc: "DOWNTIME-ABORT" if i < 2 else None,
            read_fraction=0.0,
        )
        h.volumes = [_AbortingVolume()]
        assert h.run_ops(3) == 1
        assert h.report.ops_run == 3
        assert h.report.op_failures == 1
        assert h.oplog[0] == "0 c0 DOWNTIME-ABORT WriteAbortedError"
        assert h.oplog[1] == "1 c0 DOWNTIME-ABORT WriteAbortedError"
        assert h.oplog[2].startswith("2 c0 FAILED ")
        # A tolerated abort may still have landed: every failed write is
        # on record as forever in flight.
        assert [op.end for op in h.recorder.history()] == [math.inf] * 3

    def test_without_a_classifier_every_failure_counts(self):
        h = build(read_fraction=0.0)
        h.volumes = [_AbortingVolume()]
        assert h.run_ops(2) == 2
        assert h.report.op_failures == 2
        assert h.recorder.history() == []


class TestSettle:
    def test_clean_run_settles_clean(self):
        h = build()
        h.run_ops(30)
        h.settle("settler")
        assert h.report.parity_clean
        assert h.report.store_clean and h.report.store_mismatches == []

    def test_block_flipped_behind_the_nodes_back_is_a_store_mismatch(self):
        h = build()
        h.run_ops(30)
        # Damage a stripe the settle scrub does not own (past the
        # workload namespace), so repair cannot paper over it: only the
        # store-vs-memory audit can see memory and disk disagree.
        far = h.config.blocks * 4
        h.volumes[0].write_block(far, b"outside")
        loc = h.cluster.layout.locate(far)
        assert loc.stripe not in h.stripes
        slot = h.cluster.slot_of(loc.stripe, loc.data_index)
        addr = BlockAddr(h.cluster.volume_name, loc.stripe, loc.data_index)
        h.cluster.node_for_slot(slot).peek(addr).block[0] ^= 0xFF
        h.settle("settler")
        assert h.report.parity_clean
        assert not h.report.store_clean
        assert any("persisted block != memory" in m
                   for m in h.report.store_mismatches)
        assert not h.report.passed


class TestFlightDump:
    def test_written_only_on_failure(self, tmp_path):
        passing = build(observe=True, flight_dir=str(tmp_path))
        passing.run_ops(10)
        passing.settle("settler")
        passing.finish()
        assert passing.report.passed
        assert passing.report.flight_path is None
        assert list(tmp_path.iterdir()) == []

        failing = build(observe=True, flight_dir=str(tmp_path))
        failing.run_ops(10)
        failing.settle("settler")
        failing.report.violations.append("scenario check failed")
        failing.finish(detail="why")
        assert not failing.report.passed
        path = pathlib.Path(failing.report.flight_path)
        assert path == tmp_path / "test-soak-seed3.json"
        from repro.obs import load_flight

        data = load_flight(str(path))
        assert data["reason"] == "test soak failed its invariants"
        assert data["extra"]["violations"] == ["scenario check failed"]
        assert data["extra"]["detail"] == "why"

    def test_unobserved_run_never_dumps(self, tmp_path):
        h = build(flight_dir=str(tmp_path))
        h.report.violations.append("x")
        h.finish()
        assert h.report.flight_path is None
        assert h.report.chaos_reconciled is None and h.report.metrics == {}


class TestRestartOpLogKeptItsContent:
    def test_only_the_client_column_is_new(self, monkeypatch):
        """Aligning the restart soak to the shared op-log format added
        the client id and nothing else: with that column dropped, the
        smoke run's op logs hash to the digests the pre-harness soak
        printed (restart-soak --seed 11 --smoke)."""
        before = {"restart": "7a3c1b2219201b32", "remap": "34b2f4bfa64c2696"}
        logs = []
        finish = SoakHarness.finish

        def capture(self, *args, **kwargs):
            logs.append(self.oplog)
            finish(self, *args, **kwargs)

        monkeypatch.setattr(harness.SoakHarness, "finish", capture)
        config = restart_soak.RestartSoakConfig(
            seed=11, ops=120, window_a=(30, 39), window_b=(78, 87),
            observe=False,
        )
        for policy, expected in before.items():
            outcome = restart_soak._run_policy(config, policy)
            assert outcome.history_digest != expected
            without_client = [
                " ".join(line.split(" ")[:1] + line.split(" ")[2:])
                for line in logs[-1]
            ]
            assert digest("\n".join(without_client)) == expected


class TestCliTable:
    def test_readme_soak_commands_come_from_the_table(self):
        from repro.cli import SOAKS, soak_readme_lines

        readme = (
            pathlib.Path(__file__).parents[2] / "README.md"
        ).read_text()
        listed = [
            line for line in readme.splitlines()
            if line.startswith("python -m repro ") and "-soak" in line
        ]
        assert listed == soak_readme_lines()
        assert len(listed) == len(SOAKS) == 6

    def test_unset_flags_keep_the_config_defaults(self):
        from repro.cli import SOAKS, build_parser

        parser = build_parser()
        for soak in SOAKS:
            args = parser.parse_args([soak.name])
            assert args.seed == soak.config().seed
            fields = soak.config.__dataclass_fields__
            for _, field, _, _ in soak.flags:
                assert field in fields
                assert getattr(args, field) is None
