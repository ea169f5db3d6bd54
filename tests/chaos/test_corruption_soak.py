"""The corruption soak: determinism and end-to-end integrity claims."""

from __future__ import annotations

import pytest

from repro.chaos.corruption_soak import (
    CorruptionSoakConfig,
    run_corruption_soak,
)


def small_config(seed: int = 5, **overrides) -> CorruptionSoakConfig:
    defaults = dict(seed=seed, ops=140, observe=False)
    defaults.update(overrides)
    return CorruptionSoakConfig(**defaults)


class TestDeterminism:
    def test_same_seed_same_digests(self):
        first = run_corruption_soak(small_config())
        second = run_corruption_soak(small_config())
        assert first.history_digest == second.history_digest
        assert first.ledger_digest == second.ledger_digest
        assert first.media_digest == second.media_digest
        assert first.injected_pairs == second.injected_pairs
        assert first.detected_pairs == second.detected_pairs

    def test_observability_does_not_change_digests(self):
        observed = run_corruption_soak(small_config(observe=True))
        blind = run_corruption_soak(small_config(observe=False))
        assert observed.history_digest == blind.history_digest
        assert observed.ledger_digest == blind.ledger_digest
        assert observed.media_digest == blind.media_digest

    def test_different_seed_different_faults(self):
        first = run_corruption_soak(small_config(seed=5))
        second = run_corruption_soak(small_config(seed=6))
        assert (first.history_digest, first.ledger_digest) != (
            second.history_digest,
            second.ledger_digest,
        )


class TestGuarantees:
    @pytest.mark.parametrize("seed", [2, 5, 12])
    def test_soak_passes(self, seed):
        report = run_corruption_soak(small_config(seed=seed, observe=True))
        assert report.passed, report.summary()
        # Both corruption axes actually fired and were caught.
        assert report.wire_injected > 0
        assert report.wire_reconciled
        assert report.media_injected > 0
        assert report.media_covered
        # Nothing corrupt ever reached a read, and nothing survived.
        assert report.violations == []
        assert report.parity_clean
        assert report.final_audit_clean
        assert report.store_clean
        assert report.chaos_reconciled
        assert report.cost_conformant

    def test_wire_ledger_reconciles_one_to_one(self):
        report = run_corruption_soak(small_config())
        assert report.wire_detected == report.wire_injected > 0
