"""WAL store: codec, crash/replay lifecycle, media faults, compaction."""

from __future__ import annotations

import pickle
import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids import BlockAddr, Tid
from repro.net import wire
from repro.net.wire import WireError, decode_record, encode_record
from repro.storage import wal
from repro.storage.state import (
    BlockState,
    LockMode,
    OpMode,
    StateSnapshot,
    TidEntry,
)
from repro.storage.wal import (
    MediaFaultPlan,
    SimMedia,
    WalStore,
    decode_frame,
    encode_frame,
    fold_records,
    replay,
)


def _entry(seq: int, index: int = 0, client: str = "c", t: int = 1) -> TidEntry:
    return TidEntry(tid=Tid(seq, index, client), seq_time=t, wall_time=0.5)


def _state(fill: int, **kwargs) -> BlockState:
    return BlockState(block=np.full(16, fill, dtype=np.uint8), **kwargs)


def _addr(stripe: int = 0, index: int = 0) -> BlockAddr:
    return BlockAddr("vol0", stripe, index)


class TestRecordCodec:
    def test_roundtrip_preserves_durable_fields(self):
        state = _state(
            7,
            opmode=OpMode.RECONS,
            epoch=3,
            recentlist={_entry(5), _entry(6, 1)},
            oldlist={_entry(2)},
            recons_set=frozenset({0, 2}),
        )
        addr, back = decode_record(encode_record(_addr(4, 1), state))
        assert addr == _addr(4, 1)
        assert np.array_equal(back.block, state.block)
        assert back.opmode is OpMode.RECONS
        assert back.epoch == 3
        assert back.recentlist == state.recentlist
        assert back.oldlist == state.oldlist
        assert back.recons_set == frozenset({0, 2})

    def test_lock_fields_are_volatile(self):
        state = _state(1, lmode=LockMode.L1, lid="writer", lock_time=9.0)
        _, back = decode_record(encode_record(_addr(), state))
        assert back.lmode is LockMode.UNL
        assert back.lid is None
        assert back.lock_time == 0.0

    def test_frame_roundtrip(self):
        state = _state(9, recentlist={_entry(3)}, fingerprint="f00d")
        lsn, addr, back = decode_frame(encode_frame(42, _addr(), state))
        assert lsn == 42
        assert addr == _addr()
        assert encode_record(addr, back) == encode_record(_addr(), state)

    def test_torn_frame_decodes_to_none(self):
        frame = encode_frame(1, _addr(), _state(9))
        for cut in (0, 5, len(frame) // 2, len(frame) - 1):
            assert decode_frame(frame[:cut]) is None
        # Bit rot inside the payload is caught by the CRC too.
        corrupt = bytearray(frame)
        corrupt[-1] ^= 0xFF
        assert decode_frame(bytes(corrupt)) is None

    def test_equal_states_encode_equal_and_decode_private(self):
        entries = [_entry(seq, seq % 3, f"c{seq}", t=seq) for seq in range(40)]
        forward = _state(4, recentlist=set(entries), oldlist=set(entries[:9]))
        backward = _state(
            4, recentlist=set(reversed(entries)), oldlist=set(entries[8::-1])
        )
        assert encode_record(_addr(), forward) == encode_record(
            _addr(), backward
        )

        # Replay and audits hand out blocks nobody else holds: writable,
        # and no view over the payload the store keeps for compaction.
        store = WalStore()
        store.persist(_addr(), forward, redundant=False)
        store.crash()
        replayed = store.reopen().states[_addr()].block
        audited = store.persisted_state(_addr()).block
        kept = np.frombuffer(store._records[_addr()], np.uint8)
        for block in (replayed, audited):
            assert block.flags.writeable
            assert not np.shares_memory(block, kept)
        assert not np.shares_memory(replayed, audited)


_HOOK_RAN = []


def _hook():
    _HOOK_RAN.append("ran")


class _Booby:
    def __reduce__(self):
        return _hook, ()


def _sealed(payload: bytes, lsn: int = 1) -> bytes:
    """A frame around ``payload`` whose header and CRC are valid."""
    return wal._FRAME.pack(lsn, len(payload), zlib.crc32(payload)) + payload


_RECORD = encode_record(_addr(), _state(9, recentlist={_entry(2)}))
#: The opmode byte follows the head (stripe, index, epoch, volume name).
_OPMODE_AT = wire._RECORD.size + 2 + len(_addr().volume)


def _blockless_record() -> bytes:
    """A well-formed head and ``get_state`` layout whose block is None
    (what an INIT node answers), which no durable slot holds."""
    out = bytearray(_RECORD[:_OPMODE_AT])
    wire._put_state(out, StateSnapshot(OpMode.NORM, None, (), (), None))
    return bytes(out)


class TestHostileMedia:
    """Replay parses media bytes and never runs or trusts them: a
    CRC-valid payload that is not a record is a torn record."""

    def test_pickle_payload_is_torn_and_never_runs(self):
        _HOOK_RAN.clear()
        result = replay([_sealed(pickle.dumps(_Booby()))], header_lsn=1)
        assert not result.clean
        assert "torn record" in result.reason
        assert _HOOK_RAN == []

    @pytest.mark.parametrize(
        "payload",
        [
            b"\x80\x04garbage that is not a record",
            _RECORD[: len(_RECORD) // 2],
            _RECORD[:-1],
            _RECORD + b"\x00",
            # An opmode index past the enum's members.
            _RECORD[:_OPMODE_AT] + b"\x09" + _RECORD[_OPMODE_AT + 1 :],
            _blockless_record(),
        ],
        ids=[
            "garbage", "truncated", "one_short", "trailing", "bad_enum",
            "no_block",
        ],
    )
    def test_sealed_non_record_replays_dirty(self, payload):
        assert decode_frame(_sealed(payload)) is None
        with pytest.raises(WireError):
            decode_record(payload)
        result = replay([_sealed(payload)], header_lsn=1)
        assert not result.clean
        assert "torn record" in result.reason

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.binary(max_size=200), st.integers(0, len(_RECORD)))
    def test_random_sealed_payload_never_raises(self, noise, cut):
        for payload in (noise, _RECORD[:cut] + noise):
            decoded = decode_frame(_sealed(payload))
            if decoded is not None:
                lsn, addr, state = decoded
                assert lsn == 1 and type(addr) is BlockAddr
                assert state.block.dtype == np.uint8


class TestWalStoreLifecycle:
    def test_persist_load_and_persisted_state(self):
        store = WalStore()
        state = _state(3, epoch=2, recentlist={_entry(8)})
        store.persist(_addr(1), state, redundant=False)
        durable = store.persisted_state(_addr(1))
        assert np.array_equal(durable.block, state.block)
        assert durable.epoch == 2
        assert durable.recentlist == state.recentlist
        assert store.addresses() == [_addr(1)]
        assert store.persisted_state(_addr(9)) is None

    def test_clean_crash_reopen_restores_exact_state(self):
        store = WalStore()
        states = {}
        for stripe in range(3):
            state = _state(
                stripe + 1,
                epoch=stripe,
                recentlist={_entry(10 + stripe)},
                oldlist={_entry(stripe)},
            )
            states[_addr(stripe)] = state
            store.persist(_addr(stripe), state, redundant=False)
        # Overwrite one slot: replay must keep only the latest image.
        newer = _state(99, epoch=5)
        states[_addr(0)] = newer
        store.persist_meta(_addr(0), newer)

        store.crash()  # fault-free plan: nothing is damaged
        with pytest.raises(RuntimeError):
            store.persist(_addr(0), newer, redundant=False)
        result = store.reopen()
        assert result.clean
        assert set(result.states) == set(states)
        for addr, expected in states.items():
            got = result.states[addr]
            assert np.array_equal(got.block, expected.block)
            assert got.epoch == expected.epoch
            assert got.recentlist == expected.recentlist
            assert got.oldlist == expected.oldlist

    def test_reopen_keeps_the_replayed_payloads(self, monkeypatch):
        monkeypatch.setattr(wal, "SNAPSHOT_EVERY", 8)
        store = WalStore()
        for i in range(20):
            state = _state(i, epoch=i % 3, recentlist={_entry(i)})
            store.persist(_addr(i % 3), state, redundant=False)
        store.crash()
        frames, _ = store.media.read()
        parsed = [decode_frame(frame) for frame in frames]
        winners = fold_records(
            (lsn, addr, frame) for frame, (lsn, addr, _) in zip(frames, parsed)
        )

        def no_reencode(*args):
            raise AssertionError("reopen re-encoded a replayed state")

        monkeypatch.setattr(wal, "encode_record", no_reencode)
        assert store.reopen().clean
        assert store.addresses() == sorted(winners, key=lambda a: a.stripe)
        for addr, frame in winners.items():
            payload = store._records[addr]
            assert type(payload) is bytes
            assert payload == frame[wal._FRAME.size :]
            durable = store.persisted_state(addr)
            assert encode_record(addr, durable) == payload

    def test_constructor_refuses_positional_arguments(self):
        from repro.core.cluster import Cluster

        with pytest.raises(TypeError):
            WalStore(SimMedia())
        # ``store_factory`` is called with the slot number: handing it
        # the class must fail when the cluster is built, not as a
        # data-loss error on some later write.
        with pytest.raises(TypeError):
            Cluster(k=2, n=4, block_size=16, store_factory=WalStore)

    def test_forced_torn_tail_is_dirty(self):
        store = WalStore()
        store.persist(_addr(), _state(1), redundant=False)
        store.persist(_addr(1), _state(2), redundant=False)
        store.crash(force="torn")
        result = store.reopen()
        assert not result.clean
        assert "torn" in result.reason
        assert result.states == {}

    def test_forced_lost_tail_is_dirty(self):
        store = WalStore()
        store.persist(_addr(), _state(1), redundant=False)
        store.crash(force="lost")
        result = store.reopen()
        assert not result.clean
        assert "lost" in result.reason

    def test_reset_wipes_media_for_fresh_init(self):
        store = WalStore()
        store.persist(_addr(), _state(1), redundant=False)
        store.crash(force="torn")
        assert not store.reopen().clean
        store.reset()
        assert store.media.frame_count() == 0
        # The store serves again from scratch.
        store.persist(_addr(), _state(2), redundant=False)
        assert store.reopen().clean

    def test_seeded_media_damage_is_deterministic(self):
        def run() -> tuple:
            plan = MediaFaultPlan(seed=3, torn=0.5, lost=0.3, exposure=4)
            store = WalStore(plan=plan, tag="det")
            for i in range(6):
                store.persist(_addr(i), _state(i + 1), redundant=False)
            store.crash()
            result = store.reopen()
            return store.media.ledger_key(), result.clean, result.reason

        assert run() == run()

    def test_compaction_bounds_log_and_replays_clean(self, monkeypatch):
        monkeypatch.setattr(wal, "SNAPSHOT_EVERY", 8)
        store = WalStore()
        for i in range(100):
            store.persist(_addr(i % 3), _state(i % 251), redundant=False)
        assert store.compactions > 0
        assert store.media.frame_count() <= max(wal.SNAPSHOT_EVERY, 2 * 3)
        store.crash()
        result = store.reopen()
        assert result.clean
        assert set(result.states) == {_addr(0), _addr(1), _addr(2)}
        # Last writes were i=97,98,99 -> addr 1, 2, 0.
        assert result.states[_addr(0)].block[0] == 99 % 251
        assert result.states[_addr(1)].block[0] == 97 % 251
        assert result.states[_addr(2)].block[0] == 98 % 251


class TestReplayProperties:
    """Satellite property: replay is an idempotent, order-insensitive
    fold, so any clean log prefix replays to the same state twice."""

    def _random_records(
        self, rng: random.Random
    ) -> list[tuple[int, BlockAddr, BlockState]]:
        records = []
        for lsn in range(1, rng.randrange(5, 40)):
            stripe = rng.randrange(4)
            state = _state(
                rng.randrange(256),
                epoch=rng.randrange(4),
                opmode=rng.choice([OpMode.NORM, OpMode.RECONS]),
                recentlist={_entry(rng.randrange(50))},
            )
            records.append((lsn, _addr(stripe), state))
        return records

    @staticmethod
    def _key(states: dict) -> dict:
        return {
            addr: (
                s.block.tobytes(),
                s.opmode,
                s.epoch,
                frozenset(s.recentlist),
                frozenset(s.oldlist),
                s.recons_set,
            )
            for addr, s in states.items()
        }

    def test_fold_is_idempotent_and_order_insensitive(self):
        rng = random.Random(1234)
        for _ in range(25):
            records = self._random_records(rng)
            ordered = self._key(fold_records(records))
            shuffled = list(records)
            rng.shuffle(shuffled)
            assert self._key(fold_records(shuffled)) == ordered
            assert self._key(fold_records(records + records)) == ordered

    def test_any_prefix_replays_identically_twice(self):
        rng = random.Random(99)
        records = self._random_records(rng)
        frames = [encode_frame(*rec) for rec in records]
        for cut in range(len(frames) + 1):
            prefix = frames[:cut]
            header = records[cut - 1][0] if cut else 0
            first = replay(prefix, header)
            second = replay(prefix, header)
            assert first.clean and second.clean
            assert self._key(first.states) == self._key(second.states)

    def test_torn_tail_dirty_but_prefix_before_it_clean(self):
        rng = random.Random(7)
        records = self._random_records(rng)
        frames = [encode_frame(*rec) for rec in records]
        torn = frames[:-1] + [frames[-1][: len(frames[-1]) // 2]]
        assert not replay(torn, records[-1][0]).clean
        # Drop the damage and the log is a clean (shorter) history again.
        assert replay(frames[:-1], records[-2][0]).clean

    def test_lsn_gap_detected(self):
        records = [
            (1, _addr(0), _state(1)),
            (3, _addr(1), _state(2)),
        ]
        frames = [encode_frame(*rec) for rec in records]
        result = replay(frames, 3)
        assert not result.clean
        assert "lost record" in result.reason

    def test_header_ahead_of_log_detected(self):
        frames = [encode_frame(1, _addr(), _state(1))]
        result = replay(frames, header_lsn=2)
        assert not result.clean
        assert "lost tail" in result.reason


class TestSimMedia:
    def test_unsynced_frames_vanish_on_crash(self):
        media = SimMedia()
        media.append(1, encode_frame(1, _addr(), _state(1)))
        media.sync()
        media.append(2, encode_frame(2, _addr(), _state(2)))
        # no sync for lsn 2
        media.crash()
        frames, header = media.read()
        assert len(frames) == 1 and header == 1

    def test_rewrite_is_never_fault_exposed(self):
        plan = MediaFaultPlan(seed=0, torn=1.0, exposure=8)
        media = SimMedia(plan)
        frames = [
            (lsn, encode_frame(lsn, _addr(lsn), _state(lsn)))
            for lsn in range(1, 4)
        ]
        media.rewrite(frames)
        read, header = media.read()
        assert header == 3
        assert replay(read, header).clean


class TestBitFlip:
    """Silent bit-flip corruption: replays clean, caught only by scrub."""

    def test_flip_fate_drawn_from_plan(self):
        plan = MediaFaultPlan(seed=7, flip=1.0)
        fate, frac = plan.fate("m", crash_no=1, position=0)
        assert fate == "flip"
        assert 0.0 <= frac < 1.0
        # Pure function of the key: same draw every time.
        assert plan.fate("m", 1, 0) == (fate, frac)

    def test_forced_flip_replays_clean_with_one_bit_changed(self):
        media = SimMedia(tag="flip")
        original = _state(5)
        media.append(1, encode_frame(1, _addr(), original))
        media.sync()
        media.crash(force="flip")

        frames, header = media.read()
        result = replay(frames, header)
        # The frame was re-sealed with a fresh CRC: the *storage layer*
        # sees a perfectly healthy log.
        assert result.clean
        damaged = result.states[_addr()]
        xor = np.bitwise_xor(damaged.block, original.block)
        assert int(np.unpackbits(xor).sum()) == 1
        # ...but the injection is ledgered for the soak's accounting.
        assert [e.kind for e in media.fault_ledger] == ["flip"]
        assert media.ledger_key() == (("flip", "flip", 1, 1),)

    def test_seeded_flips_are_deterministic(self):
        def run() -> tuple:
            plan = MediaFaultPlan(seed=11, flip=0.6, exposure=4)
            store = WalStore(plan=plan, tag="flipdet")
            for i in range(6):
                store.persist(_addr(i), _state(i + 1), redundant=False)
            store.crash()
            result = store.reopen()
            blocks = tuple(
                bytes(state.block)
                for _, state in sorted(
                    result.states.items(), key=lambda kv: kv[0].stripe
                )
            )
            return store.media.ledger_key(), result.clean, blocks

        first = run()
        assert first == run()
        assert any(event[0] == "flip" for event in first[0])
        assert first[1]  # flips never dirty the replay

    def test_walstore_forced_flip_serves_corrupt_block_silently(self):
        store = WalStore()
        store.persist(_addr(0), _state(1), redundant=False)
        store.persist(_addr(1), _state(2), redundant=False)
        store.crash(force="flip")
        result = store.reopen()
        assert result.clean  # no torn/lost tail: nothing to suspect
        xor = np.bitwise_xor(result.states[_addr(1)].block, _state(2).block)
        assert int(np.unpackbits(xor).sum()) == 1
        # The earlier frame was outside the forced damage.
        assert np.array_equal(result.states[_addr(0)].block, _state(1).block)

    def test_scrub_detects_and_repairs_flip_end_to_end(self):
        """The full loop the fault exists for: a durable node takes a
        silent WAL flip at crash time, restarts *clean*, and serves the
        corrupt block until a parity scrub locates and repairs it."""
        from repro.client.scrub import Scrubber
        from repro.core.cluster import Cluster

        cluster = Cluster(
            k=2,
            n=4,
            block_size=32,
            store_factory=lambda slot: WalStore(tag=f"slot{slot}"),
        )
        vol = cluster.client("seed")
        for b in range(8):
            vol.write_block(b, bytes([b + 1]))
        vol.collect_garbage()
        vol.collect_garbage()

        cluster.crash_storage(0, policy="restart", media_force="flip")
        report = cluster.restart_storage(0)
        assert report.clean  # the flip is invisible to WAL replay

        scrubber = Scrubber(cluster.protocol_client("scrub"))
        scrub = scrubber.scrub(range(4))
        assert len(scrub.mismatched) == 1
        stripe = scrub.mismatched[0]
        # n - k = 2 spare equations: the damage is *located*, not just
        # detected, and repaired by excluding the liar.
        assert len(scrub.corrupt_blocks) == 1
        assert scrub.corrupt_blocks[0][0] == stripe
        assert scrub.repaired == [stripe]

        again = Scrubber(cluster.protocol_client("verify"), repair=False)
        assert again.scrub(range(4)).healthy
        for b in range(8):
            assert vol.read_block(b)[:1] == bytes([b + 1])
