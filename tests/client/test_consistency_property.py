"""Property test: the greedy ``find_consistent`` matches the exhaustive
subset search on randomized small-n tid-bookkeeping histories.

Maximality is the load-bearing claim: a smaller-than-maximal set makes
recovery discard writes it could have preserved.  The histories are
built the way real stripes get into trouble: complete writes, partial
writes (swap plus a subset of adds), GC moving generations on a subset
of nodes, and positions knocked into INIT/RECONS."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.consistency import (
    find_consistent,
    find_consistent_exhaustive,
    is_consistent_set,
)
from repro.ids import Tid
from repro.storage.state import OpMode, StateSnapshot, TidEntry


def entries(tids: set[Tid]) -> frozenset[TidEntry]:
    return frozenset(
        TidEntry(tid, seq_time=i, wall_time=0.0)
        for i, tid in enumerate(sorted(tids, key=str))
    )


def build_history(seed: int) -> tuple[dict[int, StateSnapshot], int]:
    """Randomized per-position tid bookkeeping for one small stripe."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    k = rng.randint(2, n - 1)
    recent: dict[int, set[Tid]] = {j: set() for j in range(n)}
    old: dict[int, set[Tid]] = {j: set() for j in range(n)}

    for seq in range(rng.randint(0, 6)):
        index = rng.randrange(k)
        tid = Tid(seq=seq, index=index, client=f"c{rng.randint(0, 1)}")
        if rng.random() < 0.55:
            # Complete write: swap plus every add landed.
            for j in (index, *range(k, n)):
                recent[j].add(tid)
        else:
            # Partial write: swap landed, a random prefix of adds did.
            recent[index].add(tid)
            for j in range(k, k + rng.randint(0, n - k)):
                recent[j].add(tid)
    # GC progress diverges per node: some moved a completed generation
    # to oldlist, some already discarded theirs.
    for j in range(n):
        # Sorted, so the history does not depend on the hash seed.
        for tid in sorted(recent[j], key=str):
            roll = rng.random()
            if roll < 0.25:
                recent[j].discard(tid)
                old[j].add(tid)
            elif roll < 0.35:
                recent[j].discard(tid)

    data: dict[int, StateSnapshot] = {}
    for j in range(n):
        opmode = OpMode.NORM
        roll = rng.random()
        if roll < 0.12:
            opmode = OpMode.INIT
        elif roll < 0.2:
            opmode = OpMode.RECONS
        data[j] = StateSnapshot(
            opmode=opmode,
            recons_set=frozenset(range(k)) if opmode is OpMode.RECONS else None,
            oldlist=entries(old[j]),
            recentlist=entries(recent[j]),
            block=None if opmode is OpMode.INIT else object(),
        )
    return data, k


#: Every history ``build_history`` makes.
HISTORIES = range(10_001)


def stripe(*positions) -> dict[int, StateSnapshot]:
    """A k=2 stripe, one ``(opmode, recent tids, old tids)`` per position;
    a tid is a ``(seq, index, client)`` triple."""
    data: dict[int, StateSnapshot] = {}
    for j, (mode, recent, old) in enumerate(positions):
        opmode = OpMode[mode]
        data[j] = StateSnapshot(
            opmode=opmode,
            recons_set=frozenset({0, 1}) if opmode is OpMode.RECONS else None,
            oldlist=entries({Tid(*tid) for tid in old}),
            recentlist=entries({Tid(*tid) for tid in recent}),
            block=None if opmode is OpMode.INIT else object(),
        )
    return data


#: Histories on which choosing one redundant signature class per step
#: missed the maximum set, each with its maximum.
MISSED_BY_ONE_CLASS_PER_STEP = {
    "h2145": (stripe(
        ("NORM", (), ()),
        ("NORM", ((0, 1, "c1"), (1, 1, "c1"), (2, 1, "c1")), ()),
        ("NORM", ((1, 1, "c1"), (2, 1, "c1")), ()),
        ("NORM", ((0, 1, "c1"), (1, 1, "c1"), (2, 1, "c1")), ()),
        ("INIT", ((0, 1, "c1"), (1, 1, "c1")), ()),
        ("NORM", ((1, 1, "c1"),), ((0, 1, "c1"),)),
    ), {0, 1, 3}),
    "h3165": (stripe(
        ("INIT", ((3, 0, "c1"),), ()),
        ("NORM", ((0, 1, "c1"), (1, 1, "c0"), (2, 1, "c1")), ()),
        ("RECONS", ((0, 1, "c1"), (1, 1, "c0")), ((2, 1, "c1"),)),
        ("NORM", ((1, 1, "c0"), (3, 0, "c1")), ((2, 1, "c1"),)),
        ("NORM", ((0, 1, "c1"), (1, 1, "c0"), (2, 1, "c1"), (3, 0, "c1")), ()),
        ("NORM", ((2, 1, "c1"), (3, 0, "c1")), ((0, 1, "c1"),)),
    ), {1, 4}),
    "h7702": (stripe(
        ("NORM", ((1, 0, "c1"), (2, 0, "c1")), ()),
        ("NORM", ((0, 1, "c0"),), ()),
        ("NORM", ((1, 0, "c1"),), ((0, 1, "c0"),)),
        ("NORM", ((0, 1, "c0"),), ((2, 0, "c1"),)),
        ("NORM", ((0, 1, "c0"), (1, 0, "c1"), (2, 0, "c1")), ()),
    ), {0, 1, 4}),
    "h8383": (stripe(
        ("NORM", ((1, 0, "c1"), (2, 0, "c0")), ()),
        ("NORM", ((0, 1, "c0"),), ()),
        ("NORM", ((0, 1, "c0"), (1, 0, "c1")), ()),
        ("NORM", ((0, 1, "c0"), (1, 0, "c1"), (2, 0, "c0")), ()),
        ("NORM", ((1, 0, "c1"),), ((2, 0, "c0"),)),
    ), {0, 1, 3}),
    "h8669": (stripe(
        ("NORM", ((4, 0, "c0"),), ((0, 0, "c1"),)),
        ("NORM", ((1, 1, "c0"), (2, 1, "c1"), (3, 1, "c1")), ()),
        ("NORM", ((1, 1, "c0"), (2, 1, "c1")), ((4, 0, "c0"),)),
        ("NORM", ((1, 1, "c0"), (2, 1, "c1"), (3, 1, "c1"), (4, 0, "c0")), ()),
        ("NORM", ((1, 1, "c0"), (4, 0, "c0")), ((3, 1, "c1"),)),
    ), {0, 1, 3}),
}


class TestFindConsistentIsExact:
    @pytest.mark.parametrize(
        "name", sorted(MISSED_BY_ONE_CLASS_PER_STEP)
    )
    def test_pinned_history_reaches_its_maximum(self, name):
        data, maximum = MISSED_BY_ONE_CLASS_PER_STEP[name]
        assert find_consistent_exhaustive(data, 2) == maximum
        assert find_consistent(data, 2) == maximum

    def test_every_history_matches_exhaustive_search(self):
        misses = []
        for seed in HISTORIES:
            data, k = build_history(seed)
            greedy = find_consistent(data, k)
            if len(greedy) != len(find_consistent_exhaustive(data, k)):
                misses.append(seed)
        assert misses == []


class TestFindConsistentMatchesExhaustive:
    @given(st.integers(min_value=0, max_value=HISTORIES[-1]))
    @settings(max_examples=300, deadline=None)
    def test_greedy_is_maximal(self, seed):
        data, k = build_history(seed)
        greedy = find_consistent(data, k)
        exhaustive = find_consistent_exhaustive(data, k)
        assert is_consistent_set(greedy, data, k)
        assert len(greedy) == len(exhaustive), (
            f"seed {seed}: greedy {sorted(greedy)} vs "
            f"exhaustive {sorted(exhaustive)}"
        )

    @given(st.integers(min_value=0, max_value=HISTORIES[-1]))
    @settings(max_examples=100, deadline=None)
    def test_non_norm_positions_never_selected(self, seed):
        data, k = build_history(seed)
        for j in find_consistent(data, k):
            assert data[j].opmode is OpMode.NORM

    def test_empty_stripe_is_fully_consistent(self):
        empty = frozenset()
        data = {
            j: StateSnapshot(
                opmode=OpMode.NORM,
                recons_set=None,
                oldlist=empty,
                recentlist=empty,
                block=object(),
            )
            for j in range(4)
        }
        assert find_consistent(data, 2) == frozenset(range(4))
