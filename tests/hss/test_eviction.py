"""Tests for victim-selection strategies."""

import pytest

from repro.hss.eviction import BeladyVictimSelector, LRUVictimSelector
from repro.hss.mapping import PageTable


@pytest.fixture
def table():
    t = PageTable(2)
    for p in (1, 2, 3, 4):
        t.place(p, 0)
    return t


class TestLRU:
    def test_selects_oldest(self, table):
        sel = LRUVictimSelector()
        assert sel.select(table, 0, 2) == [1, 2]

    def test_respects_touch(self, table):
        table.touch(1)
        assert LRUVictimSelector().select(table, 0, 1) == [2]

    def test_more_than_resident(self, table):
        assert len(LRUVictimSelector().select(table, 0, 100)) == 4

    def test_empty_device(self, table):
        assert LRUVictimSelector().select(table, 1, 3) == []


class TestBelady:
    def test_selects_farthest_future_use(self, table):
        future = {1: [5], 2: [100], 3: [10], 4: [7]}
        sel = BeladyVictimSelector(future)
        sel.now = 0
        assert sel.select(table, 0, 1) == [2]

    def test_never_used_again_evicted_first(self, table):
        future = {1: [5], 2: [6], 3: [], 4: [7]}
        sel = BeladyVictimSelector(future)
        assert sel.select(table, 0, 1) == [3]

    def test_past_uses_skipped(self, table):
        future = {1: [1, 50], 2: [2, 10], 3: [3, 20], 4: [4, 30]}
        sel = BeladyVictimSelector(future)
        sel.now = 5  # first uses are all in the past
        assert sel.select(table, 0, 1) == [1]

    def test_next_use_of_unknown_page_is_infinite(self):
        sel = BeladyVictimSelector({})
        assert sel.next_use(42) == float("inf")

    def test_cursor_monotone(self):
        sel = BeladyVictimSelector({7: [1, 5, 9]})
        sel.now = 2
        assert sel.next_use(7) == 5
        sel.now = 6
        assert sel.next_use(7) == 9

