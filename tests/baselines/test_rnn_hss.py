"""Tests for the RNN-HSS baseline."""

import pytest

from repro.baselines.rnn_hss import RNNHSSPolicy
from repro.hss.request import OpType, Request
from repro.traces.workloads import make_trace


def write(page, ts=0.0):
    return Request(ts, OpType.WRITE, page, 1)


class TestRNNHSS:
    def test_untrained_places_slow(self, hm_system):
        p = RNNHSSPolicy(epoch_requests=1000)
        p.attach(hm_system)
        assert p.place(write(1)) == 1

    def test_trains_at_epoch_boundary(self, hm_system):
        p = RNNHSSPolicy(epoch_requests=50, seed=0)
        p.attach(hm_system)
        for i in range(55):
            p.place(write(i % 20, ts=float(i)))
        assert p._trained

    def test_history_tracked_per_page(self, hm_system):
        p = RNNHSSPolicy(epoch_requests=100, history_windows=4)
        p.attach(hm_system)
        p.place(write(5))
        p.place(write(5, ts=1.0))
        assert p._history[5][-1][0] == 2.0

    def test_write_feature_recorded(self, hm_system):
        p = RNNHSSPolicy(epoch_requests=100)
        p.attach(hm_system)
        p.place(write(5))
        p.place(Request(1.0, OpType.READ, 5, 1))
        hist = p._history[5][-1]
        assert hist[0] == 2.0 and hist[1] == 1.0

    def test_hot_pages_eventually_classified_fast(self, hm_system):
        p = RNNHSSPolicy(epoch_requests=60, seed=3, hot_label_fraction=0.2)
        p.attach(hm_system)
        t = 0.0
        for epoch in range(6):
            for i in range(60):
                # Page 1 hammered; pages 10.. touched once each.
                page = 1 if i % 2 == 0 else 10 + (epoch * 30 + i) % 200
                p.place(write(page, ts=t))
                t += 1.0
        assert p.place(write(1, ts=t)) == hm_system.fastest

    def test_lazy_verdicts_equal_eager_classification(self, hm_system):
        """At every refresh, each snapshot page's verdict is what
        classifying all of them right there would have said."""
        p = RNNHSSPolicy(epoch_requests=200, seed=1)
        p.attach(hm_system)
        refresh = p._refresh
        checked = []

        def checking_refresh():
            refresh()
            if p._sequences is None:
                return
            eager = {
                page: p.rnn.predict(p._sequences[row]) == 1
                for page, row in p._row.items()
            }
            assert {page: p._is_hot(page) for page in eager} == eager
            checked.append(sum(eager.values()))

        p._refresh = checking_refresh
        for r in make_trace("mds_0", n_requests=2000, seed=0):
            p.place(r)
        assert len(checked) == 10 and any(checked)

    def test_a_verdict_is_shared_by_equal_rows(self, hm_system):
        p = RNNHSSPolicy(epoch_requests=60, seed=0)
        p.attach(hm_system)
        calls = []
        predict = p.rnn.predict
        p.rnn.predict = lambda seq: calls.append(1) or predict(seq)
        for i in range(60):
            p.place(write(i % 20, ts=float(i)))
        for page in range(20):
            p.place(write(page, ts=100.0 + page))
        rows = {p._sequences[p._row[page]].tobytes() for page in range(20)}
        assert len(calls) == len(rows) == len(p._verdicts) < 20

    def test_runs_on_real_trace(self, hm_system):
        p = RNNHSSPolicy(epoch_requests=100, seed=1)
        p.attach(hm_system)
        for r in make_trace("mds_0", n_requests=400, seed=0):
            assert p.place(r) in (0, 1)

    def test_reset(self, hm_system):
        p = RNNHSSPolicy(epoch_requests=10, seed=0)
        p.attach(hm_system)
        for i in range(12):
            p.place(write(i % 4, ts=float(i)))
        p.reset()
        assert not p._trained
        assert p._history == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            RNNHSSPolicy(epoch_requests=0)
        with pytest.raises(ValueError):
            RNNHSSPolicy(history_windows=1)
        with pytest.raises(ValueError):
            RNNHSSPolicy(hot_label_fraction=1.0)
