"""Tests for the Archivist supervised-NN baseline."""

import numpy as np
import pytest

from repro.baselines.archivist import ArchivistPolicy
from repro.hss.request import OpType, Request
from repro.traces.workloads import make_trace


def write(page, ts=0.0, size=1):
    return Request(ts, OpType.WRITE, page, size)


class TestArchivist:
    def test_cold_start_places_slow(self, hm_system):
        p = ArchivistPolicy(epoch_requests=1000)
        p.attach(hm_system)
        assert p.place(write(1)) == 1

    def test_trains_after_first_epoch(self, hm_system):
        p = ArchivistPolicy(epoch_requests=50, seed=0)
        p.attach(hm_system)
        for i in range(60):
            p.place(write(i % 20, ts=float(i)))
        assert p._trained

    def test_decision_frozen_within_epoch(self, hm_system):
        """§8.6: Archivist classifies once per epoch per page."""
        p = ArchivistPolicy(epoch_requests=500, seed=0)
        p.attach(hm_system)
        # Train one epoch.
        for i in range(500):
            p.place(write(i % 30, ts=float(i)))
        first = p.place(write(7, ts=600.0))
        # Heavily touch the page: decision must not change this epoch.
        for i in range(50):
            hm_system.tracker.record(7)
        again = p.place(write(7, ts=601.0))
        assert first == again

    def test_decisions_refresh_at_epoch_boundary(self, hm_system):
        p = ArchivistPolicy(epoch_requests=20, seed=0)
        p.attach(hm_system)
        for i in range(25):
            p.place(write(i % 5, ts=float(i)))
        assert len(p._epoch_decision) <= 5

    def test_learns_hot_cold_distinction(self, hm_system):
        """After training on a skewed epoch, hot pages lean fast."""
        p = ArchivistPolicy(epoch_requests=400, train_epochs=80, seed=1)
        p.attach(hm_system)
        # Epoch: pages 0-3 hammered, pages 10-59 touched once.
        t = 0.0
        for i in range(350):
            p.place(write(i % 4, ts=t))
            hm_system.tracker.record(i % 4)
            t += 1
        for i in range(50):
            p.place(write(10 + i, ts=t))
            t += 1
        # Next epoch: hot page classified fast more often than cold.
        hot = p.place(write(0, ts=t + 1))
        cold = p.place(write(40, ts=t + 2))
        assert hot == 0 or cold == 1  # at least one side correct

    def test_train_matrix_equals_per_request_features(self, hm_system):
        """The matrix each ``_train`` fits is the features of every
        page's latest touch, as if built at that request."""
        p = ArchivistPolicy(epoch_requests=100, train_epochs=1, seed=0)
        p.attach(hm_system)
        tracker = hm_system.tracker
        fitted = []
        forward = p.network.forward

        def spy(x, train=False):
            if train:
                fitted.append(x.copy())
            return forward(x, train=train)

        p.network.forward = spy
        expected, latest = [], {}
        for i, r in enumerate(make_trace("usr_0", n_requests=600, seed=0)):
            interval = tracker.access_interval(r.page)
            latest[r.page] = np.array([
                np.log2(tracker.access_count(r.page) + 1.0) / 16.0,
                np.log2((1e6 if interval is None else interval) + 1.0) / 20.0,
                np.log2(r.size + 1.0) / 8.0,
                float(r.is_write),
            ])
            p.place(r)
            if (i + 1) % 100 == 0:
                expected.append(np.stack(list(latest.values())))
                latest = {}
            for page in r.pages:
                tracker.record(page)
        assert len(fitted) == len(expected) == 6
        for got, want in zip(fitted, expected):
            assert got.tobytes() == want.tobytes()

    def test_reset(self, hm_system):
        p = ArchivistPolicy(epoch_requests=10, seed=0)
        p.attach(hm_system)
        for i in range(15):
            p.place(write(i, ts=float(i)))
        p.reset()
        assert not p._trained
        assert p._seen == 0

    def test_runs_on_real_trace(self, hm_system):
        p = ArchivistPolicy(epoch_requests=100, seed=2)
        p.attach(hm_system)
        for r in make_trace("usr_0", n_requests=400, seed=0):
            assert p.place(r) in (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArchivistPolicy(epoch_requests=0)
        with pytest.raises(ValueError):
            ArchivistPolicy(hot_label_fraction=0.0)
        with pytest.raises(ValueError):
            ArchivistPolicy(train_epochs=0)
