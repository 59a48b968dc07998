"""Unit tests for observation sinks (repro.obs.sink)."""

from repro.obs.sink import (
    ENGINE_COUNTERS,
    ENGINE_MAXIMA,
    DictSink,
    ObservationSink,
)


class TestDictSink:
    def test_counts_create_and_accumulate(self):
        stats = {}
        sink = DictSink(stats)
        sink.count("ticks")
        sink.count("ticks", 4)
        assert stats == {"ticks": 5}

    def test_record_max_keeps_high_water_mark(self):
        stats = {}
        sink = DictSink(stats)
        sink.record_max("max_fused_rows", 3)
        sink.record_max("max_fused_rows", 2)
        assert stats == {"max_fused_rows": 3}


class TestProtocol:
    def test_base_class_is_usable_noop(self):
        sink = ObservationSink()
        sink.count("anything", 3)
        sink.record_max("anything", 1)

    def test_canonical_names_cover_both_kinds(self):
        assert "ticks" in ENGINE_COUNTERS
        assert "kernel_barriers" in ENGINE_COUNTERS
        assert ENGINE_MAXIMA == ("max_fused_rows",)
