"""Unit tests for the durable campaign store's building blocks.

Fingerprinting (content addressing), lossless result serialisation and
atomic blob storage — the end-to-end resume/equivalence contract lives
in ``test_resume.py``.
"""

import errno
import json
import math
import os
import re

import pytest

from repro.sim.campaign import SeededResult
from repro.store import (
    CampaignStore,
    MISS,
    Unfingerprintable,
    Unstorable,
    atomic_write_text,
    canonicalize,
    decode_result,
    encode_result,
    fingerprint_cell,
    resolve_store,
)

#: The only file a store writes: ``cells/<fp[:2]>/<fp>.json``.
BLOB = re.compile(r"cells/([0-9a-f]{2})/\1[0-9a-f]{62}\.json")


def stray_files(root):
    """Every file under a store root that is not a cell blob."""
    return [
        path.relative_to(root).as_posix()
        for path in root.rglob("*")
        if path.is_file()
        and not BLOB.fullmatch(path.relative_to(root).as_posix())
    ]


def cell_fn_a(x, y):  # module-level: addressable by qualified name
    return x + y


def cell_fn_b(x, y):
    return x - y


class TestFingerprint:
    def test_deterministic(self):
        fp1 = fingerprint_cell(cell_fn_a, {"x": 1, "y": 2.5})
        fp2 = fingerprint_cell(cell_fn_a, {"y": 2.5, "x": 1})
        assert fp1 == fp2
        assert len(fp1) == 64  # sha256 hex

    def test_sensitive_to_fn_and_kwargs(self):
        base = fingerprint_cell(cell_fn_a, {"x": 1, "y": 2})
        assert fingerprint_cell(cell_fn_b, {"x": 1, "y": 2}) != base
        assert fingerprint_cell(cell_fn_a, {"x": 1, "y": 3}) != base

    def test_int_float_bool_distinct(self):
        assert canonicalize(1) != canonicalize(1.0)
        assert canonicalize(1) != canonicalize(True)
        assert canonicalize(0) != canonicalize(False)

    def test_nested_containers(self):
        value = {"seeds": (0, 1, 2), "cfg": {"b": 2, "a": 1}}
        same = {"cfg": {"a": 1, "b": 2}, "seeds": [0, 1, 2]}
        assert canonicalize(value) == canonicalize(same)

    def test_no_tag_forgery_collisions(self):
        """Plain values must never forge a type tag: a kwarg that
        happens to look like a canonical form cannot collide with the
        value that form encodes (a collision would serve one cell's
        stored result for another)."""
        collision_attempts = [
            (0.1, ("f", repr(0.1))),
            (7, ("i", 7)),
            ("x", ("s", "x")),
            ("x", ["s", "x"]),
            ({}, ("d",)),
            ({"a": 1}, ["d", ['["s", "a"]', ["i", 1]]]),
            ([], ("l",)),
            ("1", 1),
            ("True", True),
        ]
        for real, forged in collision_attempts:
            assert canonicalize(real) != canonicalize(forged), (real, forged)

    def test_closure_unfingerprintable(self):
        def local_fn():
            pass

        with pytest.raises(Unfingerprintable):
            fingerprint_cell(local_fn, {})
        with pytest.raises(Unfingerprintable):
            fingerprint_cell(cell_fn_a, {"x": object(), "y": 1})

    def test_msrc_workload_tracks_file_content(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("128000000,host,0,Read,0,4096,0\n")
        fp1 = fingerprint_cell(cell_fn_a, {"x": f"msrc:{trace}", "y": 1})
        # Rewriting the capture must invalidate the cell.
        trace.write_text(
            "128000000,host,0,Read,0,4096,0\n"
            "128010000,host,0,Write,4096,4096,0\n"
        )
        fp2 = fingerprint_cell(cell_fn_a, {"x": f"msrc:{trace}", "y": 1})
        assert fp1 != fp2

    def test_schema_version_invalidates(self, monkeypatch):
        import repro.store.fingerprint as fpmod

        before = fingerprint_cell(cell_fn_a, {"x": 1, "y": 2})
        monkeypatch.setattr(fpmod, "SCHEMA_VERSION", 9999)
        assert fingerprint_cell(cell_fn_a, {"x": 1, "y": 2}) != before

    def test_engine_version_invalidates(self, monkeypatch):
        import repro.store.fingerprint as fpmod

        before = fingerprint_cell(cell_fn_a, {"x": 1, "y": 2})
        monkeypatch.setattr(fpmod, "ENGINE_VERSION", "0.0.0-test")
        assert fingerprint_cell(cell_fn_a, {"x": 1, "y": 2}) != before


class TestSerialize:
    def roundtrip(self, value):
        encoded = json.loads(json.dumps(encode_result(value)))
        return decode_result(encoded)

    def test_scalars(self):
        for value in (None, True, False, 0, 17, -3, "x", 2.5, -0.0):
            out = self.roundtrip(value)
            assert out == value and type(out) is type(value)

    def test_float_exactness(self):
        values = [0.1 + 0.2, 1e-300, 1.7976931348623157e308, math.pi]
        out = self.roundtrip(values)
        assert all(a == b for a, b in zip(out, values))

    def test_inf_and_nan(self):
        out = self.roundtrip([float("inf"), float("-inf")])
        assert out == [float("inf"), float("-inf")]
        assert math.isnan(self.roundtrip(float("nan")))

    def test_containers_keep_types_and_order(self):
        value = {"b": [1, 2], "a": (3, 4), "n": {"x": 1.5}}
        out = self.roundtrip(value)
        assert out == value
        assert list(out) == ["b", "a", "n"]  # insertion order preserved
        assert isinstance(out["a"], tuple)
        assert isinstance(out["b"], list)

    def test_non_string_keys(self):
        value = {0.1: "a", 50: "b", ("rsrch_0", "fs"): "c"}
        out = self.roundtrip(value)
        assert out == value
        assert list(out) == [0.1, 50, ("rsrch_0", "fs")]

    def test_marker_collision_safe(self):
        value = {"__kind__": "tuple", "items": [1]}
        out = self.roundtrip(value)
        assert out == value and isinstance(out, dict)

    def test_seeded_result_roundtrip(self):
        band = SeededResult.from_values([1.0, 1.5, 2.0], seeds=[0, 1, 2])
        out = self.roundtrip({"Sibyl": {"latency": band}})
        restored = out["Sibyl"]["latency"]
        assert isinstance(restored, SeededResult)
        assert restored == band  # frozen dataclass: exact field equality

    def test_unstorable_rejected(self):
        with pytest.raises(Unstorable):
            encode_result(object())
        with pytest.raises(Unstorable):
            encode_result({"x": {1, 2}})


class TestCampaignStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = CampaignStore(tmp_path / "s")
        fp = fingerprint_cell(cell_fn_a, {"x": 1, "y": 2})
        assert store.get(fp) is MISS
        assert store.put(fp, {"latency": 1.25}, fn=cell_fn_a, key="k")
        assert store.get(fp) == {"latency": 1.25}
        assert store.hits == 1 and store.misses == 1 and store.puts == 1
        assert len(store) == 1

    def test_atomicity_no_partial_files(self, tmp_path):
        """A put leaves one blob and nothing else: no temp file, and no
        file beside the blobs."""
        store = CampaignStore(tmp_path / "s")
        fp = fingerprint_cell(cell_fn_a, {"x": 1, "y": 2})
        store.put(fp, [1.0, 2.0])
        assert stray_files(tmp_path / "s") == []
        assert len(store) == 1

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """A full disk degrades the cache: the put reports failure, the
        cell stays a miss, and the partial temp file is removed."""

        def full_disk(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        store = CampaignStore(tmp_path / "s")
        fp = fingerprint_cell(cell_fn_a, {"x": 1, "y": 2})
        monkeypatch.setattr(os, "fsync", full_disk)
        assert store.put(fp, [1.0, 2.0], key="k") is False
        assert store.get(fp) is MISS
        assert store.puts == 0
        assert list((tmp_path / "s").rglob("*.tmp.*")) == []

    def test_atomic_write_replaces(self, tmp_path):
        target = tmp_path / "f.json"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"

    def test_unstorable_put_skips_without_raising(self, tmp_path, caplog):
        store = CampaignStore(tmp_path / "s")
        with caplog.at_level("WARNING", logger="repro.store"):
            assert not store.put("ab" * 32, {"bad": object()}, key="k")
        assert "not caching" in caplog.text
        assert store.get("ab" * 32) is MISS

    def test_resolve_store(self, tmp_path):
        assert resolve_store(None) is None
        store = resolve_store(tmp_path / "s")
        assert isinstance(store, CampaignStore)
        assert resolve_store(store) is store

    def test_store_from_env(self, tmp_path, monkeypatch):
        from repro.store import store_from_env

        monkeypatch.delenv("SIBYL_STORE", raising=False)
        assert store_from_env() is None
        monkeypatch.setenv("SIBYL_STORE", str(tmp_path / "env-store"))
        store = store_from_env()
        assert isinstance(store, CampaignStore)
        assert store.root == tmp_path / "env-store"
