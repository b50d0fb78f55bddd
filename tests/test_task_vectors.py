from __future__ import annotations

import numpy as np
import pytest

from duet.checkpoint import fingerprint_map, serialize_checkpoint
from duet.errors import BaseMismatchError, CheckpointFormatError, KeyMismatchError, ShapeError
from duet.merge import duet_merge
from duet.task_vectors import (
    TaskVector,
    compute_task_vector,
    load_task_vector,
    save_task_vector,
    zero_task_vector,
)
from tests.conftest import make_map


def ulps_apart(a: np.ndarray, b: np.ndarray, *refs: np.ndarray) -> np.ndarray:
    """ULP distance measured at the largest participating magnitude: rounding
    error comes from casting sums whose operands may dwarf the result."""
    magnitude = np.maximum(np.abs(a), np.abs(b))
    for ref in refs:
        magnitude = np.maximum(magnitude, np.abs(ref))
    spacing = np.spacing(magnitude.astype(a.dtype))
    return np.abs(a.astype(np.float64) - b.astype(np.float64)) / spacing


class TestComputeTaskVector:
    def test_no_drift_gives_exact_zero(self, rng):
        base = make_map(rng, 3, dtype=np.float32)
        vector = compute_task_vector(dict(base), base, "fp", "t")
        assert all(np.all(delta == 0.0) for delta in vector.deltas.values())

    def test_hand_arithmetic(self):
        base = {"w": np.float64([1.0, 1.0])}
        fine = {"w": np.float64([3.0, 0.0])}
        vector = compute_task_vector(fine, base, "fp", "t")
        assert vector.deltas["w"].tolist() == [2.0, -1.0]

    def test_matches_elementwise_subtraction_oracle(self, rng):
        base = make_map(rng, 10, dtype=np.float32)
        fine = {name: rng.normal(size=arr.shape).astype(np.float32) for name, arr in base.items()}
        vector = compute_task_vector(fine, base, "fp", "t")
        for name in base:
            expected = [
                np.float32(float(f) - float(b))
                for f, b in zip(fine[name].tolist(), base[name].tolist())
            ]
            assert vector.deltas[name].tolist() == [float(v) for v in expected]

    def test_key_mismatch_lists_symmetric_difference(self, rng):
        base = {"a": np.zeros(2), "b": np.zeros(2)}
        fine = {"a": np.zeros(2), "c": np.zeros(2)}
        with pytest.raises(KeyMismatchError, match=r"\['c'\].*\['b'\]"):
            compute_task_vector(fine, base, "fp", "t")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            compute_task_vector({"w": np.zeros(3)}, {"w": np.zeros(2)}, "fp", "t")

    def test_mixed_dtype_rejected(self):
        with pytest.raises(ShapeError):
            compute_task_vector(
                {"w": np.zeros(2, dtype=np.float32)}, {"w": np.zeros(2)}, "fp", "t"
            )

    def test_deltas_stored_in_base_dtype(self, rng):
        base = make_map(rng, 2, dtype=np.float32)
        fine = {name: arr + np.float32(0.5) for name, arr in base.items()}
        vector = compute_task_vector(fine, base, "fp", "t")
        assert all(delta.dtype == np.float32 for delta in vector.deltas.values())


class TestApplyTaskVector:
    """A task vector merged with itself has alpha + beta = 1 on every layer,
    so :func:`duet_merge` applies it: ``base + v`` rounded once."""

    @staticmethod
    def apply(base: dict, fingerprint: str, vector: TaskVector) -> dict:
        merged, report = duet_merge(base, fingerprint, vector, vector)
        assert all(record.alpha + record.beta == 1.0 for record in report.layers)
        return merged

    def test_zero_scale_returns_base_bits(self, rng):
        base = make_map(rng, 3, dtype=np.float32)
        out = self.apply(base, "fp", zero_task_vector(base, "fp"))
        for name in base:
            assert out[name].tobytes() == base[name].tobytes()

    def test_roundtrip_within_one_ulp(self, rng):
        base = make_map(rng, 4, dtype=np.float32)
        fine = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}
        vector = compute_task_vector(fine, base, "fp")
        rebuilt = self.apply(base, "fp", vector)
        for name in base:
            direct = base[name].astype(np.float64) + vector.deltas[name].astype(np.float64)
            assert rebuilt[name].tobytes() == direct.astype(np.float32).tobytes()
            assert np.all(ulps_apart(rebuilt[name], fine[name], base[name]) <= 1.0)

    def test_fingerprint_mismatch_rejected(self, rng):
        base = make_map(rng, 2)
        vector = compute_task_vector(dict(base), base, "other-base")
        with pytest.raises(BaseMismatchError):
            self.apply(base, "this-base", vector)

    def test_compute_of_apply_recovers_vector(self, rng):
        base = make_map(rng, 3, dtype=np.float32)
        fine = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}
        vector = compute_task_vector(fine, base, "fp")
        recovered = compute_task_vector(self.apply(base, "fp", vector), base, "fp")
        for name in base:
            assert np.all(ulps_apart(recovered.deltas[name], vector.deltas[name], base[name]) <= 1.0)


class TestZeroVector:
    def test_all_zero(self, rng):
        base = make_map(rng, 3, dtype=np.float32)
        vector = zero_task_vector(base, "fp", "origin")
        assert all(np.all(delta == 0.0) for delta in vector.deltas.values())
        assert all(delta.dtype == np.float32 for delta in vector.deltas.values())
        assert vector.label == "origin"


class TestBundleIO:
    def test_save_load_roundtrip(self, tmp_path, rng):
        base = make_map(rng, 3, dtype=np.float32)
        fine = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}
        vector = compute_task_vector(fine, base, fingerprint_map(base), "phase1")
        save_task_vector(vector, tmp_path / "tv")
        loaded = load_task_vector(tmp_path / "tv")
        assert loaded.label == "phase1"
        assert loaded.base_fingerprint == vector.base_fingerprint
        assert serialize_checkpoint(loaded.deltas) == serialize_checkpoint(vector.deltas)

    def test_missing_bundle_parts(self, tmp_path):
        (tmp_path / "tv").mkdir()
        with pytest.raises(CheckpointFormatError, match="bundle"):
            load_task_vector(tmp_path / "tv")

    def test_malformed_sidecar(self, tmp_path, rng):
        base = make_map(rng, 1)
        vector = compute_task_vector(dict(base), base, "fp")
        save_task_vector(vector, tmp_path / "tv")
        (tmp_path / "tv" / "meta.json").write_text("{}")
        with pytest.raises(CheckpointFormatError, match="sidecar"):
            load_task_vector(tmp_path / "tv")
