from __future__ import annotations

import tracemalloc
from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from duet.checkpoint import CheckpointReader, fingerprint_map, serialize_checkpoint, write_checkpoint
from duet.errors import (
    BaseMismatchError,
    CheckpointFormatError,
    DTypeError,
    KeyMismatchError,
    ShapeError,
)
from duet.merge import duet_merge
from duet.task_vectors import (
    TaskVector,
    _subtract,
    compute_task_vector,
    open_task_vector,
    save_task_vector,
    zero_task_vector,
)
from duet.tensors import combine
from tests.conftest import make_map
from tests.test_tensors import spread_values


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
        vector = compute_task_vector({"w": np.zeros(3)}, {"w": np.zeros(2)}, "fp", "t")
        with pytest.raises(ShapeError):
            vector.deltas["w"]

    def test_mixed_dtype_rejected(self):
        vector = compute_task_vector(
            {"w": np.zeros(2, dtype=np.float32)}, {"w": np.zeros(2)}, "fp", "t"
        )
        with pytest.raises(DTypeError, match="dtype mismatch"):
            vector.deltas["w"]

    def test_each_delta_is_made_on_lookup(self, rng):
        base = {f"w{i}": np.ones(100_000, np.float32) for i in range(8)}
        fine = {name: arr + np.float32(0.5) for name, arr in base.items()}
        tracemalloc.start()
        try:
            vector = compute_task_vector(fine, base, "fp")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < base["w0"].nbytes // 4  # not one layer, let alone the map
        delta = vector.deltas["w3"]
        assert delta.dtype == np.float32 and (delta == 0.5).all() and not delta.flags.writeable
        assert list(vector.deltas) == list(base) and len(vector.deltas) == 8

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


def special_values(dtype) -> np.ndarray:
    """Signed zeros, subnormals, the smallest normals, values an ulp apart
    (differences that cancel) and values whose differences overflow."""
    info = np.finfo(dtype)
    sub = info.smallest_subnormal
    values = [0.0, sub, 3 * sub, info.tiny - sub, info.tiny, info.tiny * (1 + info.eps),
              1.0, 1.0 + info.eps, 1.0 - info.epsneg, 1.5, 1e-3, info.max / 2, info.max]
    return np.array(values + [-v for v in values], dtype)


def finite_arrays(width: int, length: int):
    """Arrays of ``length`` finite floats of ``width`` bits."""
    elements = st.floats(allow_nan=False, allow_infinity=False, width=width)
    return arrays(np.dtype(f"f{width // 8}"), length, elements=elements)


def combine_difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The subtraction through ``combine``: in float64, rounded once to the dtype."""
    return combine(((1.0, x), (-1.0, y)), y.dtype)


def assert_same_difference(x: np.ndarray, y: np.ndarray):
    got, expected = _subtract("w", x, y), combine_difference(x, y)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert not got.flags.writeable
    assert got.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestSubtract:
    """``_subtract`` takes the difference in the pair's own dtype: the bits of
    the float64 combine it replaces."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, ">f4", ">f8"])
    def test_every_pair_of_special_values(self, dtype):
        values = special_values(dtype)
        x, y = (np.ascontiguousarray(grid) for grid in np.meshgrid(values, values))
        assert_same_difference(x, y)
        assert_same_difference(x.T, y.T)  # column-major
        difference = _subtract("w", x, y)
        assert np.isinf(difference).any() and (difference == 0).any()
        assert (np.signbit(difference) & (difference == 0)).any()  # -0 - +0 is -0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_lengths(self, dtype):
        # Past one block, combine streams its blocks; the bits stay those of
        # the difference.
        length = 2 * 32768 + 3
        rng = np.random.default_rng(length)
        values = special_values(dtype)
        x, y = (
            np.where(rng.random(length) < 0.5, rng.choice(values, length),
                     spread_values(rng, length, dtype))
            for _ in "xy"
        )
        assert_same_difference(x, y)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_dimensional_pair(self, dtype):
        x, y = np.array(0.75, dtype), np.array(-0.5, dtype)
        assert_same_difference(x, y)
        assert float(_subtract("w", x, y)) == 1.25

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.sampled_from([32, 64]), st.integers(1, 16)).flatmap(
        lambda width_length: st.tuples(*[finite_arrays(*width_length)] * 2)
    ))
    def test_any_finite_pair(self, pair):
        assert_same_difference(*pair)


class TestZeroVector:
    def test_all_zero(self, rng):
        base = make_map(rng, 3, dtype=np.float32)
        vector = zero_task_vector(base, "fp", "origin")
        assert all(np.all(delta == 0.0) for delta in vector.deltas.values())
        assert all(delta.dtype == np.float32 for delta in vector.deltas.values())
        assert vector.label == "origin"

    def test_each_zero_layer_is_made_on_lookup(self):
        base = {f"w{i}": np.ones(100_000, np.float32) for i in range(8)}
        tracemalloc.start()
        try:
            vector = zero_task_vector(base, "fp")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < base["w0"].nbytes // 4  # not one layer, let alone the map
        zero = vector.deltas["w3"]
        assert zero.dtype == np.float32 and zero.shape == (100_000,) and not zero.any()
        assert not zero.flags.writeable
        assert list(vector.deltas) == list(base) and len(vector.deltas) == 8


class TestBundleIO:
    def test_save_load_roundtrip(self, tmp_path, rng):
        base = make_map(rng, 3, dtype=np.float32)
        fine = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}
        vector = compute_task_vector(fine, base, fingerprint_map(base), "phase1")
        save_task_vector(vector, tmp_path / "tv")
        with ExitStack() as stack:
            loaded = open_task_vector(tmp_path / "tv", stack)
            assert loaded.label == "phase1"
            assert loaded.base_fingerprint == vector.base_fingerprint
            assert serialize_checkpoint(dict(loaded.deltas)) == serialize_checkpoint(
                dict(vector.deltas)
            )

    def test_an_opened_bundle_reads_each_delta_on_lookup(self, tmp_path, rng):
        base = make_map(rng, 3, dtype=np.float32)
        fine = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}
        vector = compute_task_vector(fine, base, "fp", "t")
        save_task_vector(vector, tmp_path / "tv")
        with ExitStack() as stack:
            opened = open_task_vector(tmp_path / "tv", stack)
            assert isinstance(opened.deltas, CheckpointReader)
            assert (opened.base_fingerprint, opened.label) == ("fp", "t")
            assert all(opened.deltas[n].tobytes() == vector.deltas[n].tobytes() for n in base)
        with pytest.raises(ValueError, match="closed file"):  # the stack closed it
            opened.deltas.fingerprint()

    def test_a_vector_over_readers_saves_the_bundle_of_one_over_maps(self, tmp_path, rng):
        base = make_map(rng, 4, dtype=np.float32)
        fine = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}
        write_checkpoint(base, tmp_path / "base.st")
        write_checkpoint(fine, tmp_path / "fine.st")
        save_task_vector(compute_task_vector(fine, base, "fp", "t"), tmp_path / "maps")
        with CheckpointReader(tmp_path / "base.st") as b, CheckpointReader(tmp_path / "fine.st") as f:
            save_task_vector(compute_task_vector(f, b, "fp", "t"), tmp_path / "readers")
        for part in ("deltas.safetensors", "meta.json"):
            assert (tmp_path / "readers" / part).read_bytes() == (tmp_path / "maps" / part).read_bytes()

    def test_missing_bundle_parts(self, tmp_path):
        (tmp_path / "tv").mkdir()
        with ExitStack() as stack, pytest.raises(CheckpointFormatError, match="bundle"):
            open_task_vector(tmp_path / "tv", stack)

    def test_malformed_sidecar(self, tmp_path, rng):
        base = make_map(rng, 1)
        vector = compute_task_vector(dict(base), base, "fp")
        save_task_vector(vector, tmp_path / "tv")
        (tmp_path / "tv" / "meta.json").write_text("{}")
        with ExitStack() as stack, pytest.raises(CheckpointFormatError, match="sidecar"):
            open_task_vector(tmp_path / "tv", stack)
