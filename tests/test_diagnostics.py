from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from duet.diagnostics import layer_sign_conflicts, merge_distance, sign_conflicts
from duet.errors import KeyMismatchError, ShapeError
from duet.task_vectors import TaskVector


# Layer shapes around the kernels' 32 Ki-element block, with small layers between.
DISTANCE_SHAPES = ((40_000,), (7,), (3, 5), (70_001,), (32_769,), (2, 2, 2))


def distance_maps(rng: np.random.Generator, dtypes) -> list[dict]:
    """Merged, old and current maps; ``dtypes(i, j)`` is map ``i``'s dtype at
    layer ``j``.  The merged map sits between the others, so no cosine is
    near 0 and a relative tolerance is meaningful."""
    old = [rng.normal(size=shape) for shape in DISTANCE_SHAPES]
    curr = [rng.normal(size=shape) for shape in DISTANCE_SHAPES]
    merged = [0.6 * o + 0.4 * c + 0.01 * rng.normal(size=o.shape) for o, c in zip(old, curr)]
    return [
        {f"layer{j}": layer.astype(dtypes(i, j)) for j, layer in enumerate(layers)}
        for i, layers in enumerate((merged, old, curr))
    ]


def exact_distance_oracle(merged: dict, old: dict, curr: dict) -> dict:
    """The four floats from exactly rounded sums (``math.fsum``) of float64
    elementwise terms over the sorted-name concatenation of the layers."""

    def flat(tensor_map: dict) -> np.ndarray:
        return np.concatenate([tensor_map[k].astype(np.float64).ravel() for k in sorted(tensor_map)])

    m, o, c = flat(merged), flat(old), flat(curr)
    dot = lambda x, y: math.fsum((x * y).tolist())
    cos = lambda x, y: dot(x, y) / (math.sqrt(dot(x, x)) * math.sqrt(dot(y, y)) + 1e-12)
    return {
        "l2_to_old": math.sqrt(dot(m - o, m - o)),
        "l2_to_curr": math.sqrt(dot(m - c, m - c)),
        "cos_to_old": cos(m, o),
        "cos_to_curr": cos(m, c),
    }


def tv(deltas: dict) -> TaskVector:
    return TaskVector(
        deltas={k: np.asarray(v, dtype=np.float64) for k, v in deltas.items()},
        base_fingerprint="fp",
    )


class TestSignConflicts:
    def test_hand_count(self):
        report = sign_conflicts(tv({"w": [1, -1, 0, 2]}), tv({"w": [-1, -2, 5, 3]}))
        entry = report.per_tensor["w"]
        assert entry.conflicts == 1
        assert entry.comparable == 3
        assert entry.fraction == pytest.approx(1 / 3)

    def test_identical_vectors_have_no_conflicts(self, rng):
        deltas = {"a": rng.normal(size=10), "b": rng.normal(size=5)}
        report = sign_conflicts(tv(deltas), tv({k: v.copy() for k, v in deltas.items()}))
        assert report.total_conflicts == 0
        assert report.total_comparable == 15

    def test_negated_vector_conflicts_everywhere(self, rng):
        deltas = {"a": rng.normal(size=12) + 0.1}
        report = sign_conflicts(tv(deltas), tv({"a": -deltas["a"]}))
        assert report.total_fraction == 1.0

    def test_symmetric_under_swap(self, rng):
        a = tv({"x": rng.normal(size=30)})
        b = tv({"x": rng.normal(size=30)})
        fwd = sign_conflicts(a, b)
        rev = sign_conflicts(b, a)
        assert fwd.to_dict() == rev.to_dict()

    def test_zeros_are_not_comparable(self):
        report = sign_conflicts(tv({"w": [0.0, 0.0]}), tv({"w": [1.0, -1.0]}))
        assert report.total_comparable == 0
        assert report.total_fraction == 0.0

    def test_accepts_raw_maps(self):
        report = sign_conflicts({"w": np.float64([1.0])}, {"w": np.float64([-1.0])})
        assert report.total_conflicts == 1

    def test_key_mismatch(self):
        with pytest.raises(KeyMismatchError):
            sign_conflicts(tv({"w": [1.0]}), tv({"v": [1.0]}))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sign_conflicts(tv({"w": [1.0]}), tv({"w": [1.0, 2.0]}))

    def test_layer_pair_of_another_shape_is_refused_not_broadcast(self):
        # (3, 1) against (1, 3) would broadcast to nine pairs.
        with pytest.raises(ShapeError, match=r"shape mismatch between left \(3, 1\) and right"):
            layer_sign_conflicts(np.ones((3, 1)), -np.ones((1, 3)))
        with pytest.raises(ShapeError):  # same size, other shape
            layer_sign_conflicts(np.ones((2, 3)), -np.ones((3, 2)))

    def test_layer_pair_may_mix_dtypes(self):
        counts = layer_sign_conflicts(np.float32([1, -2, 0]), np.float64([-1, -3, 4]))
        assert (counts.conflicts, counts.comparable) == (1, 2)


class TestMergeDistance:
    def test_merged_equals_old(self, rng):
        old = {"a": rng.normal(size=6), "b": rng.normal(size=(2, 2))}
        curr = {k: rng.normal(size=v.shape) for k, v in old.items()}
        report = merge_distance({k: v.copy() for k, v in old.items()}, old, curr)
        assert report.l2_to_old == 0.0
        assert abs(report.cos_to_old - 1.0) <= 1e-9

    def test_midpoint_is_equidistant(self, rng):
        old = {"a": rng.normal(size=40)}
        curr = {"a": rng.normal(size=40)}
        mid = {"a": 0.5 * old["a"] + 0.5 * curr["a"]}
        report = merge_distance(mid, old, curr)
        assert abs(report.l2_to_old - report.l2_to_curr) <= 1e-9 * report.l2_to_old

    def test_matches_flattened_vector_oracle(self, rng):
        merged = {"a": rng.normal(size=7), "b": rng.normal(size=(3, 2))}
        old = {k: rng.normal(size=v.shape) for k, v in merged.items()}
        curr = {k: rng.normal(size=v.shape) for k, v in merged.items()}
        report = merge_distance(merged, old, curr)

        def flat(m):
            return np.concatenate([m[k].ravel() for k in sorted(m)])

        l2 = float(np.linalg.norm(flat(merged) - flat(old)))
        cos = float(
            np.dot(flat(merged), flat(old))
            / (np.linalg.norm(flat(merged)) * np.linalg.norm(flat(old)) + 1e-12)
        )
        assert abs(report.l2_to_old - l2) <= 1e-12 * max(1.0, l2)
        assert abs(report.cos_to_old - cos) <= 1e-12

    def test_key_order_does_not_matter(self, rng):
        names = [f"t{i}" for i in range(5)]
        merged = {k: rng.normal(size=4) for k in names}
        old = {k: rng.normal(size=4) for k in names}
        curr = {k: rng.normal(size=4) for k in names}
        straight = merge_distance(merged, old, curr)
        shuffled = merge_distance(
            {k: merged[k] for k in reversed(names)},
            {k: old[k] for k in reversed(names)},
            {k: curr[k] for k in reversed(names)},
        )
        assert straight.to_dict() == shuffled.to_dict()
        # Layers of many sizes, large ones included, in several orders: the same bits.
        maps = distance_maps(rng, lambda i, j: np.float32)
        straight = merge_distance(*maps).to_dict()
        for _ in range(3):
            order = rng.permutation(len(DISTANCE_SHAPES))
            shuffled = [{f"layer{j}": m[f"layer{j}"] for j in order} for m in maps]
            assert merge_distance(*shuffled).to_dict() == straight

    @pytest.mark.parametrize("dtypes", ["f32", "f64", "mixed"])
    def test_matches_exact_float64_oracle(self, rng, dtypes):
        choose = {
            "f32": lambda i, j: np.float32,
            "f64": lambda i, j: np.float64,
            "mixed": lambda i, j: (np.float32, np.float64)[(i + j) % 2],
        }[dtypes]
        maps = distance_maps(rng, choose)
        got = merge_distance(*maps).to_dict()
        for key, want in exact_distance_oracle(*maps).items():
            assert abs(got[key] - want) <= 1e-12 * abs(want), key
        assert 0.1 < got["cos_to_old"] < 1.0 and 0.1 < got["cos_to_curr"] < 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_memory_stays_under_two_input_maps(self, rng, dtype):
        maps = [{f"l{i:02d}": rng.normal(size=50_000).astype(dtype) for i in range(16)} for _ in range(3)]
        map_bytes = sum(layer.nbytes for layer in maps[0].values())
        tracemalloc.start()
        try:
            merge_distance(*maps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * map_bytes, f"peak {peak / map_bytes:.2f} S"

    def test_cosines_bounded(self, rng):
        for _ in range(20):
            maps = [
                {"a": rng.normal(size=9) * 10 ** int(rng.integers(-3, 4))} for _ in range(3)
            ]
            report = merge_distance(*maps)
            for value in (report.cos_to_old, report.cos_to_curr):
                assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9
            assert report.l2_to_old >= 0.0 and report.l2_to_curr >= 0.0

    def test_key_mismatch(self, rng):
        with pytest.raises(KeyMismatchError):
            merge_distance({"a": np.zeros(2)}, {"b": np.zeros(2)}, {"a": np.zeros(2)})

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            merge_distance(
                {"a": np.zeros(2)}, {"a": np.zeros(3)}, {"a": np.zeros(2)}
            )
