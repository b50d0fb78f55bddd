from __future__ import annotations

import math
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from duet.diagnostics import layer_sign_conflicts, merge_distance
from duet.errors import DTypeError, ShapeError
from duet.merge import MergeConfig, _layer_coefficients
from duet.task_vectors import _subtract
from duet.tensors import inner_product, combine, l1_norm, tensor

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


# Lengths around the kernels' 32 Ki-element block: one block, just over, two
# blocks and a remainder, and a long tensor split several levels deep.
BLOCK_EDGE_LENGTHS = (32767, 32768, 32769, 2 * 32768 + 3, 1_000_003)


def spread_values(rng: np.random.Generator, length: int, dtype) -> np.ndarray:
    """Magnitudes from 0 to 2**40 of both signs, with zeros and signed zeros:
    exact sums of such values need more bits than a float64 holds."""
    values = rng.random(length) * np.exp2(rng.integers(0, 40, length))
    values *= rng.choice([-1.0, 1.0], length)
    values[rng.random(length) < 0.05] = 0.0
    values[rng.random(length) < 0.05] = -0.0
    return values.astype(dtype)


def abs_sum_by_fixed_chunks(values: np.ndarray) -> float:
    """Left-to-right sum of ``np.sum`` over consecutive 32 Ki chunks: a
    blocked L1 norm that does not follow numpy's pairwise tree."""
    return sum(float(np.sum(np.abs(values[i : i + 32768]))) for i in range(0, values.size, 32768))


def order_sensitive_pair(length: int, dtype, float64_of: Callable) -> tuple:
    """Two seeded ``spread_values`` tensors.  Beyond two blocks, the first
    seed on which the L1 sum of ``float64_of(x, y)`` by fixed chunks differs
    from ``np.sum``'s, so a blocked sum in the wrong order shows."""
    for seed in range(64):
        rng = np.random.default_rng([length, seed])
        x, y = spread_values(rng, length, dtype), spread_values(rng, length, dtype)
        values = float64_of(x, y)
        if length <= 2 * 32768 or abs_sum_by_fixed_chunks(values) != float(np.sum(np.abs(values))):
            return x, y
    raise AssertionError(f"no seed makes the order of a sum of {length} values show")


def vector_pairs(max_len: int = 32):
    return st.integers(min_value=1, max_value=max_len).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=finite_floats),
            arrays(np.float64, n, elements=finite_floats),
        )
    )


def combine_two(a: float, x: np.ndarray, b: float, y: np.ndarray) -> np.ndarray:
    return combine(((a, x), (b, y)), x.dtype)


class TestLinearCombine:
    """Two-term :func:`combine`, as the merge kernels call it."""

    def test_self_subtraction_is_exact_zero(self):
        x = tensor([1.0, 2.0])
        out = combine_two(1.0, x, -1.0, x)
        assert out.tolist() == [0.0, 0.0]

    def test_average_of_equal_tensors(self):
        x = tensor([2.0, 4.0])
        assert combine_two(0.5, x, 0.5, x).tolist() == [2.0, 4.0]

    def test_weighted_mix_matches_direct_evaluation(self):
        # frozen from an elementwise float64 evaluation: a*x[i] + b*y[i]
        x = tensor([1.0, 0.0, -2.0])
        y = tensor([0.0, 10.0, 1.0])
        expected = [0.3 * 1.0 + 0.7 * 0.0, 0.3 * 0.0 + 0.7 * 10.0, 0.3 * -2.0 + 0.7 * 1.0]
        assert combine_two(0.3, x, 0.7, y).tolist() == expected

    # combine leaves pair checks to its callers: the subtraction that forms
    # every task vector, in the library and in the merge, checks its pair.
    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError, match="shape mismatch"):
            _subtract("w", tensor([1.0, 2.0]), tensor([1.0, 2.0, 3.0]))

    def test_dtype_mismatch_raises(self):
        with pytest.raises(ShapeError, match="dtype mismatch"):
            _subtract("w", tensor([1.0], dtype="f32"), tensor([1.0], dtype="f64"))

    @given(vector_pairs())
    def test_identity_coefficients_return_first_operand(self, pair):
        x, y = pair
        assert combine_two(1.0, x, 0.0, y).tolist() == x.tolist()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_combine_matches_inline_float64_expression(self, dtype):
        # signed zeros, cancellation and magnitudes far apart
        b = np.array([0.0, -0.0, -0.0, 1e30, -1e-30, 3.0, 1.0, 2.5], dtype=dtype)
        x = np.array([-0.0, -0.0, 0.0, -1e-8, 1e30, 1e-7, 1e-9, -2.5], dtype=dtype)
        y = np.array([0.0, -0.0, -0.0, 7.0, -1e30, -3e-7, 1e-12, 2.5], dtype=dtype)
        cases = [(b, x, y)]
        for length in BLOCK_EDGE_LENGTHS:  # the same values, spread over blocks
            rng = np.random.default_rng(length)
            cases.append(tuple(
                np.where(rng.random(length) < 0.5, np.resize(v, length), spread_values(rng, length, dtype))
                for v in (b, x, y)
            ))
        for b, x, y in cases:
            b64, x64, y64 = (v.astype(np.float64) for v in (b, x, y))
            for a, c in ((0.3, 0.7), (1.0, -1.0), (-0.5, 2.5), (0.1, 0.0)):
                expected = (b64 + a * x64 + c * y64).astype(dtype)
                got = combine(((1.0, b), (a, x), (c, y)), dtype)
                assert got.dtype == dtype and not got.flags.writeable
                assert got.shape == b.shape and got.tobytes() == expected.tobytes()
                pair = combine_two(a, x, c, y)
                assert pair.tobytes() == (a * x64 + c * y64).astype(dtype).tobytes()

    def test_float32_storage_rounds_result(self):
        x = tensor([1.0], dtype="f32")
        y = tensor([1e-9], dtype="f32")
        out = combine_two(1.0, x, 1.0, y)
        assert out.dtype == np.float32
        assert out[0] == np.float32(1.0)


class TestNorms:
    def test_zero_vector(self):
        assert l1_norm(tensor([0.0, 0.0, 0.0])) == 0.0

    def test_sum_of_magnitudes(self):
        assert l1_norm(tensor([3.0, -4.0])) == 7.0

    def test_against_fsum_oracle(self, rng):
        values = rng.normal(size=1000)
        oracle = math.fsum(abs(v) for v in values.tolist())
        assert abs(l1_norm(values) - oracle) <= 1e-12 * oracle

    @given(vector_pairs(), st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_absolute_homogeneity(self, pair, c):
        x, _ = pair
        lhs = l1_norm(np.asarray(c * x))
        rhs = abs(c) * l1_norm(x)
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-300)

    def test_empty_tensor(self):
        assert l1_norm(np.zeros((0, 3))) == 0.0


class TestBlockedKernels:
    """Large tensors are walked in blocks; every result keeps the bits of the
    whole-array expression, on data where the order of a sum shows."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", BLOCK_EDGE_LENGTHS)
    def test_l1_norm_matches_whole_array_sum(self, dtype, length):
        x, _ = order_sensitive_pair(length, dtype, lambda x, y: x.astype(np.float64))
        x64 = x.astype(np.float64)
        expected = float(np.sum(np.abs(x64)))
        if length > 2 * 32768:  # the data tells a fixed-chunk sum from numpy's tree
            assert abs_sum_by_fixed_chunks(x64) != expected
        assert l1_norm(x) == expected

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", BLOCK_EDGE_LENGTHS)
    def test_norm_sum_matches_float64_sum_of_the_pair(self, dtype, length):
        x, y = order_sensitive_pair(length, dtype, lambda x, y: np.add(x, y, dtype=np.float64))
        pair_sum = np.add(x, y, dtype=np.float64)
        expected = float(np.sum(np.abs(pair_sum)))
        if length > 2 * 32768:
            assert abs_sum_by_fixed_chunks(pair_sum) != expected
        record, _ = _layer_coefficients("w", x, y, MergeConfig())
        assert record.norm_sum == expected
        assert record.norm_old == float(np.sum(np.abs(x.astype(np.float64))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", BLOCK_EDGE_LENGTHS)
    def test_sign_conflicts_match_whole_array_counts(self, dtype, length):
        rng = np.random.default_rng(length)
        left, right = spread_values(rng, length, dtype), spread_values(rng, length, dtype)
        nonzero = (left != 0) & (right != 0)
        counts = layer_sign_conflicts(left, right)
        assert counts.comparable == int(np.count_nonzero(nonzero))
        assert counts.conflicts == int(np.count_nonzero(nonzero & (np.sign(left) != np.sign(right))))
        assert 0 < counts.conflicts < counts.comparable < length

    def test_multi_dimensional_and_strided_tensors(self):
        x = spread_values(np.random.default_rng(5), 128 * 64 * 9, np.float32).reshape(128, 64, 3, 3)
        for view in (x, x.T, x[:, ::2]):  # row-major, column-major, strided
            x64 = view.astype(np.float64)
            assert l1_norm(view) == float(np.sum(np.abs(x64)))
            got = combine(((1.0, view), (0.3, view)), np.float32)
            assert got.shape == view.shape
            assert got.tobytes() == (x64 + 0.3 * x64).astype(np.float32).tobytes()
            counts = layer_sign_conflicts(view, -view)
            assert counts.conflicts == counts.comparable == int(np.count_nonzero(view))


class TestInnerProduct:
    def test_orthogonal(self):
        assert inner_product(tensor([1.0, 0.0]), tensor([0.0, 1.0])) == 0.0

    def test_self(self):
        assert inner_product(tensor([1.0, 2.0]), tensor([1.0, 2.0])) == 5.0

    def test_hand_arithmetic(self):
        assert inner_product(tensor([1.0, -1.0]), tensor([-2.0, 0.0])) == -2.0

    @given(vector_pairs())
    def test_symmetry_is_bit_exact(self, pair):
        x, y = pair
        assert inner_product(x, y) == inner_product(y, x)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            inner_product(tensor([1.0]), tensor([1.0, 2.0]))


def one_layer_cosine(x: np.ndarray, y: np.ndarray) -> float:
    """The cosine of :func:`merge_distance` on one-layer maps."""
    return merge_distance({"w": x}, {"w": y}, {"w": y}).cos_to_old


class TestCosineSimilarity:
    def test_parallel(self):
        x = tensor([0.3, -1.2, 4.0])
        assert abs(one_layer_cosine(x, x) - 1.0) <= 1e-9

    def test_orthogonal_axes(self):
        assert one_layer_cosine(tensor([1.0, 0.0]), tensor([0.0, 1.0])) == 0.0

    def test_orthogonal_diagonal(self):
        assert one_layer_cosine(tensor([1.0, 1.0]), tensor([1.0, -1.0])) == 0.0

    def test_zero_norm_returns_zero(self):
        assert one_layer_cosine(tensor([0.0, 0.0]), tensor([1.0, 2.0])) == 0.0
        assert one_layer_cosine(tensor([1.0, 2.0]), tensor([0.0, 0.0])) == 0.0

    @given(vector_pairs())
    @settings(max_examples=200)
    def test_bounded(self, pair):
        x, y = pair
        value = one_layer_cosine(x, y)
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestTensorConstructor:
    def test_rejects_non_finite(self):
        with pytest.raises(DTypeError):
            tensor([1.0, float("nan")])

    def test_rejects_integer_dtype(self):
        with pytest.raises(DTypeError):
            tensor([1, 2], dtype=np.int32)

    def test_scalar_has_length_one(self):
        arr = tensor(7.0)
        assert arr.shape == () and arr.size == 1

    def test_zero_extent_has_length_zero(self):
        arr = tensor(np.zeros((2, 0, 3)))
        assert arr.size == 0

    def test_result_is_read_only(self):
        arr = tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            arr[0] = 5.0
