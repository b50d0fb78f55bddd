from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from duet.errors import DTypeError, ShapeError
from duet.tensors import (
    cosine_similarity,
    inner_product,
    combine,
    l1_norm,
    linear_combine,
    tensor,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


def vector_pairs(max_len: int = 32):
    return st.integers(min_value=1, max_value=max_len).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=finite_floats),
            arrays(np.float64, n, elements=finite_floats),
        )
    )


class TestLinearCombine:
    def test_self_subtraction_is_exact_zero(self):
        x = tensor([1.0, 2.0])
        out = linear_combine(1.0, x, -1.0, x)
        assert out.tolist() == [0.0, 0.0]

    def test_average_of_equal_tensors(self):
        x = tensor([2.0, 4.0])
        assert linear_combine(0.5, x, 0.5, x).tolist() == [2.0, 4.0]

    def test_weighted_mix_matches_direct_evaluation(self):
        # frozen from an elementwise float64 evaluation: a*x[i] + b*y[i]
        x = tensor([1.0, 0.0, -2.0])
        y = tensor([0.0, 10.0, 1.0])
        expected = [0.3 * 1.0 + 0.7 * 0.0, 0.3 * 0.0 + 0.7 * 10.0, 0.3 * -2.0 + 0.7 * 1.0]
        assert linear_combine(0.3, x, 0.7, y).tolist() == expected

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            linear_combine(1.0, tensor([1.0, 2.0]), 1.0, tensor([1.0, 2.0, 3.0]))

    def test_dtype_mismatch_raises(self):
        with pytest.raises(DTypeError):
            linear_combine(1.0, tensor([1.0], dtype="f32"), 1.0, tensor([1.0], dtype="f64"))

    @given(vector_pairs())
    def test_identity_coefficients_return_first_operand(self, pair):
        x, y = pair
        assert linear_combine(1.0, x, 0.0, y).tolist() == x.tolist()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_combine_matches_inline_float64_expression(self, dtype):
        # signed zeros, cancellation and magnitudes far apart
        b = np.array([0.0, -0.0, -0.0, 1e30, -1e-30, 3.0, 1.0, 2.5], dtype=dtype)
        x = np.array([-0.0, -0.0, 0.0, -1e-8, 1e30, 1e-7, 1e-9, -2.5], dtype=dtype)
        y = np.array([0.0, -0.0, -0.0, 7.0, -1e30, -3e-7, 1e-12, 2.5], dtype=dtype)
        b64, x64, y64 = (v.astype(np.float64) for v in (b, x, y))
        for a, c in ((0.3, 0.7), (1.0, -1.0), (-0.5, 2.5), (0.1, 0.0)):
            expected = (b64 + a * x64 + c * y64).astype(dtype)
            got = combine(((1.0, b), (a, x), (c, y)), dtype)
            assert got.dtype == dtype and not got.flags.writeable
            assert got.tobytes() == expected.tobytes()
            pair = linear_combine(a, x, c, y)
            assert pair.tobytes() == (a * x64 + c * y64).astype(dtype).tobytes()

    def test_float32_storage_rounds_result(self):
        x = tensor([1.0], dtype="f32")
        y = tensor([1e-9], dtype="f32")
        out = linear_combine(1.0, x, 1.0, y)
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


class TestCosineSimilarity:
    def test_parallel(self):
        x = tensor([0.3, -1.2, 4.0])
        assert abs(cosine_similarity(x, x) - 1.0) <= 1e-9

    def test_orthogonal_axes(self):
        assert cosine_similarity(tensor([1.0, 0.0]), tensor([0.0, 1.0])) == 0.0

    def test_orthogonal_diagonal(self):
        assert cosine_similarity(tensor([1.0, 1.0]), tensor([1.0, -1.0])) == 0.0

    def test_zero_norm_returns_zero(self):
        assert cosine_similarity(tensor([0.0, 0.0]), tensor([1.0, 2.0])) == 0.0

    @given(vector_pairs())
    @settings(max_examples=200)
    def test_bounded(self, pair):
        x, y = pair
        value = cosine_similarity(x, y)
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestTensorConstructor:
    def test_rejects_non_finite(self):
        with pytest.raises(DTypeError):
            tensor([1.0, float("nan")])

    def test_permissive_flag_keeps_non_finite(self):
        arr = tensor([1.0, float("inf")], allow_nonfinite=True)
        assert np.isinf(arr[1])

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
