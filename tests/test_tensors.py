from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from duet.diagnostics import layer_sign_conflicts, merge_distance
from duet.errors import DTypeError, ShapeError
from duet.merge import MergeConfig, _layer_coefficients, _layer_statistics_blocks
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
        with pytest.raises(DTypeError, match="dtype mismatch"):
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_dimensional_operands_give_a_zero_dimensional_tensor(self, dtype):
        got = combine(((1.0, np.array(1.5, dtype)), (0.5, np.array(2.0, dtype))), dtype)
        assert isinstance(got, np.ndarray) and got.shape == () and got.dtype == dtype
        assert not got.flags.writeable and float(got) == 2.5

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
        record, _, _ = _layer_coefficients("w", x, y, MergeConfig())
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


def separate_statistics(x: np.ndarray, y: np.ndarray) -> tuple:
    """The three norms and the sign counts, each from its own kernel."""
    norm_sum = l1_norm(np.add(x, y, dtype=np.float64))
    return l1_norm(x), l1_norm(y), norm_sum, layer_sign_conflicts(x, y)


def statistics_bits(statistics: tuple) -> list:
    """The norms as exact hex strings (NaN, inf and signed zeros included)."""
    assert all(type(norm) is float for norm in statistics[:3])
    return [norm.hex() for norm in statistics[:3]] + [statistics[3]]


def with_warning_kinds(fn: Callable) -> tuple:
    """``fn()`` and the kinds of warning it raised, without numpy's name of the
    operation ("overflow encountered in add" is an "overflow encountered")."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, sorted({(w.category, str(w.message).split(" in ")[0]) for w in caught})


class TestFusedStatistics:
    """A large layer's three norms and its sign counts come from one blocked
    walk (``merge._layer_statistics_blocks``); each keeps the bits that
    ``l1_norm`` and ``layer_sign_conflicts`` give on their own."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", BLOCK_EDGE_LENGTHS)
    def test_one_walk_equals_the_separate_kernels(self, dtype, length):
        x, y = order_sensitive_pair(length, dtype, lambda x, y: np.add(x, y, dtype=np.float64))
        fused = _layer_statistics_blocks(x, y)
        assert statistics_bits(fused) == statistics_bits(separate_statistics(x, y))
        counts = fused[3]
        assert type(counts.conflicts) is int and type(counts.comparable) is int
        assert 0 < counts.conflicts < counts.comparable < length
        # Past one block, the merge takes the walk; the records agree with it.
        record, _, signs = _layer_coefficients("w", x, y, MergeConfig())
        assert statistics_bits((record.norm_old, record.norm_curr, record.norm_sum, signs)) == (
            statistics_bits(fused)
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zeros_and_all_zero_layers(self, dtype):
        length = 2 * 32768 + 3
        rng = np.random.default_rng(3)
        zeros = np.zeros(length, dtype)
        negative = np.full(length, -0.0, dtype)
        mixed = np.where(rng.random(length) < 0.5, zeros, negative)
        spread = spread_values(rng, length, dtype)
        for x, y in ((zeros, zeros), (negative, mixed), (mixed, spread), (spread, negative)):
            fused = _layer_statistics_blocks(x, y)
            assert statistics_bits(fused) == statistics_bits(separate_statistics(x, y))
        assert statistics_bits(_layer_statistics_blocks(negative, mixed)) == (
            [(0.0).hex()] * 3 + [layer_sign_conflicts(zeros, zeros)]
        )

    # f64 deltas over an f32 base reach the walk as a pair of f64 deltas.
    @pytest.mark.parametrize("scale", [0.5, 0.75, 1 / 40_000])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_huge_float64_layers_overflow_alike(self, scale, sign):
        # 0.5 and 0.75: block sums overflow (0.75: the pair sum too);
        # 1 / 40_000: only the sum of two block sums does.
        length = 2 * 32768 + 3
        x = np.full(length, np.finfo(np.float64).max * scale)
        y = sign * x
        fused, fused_warnings = with_warning_kinds(lambda: _layer_statistics_blocks(x, y))
        separate, separate_warnings = with_warning_kinds(lambda: separate_statistics(x, y))
        assert statistics_bits(fused) == statistics_bits(separate)
        assert fused_warnings == separate_warnings
        assert math.isinf(fused[0])


# Row lengths around numpy's 8-wide unrolled sum and its 128-element pairwise block.
ROW_LENGTHS = (*range(1, 18), *range(120, 138), 255, 256, 257, 1000, 4096)


class TestRowSums:
    """The merge stacks same-shape small layers and takes their norms as row
    sums (``merge._merge_group``): each must be the sum numpy takes of that
    layer alone, bit for bit."""

    @pytest.mark.parametrize("rows", [1, 2, 33])
    @pytest.mark.parametrize("length", ROW_LENGTHS)
    def test_row_sums_are_the_sums_of_the_rows(self, rows, length):
        rng = np.random.default_rng(length)
        matrix = np.abs(spread_values(rng, rows * length, np.float64)).reshape(rows, length)
        sums = np.sum(matrix, axis=1)
        for i, row in enumerate(matrix):
            assert sums[i].tobytes() == np.sum(row).tobytes()
            if length % 2 == 0:  # a two-dimensional layer sums as its flat row
                assert sums[i].tobytes() == np.sum(row.reshape(2, -1)).tobytes()
        if length >= 16 and rows == 33:  # the data tells a left-to-right sum from numpy's
            assert any(np.cumsum(row)[-1] != total for row, total in zip(matrix, sums))


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
