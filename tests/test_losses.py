from __future__ import annotations

import json
import math

import numpy as np
import pytest

from duet.checkpoint import write_checkpoint
from duet.errors import BaseMismatchError, EmptyInputError, KeyMismatchError, ShapeError
from duet.losses import (
    GRANULARITIES,
    DcLossConfig,
    PredictionBatch,
    dc_loss,
    dc_loss_grad,
    dc_term,
    distill_bbox_loss,
    distill_cls_loss,
    distill_loss,
    load_prediction_batch,
    percentile_75,
    update_sign_conflicts,
)
from duet.task_vectors import TaskVector, zero_task_vector


def tv(deltas: dict, fp: str = "fp") -> TaskVector:
    return TaskVector(deltas={k: np.asarray(v, dtype=np.float64) for k, v in deltas.items()}, base_fingerprint=fp)


def chain(tau_prev2: dict, d_prev: dict, d_curr: dict):
    """Build (tau_t, tau_prev, tau_prev2) whose successive updates are the
    given deltas."""
    prev2 = tv(tau_prev2)
    prev = tv({k: prev2.deltas[k] + np.asarray(v, dtype=np.float64) for k, v in d_prev.items()})
    curr = tv({k: prev.deltas[k] + np.asarray(v, dtype=np.float64) for k, v in d_curr.items()})
    return curr, prev, prev2


class TestDcLoss:
    def test_aligned_updates_cost_nothing(self):
        tau_t, tau_prev, tau_prev2 = chain(
            {"w": [0.0, 0.0]}, {"w": [1.0, 2.0]}, {"w": [0.5, 1.0]}
        )
        for granularity in ("tensor", "element"):
            assert dc_loss(tau_t, tau_prev, tau_prev2, DcLossConfig(granularity)) == 0.0

    def test_hand_case_both_modes(self):
        tau_t, tau_prev, tau_prev2 = chain({"w": [0.0, 0.0]}, {"w": [1.0, 0.0]}, {"w": [-2.0, 0.0]})
        for granularity in ("tensor", "element"):
            assert dc_loss(tau_t, tau_prev, tau_prev2, DcLossConfig(granularity)) == 2.0

    def test_random_instance_matches_direct_evaluation(self, rng):
        shapes = {f"t{i}": int(rng.integers(2, 8)) for i in range(3)}
        deltas = lambda: {name: rng.normal(size=n) for name, n in shapes.items()}
        tau_prev2 = tv(deltas())
        tau_prev = tv(deltas())
        tau_t = tv(deltas())
        expected = 0.0
        for name in tau_t.deltas:
            d_curr = tau_t.deltas[name] - tau_prev.deltas[name]
            d_prev = tau_prev.deltas[name] - tau_prev2.deltas[name]
            expected += max(0.0, -float(np.dot(d_curr, d_prev)))
        got = dc_loss(tau_t, tau_prev, tau_prev2)
        assert abs(got - expected) <= 1e-12 * max(1.0, expected)

    def test_per_element_mode_sums_scalar_hinges(self, rng):
        tau_prev2 = tv({"w": rng.normal(size=20)})
        tau_prev = tv({"w": rng.normal(size=20)})
        tau_t = tv({"w": rng.normal(size=20)})
        d_curr = tau_t.deltas["w"] - tau_prev.deltas["w"]
        d_prev = tau_prev.deltas["w"] - tau_prev2.deltas["w"]
        expected = float(np.sum(np.maximum(0.0, -(d_curr * d_prev))))
        got = dc_loss(tau_t, tau_prev, tau_prev2, DcLossConfig("element"))
        assert abs(got - expected) <= 1e-12 * max(1.0, expected)

    def test_zero_prev2_vector_for_second_task(self, rng):
        base = {f"t{i}": np.zeros(3) for i in range(2)}
        tau_prev = tv({k: rng.normal(size=3) for k in base})
        tau_t = tv({k: rng.normal(size=3) for k in base})
        zero = zero_task_vector(base, "fp")
        loss = dc_loss(tau_t, tau_prev, zero)
        expected = sum(
            max(0.0, -float(np.dot(tau_t.deltas[k] - tau_prev.deltas[k], tau_prev.deltas[k])))
            for k in base
        )
        assert abs(loss - expected) <= 1e-12 * max(1.0, expected)

    def test_nonnegative(self, rng):
        for _ in range(50):
            tau_t = tv({"w": rng.normal(size=6)})
            tau_prev = tv({"w": rng.normal(size=6)})
            tau_prev2 = tv({"w": rng.normal(size=6)})
            assert dc_loss(tau_t, tau_prev, tau_prev2) >= 0.0

    def test_permutation_of_names_is_bit_exact(self, rng):
        names = [f"t{i}" for i in range(6)]
        make = lambda: {name: rng.normal(size=4) for name in names}
        a, b, c = make(), make(), make()
        loss = dc_loss(tv(a), tv(b), tv(c))
        shuffled = dc_loss(
            tv({k: a[k] for k in reversed(names)}),
            tv({k: b[k] for k in reversed(names)}),
            tv({k: c[k] for k in reversed(names)}),
        )
        assert loss == shuffled

    def test_base_mismatch_rejected(self):
        with pytest.raises(BaseMismatchError):
            dc_loss(tv({"w": [1.0]}, "a"), tv({"w": [1.0]}, "b"), tv({"w": [1.0]}, "a"))

    def test_key_mismatch_rejected(self):
        with pytest.raises(KeyMismatchError):
            dc_loss(tv({"w": [1.0]}), tv({"v": [1.0]}), tv({"w": [1.0]}))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            dc_loss(tv({"w": [1.0, 2.0]}), tv({"w": [1.0]}), tv({"w": [1.0]}))

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_term_of_tensors_of_other_shapes_is_refused_not_broadcast(self, granularity):
        # (3, 1) against (1, 3) would broadcast to nine products.
        ones = np.ones((3, 1))
        with pytest.raises(ShapeError, match=r"dc_term: shape mismatch between tau_t \(3, 1\)"):
            dc_term(ones, -np.ones((1, 3)), ones, granularity)
        with pytest.raises(ShapeError):  # same size, other shape
            dc_term(ones, ones, np.ones(3), granularity)
        with pytest.raises(ShapeError):
            update_sign_conflicts(ones, -np.ones((1, 3)), ones)

    def test_term_may_mix_dtypes(self):
        t, prev, prev2 = np.float32([3.0, 0.0]), np.float64([1.0, 1.0]), np.float32([2.0, 0.0])
        # d_curr = (2, -1), d_prev = (-1, 1): alignment -3, both products negative
        assert dc_term(t, prev, prev2, "tensor") == 3.0
        assert dc_term(t, prev, prev2, "element") == 3.0
        counts = update_sign_conflicts(t, prev, prev2)
        assert (counts.conflicts, counts.comparable) == (2, 2)


class TestCentralDifferenceCheck:
    def test_probes_at_most_256_elements_per_tensor(self, monkeypatch, rng):
        from collections import Counter

        from duet import selftest

        calls: Counter = Counter()
        term = selftest.dc_term

        def counting_term(tau_t, *rest):
            calls[tau_t.size] += 1
            return term(tau_t, *rest)

        monkeypatch.setattr(selftest, "dc_term", counting_term)
        sizes = (7, 300, 1000, 5000)
        tau_t, tau_prev, tau_prev2 = (
            tv({f"w{n}": rng.normal(size=n) for n in sizes}) for _ in range(3)
        )
        for granularity in ("tensor", "element"):
            calls.clear()
            result = selftest.central_difference_check(
                tau_t, tau_prev, tau_prev2, DcLossConfig(granularity)
            )
            assert result.passed and result.checked > 0
            if granularity == "tensor":
                assert set(calls) <= set(sizes)
                assert max(calls.values()) <= 2 * 256
            else:  # each probe evaluates the bumped element's own term
                assert set(calls) == {1}
                assert calls[1] <= 2 * sum(min(n, 256) for n in sizes)


    @pytest.mark.parametrize("granularity", ["tensor", "element"])
    def test_large_tensor_passes_with_the_correct_gradient_only(self, monkeypatch, granularity):
        # A term summed over 100k elements rounds by more than 1e-4 of the
        # smaller gradient entries; the check tells that from a wrong gradient.
        from duet import selftest

        rng = np.random.default_rng(11)
        # half the entries small, so some probed gradients are small
        magnitudes = np.where(rng.random(100_000) < 0.5, 1.0, 10.0 ** rng.uniform(-4, -2, 100_000))
        prev = (rng.normal(size=magnitudes.size) * magnitudes).astype(np.float32)
        tau_t = (0.5 * prev + 0.1 * rng.normal(size=prev.size)).astype(np.float32)
        vectors = [TaskVector({"w": x}, "fp") for x in (tau_t, prev, np.zeros_like(prev))]
        config = DcLossConfig(granularity)
        result = selftest.central_difference_check(*vectors, config)
        assert result.passed and result.checked > 100, result
        off = lambda *args: {k: g * 1.001 for k, g in dc_loss_grad(*args).items()}
        monkeypatch.setattr(selftest, "dc_loss_grad", off)
        assert selftest.central_difference_check(*vectors, config).passed is False


class TestDcLossGrad:
    def test_aligned_updates_give_zero_gradient(self):
        tau_t, tau_prev, tau_prev2 = chain({"w": [0.0]}, {"w": [2.0]}, {"w": [1.0]})
        grad = dc_loss_grad(tau_t, tau_prev, tau_prev2)
        assert grad["w"].tolist() == [0.0]

    def test_hand_case_gradient(self):
        tau_t, tau_prev, tau_prev2 = chain({"w": [0.0, 0.0]}, {"w": [1.0, 0.0]}, {"w": [-2.0, 0.0]})
        for granularity in ("tensor", "element"):
            grad = dc_loss_grad(tau_t, tau_prev, tau_prev2, DcLossConfig(granularity))
            assert grad["w"].tolist() == [-1.0, 0.0]

    def test_hinge_point_returns_zero_subgradient(self):
        tau_t, tau_prev, tau_prev2 = chain({"w": [0.0]}, {"w": [1.0]}, {"w": [0.0]})
        grad = dc_loss_grad(tau_t, tau_prev, tau_prev2)
        assert grad["w"].tolist() == [0.0]

    @pytest.mark.parametrize("granularity", ["tensor", "element"])
    def test_matches_central_finite_differences(self, rng, granularity):
        cfg = DcLossConfig(granularity)
        h = 1e-5
        checked = 0
        for _ in range(10):
            shapes = {f"t{i}": int(rng.integers(2, 6)) for i in range(3)}
            make = lambda: tv({k: rng.normal(size=n) for k, n in shapes.items()})
            tau_t, tau_prev, tau_prev2 = make(), make(), make()
            grad = dc_loss_grad(tau_t, tau_prev, tau_prev2, cfg)
            for name, n in shapes.items():
                d_curr = tau_t.deltas[name] - tau_prev.deltas[name]
                d_prev = tau_prev.deltas[name] - tau_prev2.deltas[name]
                if granularity == "tensor":
                    alignment = np.full(n, float(np.dot(d_curr, d_prev)))
                else:
                    alignment = d_curr * d_prev
                for idx in range(n):
                    if abs(alignment[idx]) <= 2 * h * abs(d_prev[idx]) + 1e-6:
                        continue  # too close to the hinge for a clean stencil
                    deltas_hi = {k: v.copy() for k, v in tau_t.deltas.items()}
                    deltas_hi[name][idx] += h
                    deltas_lo = {k: v.copy() for k, v in tau_t.deltas.items()}
                    deltas_lo[name][idx] -= h
                    fd = (
                        dc_loss(tv(deltas_hi), tau_prev, tau_prev2, cfg)
                        - dc_loss(tv(deltas_lo), tau_prev, tau_prev2, cfg)
                    ) / (2 * h)
                    analytic = grad[name][idx]
                    denom = max(abs(fd), abs(analytic), 1e-8)
                    assert abs(fd - analytic) / denom <= 1e-4
                    checked += 1
        assert checked > 50


class TestPercentile:
    def test_reference_list(self):
        assert abs(percentile_75([0.1, 0.2, 0.3, 0.9]) - 0.45) < 1e-12

    def test_singleton(self):
        assert percentile_75([5.0]) == 5.0

    def test_constant(self):
        assert percentile_75([1.0, 1.0, 1.0, 1.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            percentile_75([])

    def test_against_numpy_oracle(self, rng):
        for _ in range(50):
            values = rng.normal(size=int(rng.integers(1, 40)))
            mine = percentile_75(values)
            reference = float(np.percentile(values, 75))
            assert abs(mine - reference) <= 1e-12 * max(1.0, abs(reference))


class TestDistillCls:
    def test_identical_batches_are_free(self, rng):
        batch = PredictionBatch(rng.normal(size=(6, 4)), rng.normal(size=(5, 4)))
        loss, mask = distill_cls_loss(batch, batch)
        assert loss == 0.0 and mask >= 1

    def test_percentile_mask_fixture(self):
        old = PredictionBatch([[0.1], [0.2], [0.3], [0.9]], [[0.0, 0.0]])
        curr = PredictionBatch([[0.1], [0.2], [0.3], [1.9]], [[0.0, 0.0]])
        loss, mask = distill_cls_loss(curr, old)
        assert mask == 1
        assert abs(loss - 1.0) < 1e-12

    def test_empty_batch(self):
        empty = PredictionBatch(np.zeros((0, 3)), np.zeros((0, 4)))
        assert distill_cls_loss(empty, empty) == (0.0, 0)

    def test_shape_mismatch(self, rng):
        a = PredictionBatch(rng.normal(size=(3, 2)), np.zeros((1, 4)))
        b = PredictionBatch(rng.normal(size=(4, 2)), np.zeros((1, 4)))
        with pytest.raises(ShapeError):
            distill_cls_loss(a, b)

    def test_mask_keeps_at_least_one_row(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 12))
            old = PredictionBatch(rng.normal(size=(n, 3)), np.zeros((1, 4)))
            curr = PredictionBatch(rng.normal(size=(n, 3)), np.zeros((1, 4)))
            _, mask = distill_cls_loss(curr, old)
            assert mask >= 1

    def test_difference_term_shift_invariant_on_fixed_mask(self, rng):
        # shifting every logit by a constant moves the threshold with the
        # rows, so the mask stays fixed and the loss is unchanged
        old_logits = rng.normal(size=(8, 3))
        curr_logits = old_logits + rng.normal(size=(8, 3)) * 0.1
        shift = 3.75
        loss_a, mask_a = distill_cls_loss(
            PredictionBatch(curr_logits, np.zeros((1, 2))),
            PredictionBatch(old_logits, np.zeros((1, 2))),
        )
        loss_b, mask_b = distill_cls_loss(
            PredictionBatch(curr_logits + shift, np.zeros((1, 2))),
            PredictionBatch(old_logits + shift, np.zeros((1, 2))),
        )
        assert mask_a == mask_b
        assert abs(loss_a - loss_b) <= 1e-9 * max(1.0, loss_a)


class TestDistillBbox:
    def test_identical_batches_are_free(self, rng):
        batch = PredictionBatch(np.zeros((1, 2)), rng.normal(size=(7, 4)))
        loss, mask = distill_bbox_loss(batch, batch)
        assert loss == 0.0 and mask >= 1

    def test_closed_form_two_coordinate_case(self):
        old = PredictionBatch(np.zeros((1, 1)), [[0.0, 0.0]])
        curr = PredictionBatch(np.zeros((1, 1)), [[math.log(2.0), 0.0]])
        loss, mask = distill_bbox_loss(curr, old)
        expected = (2.0 / 3.0) * math.log(4.0 / 3.0) + (1.0 / 3.0) * math.log(2.0 / 3.0)
        assert mask == 1
        assert abs(loss - expected) < 1e-12
        assert abs(loss - 0.056633) < 1e-6

    def test_constant_rows_all_pass_threshold(self, rng):
        boxes = np.tile(rng.normal(size=(1, 4)), (5, 1))
        old = PredictionBatch(np.zeros((1, 1)), boxes)
        curr = PredictionBatch(np.zeros((1, 1)), boxes + 0.01)
        _, mask = distill_bbox_loss(curr, old)
        assert mask == 5

    def test_kl_never_meaningfully_negative(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 10))
            k = int(rng.integers(2, 6))
            old = PredictionBatch(np.zeros((1, 1)), rng.normal(size=(m, k)) * 3)
            curr = PredictionBatch(np.zeros((1, 1)), rng.normal(size=(m, k)) * 3)
            loss, _ = distill_bbox_loss(curr, old)
            assert loss >= -1e-12

    def test_empty_batch(self):
        empty = PredictionBatch(np.zeros((0, 1)), np.zeros((0, 4)))
        assert distill_bbox_loss(empty, empty) == (0.0, 0)


class TestPredictionBatchValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PredictionBatch([[float("nan")]], [[0.0, 0.0]])

    def test_rejects_single_coordinate_boxes(self):
        with pytest.raises(ShapeError):
            PredictionBatch([[0.0]], [[1.0]])

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ShapeError):
            PredictionBatch([0.0, 1.0], [[0.0, 0.0]])

    def test_load_from_json(self, tmp_path):
        path = tmp_path / "preds.json"
        path.write_text(json.dumps({"class_logits": [[1.0, 2.0]], "bbox_values": [[0.0, 1.0]]}))
        batch = load_prediction_batch(path)
        assert batch.class_logits.shape == (1, 2)

    def test_load_from_container(self, tmp_path, rng):
        path = tmp_path / "preds.safetensors"
        write_checkpoint(
            {"class_logits": rng.normal(size=(3, 2)), "bbox_values": rng.normal(size=(4, 4))},
            path,
        )
        batch = load_prediction_batch(path)
        assert batch.bbox_values.shape == (4, 4)


class TestTotalLoss:
    """The total of a distillation result."""

    def test_distill_total_combines_both_parts(self, rng):
        old = PredictionBatch(rng.normal(size=(5, 3)), rng.normal(size=(4, 4)))
        curr = PredictionBatch(rng.normal(size=(5, 3)), rng.normal(size=(4, 4)))
        result = distill_loss(curr, old)
        assert result.total == result.cls_loss + result.bbox_loss
