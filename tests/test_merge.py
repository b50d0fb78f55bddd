from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from duet.checkpoint import PartitionSpec, fingerprint_map, partition_checkpoint
from duet.errors import (
    AxisError,
    BaseMismatchError,
    EmptyInputError,
    KeyMismatchError,
    ShapeError,
)
from duet.merge import (
    MergeConfig,
    assemble_incremental,
    duet_layer_coefficients,
    duet_merge,
    incremental_head_concat,
    incremental_sequence,
    iter_incremental_sequence,
    magmax_merge,
    weight_average_merge,
)
from duet.task_vectors import TaskVector, compute_task_vector
from tests.conftest import make_map


def tv(deltas: dict, fp: str = "fp", label: str = "") -> TaskVector:
    return TaskVector(deltas=deltas, base_fingerprint=fp, label=label)


def direct_coefficients(old: np.ndarray, curr: np.ndarray, cfg: MergeConfig):
    """Single-expression re-derivation of the coefficient equations."""
    n_old = float(np.abs(np.asarray(old, dtype=np.float64)).sum())
    n_curr = float(np.abs(np.asarray(curr, dtype=np.float64)).sum())
    n_sum = float(np.abs(np.asarray(old, dtype=np.float64) + np.asarray(curr, dtype=np.float64)).sum())
    p = (n_old - n_curr) / (n_sum + cfg.epsilon)
    alpha = cfg.alpha_base + max(-cfg.gamma, min(cfg.gamma, cfg.gamma * math.tanh(p)))
    return p, alpha, 1.0 - alpha


class TestMergeConfig:
    def test_defaults(self):
        cfg = MergeConfig()
        assert (cfg.gamma, cfg.alpha_base, cfg.epsilon) == (0.1, 0.5, 1e-8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": -0.01},
            {"gamma": 0.6},
            {"alpha_base": 0.0},
            {"alpha_base": 1.0},
            {"alpha_base": 0.05, "gamma": 0.1},
            {"alpha_base": 0.95, "gamma": 0.1},
            {"epsilon": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MergeConfig(**kwargs)


class TestLayerCoefficients:
    def test_symmetric_case_returns_base_coefficient(self):
        layer = np.float64([0.5, -1.5])
        p, delta, alpha, beta = duet_layer_coefficients(layer, layer.copy())
        assert (p, delta) == (0.0, 0.0)
        assert alpha == 0.5 and beta == 0.5

    def test_zero_current_case(self):
        p, delta, alpha, beta = duet_layer_coefficients(
            np.float64([2.0, 0.0]), np.float64([0.0, 0.0])
        )
        assert abs(p - 2.0 / (2.0 + 1e-8)) < 1e-15
        assert abs(delta - 0.1 * math.tanh(1.0)) < 1e-8
        assert abs(alpha - 0.5761594) < 1e-6
        assert abs(beta - 0.4238406) < 1e-6

    def test_random_layers_match_direct_formula(self, rng):
        cfg = MergeConfig(gamma=0.2, alpha_base=0.6, epsilon=1e-7)
        for _ in range(25):
            old = rng.normal(size=int(rng.integers(1, 40)))
            curr = rng.normal(size=old.shape)
            p, delta, alpha, beta = duet_layer_coefficients(old, curr, cfg)
            p_ref, alpha_ref, beta_ref = direct_coefficients(old, curr, cfg)
            assert abs(p - p_ref) <= 1e-12 * max(1.0, abs(p_ref))
            assert abs(alpha - alpha_ref) <= 1e-12
            assert abs(beta - beta_ref) <= 1e-12
            assert alpha + beta == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            duet_layer_coefficients(np.zeros(2), np.zeros(3))

    def test_all_zero_layers_fall_back_to_base(self):
        p, delta, alpha, beta = duet_layer_coefficients(np.zeros(4), np.zeros(4))
        assert (p, delta, alpha, beta) == (0.0, 0.0, 0.5, 0.5)

    def test_monotone_in_old_norm_with_fixed_denominator(self):
        # family built so |tau_curr|_1 = 3 and |tau_old + tau_curr|_1 = 4 stay
        # constant while |tau_old|_1 = t sweeps
        curr = np.float64([1.0, 2.0])
        alphas = []
        for t in np.linspace(1.0, 5.0, 9):
            old = np.float64([(t + 1.0) / 2.0, -(t - 1.0) / 2.0])
            assert abs(np.abs(old).sum() - t) < 1e-12
            assert abs(np.abs(old + curr).sum() - 4.0) < 1e-12
            _, _, alpha, _ = duet_layer_coefficients(old, curr)
            alphas.append(alpha)
        assert all(b > a for a, b in zip(alphas, alphas[1:]))

    @given(
        st.integers(min_value=1, max_value=24).flatmap(
            lambda n: st.tuples(
                arrays(np.float64, n, elements=st.floats(-1e3, 1e3, allow_nan=False)),
                arrays(np.float64, n, elements=st.floats(-1e3, 1e3, allow_nan=False)),
            )
        )
    )
    @settings(max_examples=150)
    def test_invariants_hold_for_any_pair(self, pair):
        old, curr = pair
        cfg = MergeConfig()
        p, delta, alpha, beta = duet_layer_coefficients(old, curr, cfg)
        assert alpha + beta == 1.0
        assert cfg.alpha_base - cfg.gamma <= alpha <= cfg.alpha_base + cfg.gamma
        assert abs(p) <= 1.0 + 1e-9
        assert delta == cfg.gamma * math.tanh(p)


class TestDuetMerge:
    def test_equal_vectors_add_the_whole_delta(self, fingerprinted_base, rng):
        base, fp = fingerprinted_base
        deltas = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}
        merged, report = duet_merge(base, fp, tv(deltas, fp), tv(dict(deltas), fp))
        for name in base:
            expected = (base[name].astype(np.float64) + deltas[name].astype(np.float64)).astype(
                np.float32
            )
            np.testing.assert_array_equal(merged[name], expected)
        assert all(record.alpha == 0.5 for record in report.layers)

    def test_zero_current_merged_example(self):
        base = {"w": np.float64([0.0, 0.0])}
        fp = fingerprint_map(base)
        merged, _ = duet_merge(
            base, fp, tv({"w": np.float64([2.0, 0.0])}, fp), tv({"w": np.float64([0.0, 0.0])}, fp)
        )
        assert abs(merged["w"][0] - 1.1523188) < 1e-6
        assert merged["w"][1] == 0.0

    def test_five_layer_instance_matches_bruteforce_oracle(self, rng):
        cfg = MergeConfig()
        base = make_map(rng, 5, max_elems=200)
        fp = fingerprint_map(base)
        old = {k: rng.normal(size=v.shape) for k, v in base.items()}
        curr = {k: rng.normal(size=v.shape) for k, v in base.items()}
        merged, report = duet_merge(base, fp, tv(old, fp), tv(curr, fp), cfg)
        for name in base:
            _, alpha, beta = direct_coefficients(old[name], curr[name], cfg)
            expected = base[name] + alpha * old[name] + beta * curr[name]
            scale = np.maximum(np.abs(expected), 1.0)
            assert np.max(np.abs(merged[name] - expected) / scale) <= 1e-9
        assert len(report.layers) == 5
        assert [record.layer_name for record in report.layers] == list(base)

    def test_gamma_zero_degenerates_to_fixed_interpolation(self, rng):
        cfg = MergeConfig(gamma=0.0, alpha_base=0.3)
        base = make_map(rng, 3)
        fp = fingerprint_map(base)
        old = {k: rng.normal(size=v.shape) for k, v in base.items()}
        curr = {k: rng.normal(size=v.shape) for k, v in base.items()}
        merged, report = duet_merge(base, fp, tv(old, fp), tv(curr, fp), cfg)
        assert all(record.alpha == 0.3 for record in report.layers)
        for name in base:
            expected = base[name] + 0.3 * old[name] + 0.7 * curr[name]
            np.testing.assert_allclose(merged[name], expected, rtol=1e-12)

    def test_fingerprint_mismatch_rejected(self, fingerprinted_base, rng):
        base, fp = fingerprinted_base
        deltas = {k: np.zeros_like(v) for k, v in base.items()}
        with pytest.raises(BaseMismatchError):
            duet_merge(base, fp, tv(deltas, "other"), tv(dict(deltas), fp))

    def test_key_mismatch_rejected(self, fingerprinted_base):
        base, fp = fingerprinted_base
        deltas = {k: np.zeros_like(v) for k, v in base.items()}
        partial = dict(list(deltas.items())[:-1])
        with pytest.raises(KeyMismatchError):
            duet_merge(base, fp, tv(partial, fp), tv(deltas, fp))

    def test_thread_count_does_not_change_bits(self, rng):
        base = make_map(rng, 6, max_elems=300)
        fp = fingerprint_map(base)
        old = {k: rng.normal(size=v.shape) for k, v in base.items()}
        curr = {k: rng.normal(size=v.shape) for k, v in base.items()}
        merged_1, report_1 = duet_merge(base, fp, tv(old, fp), tv(curr, fp), threads=1)
        merged_4, report_4 = duet_merge(base, fp, tv(old, fp), tv(curr, fp), threads=4)
        for name in base:
            np.testing.assert_array_equal(merged_1[name], merged_4[name])
        assert report_1.to_json() == report_4.to_json()

    def test_report_carries_sign_conflicts_and_fingerprints(self, fingerprinted_base, rng):
        base, fp = fingerprinted_base
        old = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}
        curr = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}
        _, report = duet_merge(base, fp, tv(old, fp), tv(curr, fp))
        assert report.base_fingerprint == fp
        assert report.old_fingerprint == fingerprint_map(old)
        assert report.curr_fingerprint == fingerprint_map(curr)
        assert report.sign_conflicts.total_comparable > 0
        assert report.warnings == []


class TestHeadConcat:
    def test_block_layout_current_first(self, rng):
        prev = {"head.w": rng.normal(size=(3, 8))}
        curr = {"head.w": rng.normal(size=(4, 8))}
        out = incremental_head_concat(prev, curr, axis=0)
        assert out["head.w"].shape == (7, 8)
        np.testing.assert_array_equal(out["head.w"][:4], curr["head.w"])
        np.testing.assert_array_equal(out["head.w"][4:], prev["head.w"])

    def test_empty_previous_block(self, rng):
        prev = {"head.w": np.zeros((0, 8))}
        curr = {"head.w": rng.normal(size=(4, 8))}
        out = incremental_head_concat(prev, curr, axis=0)
        np.testing.assert_array_equal(out["head.w"], curr["head.w"])

    def test_concat_then_slice_recovers_inputs(self, rng):
        prev = {"head.w": rng.normal(size=(5, 2, 3))}
        curr = {"head.w": rng.normal(size=(5, 4, 3))}
        out = incremental_head_concat(prev, curr, axis=1)
        np.testing.assert_array_equal(out["head.w"][:, :4], curr["head.w"])
        np.testing.assert_array_equal(out["head.w"][:, 4:], prev["head.w"])

    def test_prev_first_order(self, rng):
        prev = {"head.w": rng.normal(size=(2, 2))}
        curr = {"head.w": rng.normal(size=(3, 2))}
        out = incremental_head_concat(prev, curr, axis=0, order="prev-first")
        np.testing.assert_array_equal(out["head.w"][:2], prev["head.w"])
        np.testing.assert_array_equal(out["head.w"][2:], curr["head.w"])

    def test_negative_axis(self, rng):
        prev = {"head.w": rng.normal(size=(2, 3))}
        curr = {"head.w": rng.normal(size=(2, 5))}
        out = incremental_head_concat(prev, curr, axis=-1)
        assert out["head.w"].shape == (2, 8)

    def test_axis_out_of_range(self, rng):
        prev = {"head.b": rng.normal(size=4)}
        curr = {"head.b": rng.normal(size=4)}
        with pytest.raises(AxisError, match="head.b"):
            incremental_head_concat(prev, curr, axis=1)

    def test_off_axis_shape_mismatch(self, rng):
        prev = {"head.w": rng.normal(size=(3, 8))}
        curr = {"head.w": rng.normal(size=(4, 9))}
        with pytest.raises(ShapeError):
            incremental_head_concat(prev, curr, axis=0)

    def test_replace_names_take_current_tensor(self, rng):
        prev = {"head.stem": rng.normal(size=(2, 2)), "head.cls": rng.normal(size=(1, 2))}
        curr = {"head.stem": rng.normal(size=(2, 2)), "head.cls": rng.normal(size=(3, 2))}
        out = incremental_head_concat(prev, curr, axis=0, replace_names={"head.stem"})
        assert out["head.stem"] is curr["head.stem"]
        assert out["head.cls"].shape == (4, 2)

    def test_replace_with_changed_shape_rejected(self, rng):
        prev = {"head.stem": rng.normal(size=(2, 2))}
        curr = {"head.stem": rng.normal(size=(3, 2))}
        with pytest.raises(ShapeError, match="replace"):
            incremental_head_concat(prev, curr, axis=0, replace_names={"head.stem"})


class TestAssemble:
    def test_union_sizes(self, rng):
        shared = {f"s{i}": rng.normal(size=2) for i in range(10)}
        head = {f"h{i}": rng.normal(size=2) for i in range(4)}
        out = assemble_incremental(shared, head)
        assert len(out) == 14
        assert list(out)[:10] == list(shared)

    def test_overlap_names_the_key(self, rng):
        shared = {"x": rng.normal(size=2)}
        with pytest.raises(KeyMismatchError, match="'x'"):
            assemble_incremental(shared, {"x": rng.normal(size=2)})

    def test_repartition_roundtrip(self, simple_spec, rng):
        shared = {"backbone.w": rng.normal(size=2), "neck.w": rng.normal(size=3)}
        head = {"head.w": rng.normal(size=(2, 2))}
        assembled = assemble_incremental(shared, head)
        shared_again, head_again = partition_checkpoint(assembled, simple_spec)
        assert list(shared_again) == list(shared)
        assert list(head_again) == list(head)


def build_sequence_inputs(rng, n_tasks: int, spec: PartitionSpec):
    base = {
        "backbone.w": rng.normal(size=(8, 4)).astype(np.float32),
        "neck.w": rng.normal(size=(6, 8)).astype(np.float32),
        "head.cls": rng.normal(size=(2, 6)).astype(np.float32),
    }
    fine = []
    for _ in range(n_tasks):
        fine.append(
            {
                "backbone.w": rng.normal(size=(8, 4)).astype(np.float32),
                "neck.w": rng.normal(size=(6, 8)).astype(np.float32),
                "head.cls": rng.normal(size=(int(rng.integers(1, 4)), 6)).astype(np.float32),
            }
        )
    return base, fine


def staged_sequence_oracle(base, fine, spec, cfg):
    """From-scratch per-stage evaluation: recompute both task vectors from the
    materialized previous output, merge with the direct formula, concat heads."""
    base_shared, _ = partition_checkpoint(base, spec)
    outputs = [dict(fine[0])]
    for t in range(1, len(fine)):
        prev = outputs[t - 1]
        merged = {}
        for name, base_layer in base_shared.items():
            tau_old = (prev[name].astype(np.float64) - base_layer.astype(np.float64)).astype(
                base_layer.dtype
            )
            tau_curr = (fine[t][name].astype(np.float64) - base_layer.astype(np.float64)).astype(
                base_layer.dtype
            )
            _, alpha, beta = direct_coefficients(
                tau_old.astype(np.float64), tau_curr.astype(np.float64), cfg
            )
            merged[name] = (
                base_layer.astype(np.float64)
                + alpha * tau_old.astype(np.float64)
                + beta * tau_curr.astype(np.float64)
            ).astype(base_layer.dtype)
        head = {"head.cls": np.concatenate([fine[t]["head.cls"], prev["head.cls"]], axis=0)}
        outputs.append({**merged, **head})
    return outputs


class TestIncrementalSequence:
    def test_single_task_passes_through_verbatim(self, simple_spec, rng):
        base, fine = build_sequence_inputs(rng, 1, simple_spec)
        checkpoints, reports = incremental_sequence(base, fine, simple_spec)
        assert reports == [None]
        assert list(checkpoints[0]) == list(fine[0])
        for name in fine[0]:
            np.testing.assert_array_equal(checkpoints[0][name], fine[0][name])

    def test_identical_tasks_keep_shared_weights(self, simple_spec, rng):
        base, fine = build_sequence_inputs(rng, 1, simple_spec)
        fine = [fine[0], {k: v.copy() for k, v in fine[0].items()}]
        checkpoints, _ = incremental_sequence(base, fine, simple_spec)
        for name in ("backbone.w", "neck.w"):
            expected = fine[0][name].astype(np.float64)
            got = checkpoints[1][name].astype(np.float64)
            # rounding scale is set by the largest operand in base + tau
            magnitude = np.maximum(np.abs(expected), np.abs(base[name].astype(np.float64)))
            spacing = np.spacing(magnitude.astype(np.float32)).astype(np.float64)
            assert np.all(np.abs(got - expected) <= spacing)

    def test_three_stage_sequence_matches_staged_oracle(self, simple_spec, rng):
        cfg = MergeConfig()
        base, fine = build_sequence_inputs(rng, 3, simple_spec)
        checkpoints, reports = incremental_sequence(base, fine, simple_spec, cfg)
        expected = staged_sequence_oracle(base, fine, simple_spec, cfg)
        assert len(checkpoints) == 3
        for got, want in zip(checkpoints, expected):
            assert list(got) == list(want)
            for name in want:
                np.testing.assert_array_equal(got[name], want[name], err_msg=name)
        assert reports[0] is None and reports[1] is not None

    def test_sequence_from_files(self, simple_spec, rng, tmp_path):
        from duet.checkpoint import write_checkpoint

        cfg = MergeConfig()
        base, fine = build_sequence_inputs(rng, 3, simple_spec)
        base_path = tmp_path / "base.st"
        write_checkpoint(base, base_path)
        paths = []
        for i, ckpt in enumerate(fine):
            path = tmp_path / f"ft{i}.st"
            write_checkpoint(ckpt, path)
            paths.append(path)
        from_files, _ = incremental_sequence(base_path, paths, simple_spec, cfg)
        in_memory, _ = incremental_sequence(base, fine, simple_spec, cfg)
        for got, want in zip(from_files, in_memory):
            for name in want:
                np.testing.assert_array_equal(got[name], want[name])

    def test_thread_count_does_not_change_bits(self, simple_spec, rng):
        # More shared layers than the 2 * threads in-flight window, so later
        # layers are read while earlier ones are rotated.
        sizes = [int(n) for n in rng.integers(1, 64, size=12)]

        def model(head_rows: int) -> dict:
            ckpt = {
                f"backbone.l{i:02d}": rng.normal(size=n).astype(np.float32)
                for i, n in enumerate(sizes)
            }
            ckpt["head.cls"] = rng.normal(size=(head_rows, 6)).astype(np.float32)
            return ckpt

        base = model(2)
        fine = [model(int(rng.integers(1, 4))) for _ in range(4)]
        serial, threaded = (
            list(iter_incremental_sequence(base, fine, simple_spec, threads=threads))
            for threads in (1, 2)
        )
        assert len(serial) == len(threaded) == 4
        for one, two in zip(serial, threaded):
            assert list(one.checkpoint) == list(two.checkpoint)
            for name, arr in one.checkpoint.items():
                assert arr.dtype == two.checkpoint[name].dtype
                assert arr.tobytes() == two.checkpoint[name].tobytes(), name
            if one.report is None:
                assert two.report is None
            else:
                assert one.report.to_json() == two.report.to_json()

    def test_empty_sequence_rejected(self, simple_spec, rng):
        base, _ = build_sequence_inputs(rng, 1, simple_spec)
        with pytest.raises(EmptyInputError):
            incremental_sequence(base, [], simple_spec)

    def test_mismatched_shared_keys_rejected(self, simple_spec, rng):
        base, fine = build_sequence_inputs(rng, 1, simple_spec)
        del fine[0]["neck.w"]
        fine[0]["neck.other"] = np.zeros(2, dtype=np.float32)
        with pytest.raises(KeyMismatchError):
            incremental_sequence(base, fine, simple_spec)


class TestBaselineMergers:
    def test_average_single_vector_adds_it(self, fingerprinted_base, rng):
        base, fp = fingerprinted_base
        deltas = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}
        merged = weight_average_merge(base, fp, [tv(deltas, fp)])
        for name in base:
            expected = (base[name].astype(np.float64) + deltas[name].astype(np.float64)).astype(
                np.float32
            )
            np.testing.assert_array_equal(merged[name], expected)

    def test_opposite_vectors_cancel(self, fingerprinted_base, rng):
        base, fp = fingerprinted_base
        deltas = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}
        negated = {k: (-v).astype(np.float32) for k, v in deltas.items()}
        merged = weight_average_merge(base, fp, [tv(deltas, fp), tv(negated, fp)])
        for name in base:
            np.testing.assert_array_equal(merged[name], base[name])

    def test_average_matches_mean_oracle(self, fingerprinted_base, rng):
        base, fp = fingerprinted_base
        vectors = [
            tv({k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}, fp)
            for _ in range(3)
        ]
        merged = weight_average_merge(base, fp, vectors)
        for name in base:
            mean = np.mean([vec.deltas[name].astype(np.float64) for vec in vectors], axis=0)
            expected = base[name].astype(np.float64) + mean
            scale = np.maximum(np.abs(expected), 1.0)
            assert np.max(np.abs(merged[name].astype(np.float64) - expected) / scale) <= 1e-7

    def test_average_permutation_invariant(self, fingerprinted_base, rng):
        base, fp = fingerprinted_base
        vectors = [
            tv({k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}, fp)
            for _ in range(4)
        ]
        forward = weight_average_merge(base, fp, vectors)
        backward = weight_average_merge(base, fp, vectors[::-1])
        for name in base:
            np.testing.assert_allclose(
                forward[name].astype(np.float64),
                backward[name].astype(np.float64),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_magmax_hand_pick(self):
        base = {"w": np.float64([0.0, 0.0])}
        fp = fingerprint_map(base)
        merged = magmax_merge(
            base, fp, [tv({"w": np.float64([3.0, -1.0])}, fp), tv({"w": np.float64([-2.0, 4.0])}, fp)]
        )
        assert merged["w"].tolist() == [3.0, 4.0]

    def test_magmax_all_zero_returns_base(self, fingerprinted_base):
        base, fp = fingerprinted_base
        zeros = {k: np.zeros_like(v) for k, v in base.items()}
        merged = magmax_merge(base, fp, [tv(zeros, fp), tv(dict(zeros), fp)])
        for name in base:
            np.testing.assert_array_equal(merged[name], base[name])

    def test_magmax_tie_keeps_first_vector(self):
        base = {"w": np.float64([10.0])}
        fp = fingerprint_map(base)
        merged = magmax_merge(
            base, fp, [tv({"w": np.float64([-2.0])}, fp), tv({"w": np.float64([2.0])}, fp)]
        )
        assert merged["w"].tolist() == [8.0]

    def test_empty_vector_list_rejected(self, fingerprinted_base):
        base, fp = fingerprinted_base
        with pytest.raises(EmptyInputError):
            weight_average_merge(base, fp, [])
        with pytest.raises(EmptyInputError):
            magmax_merge(base, fp, [])

    def test_foreign_base_rejected(self, fingerprinted_base):
        base, fp = fingerprinted_base
        zeros = {k: np.zeros_like(v) for k, v in base.items()}
        with pytest.raises(BaseMismatchError):
            weight_average_merge(base, fp, [tv(zeros, "other")])
