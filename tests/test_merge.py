from __future__ import annotations

import csv
import gc
import io
import json
import math
import os
import tempfile
import weakref
from contextlib import ExitStack
from itertools import chain
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import duet.cli
import duet.diagnostics
import duet.merge
from duet.checkpoint import (
    CheckpointReader,
    PartitionSpec,
    fingerprint_map,
    partition_checkpoint,
    write_checkpoint,
)
from duet.cli import _csv_pieces, _joined, _write_pieces
from duet.diagnostics import (
    SignConflictReport,
    TensorSignConflicts,
    sign_conflicts,
)
from duet.errors import (
    AxisError,
    BaseMismatchError,
    ConfigError,
    DTypeError,
    DuetError,
    EmptyInputError,
    KeyMismatchError,
    ShapeError,
)
from duet.losses import DcLossConfig
from duet.merge import (
    MergeConfig,
    MergeReport,
    duet_merge,
    incremental_head_concat,
    iter_duet_merge,
    iter_head_concat,
    iter_incremental_sequence,
    iter_magmax_merge,
    iter_weight_average_merge,
)
from duet.metrics import rai
from duet.task_vectors import (
    TaskVector,
    compute_task_vector,
    open_task_vector,
    save_task_vector,
    zero_task_vector,
)
from duet.tensors import _BLOCK, TensorLayout, l1_norm
from tests.conftest import make_map, read_steps
from tests.test_tensors import BLOCK_EDGE_LENGTHS, spread_values, with_warning_kinds


def tv(deltas: dict, fp: str = "fp", label: str = "") -> TaskVector:
    return TaskVector(deltas=deltas, base_fingerprint=fp, label=label)


def vector_form(form: str, fine: dict, base: dict, fp: str, directory, stack) -> TaskVector:
    """``fine - base`` as a task vector of one form: a map of arrays, deltas
    computed on lookup, or a bundle opened as a reader; or the zero vector."""
    if form == "zero":
        return zero_task_vector(base, fp)
    computed = compute_task_vector(fine, base, fp)
    if form == "computed":
        return computed
    if form == "map":
        return tv(dict(computed.deltas), fp)
    save_task_vector(computed, directory)
    return open_task_vector(directory, stack)


def direct_coefficients(old: np.ndarray, curr: np.ndarray, cfg: MergeConfig):
    """Single-expression re-derivation of the coefficient equations."""
    n_old = float(np.abs(np.asarray(old, dtype=np.float64)).sum())
    n_curr = float(np.abs(np.asarray(curr, dtype=np.float64)).sum())
    n_sum = float(np.abs(np.asarray(old, dtype=np.float64) + np.asarray(curr, dtype=np.float64)).sum())
    p = (n_old - n_curr) / (n_sum + cfg.epsilon)
    alpha = cfg.alpha_base + max(-cfg.gamma, min(cfg.gamma, cfg.gamma * math.tanh(p)))
    return p, alpha, 1.0 - alpha


def merged_layer_coefficients(
    tau_old_l: np.ndarray, tau_curr_l: np.ndarray, config: MergeConfig | None = None
) -> tuple[float, float, float, float]:
    """``(p, delta, alpha, beta)`` of one layer, from the record of a
    one-layer :func:`duet_merge` onto a zero base."""
    base = {"w": np.zeros(np.shape(tau_old_l), dtype=np.asarray(tau_old_l).dtype)}
    _, report = duet_merge(base, "fp", tv({"w": tau_old_l}), tv({"w": tau_curr_l}), config)
    (record,) = report.layers
    return record.p, record.delta, record.alpha, record.beta


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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MergeConfig(gamma=0.7),
            lambda: DcLossConfig(granularity="row"),
            lambda: rai(-1.0, 50.0),
            lambda: incremental_head_concat({}, {}, 0, order="sideways"),
        ],
        ids=["MergeConfig", "DcLossConfig", "rai", "head-order"],
    )
    def test_out_of_range_options_raise_config_error(self, build):
        with pytest.raises(ConfigError) as info:
            build()
        assert isinstance(info.value, DuetError) and isinstance(info.value, ValueError)


class TestLayerCoefficients:
    def test_symmetric_case_returns_base_coefficient(self):
        layer = np.float64([0.5, -1.5])
        p, delta, alpha, beta = merged_layer_coefficients(layer, layer.copy())
        assert (p, delta) == (0.0, 0.0)
        assert alpha == 0.5 and beta == 0.5

    def test_zero_current_case(self):
        p, delta, alpha, beta = merged_layer_coefficients(
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
            p, delta, alpha, beta = merged_layer_coefficients(old, curr, cfg)
            p_ref, alpha_ref, beta_ref = direct_coefficients(old, curr, cfg)
            assert abs(p - p_ref) <= 1e-12 * max(1.0, abs(p_ref))
            assert abs(alpha - alpha_ref) <= 1e-12
            assert abs(beta - beta_ref) <= 1e-12
            assert alpha + beta == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            merged_layer_coefficients(np.zeros(2), np.zeros(3))

    def test_all_zero_layers_fall_back_to_base(self):
        p, delta, alpha, beta = merged_layer_coefficients(np.zeros(4), np.zeros(4))
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
            _, _, alpha, _ = merged_layer_coefficients(old, curr)
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
        p, delta, alpha, beta = merged_layer_coefficients(old, curr, cfg)
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


    def test_report_fingerprints_hash_each_vector_as_stored(self, fingerprinted_base, rng):
        base, fp = fingerprinted_base
        # f64 bundles over an f32 base, one of them stored in another order
        old = {k: rng.normal(size=v.shape) for k, v in base.items()}
        curr = {k: rng.normal(size=v.shape) for k, v in base.items()}
        reordered = dict(reversed(list(curr.items())))
        for tau_old, tau_curr in ((old, curr), (old, reordered), (reordered, old)):
            _, report = duet_merge(base, fp, tv(tau_old, fp), tv(tau_curr, fp), threads=2)
            assert report.old_fingerprint == fingerprint_map(tau_old)
            assert report.curr_fingerprint == fingerprint_map(tau_curr)
            assert report.sign_conflicts.to_dict() == sign_conflicts(tau_old, tau_curr).to_dict()

    @pytest.mark.parametrize("old_form", ["map", "computed", "bundle", "zero"])
    @pytest.mark.parametrize("curr_form", ["map", "computed", "bundle", "zero"])
    def test_any_mix_of_vector_forms_merges_like_maps(self, old_form, curr_form, rng, tmp_path):
        base = {
            "backbone.big": rng.normal(size=40_000).astype(np.float32),  # merged alone
            "backbone.w": rng.normal(size=(6, 4)).astype(np.float32),
            "neck.w": rng.normal(size=(6, 4)).astype(np.float32),
            "neck.b": rng.normal(size=6),
        }
        fp = fingerprint_map(base)
        fine = [{name: arr + rng.normal(size=arr.shape).astype(arr.dtype) for name, arr in base.items()}
                for _ in "oc"]
        with ExitStack() as stack:
            old = vector_form(old_form, fine[0], base, fp, tmp_path / "old", stack)
            curr = vector_form(curr_form, fine[1], base, fp, tmp_path / "curr", stack)
            maps = [tv(dict(vector.deltas), fp) for vector in (old, curr)]
            want_report, want = iter_duet_merge(base, fp, *maps)
            want = [(name, arr.dtype, arr.tobytes()) for name, arr in want]
            report, layers = iter_duet_merge(base, fp, old, curr)
            assert [(name, arr.dtype, arr.tobytes()) for name, arr in layers] == want
        assert report.to_json() == want_report.to_json()


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

    def test_the_stream_form_plans_its_layout_from_the_layouts(self, rng):
        prev = {"head.stem": rng.normal(size=(2, 2)), "head.cls": rng.normal(size=(1, 2))}
        curr = {"head.stem": rng.normal(size=(2, 2)), "head.cls": rng.normal(size=(3, 2))}
        # Layouts alone give the joined layout and every check; blocks are read as joined.
        layouts = [{k: TensorLayout(v.dtype, v.shape) for k, v in m.items()} for m in (prev, curr)]
        layout, _ = iter_head_concat(*layouts, axis=0, replace_names={"head.stem"})
        assert layout == {"head.stem": TensorLayout(np.dtype("f8"), (2, 2)),
                          "head.cls": TensorLayout(np.dtype("f8"), (4, 2))}
        with pytest.raises(ShapeError, match="replace"):
            iter_head_concat(*layouts, axis=0, replace_names={"head.stem", "head.cls"})
        same, layers = iter_head_concat(prev, curr, axis=0, replace_names={"head.stem"})
        joined = dict(layers)
        assert same == layout
        assert {k: (v.dtype, v.shape) for k, v in joined.items()} == {
            k: (spec.dtype, spec.shape) for k, spec in layout.items()}

    def test_replace_with_changed_shape_rejected(self, rng):
        prev = {"head.stem": rng.normal(size=(2, 2))}
        curr = {"head.stem": rng.normal(size=(3, 2))}
        with pytest.raises(ShapeError, match="replace"):
            incremental_head_concat(prev, curr, axis=0, replace_names={"head.stem"})


class TestAssemble:
    def test_repartition_roundtrip(self, simple_spec, rng):
        shared = {"backbone.w": rng.normal(size=2), "neck.w": rng.normal(size=3)}
        head = {"head.w": rng.normal(size=(2, 2))}
        assembled = {**shared, **head}
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
        steps = list(read_steps(iter_incremental_sequence(base, fine, simple_spec)))
        checkpoints = [step.checkpoint for step in steps]
        assert [step.report for step in steps] == [None]
        assert list(checkpoints[0]) == list(fine[0])
        for name in fine[0]:
            np.testing.assert_array_equal(checkpoints[0][name], fine[0][name])

    def test_identical_tasks_keep_shared_weights(self, simple_spec, rng):
        base, fine = build_sequence_inputs(rng, 1, simple_spec)
        fine = [fine[0], {k: v.copy() for k, v in fine[0].items()}]
        steps = read_steps(iter_incremental_sequence(base, fine, simple_spec))
        checkpoints = [step.checkpoint for step in steps]
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
        steps = list(read_steps(iter_incremental_sequence(base, fine, simple_spec, cfg)))
        expected = staged_sequence_oracle(base, fine, simple_spec, cfg)
        assert len(steps) == 3
        for got, want in zip([step.checkpoint for step in steps], expected):
            assert list(got) == list(want)
            for name in want:
                np.testing.assert_array_equal(got[name], want[name], err_msg=name)
        assert steps[0].report is None and steps[1].report is not None

    def test_sequence_from_files(self, simple_spec, rng, tmp_path):
        cfg = MergeConfig()
        base, fine = build_sequence_inputs(rng, 3, simple_spec)
        base_path = tmp_path / "base.st"
        write_checkpoint(base, base_path)
        paths = []
        for i, ckpt in enumerate(fine):
            path = tmp_path / f"ft{i}.st"
            write_checkpoint(ckpt, path)
            paths.append(path)
        from_files = list(read_steps(iter_incremental_sequence(base_path, paths, simple_spec, cfg)))
        in_memory = list(read_steps(iter_incremental_sequence(base, fine, simple_spec, cfg)))
        assert len(from_files) == len(in_memory) == 3
        for got, want in zip(from_files, in_memory):
            got, want = got.checkpoint, want.checkpoint
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
            list(read_steps(iter_incremental_sequence(base, fine, simple_spec, threads=threads)))
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

    def test_reports_fingerprint_the_task_vectors(self, simple_spec, rng):
        base, fine = build_sequence_inputs(rng, 3, simple_spec)
        base_shared, _ = partition_checkpoint(base, simple_spec)
        steps = list(read_steps(iter_incremental_sequence(base, fine, simple_spec)))
        checkpoints, reports = [s.checkpoint for s in steps], [s.report for s in steps]
        for k in (1, 2):
            old = compute_task_vector(partition_checkpoint(checkpoints[k - 1], simple_spec)[0],
                                      base_shared, "")
            curr = compute_task_vector(partition_checkpoint(fine[k], simple_spec)[0], base_shared, "")
            assert reports[k].base_fingerprint == fingerprint_map(base)
            assert reports[k].old_fingerprint == fingerprint_map(old.deltas)
            assert reports[k].curr_fingerprint == fingerprint_map(curr.deltas)
            assert reports[k].sign_conflicts.to_dict() == sign_conflicts(old, curr).to_dict()

    def test_first_task_layout_checked_before_it_is_yielded(self, simple_spec, rng):
        base, fine = build_sequence_inputs(rng, 1, simple_spec)
        fine[0]["backbone.w"] = fine[0]["backbone.w"].astype(np.float64)
        with pytest.raises(DTypeError, match="backbone.w"):
            next(iter_incremental_sequence(base, fine, simple_spec))

    def test_head_order_checked_when_the_driver_is_called(self, simple_spec, rng):
        base, fine = build_sequence_inputs(rng, 2, simple_spec)
        with pytest.raises(ConfigError, match="sideways"):
            iter_incremental_sequence(base, fine, simple_spec, head_order="sideways")

    def test_concat_axis_checked_before_task_1_is_yielded(self, rng):
        spec = PartitionSpec(("backbone.*", "neck.*"), ("head.*",), head_concat_axis=5)
        base, fine = build_sequence_inputs(rng, 2, spec)
        with pytest.raises(AxisError, match="head.cls"):
            next(iter_incremental_sequence(base, fine, spec))

    def test_empty_sequence_rejected(self, simple_spec, rng):
        base, _ = build_sequence_inputs(rng, 1, simple_spec)
        with pytest.raises(EmptyInputError):
            list(iter_incremental_sequence(base, [], simple_spec))

    def test_paths_and_maps_mix_freely(self, simple_spec, rng, tmp_path):
        base, fine = build_sequence_inputs(rng, 3, simple_spec)
        base_path = tmp_path / "base.st"
        write_checkpoint(base, base_path)
        paths = [tmp_path / f"ft{i}.st" for i in range(len(fine))]
        for ckpt, path in zip(fine, paths):
            write_checkpoint(ckpt, path)

        def run(base_input, items) -> list:
            return [
                (
                    [(name, arr.dtype, arr.tobytes()) for name, arr in step.checkpoint.items()],
                    step.report.to_json() if step.report else None,
                )
                for step in read_steps(iter_incremental_sequence(base_input, items, simple_spec))
            ]

        in_memory = run(base, fine)
        assert run(base_path, fine) == in_memory
        assert run(base, paths) == in_memory
        # An open reader reads as a map, and the sequence leaves it open.
        with CheckpointReader(base_path) as base_reader:
            readers = [CheckpointReader(path) for path in paths]
            try:
                assert run(base_reader, readers) == in_memory
                assert run(base_reader, [fine[0], readers[1], paths[2]]) == in_memory
                for reader in (base_reader, *readers):  # still open: it reads
                    assert list(reader) == list(dict(reader))
            finally:
                for reader in readers:
                    reader.close()

    def test_directory_entries_open_as_paths(self, simple_spec, rng, tmp_path):
        base, fine = build_sequence_inputs(rng, 2, simple_spec)
        for name, ckpt in zip(("base.st", "ft0.st", "ft1.st"), (base, *fine)):
            write_checkpoint(ckpt, tmp_path / name)
        entries = {entry.name: entry for entry in os.scandir(tmp_path)}
        from_entries = read_steps(iter_incremental_sequence(
            entries["base.st"], [entries["ft0.st"], entries["ft1.st"]], simple_spec
        ))
        in_memory = read_steps(iter_incremental_sequence(base, fine, simple_spec))
        for got, want in zip(from_entries, in_memory):
            assert got.checkpoint.keys() == want.checkpoint.keys()
            assert all(got.checkpoint[n].tobytes() == a.tobytes() for n, a in want.checkpoint.items())

    def test_task_with_other_shared_keys_closes_its_reader(
        self, simple_spec, rng, tmp_path, monkeypatch
    ):
        base, fine = build_sequence_inputs(rng, 2, simple_spec)
        fine[1]["neck.other"] = np.zeros(2, dtype=np.float32)
        paths = [tmp_path / f"{i}.st" for i in range(3)]
        for ckpt, path in zip([base, *fine], paths):
            write_checkpoint(ckpt, path)
        opened = []

        class RecordingReader(CheckpointReader):
            def __init__(self, source):
                super().__init__(source)
                self.was_closed = False
                opened.append(self)

            def close(self):
                self.was_closed = True
                super().close()

        monkeypatch.setattr(duet.merge, "CheckpointReader", RecordingReader)
        steps = iter_incremental_sequence(paths[0], paths[1:], simple_spec)
        next(steps)
        with pytest.raises(KeyMismatchError, match="task 2"):
            next(steps)
        assert len(opened) == 3
        assert all(reader.was_closed for reader in opened)

    def test_the_base_reader_is_not_kept(self, simple_spec, rng, tmp_path, monkeypatch):
        base, fine = build_sequence_inputs(rng, 2, simple_spec)
        write_checkpoint(base, tmp_path / "base.st")
        opened = []

        class RecordingReader(CheckpointReader):
            def __init__(self, source):
                super().__init__(source)
                opened.append(weakref.ref(self))

        monkeypatch.setattr(duet.merge, "CheckpointReader", RecordingReader)
        steps = iter_incremental_sequence(tmp_path / "base.st", fine, simple_spec)
        next(steps)
        gc.collect()
        assert len(opened) == 1 and opened[0]() is None
        assert next(steps).report is not None

    def test_an_unread_stream_is_finished_before_the_next_step(self, simple_spec, rng):
        base, fine = build_sequence_inputs(rng, 3, simple_spec)
        read = list(read_steps(iter_incremental_sequence(base, fine, simple_spec)))
        steps = iter_incremental_sequence(base, fine, simple_spec)
        first, second = next(steps), next(steps)  # neither stream is read
        third = next(steps)
        assert list(second.layers) == []  # the driver read it to its end
        assert second.report.to_json() == read[1].report.to_json()
        got = dict(third.layers)
        assert list(got) == list(read[2].checkpoint)
        assert all(got[name].tobytes() == arr.tobytes() for name, arr in read[2].checkpoint.items())
        assert third.report.to_json() == read[2].report.to_json()

    def test_a_report_read_before_its_stream_is_complete(self, simple_spec, rng):
        base, fine = build_sequence_inputs(rng, 3, simple_spec)
        read = list(read_steps(iter_incremental_sequence(base, fine, simple_spec)))
        for already_read in (0, 1):
            steps = iter_incremental_sequence(base, fine, simple_spec)
            next(steps)
            second = next(steps)
            got = dict(next(second.layers) for _ in range(already_read))
            assert second.report.to_json() == read[1].report.to_json()
            got.update(second.layers)  # the stream yields the rest from what it kept
            assert list(got) == list(read[1].checkpoint)
            assert all(got[name].tobytes() == arr.tobytes()
                       for name, arr in read[1].checkpoint.items())
            third = next(steps)
            assert third.report.to_json() == read[2].report.to_json()

    def test_mismatched_shared_keys_rejected(self, simple_spec, rng):
        base, fine = build_sequence_inputs(rng, 1, simple_spec)
        del fine[0]["neck.w"]
        fine[0]["neck.other"] = np.zeros(2, dtype=np.float32)
        with pytest.raises(KeyMismatchError):
            list(iter_incremental_sequence(base, fine, simple_spec))


class TestDigestOrder:
    """Each vector's digest takes its layers in base order, whichever thread
    hashes them: large layers go to the I/O thread while they merge, windows
    of small ones are hashed as they are consumed."""

    SIZES = (10, _BLOCK + 8, 7, 9, 2 * _BLOCK, _BLOCK + 1, 5, 3 * _BLOCK, 3, 11, _BLOCK + 16)

    def models(self, rng) -> tuple[dict, dict, dict]:
        base = {f"backbone.l{i:02d}": rng.normal(size=n).astype(np.float32)
                for i, n in enumerate(self.SIZES)}
        old, curr = ({name: arr + rng.normal(scale=0.01, size=arr.size).astype(np.float32)
                      for name, arr in base.items()} for _ in range(2))
        return base, old, curr

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("form", ["maps", "lazy", "sequence"])
    def test_the_fingerprints_are_those_of_the_deltas(self, rng, threads, form):
        base, old, curr = self.models(rng)
        deltas = [dict(compute_task_vector(model, base, "fp").deltas) for model in (old, curr)]

        def run() -> tuple:
            if form == "sequence":
                head = {"head.cls": np.ones((1, 3), np.float32)}
                steps = read_steps(iter_incremental_sequence(
                    base | head, [old | head, curr | head], _SPEC, threads=threads))
                *_, last = steps
                return last.report, last.checkpoint
            if form == "maps":
                vectors = [tv(d) for d in deltas]
            else:
                vectors = [compute_task_vector(model, base, "fp") for model in (old, curr)]
            report, layers = iter_duet_merge(base, "fp", *vectors, threads=threads)
            return report, dict(layers)

        report, merged = run()
        assert (report.old_fingerprint, report.curr_fingerprint) == tuple(
            fingerprint_map(d) for d in deltas)
        again, merged_again = run()
        assert again.to_json() == report.to_json()
        assert [a.tobytes() for a in merged.values()] == [
            a.tobytes() for a in merged_again.values()]


class TestBaselineMergers:
    def test_average_single_vector_adds_it(self, fingerprinted_base, rng):
        base, fp = fingerprinted_base
        deltas = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}
        merged = dict(iter_weight_average_merge(base, fp, [tv(deltas, fp)]))
        for name in base:
            expected = (base[name].astype(np.float64) + deltas[name].astype(np.float64)).astype(
                np.float32
            )
            np.testing.assert_array_equal(merged[name], expected)

    def test_opposite_vectors_cancel(self, fingerprinted_base, rng):
        base, fp = fingerprinted_base
        deltas = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}
        negated = {k: (-v).astype(np.float32) for k, v in deltas.items()}
        merged = dict(iter_weight_average_merge(base, fp, [tv(deltas, fp), tv(negated, fp)]))
        for name in base:
            np.testing.assert_array_equal(merged[name], base[name])

    def test_average_matches_mean_oracle(self, fingerprinted_base, rng):
        base, fp = fingerprinted_base
        vectors = [
            tv({k: rng.normal(size=v.shape).astype(np.float32) for k, v in base.items()}, fp)
            for _ in range(3)
        ]
        merged = dict(iter_weight_average_merge(base, fp, vectors))
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
        forward = dict(iter_weight_average_merge(base, fp, vectors))
        backward = dict(iter_weight_average_merge(base, fp, vectors[::-1]))
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
        vectors = [tv({"w": np.float64([3.0, -1.0])}, fp), tv({"w": np.float64([-2.0, 4.0])}, fp)]
        merged = dict(iter_magmax_merge(base, fp, vectors))
        assert merged["w"].tolist() == [3.0, 4.0]

    def test_magmax_all_zero_returns_base(self, fingerprinted_base):
        base, fp = fingerprinted_base
        zeros = {k: np.zeros_like(v) for k, v in base.items()}
        merged = dict(iter_magmax_merge(base, fp, [tv(zeros, fp), tv(dict(zeros), fp)]))
        for name in base:
            np.testing.assert_array_equal(merged[name], base[name])

    def test_magmax_tie_keeps_first_vector(self):
        base = {"w": np.float64([10.0])}
        fp = fingerprint_map(base)
        vectors = [tv({"w": np.float64([-2.0])}, fp), tv({"w": np.float64([2.0])}, fp)]
        merged = dict(iter_magmax_merge(base, fp, vectors))
        assert merged["w"].tolist() == [8.0]

    def test_empty_vector_list_rejected(self, fingerprinted_base):
        base, fp = fingerprinted_base
        with pytest.raises(EmptyInputError):
            dict(iter_weight_average_merge(base, fp, []))
        with pytest.raises(EmptyInputError):
            dict(iter_magmax_merge(base, fp, []))

    def test_foreign_base_rejected(self, fingerprinted_base):
        base, fp = fingerprinted_base
        zeros = {k: np.zeros_like(v) for k, v in base.items()}
        with pytest.raises(BaseMismatchError):
            dict(iter_weight_average_merge(base, fp, [tv(zeros, "other")]))


# -- the windowed merge against the per-layer path --------------------------

_SIZES = (1, 7, 8, 9, 127, 128, 129, 4096)
# (base dtype, delta dtype): a vector may hold f64 deltas over an f32 base.
_DTYPES = ((np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64))


def _per_layer(layout):
    """Every layer as its own unit: a large layer alone, a small one as a
    window of one."""
    return iter([name if layout[name].size > 32768 else [name] for name in layout])


def _alone_statistics(old: np.ndarray, curr: np.ndarray) -> list:
    """What ``l1_norm`` gives of a row-major layer alone, and its sign counts
    from whole-array numpy."""
    old, curr = np.ascontiguousarray(old), np.ascontiguousarray(curr)
    with np.errstate(over="ignore"):  # huge f64 layers: infinite norms, as in the merge
        norms = (l1_norm(old), l1_norm(curr), l1_norm(np.add(old, curr, dtype=np.float64)))
    nonzero = (old != 0) & (curr != 0)
    conflicts = np.count_nonzero(nonzero & (np.sign(old) != np.sign(curr)))
    counts = TensorSignConflicts(int(conflicts), int(np.count_nonzero(nonzero)))
    return [norm.hex() for norm in norms] + [counts]


def _check_against_the_kernels(report: MergeReport, old: dict, curr: dict):
    """Each record's norms, as exact hex strings, and its sign counts have
    the bits of the kernels'."""
    for record in report.layers:
        name = record.layer_name
        norms = (record.norm_old, record.norm_curr, record.norm_sum)
        got = [norm.hex() for norm in norms] + [report.sign_conflicts.per_tensor[name]]
        assert got == _alone_statistics(old[name], curr[name]), name


def _outputs(merged: dict, reports: list) -> tuple:
    layers = [(name, arr.dtype.str, arr.shape, arr.tobytes()) for name, arr in merged.items()]
    return layers, [report.to_json() for report in reports]


@st.composite
def windowed_layouts(draw):
    """Layers drawn from a few (size, dtypes) templates, so that windows hold
    groups of one and of many; each layer's deltas are random, all zero (a
    norm of 0) or huge (infinite f64 norms: a NaN p and a delta clamp)."""
    templates = draw(
        st.lists(st.tuples(st.sampled_from(_SIZES), st.sampled_from(_DTYPES)), min_size=1,
                 max_size=4)
    )
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(templates) - 1),
                      st.sampled_from(("normal", "zero", "huge"))),
            min_size=1,
            max_size=20,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base, old, curr = {}, {}, {}
    for i, (template, fill) in enumerate(picks):
        size, (base_dtype, delta_dtype) = templates[template]
        shape = (2, size // 2) if size % 2 == 0 and template % 2 else (size,)
        name = f"backbone.l{i:02d}"
        base[name] = rng.normal(size=shape).astype(base_dtype)
        if fill == "zero":
            old[name] = np.zeros(shape, delta_dtype)
            curr[name] = np.zeros(shape, delta_dtype)
        elif fill == "huge":
            old[name] = np.full(shape, np.finfo(delta_dtype).max / 2, delta_dtype)
            curr[name] = -old[name]
        else:
            old[name] = rng.normal(scale=0.01, size=shape).astype(delta_dtype)
            curr[name] = rng.normal(scale=0.01, size=shape).astype(delta_dtype)
    return base, old, curr


_SPEC = PartitionSpec(("backbone.*",), ("head.*",), head_concat_axis=0)


class TestWindowedMerge:
    # The huge layers' norms overflow to inf, and p to NaN.
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @settings(max_examples=40, deadline=None)
    @given(layout=windowed_layouts(), threads=st.sampled_from((1, 2)))
    def test_windows_match_the_per_layer_path(self, layout, threads):
        base, old, curr = layout

        def run():
            merged, report = duet_merge(base, "fp", tv(old), tv(curr), threads=threads)
            return _outputs(merged, [report])

        windowed = run()
        with patch.object(duet.merge, "_windows", _per_layer):
            assert run() == windowed
        _, report = duet_merge(base, "fp", tv(old), tv(curr), threads=threads)
        _check_against_the_kernels(report, old, curr)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @settings(max_examples=20, deadline=None)
    @given(layout=windowed_layouts(), threads=st.sampled_from((1, 2)))
    def test_sequence_windows_match_the_per_layer_path(self, layout, threads):
        base, old, curr = layout
        # A sequence's deltas are taken in the base dtype, from finite models.
        base = {name: arr.astype(old[name].dtype) for name, arr in base.items()}
        head = {"head.cls": np.ones((1, 3), np.float32)}
        fine = [
            {name: base[name] + np.clip(deltas[name], -1, 1) for name in base} | head
            for deltas in (old, curr, old)
        ]

        def run():
            steps = list(read_steps(
                iter_incremental_sequence(base | head, fine, _SPEC, threads=threads)))
            return _outputs(steps[-1].checkpoint, [step.report for step in steps[1:]])

        windowed = run()
        with patch.object(duet.merge, "_windows", _per_layer):
            assert run() == windowed

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "case, error, layer",
        [
            ("sequence dtype", DTypeError, "backbone.l3"),
            ("shape", ShapeError, "backbone.l2"),
            ("delta dtypes", DTypeError, "backbone.l4"),
            ("two faults", ShapeError, "backbone.l2"),  # the first in base order
        ],
    )
    def test_a_faulty_layer_in_a_window_raises_the_per_layer_error(self, case, error, layer,
                                                                    threads):
        base = {f"backbone.l{i}": np.full(8, float(i), np.float32) for i in range(6)}
        old = {name: arr + np.float32(0.5) for name, arr in base.items()}
        curr = {name: arr - np.float32(0.5) for name, arr in base.items()}
        if case == "sequence dtype":
            curr["backbone.l3"] = curr["backbone.l3"].astype(np.float64)
        if case in ("shape", "two faults"):
            curr["backbone.l2"] = np.zeros(9, np.float32)
        if case in ("delta dtypes", "two faults"):
            curr["backbone.l4"] = curr["backbone.l4"].astype(np.float64)

        def raised() -> tuple:
            with pytest.raises(DuetError) as info:
                if case == "sequence dtype":
                    list(iter_incremental_sequence(base, [old, curr], _SPEC, threads=threads))
                else:
                    duet_merge(base, "fp", tv(old), tv(curr), threads=threads)
            return type(info.value), str(info.value)

        windowed = raised()
        with patch.object(duet.merge, "_windows", _per_layer):
            assert raised() == windowed
        assert windowed[0] is error and repr(layer) in windowed[1]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_column_major_layer_merges_alone_as_beside_a_partner(self, threads):
        # Its norms are row sums of its row-major copy, alone or stacked.
        rng = np.random.default_rng(17)
        shape = (96, 96)
        spread = lambda: spread_values(rng, 96 * 96, np.float64).reshape(shape)
        base, old, curr = (
            {"backbone.fortran": np.asfortranarray(make()), "backbone.partner": make()}
            for make in (lambda: rng.normal(size=shape), spread, spread)
        )

        def merged(names: list[str]) -> tuple:
            maps = [{name: model[name] for name in names} for model in (base, old, curr)]
            merged, report = duet_merge(maps[0], "fp", tv(maps[1]), tv(maps[2]), threads=threads)
            _check_against_the_kernels(report, old, curr)
            record = report.layers[0]
            signs = report.sign_conflicts.per_tensor[record.layer_name]
            return json.dumps(record.to_dict()), signs, merged[record.layer_name].tobytes()

        assert merged(["backbone.fortran"]) == merged(["backbone.fortran", "backbone.partner"])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_large_layer_fault_raises_before_a_later_window(self, threads):
        # "a" is merged alone, "b" in a window after it: each fault is found
        # on the consuming thread, so the first in base order raises.
        base = {"a": np.zeros(40_000, np.float32), "b": np.zeros(3, np.float32)}
        old = {"a": np.ones(40_000, np.float32), "b": np.ones(3, np.float32)}
        curr = {"a": np.ones(40_000), "b": np.ones(4, np.float32)}
        with pytest.raises(DTypeError, match="^tensor 'a': dtype mismatch float32 vs float64$"):
            duet_merge(base, "fp", tv(old), tv(curr), threads=threads)


# -- the fused statistics walk against the separate kernels -----------------


def _large_layout(base_dtype, delta_dtype) -> tuple[dict, dict, dict]:
    """Layers at the block-edge lengths with spread, all-zero, signed-zero and
    huge deltas (f64: infinite norms, a NaN p), plus a column-major layer."""
    rng = np.random.default_rng(13)
    huge = np.finfo(delta_dtype).max / 2
    fills = {
        "spread": lambda n: (spread_values(rng, n, delta_dtype), spread_values(rng, n, delta_dtype)),
        "zero": lambda n: (np.zeros(n, delta_dtype), np.zeros(n, delta_dtype)),
        "signed_zero": lambda n: (np.full(n, -0.0, delta_dtype),
                                  np.where(rng.random(n) < 0.5, 0.0, -0.0).astype(delta_dtype)),
        "huge": lambda n: (np.full(n, huge, delta_dtype), np.full(n, -huge, delta_dtype)),
    }
    base, old, curr = {}, {}, {}
    for length in BLOCK_EDGE_LENGTHS:
        for fill, make in fills.items():
            if length == BLOCK_EDGE_LENGTHS[-1] and fill != "spread":
                continue
            name = f"backbone.n{length}_{fill}"
            base[name] = rng.normal(size=length).astype(base_dtype)
            old[name], curr[name] = make(length)
    shape = (300, 200)  # column-major deltas, summed row-major
    base["backbone.fortran"] = rng.normal(size=shape).astype(base_dtype)
    old["backbone.fortran"], curr["backbone.fortran"] = (
        np.asfortranarray(spread_values(rng, 60_000, delta_dtype).reshape(shape)) for _ in "oc"
    )
    return base, old, curr


class TestFusedMerge:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("dtypes", _DTYPES, ids=["f32", "f64", "f64_over_f32"])
    def test_merge_matches_the_separate_kernels(self, dtypes, threads):
        base, old, curr = _large_layout(*dtypes)
        walk = duet.merge._layer_statistics_blocks
        with patch.object(duet.merge, "_layer_statistics_blocks", wraps=walk) as fused:
            (merged, report), _ = with_warning_kinds(
                lambda: duet_merge(base, "fp", tv(old), tv(curr), threads=threads)
            )
        # Every layer past one block took the walk, the column-major one too.
        assert fused.call_count == sum(arr.size > 32768 for arr in old.values())
        _check_against_the_kernels(report, old, curr)
        for record in report.layers:
            name = record.layer_name
            wide = [x.astype(np.float64) for x in (base[name], old[name], curr[name])]
            expected = wide[0] + record.alpha * wide[1] + record.beta * wide[2]
            assert merged[name].tobytes() == expected.astype(base[name].dtype).tobytes(), name
        if dtypes[1] is np.float64:  # the huge layers' norms overflow, and p is NaN
            assert any(math.isnan(record.p) for record in report.layers)
            assert report.warnings


class TestZeroDimensionalLayers:
    """A 0-d layer merges with the bits of the same value as a 1-element
    layer: alone, and stacked with another 0-d layer."""

    @staticmethod
    def maps(shape) -> tuple[dict, dict, dict]:
        rng = np.random.default_rng(21)
        # The f64 scale is merged alone, the f32 bias and gain as one group.
        dtypes = {"backbone.scale": np.float64, "backbone.bias": np.float32,
                  "backbone.gain": np.float32, "backbone.w": np.float32}
        shapes = {"backbone.w": (4,)}
        values = [{name: rng.normal(size=shapes.get(name, 1)).astype(dtype)
                   for name, dtype in dtypes.items()} for _ in range(3)]
        return tuple(
            {name: arr.reshape(shapes.get(name, shape)) for name, arr in model.items()}
            for model in values
        )

    @staticmethod
    def records(report: MergeReport) -> tuple:
        return [record.to_dict() for record in report.layers], report.sign_conflicts.to_dict()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_merge_and_sequence(self, threads):
        scalars, vectors = self.maps(()), self.maps((1,))
        outputs = []
        for base, old, curr in (scalars, vectors):
            merged, report = duet_merge(base, "fp", tv(old), tv(curr), threads=threads)
            steps = list(read_steps(iter_incremental_sequence(base, [old, curr], _SPEC,
                                                              threads=threads)))
            outputs.append((merged, self.records(report), steps[-1].checkpoint,
                            self.records(steps[-1].report)))
        (merged, report, last, last_report), (merged_1d, report_1d, last_1d, last_report_1d) = outputs
        assert (report, last_report) == (report_1d, last_report_1d)
        for got, want in ((merged, merged_1d), (last, last_1d)):
            assert [arr.shape for arr in got.values()] == [(), (), (), (4,)]
            assert [arr.tobytes() for arr in got.values()] == [arr.tobytes() for arr in want.values()]


# -- the report writer -------------------------------------------------------

# Names and texts with quotes, escapes, control and non-ASCII characters.
_TRICKY = st.text(
    st.sampled_from('a"\\/\n\r\t\x00\x1f\x7fé \U0001d11e{}[],: ') | st.characters(), max_size=8
)
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def merge_reports(draw) -> MergeReport:
    record = st.builds(duet.merge.LayerMergeRecord, _TRICKY, *[_ANY_FLOAT] * 7)
    records = draw(st.lists(record, max_size=6))
    counts = st.builds(TensorSignConflicts, st.integers(0, 10**6), st.integers(0, 10**6))
    signs = draw(st.none() | st.dictionaries(_TRICKY, counts, max_size=6).map(SignConflictReport))
    return MergeReport(
        config=MergeConfig(gamma=draw(st.sampled_from((0.0, 0.1, 0.25)))),
        base_fingerprint=draw(_TRICKY),
        old_fingerprint="0" * 64,
        curr_fingerprint=draw(_TRICKY),
        layers=records,
        sign_conflicts=signs,
        warnings=draw(st.lists(_TRICKY, max_size=3)),
    )


class TestReportJson:
    @settings(max_examples=300, deadline=None)
    @given(merge_reports())
    def test_to_json_is_the_indent_encoder_output(self, report):
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)

    def test_empty_report(self):
        report = MergeReport(MergeConfig(), "a", "b", "c")
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)
        report.sign_conflicts = SignConflictReport()
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)

    @settings(max_examples=300, deadline=None)
    @given(merge_reports())
    def test_the_streamed_report_is_the_indent_encoder_output(self, report):
        want = (json.dumps(report.to_dict(), indent=2) + "\n").encode()
        with small_pieces(), tempfile.TemporaryDirectory() as tmp:
            if len(report.layers) > 2:  # the records cross piece boundaries
                assert sum('"layer_name"' in piece for piece in report.json_pieces()) > 1
            path = Path(tmp, "r.report.json")
            _write_pieces(path, chain(report.json_pieces(), ["\n"]))
            assert path.read_bytes() == want
            assert os.listdir(tmp) == ["r.report.json"]

    @settings(max_examples=300, deadline=None)
    @given(merge_reports())
    def test_the_streamed_csv_is_the_csv_writer_output(self, report):
        header = ["layer_name", "p", "delta", "alpha", "beta", "norm_old", "norm_curr", "norm_sum"]
        rows = [header, *([record.to_dict()[column] for column in header] for record in report.layers)]
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)
        with small_pieces(), tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "r.csv")
            _write_pieces(path, _csv_pieces(report.csv_rows()))
            assert path.read_bytes() == text.getvalue().encode("utf-8", "backslashreplace")

    def test_a_name_utf8_cannot_carry_is_written_as_its_escape(self, tmp_path):
        layers = [duet.merge.LayerMergeRecord(name, *[0.5] * 7) for name in ("a\ud800", "é")]
        report = MergeReport(MergeConfig(), "a", "b", "c", layers=layers)
        path = tmp_path / "r.csv"
        _write_pieces(path, _csv_pieces(report.csv_rows()))
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["a\\ud800", "é"]

    def test_each_write_is_a_fresh_buffer(self):
        # The writer may write a chunk after the producer has resumed.
        pieces = ["x" * 400_000, "y" * 400_000] * 4
        chunks = list(_joined(pieces))
        assert len(chunks) > 2 and len({id(chunk) for chunk in chunks}) == len(chunks)
        assert b"".join(chunks) == "".join(pieces).encode()

    def test_a_producer_that_raises_midway_leaves_no_file(self, tmp_path):
        def pieces():
            yield from MergeReport(MergeConfig(), "a" * 64, "b" * 64, "c" * 64).json_pieces()
            raise RuntimeError("producer failed")

        path = tmp_path / "r.report.json"
        with small_pieces(), pytest.raises(RuntimeError, match="producer failed"):
            _write_pieces(path, pieces())  # several writes are made first
        assert list(tmp_path.iterdir()) == []
        path.write_text("earlier")
        with pytest.raises(RuntimeError, match="producer failed"):
            _write_pieces(path, pieces())
        assert [p.name for p in tmp_path.iterdir()] == ["r.report.json"]
        assert path.read_text() == "earlier"


def small_pieces() -> ExitStack:
    """Two records per piece and about 16 bytes per write, so the records of a
    report, and the pieces of one record, span several pieces and writes."""
    stack = ExitStack()
    for module in (duet.diagnostics, duet.cli):
        stack.enter_context(patch.object(module, "_PIECE_RECORDS", 2))
    stack.enter_context(patch.object(duet.cli, "_WRITE_BYTES", 16))
    return stack
