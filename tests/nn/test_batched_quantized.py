"""Batched ≡ sequential bit-for-bit parity of the integer executors.

The tentpole contract of micro-batched lowered execution: running a
whole batch through one ``forward``/``reference`` call must produce
*byte-identical* outputs to stacking the per-frame calls — across
bitwidths (4/8/16), all four pattern families, all three executor
kinds, and batch sizes 1/2/5 — and the telemetry counters of the
batched call must equal the sum of the per-frame counters.  The
certified-gemm fast path and the einsum fallback must agree too, and
so must the float32 accumulation tier and the float64 ``reference``.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.patterns import PATTERN_TYPES, generate_pattern
from repro.nn import Tensor, quantized
from repro.nn.occupancy import activate_occupancy
from repro.nn.quantized import (QuantizedConv2d, QuantizedConvTranspose2d,
                                QuantizedLinear, activation_scale)
from repro.runtime.telemetry import LayerTelemetry

BITWIDTHS = (4, 8, 16)
BATCH_SIZES = (1, 2, 5)


def _pattern(pattern_type):
    return generate_pattern(2, 3, np.random.default_rng(7), pattern_type)


def _make_executor(kind, bits, pattern_type):
    pattern = _pattern(pattern_type)
    act_bits = max(8, bits)
    rng = np.random.default_rng(hash((kind, bits, pattern_type)) % 2 ** 32)
    if kind == "conv":
        layer = nn.Conv2d(2, 4, 3, padding=1,
                          rng=np.random.default_rng(1))
        layer.weight.data = layer.weight.data \
            * pattern.mask()[None, None]
        frames = [Tensor(rng.standard_normal((1, 2, 6, 6))
                         .astype(np.float32)) for _ in range(5)]
        scale = activation_scale(
            np.concatenate([f.data for f in frames]), act_bits)
        executor = QuantizedConv2d.from_float(
            layer, scale, weight_bits=bits, activation_bits=act_bits)
    elif kind == "deconv":
        layer = nn.ConvTranspose2d(2, 3, 3, stride=2, padding=1,
                                   rng=np.random.default_rng(2))
        layer.weight.data = layer.weight.data \
            * pattern.mask()[None, None]
        frames = [Tensor(rng.standard_normal((1, 2, 6, 6))
                         .astype(np.float32)) for _ in range(5)]
        scale = activation_scale(
            np.concatenate([f.data for f in frames]), act_bits)
        executor = QuantizedConvTranspose2d.from_float(
            layer, scale, weight_bits=bits, activation_bits=act_bits)
    else:
        layer = nn.Linear(18, 5, rng=np.random.default_rng(3))
        feature_mask = np.tile(pattern.mask().reshape(-1), 2)
        layer.weight.data = layer.weight.data * feature_mask[None, :]
        frames = [Tensor(rng.standard_normal((1, 4, 18))
                         .astype(np.float32)) for _ in range(5)]
        scale = activation_scale(
            np.concatenate([f.data for f in frames]), act_bits)
        executor = QuantizedLinear.from_float(
            layer, scale, weight_bits=bits, activation_bits=act_bits)
    return executor, frames


def _stack(frames):
    return Tensor(np.concatenate([f.data for f in frames], axis=0))


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("kind", ["conv", "deconv", "linear"])
@pytest.mark.parametrize("pattern_type", PATTERN_TYPES)
@pytest.mark.parametrize("bits", BITWIDTHS)
class TestBatchedBitForBit:
    def test_forward_and_reference(self, bits, pattern_type, kind, batch):
        executor, frames = _make_executor(kind, bits, pattern_type)
        frames = frames[:batch]
        batched = _stack(frames)
        for run in (executor.forward, executor.reference):
            whole = run(batched).data
            stacked = np.concatenate(
                [run(f).data for f in frames], axis=0)
            assert whole.shape == stacked.shape
            assert whole.tobytes() == stacked.tobytes()

    def test_gemm_and_fallback_agree(self, bits, pattern_type, kind,
                                     batch):
        """The certified float64 gemm and the int64 einsum fallback are
        the same exact integer accumulation — byte-equal outputs."""
        executor, frames = _make_executor(kind, bits, pattern_type)
        batched = _stack(frames[:batch])
        assert executor._use_gemm      # all repo configs certify
        fast = executor.forward(batched).data
        fast_ref = executor.reference(batched).data
        use_f32 = executor._use_f32
        executor._use_gemm = executor._use_f32 = False
        slow = executor.forward(batched).data
        slow_ref = executor.reference(batched).data
        executor._use_gemm, executor._use_f32 = True, use_f32
        assert fast.tobytes() == slow.tobytes()
        assert fast_ref.tobytes() == slow_ref.tobytes()


@pytest.mark.parametrize("kind", ["conv", "deconv", "linear"])
@pytest.mark.parametrize("batch", [2, 5])
class TestBatchedTelemetrySums:
    def test_batched_counters_equal_per_frame_sum(self, kind, batch):
        executor, frames = _make_executor(kind, 8, "row")
        frames = frames[:batch]

        sequential = LayerTelemetry(layer="seq")
        executor.telemetry = sequential
        for frame in frames:
            executor.forward(frame)

        batched = LayerTelemetry(layer="bat")
        executor.telemetry = batched
        executor.forward(_stack(frames))
        executor.telemetry = None

        assert batched.calls == sequential.calls == batch
        assert batched.macs == sequential.macs
        assert batched.columns_total == sequential.columns_total
        assert batched.columns_skipped == sequential.columns_skipped
        assert batched.activations_total == sequential.activations_total
        assert batched.activations_saturated \
            == sequential.activations_saturated
        assert batched.acc_min == sequential.acc_min
        assert batched.acc_max == sequential.acc_max


class TestCompaction:
    """The packed weight matrix is built once, at construction."""

    def test_compact_matrix_only_keeps_live_columns(self):
        executor, _ = _make_executor("conv", 8, "row")
        keep = executor._keep_cols
        assert not keep.all()
        assert executor._w_kept.shape[1] == keep.sum() == executor._kept
        dense = executor.weight_codes.reshape(
            executor.weight_codes.shape[0], -1)
        assert (executor._w_kept == dense[:, keep]).all()

    def test_recompact_follows_mask(self):
        executor, frames = _make_executor("conv", 8, "row")
        before = executor.forward(frames[0]).data
        executor._keep_cols = np.ones_like(executor._keep_cols)
        executor._compact()
        assert executor._kept == executor._keep_cols.size
        after = executor.forward(frames[0]).data
        # Skipping all-zero columns is exact: same bytes either way.
        assert before.tobytes() == after.tobytes()

    def test_shape_plans_are_bounded(self):
        executor, _ = _make_executor("conv", 8, "row")
        rng = np.random.default_rng(0)
        for h in range(4, 16):
            executor.forward(Tensor(
                rng.standard_normal((1, 2, h, 6)).astype(np.float32)))
        from repro.nn.quantized import _MAX_SHAPE_PLANS
        assert len(executor._plans) <= _MAX_SHAPE_PLANS


#: 2^24 // 32767 == 512: with 16-bit activations a layer whose
#: ``kept · max|w|`` is 512 has bound 2^24 − 512, one at 513 has bound
#: 2^24 + 32255.
_ACT16_MAX = 2 ** 15 - 1


def _linear_at_bound(kept, max_w, out_features=3):
    """A 16-bit-activation linear layer whose accumulator bound is
    exactly ``kept · max_w · (2^15 − 1)``, plus an input that drives
    every accumulator to that bound (all codes and weights at max)."""
    codes = np.full((out_features, kept), max_w, dtype=np.int64)
    codes[1:, ::2] = -max_w               # mixed signs on other rows
    executor = QuantizedLinear(codes, np.full(out_features, 0.01), None,
                               input_scale=1.0, activation_bits=16)
    x = Tensor(np.full((2, kept), float(_ACT16_MAX), dtype=np.float32))
    return executor, x


def _sparsify(frames):
    """Zero all but a corner of each frame so the dynamic paths skip."""
    out = []
    for frame in frames:
        data = frame.data.copy()
        if data.ndim == 4:
            data[..., 2:, :] = 0.0
            data[..., :, 3:] = 0.0
        else:
            data[:, 1:] = 0.0
        out.append(Tensor(data))
    return out


class TestFloat32Tier:
    """``forward`` accumulates in float32 below 2^24, exactly."""

    def test_bound_just_below_takes_f32(self):
        executor, x = _linear_at_bound(kept=4, max_w=128)
        assert 4 * 128 * _ACT16_MAX == 2 ** 24 - 512
        assert executor._use_f32 and executor._use_gemm
        assert executor._w_packed[np.dtype(np.float32)].dtype == np.float32
        acc = executor._accumulate(x.data, np.int64)
        assert acc.dtype == np.float32
        assert acc.max() == 2 ** 24 - 512          # the bound, reached
        assert executor._accumulate(x.data, np.float64).dtype == np.float64
        assert executor.forward(x).data.tobytes() \
            == executor.reference(x).data.tobytes()

    def test_bound_just_above_falls_back_to_f64(self):
        executor, x = _linear_at_bound(kept=27, max_w=19)
        assert 27 * 19 * _ACT16_MAX == 2 ** 24 + 32255
        assert not executor._use_f32 and executor._use_gemm
        assert np.dtype(np.float32) not in executor._w_packed
        acc = executor._accumulate(x.data, np.int64)
        assert acc.dtype == np.float64
        assert acc.max() == 2 ** 24 + 32255
        assert executor.forward(x).data.tobytes() \
            == executor.reference(x).data.tobytes()

    def test_forcing_f32_over_the_bound_breaks_parity(self, monkeypatch):
        """Negative control: the parity oracle sees an uncertified
        float32 accumulation.  An odd sum above 2^24 has no float32."""
        executor, x = _linear_at_bound(kept=27, max_w=19)
        monkeypatch.setattr(quantized, "_EXACT_ACC_LIMIT_F32", 2 ** 53)
        executor._compact()
        assert executor._use_f32
        forced = executor._accumulate(x.data, np.int64)
        exact = executor._accumulate(x.data, np.float64)
        assert forced.dtype == np.float32
        assert not np.array_equal(forced.astype(np.float64), exact)

        rng = np.random.default_rng(0)
        codes = rng.integers(-127, 128, size=(5, 256))
        wide = QuantizedLinear(codes, rng.uniform(0.01, 0.02, 5), None,
                               input_scale=1e-3, activation_bits=16)
        data = Tensor(rng.uniform(-32.767, 32.767, (4, 256))
                      .astype(np.float32))
        assert wide._use_f32          # forced: the bound is ~1.07e9
        assert wide.forward(data).data.tobytes() \
            != wide.reference(data).data.tobytes()

    @pytest.mark.parametrize("sparse", [False, True],
                             ids=["dense", "lowered-sparse"])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("kind", ["conv", "deconv", "linear"])
    @pytest.mark.parametrize("bits", BITWIDTHS)
    def test_forward_equals_reference(self, bits, kind, batch, sparse,
                                      monkeypatch):
        executor, frames = _make_executor(kind, bits, "row")
        # 4/8-bit weights with 8-bit activations certify float32;
        # 16/16 exceeds 2^24 and runs the float64 gemm.
        assert executor._use_f32 == (bits < 16)
        frames = frames[:batch]
        if sparse:
            monkeypatch.setattr(quantized, "_MIN_DYNAMIC_WORK", 0)
            frames = _sparsify(frames)
        batched = _stack(frames)
        if sparse:
            with activate_occupancy():
                lowered = executor.forward(batched).data
                reference = executor.reference(batched).data
        else:
            lowered = executor.forward(batched).data
            reference = executor.reference(batched).data
        assert lowered.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("sparse", [False, True],
                             ids=["dense", "lowered-sparse"])
    @pytest.mark.parametrize("kind", ["conv", "deconv", "linear"])
    def test_accumulator_telemetry_unchanged(self, kind, sparse,
                                             monkeypatch):
        """acc_min/acc_max from the float32 tier equal the exact int64
        accumulation's."""
        executor, frames = _make_executor(kind, 8, "row")
        assert executor._use_f32
        if sparse:
            monkeypatch.setattr(quantized, "_MIN_DYNAMIC_WORK", 0)
            frames = _sparsify(frames)
        batched = _stack(frames)

        def extrema(use_gemm, use_f32):
            executor._use_gemm, executor._use_f32 = use_gemm, use_f32
            executor.telemetry = LayerTelemetry(layer="probe")
            if sparse:
                with activate_occupancy():
                    executor.forward(batched)
            else:
                executor.forward(batched)
            counters, executor.telemetry = executor.telemetry, None
            return counters.acc_min, counters.acc_max

        f32 = extrema(True, True)
        f64 = extrema(True, False)
        int64 = extrema(False, False)
        assert f32 == f64 == int64
        assert f32[0] < 0 < f32[1]
