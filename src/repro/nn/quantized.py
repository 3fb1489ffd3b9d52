"""Integer-arithmetic inference for quantized layers.

Fake quantization (the training-side view used everywhere else in the
repo) keeps weights as floats that happen to lie on an integer grid.
Deployment engines instead run the *integer* arithmetic directly:
``y = (W_q @ x_q) · s_w · s_x``.  This module implements that path for
every kernel layer the IR knows — :class:`QuantizedConv2d`,
:class:`QuantizedConvTranspose2d`, :class:`QuantizedLinear` — so the
runtime can execute a compressed model on real integer MACs
(Jacob et al., the paper's [35]).

Two guarantees make the executors testable:

* **Pattern-aware skipping is exact.**  Pruned kernel positions are
  zero *codes*; im2col columns (conv), scatter columns (deconv) and
  input features (linear) whose weights are all-zero are skipped before
  the integer matmul, and skipping a zero integer column cannot change
  an integer accumulation.
* **``reference()`` is bit-for-bit.**  Each executor's ``reference``
  method runs the float-side semantics — dequantize *after* the
  accumulation — in float64.  Integer sums of b≤16-bit codes stay far
  below 2⁵³, so the float64 accumulation is exact and equals the int64
  accumulation; both paths then apply the identical rescale multiply,
  producing identical bit patterns.  This is the parity the
  ``execution="lowered"`` runtime asserts against
  ``execution="reference"``.

Each executor carries an opt-in ``telemetry`` slot (a
:class:`repro.runtime.telemetry.LayerTelemetry`); when set, the shared
``_accumulate`` core counts executed MACs, skipped vs. total columns,
activation saturation, and the accumulator extrema.  Counters only
observe values both paths already compute, so attaching them cannot
perturb either guarantee (see ``docs/OBSERVABILITY.md``).

Batching and compile-once packing (see ``docs/PERFORMANCE.md``):

* Every executor accepts a leading batch dimension and runs the whole
  micro-batch through **one** matmul.  Because both accumulation paths
  are exact, the batched result is *byte-identical* to stacking the
  per-frame results — summation blocking cannot change an exact sum.
* The pruned weight matrix is **compacted once** at construction
  (:meth:`_compact`): ``weight_codes`` reduced to the ``_keep_cols``
  columns, instead of boolean-masked on every forward.
* The im2col / scatter geometry comes from the shape-keyed plan cache
  in :mod:`repro.nn.functional`, restricted to the kept columns and
  memoized per input shape on the executor.
* When the a-priori accumulator bound certifies every intermediate sum
  stays below 2⁵³ (true for all 4–16-bit configurations this repo
  produces), both paths share a float64 BLAS gemm whose result is the
  exact integer accumulation; otherwise each path falls back to an
  int64/float64 einsum.
* When the same bound is below 2²⁴, ``forward`` narrows further: it
  quantizes straight into float32 codes, gathers float32 columns and
  runs a float32 gemm.  Every product and partial sum is then an
  integer of magnitude below 2²⁴, which float32 represents exactly, so
  the result is again the exact accumulation in any summation order.
  ``_finish`` widens to float64 before the shared rescale, so the
  output bytes do not depend on the tier.  ``reference`` stays on
  float64, keeping lowered-vs-reference parity a comparison of two
  different arithmetics.

Occupancy-gated dynamic sparsity (``execution="lowered-sparse"``; see
``docs/PERFORMANCE.md``): under an active
:class:`~repro.nn.occupancy.OccupancyContext` the executors
additionally skip work that the *activations* make dead, on top of the
static weight-pattern skips:

* The context only **gates** the machinery; every decision derives
  from one-pass scans of the layer's actual inputs, so sparse
  execution is unconditionally bit-identical to dense — a wrong or
  stale context can only cost speed, never bits.
* The conv path restricts itself to the nonzero-support window
  (receptive-field-dilated, via the memoized window plans) and then
  **subsets the cached gather indices to the union-active columns
  before the gather** — the gather, not the gemm, dominates a lowered
  conv, so eliminated columns are never materialized at all; their
  accumulators are reconstructed as exact zeros.
* With no telemetry attached, quantization is **deferred onto the
  gathered columns** (quantize∘gather ≡ gather∘quantize elementwise;
  occupancy is scanned on the float input, whose support is a
  conservative superset of the code support).  Attached telemetry
  forces eager quantization so the saturation counters see every
  value.
* A work floor (:data:`_MIN_DYNAMIC_WORK`) keeps layers whose gather
  is too small to amortize the scans on the plain dense path.
"""

from __future__ import annotations

import threading

import numpy as np

from .functional import (col2im_plan, col2im_window_plan, im2col_plan,
                         im2col_window_plan)
from .layers import Conv2d, ConvTranspose2d, Linear
from .module import Module
from .occupancy import current_occupancy
from .tensor import Tensor

__all__ = ["QuantizedConv2d", "QuantizedConvTranspose2d", "QuantizedLinear",
           "activation_scale", "quantize_activation"]

#: Accumulator magnitude below which float64 integer arithmetic is exact
#: (kept equal to ``2 ** repro.runtime.telemetry.ACC_EXACT_BITS``; not
#: imported to keep :mod:`repro.nn` free of runtime dependencies).
_EXACT_ACC_LIMIT = 2 ** 53

#: Accumulator magnitude below which float32 integer arithmetic is exact
#: (every integer of magnitude at most 2^24 is a float32).
_EXACT_ACC_LIMIT_F32 = 2 ** 24

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)
_F32 = np.dtype(np.float32)

#: Per-executor cap on memoized input-shape (and windowed) plans.
_MAX_SHAPE_PLANS = 16


def _memoized_plan(plans: dict, lock: threading.Lock, key, build):
    """Thread-safe get-or-build on an executor's bounded plan memo.

    The forward path is documented concurrency-safe (concurrent
    serving streams share one compiled program — see
    ``docs/SERVING.md``), so every get / FIFO-evict / insert on the
    per-executor ``_plans`` dict happens under its lock.  ``build``
    runs *outside* the lock (plan construction gathers large index
    arrays); when two threads race on a cold key, the first insert
    wins and both return the same entry, keeping every caller
    consistent.
    """
    with lock:
        entry = plans.get(key)
    if entry is not None:
        return entry
    built = build()
    with lock:
        entry = plans.get(key)
        if entry is None:
            while len(plans) >= _MAX_SHAPE_PLANS:
                plans.pop(next(iter(plans)))
            plans[key] = built
            entry = built
    return entry

#: Sentinel window: the layer input is verified all-zero, so the whole
#: accumulator is reconstructed as zeros without touching a matmul.
_EMPTY_WINDOW = "empty"


#: A window below this much of the full area is not worth restricting
#: the plan for (per-column elimination still applies on the dense
#: gather, so a near-full window loses almost nothing by running dense).
_WINDOW_FULL_FRACTION = 15 / 16

#: Column elimination runs only when at least this fraction of gathered
#: columns is all-zero — below it the subset/embed copies cost more
#: than the gather and matmul work they save.
_MIN_COLUMN_SKIP = 1 / 8

#: Dynamic sparsity machinery (occupancy scans, dilation, windows,
#: column subsetting) only engages when the layer's gather is at least
#: this many elements (``kept rows × positions``).  Below the floor the
#: dense kernel finishes in microseconds and the scans alone would cost
#: more than they can save, so sparse mode runs the layer dense — which
#: is trivially bit-identical.  Telemetry overrides the floor: when a
#: counter is attached the scans run anyway so the dynamic-skip and
#: occupancy counters stay meaningful on every layer.
_MIN_DYNAMIC_WORK = 1 << 15


def _support_window(occupied: np.ndarray) -> tuple[int, int, int, int] | None:
    """Tight nonzero-support bbox of an ``(h, w)`` occupancy map.

    The map comes from one pass over the actual codes, so the bbox is
    exact *by construction* — everything outside it really is zero,
    and windowed execution never depends on the occupancy context
    being right (a stale or adversarial context only gates the scan,
    it cannot shrink the window below the true support).  A canvas
    bbox could not be trusted this way: each 3×3 conv grows the actual
    support by a one-pixel halo, so a few layers into the backbone the
    scaled canvas bbox no longer bounds it.  Returns ``None`` when the
    map is entirely empty.
    """
    rows = np.flatnonzero(occupied.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(occupied.any(axis=0))
    return (int(rows[0]), int(rows[-1]) + 1,
            int(cols[0]), int(cols[-1]) + 1)


def _dilate_columns(occ: np.ndarray, kernel: int, stride: int,
                    padding: int, out_h: int, out_w: int) -> np.ndarray:
    """Which output positions read at least one occupied input cell.

    ``occ`` is the per-frame ``(n, h, w)`` collapsed occupancy of the
    input codes; the k×k boolean dilation below is the *exact*
    column-nonzero condition of the im2col gather — an output position
    is all-zero iff no cell of its receptive field holds any nonzero
    channel.  k² strided OR-accumulations over an ``(n, out_h, out_w)``
    bool array cost far less than scanning the gathered columns
    themselves (k²·c values per position).
    """
    n, h, w = occ.shape
    if kernel == 1 and stride == 1 and padding == 0:
        # 1×1 geometry: the columns *are* the cells.
        return occ
    if padding:
        padded = np.zeros((n, h + 2 * padding, w + 2 * padding),
                          dtype=bool)
        padded[:, padding:padding + h, padding:padding + w] = occ
    else:
        padded = occ
    active = np.zeros((n, out_h, out_w), dtype=bool)
    span_h = (out_h - 1) * stride + 1
    span_w = (out_w - 1) * stride + 1
    for ki in range(kernel):
        for kj in range(kernel):
            active |= padded[:, ki:ki + span_h:stride,
                             kj:kj + span_w:stride]
    return active


def _bucket_window(window: tuple[int, int, int, int], h: int, w: int,
                   buckets: int = 8) -> tuple[int, int, int, int]:
    """Round a support window outward onto a coarse grid.

    Per-frame support boxes differ by a pixel or two between frames;
    without bucketing every frame would miss the memoized window-plan
    caches and pay a plan rebuild.  Rounding outward keeps exactness
    (the expanded window still contains the full support) while
    collapsing nearby windows onto at most ``buckets``² cache keys.
    """
    r0, r1, c0, c1 = window
    bh = max(1, h // buckets)
    bw = max(1, w // buckets)
    return (r0 // bh * bh, min(h, -(-r1 // bh) * bh),
            c0 // bw * bw, min(w, -(-c1 // bw) * bw))


def _record_occupancy(telemetry, context, frames: int) -> None:
    """Fold the observed canvas occupancy into a layer's counters."""
    cells = context.canvas_cells
    if telemetry is not None and cells:
        telemetry.record_occupancy(frames * cells,
                                   frames * context.occupied_cells)


def _batched_gemm(w: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``(o, k) @ (n, k, p) -> (n, o, p)`` as one broadcast BLAS gemm.

    ``matmul`` broadcasts the stacked operand without materializing a
    rearranged copy of ``cols``, which is what makes the batched path
    cheaper than ``n`` separate calls.  Only used when the accumulation
    is certified exact, where any summation order or blocking yields
    the identical integer result.
    """
    if cols.shape[0] == 1:
        return np.matmul(w, cols[0])[None]
    return np.matmul(w, cols)


def _certify(bound: int, w_int: np.ndarray) -> tuple[bool, bool, dict]:
    """An executor's ``(_use_gemm, _use_f32, _w_packed)``.

    ``bound`` caps ``|acc|`` and every partial sum.  Below 2^53 the
    float64 gemm is exact (``_use_gemm``); below 2^24 so is a float32
    gemm (``_use_f32``).  ``_w_packed`` holds the compacted weights in
    each dtype an accumulation may run in.
    """
    use_f32 = bound < _EXACT_ACC_LIMIT_F32
    packed = {_I64: w_int, _F64: w_int.astype(np.float64)}
    if use_f32:
        packed[_F32] = w_int.astype(np.float32)
    return bound < _EXACT_ACC_LIMIT, use_f32, packed


def _accumulation_dtype(executor, dtype) -> np.dtype:
    """The dtype one ``_accumulate`` call works and accumulates in.

    ``dtype=float64`` (``reference``) always stays on float64.
    ``dtype=int64`` (``forward``) takes the narrowest certified tier:
    float32, then the float64 gemm, then exact int64.
    """
    if np.dtype(dtype) != _I64:
        return _F64
    if executor._use_f32:
        return _F32
    return _F64 if executor._use_gemm else _I64


def _matmul_skip_zero_columns(w: np.ndarray, cols: np.ndarray,
                              acc_dtype: np.dtype, use_gemm: bool,
                              active: np.ndarray | None
                              ) -> tuple[np.ndarray, int]:
    """``(o, k) @ (n, k, p)`` eliminating verified all-zero columns.

    ``active`` is the precomputed ``(n, p)`` column-activity mask
    (``None`` runs dense) — derived from the actual input codes, so an
    inactive column is *verified* all-zero.  Returns ``(acc,
    executed)`` where ``executed`` counts the columns that hit the
    matmul.  When enough columns are inactive the matmul runs on the
    active subset and the rest is reconstructed as exact zeros —
    bit-for-bit what the dense product yields for them, since zero
    codes accumulate to exact zeros in int64 and in every certified
    float dtype (the ``-0.0`` a float product can leave is
    canonicalized by ``_finish``).  Each surviving column's dot product reduces over
    the untouched ``k`` axis in the same order as the dense call, so
    the active subset is byte-identical too.
    """
    n, k, p = cols.shape
    total = n * p

    def dense() -> np.ndarray:
        if use_gemm:
            return _batched_gemm(w, cols)
        return np.einsum("ok,nkp->nop", w, cols)

    if active is None or total == 0:
        return dense(), total
    executed = int(active.sum())
    if total - executed < max(1, int(total * _MIN_COLUMN_SKIP)):
        return dense(), total
    acc = np.zeros((n, w.shape[0], p), dtype=acc_dtype)
    if executed:
        sel = cols.swapaxes(0, 1)[:, active]
        if use_gemm:
            res = np.matmul(w, sel)
        else:
            res = np.einsum("ok,ka->oa", w, sel)
        acc.swapaxes(0, 1)[:, active] = res
    return acc, executed


def activation_scale(x: np.ndarray, bits: int = 8) -> float:
    """Symmetric max-calibrated scale for an activation tensor."""
    max_code = 2 ** (bits - 1) - 1
    alpha = float(np.abs(x).max())
    return alpha / max_code if alpha > 0 else 1.0


def quantize_activation(x: np.ndarray, scale: float,
                        bits: int = 8, telemetry=None,
                        dtype=np.int64) -> np.ndarray:
    """Activation → integer codes at a fixed scale.

    ``telemetry`` (a :class:`repro.runtime.telemetry.LayerTelemetry`)
    optionally counts how many values saturate — round outside
    ``[-max_code, max_code]`` and get clipped, i.e. fall outside the
    calibrated range.  Counting never changes the returned codes.
    ``dtype`` is the array type of the codes; any float type holds the
    ≤16-bit codes exactly.
    """
    max_code = 2 ** (bits - 1) - 1
    rounded = np.round(x / scale)
    if telemetry is not None:
        telemetry.record_quantization(
            rounded.size, int((np.abs(rounded) > max_code).sum()))
    return np.clip(rounded, -max_code, max_code).astype(dtype, copy=False)


def _per_channel_codes(flat: np.ndarray, bits: int):
    """Quantize (channels, k) rows to integer codes + per-row scales."""
    max_code = 2 ** (bits - 1) - 1
    alphas = np.abs(flat).max(axis=1)
    scales = np.where(alphas > 0, alphas / max_code, 1.0)
    codes = np.clip(np.round(flat / scales[:, None]), -max_code, max_code)
    return codes.astype(np.int64), scales.astype(np.float64)


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


class QuantizedConv2d(Module):
    """A convolution executed in integer arithmetic.

    Weights are stored as int64 codes with one scale per output filter
    (per-channel quantization, the deployment-standard granularity);
    activations are quantized on entry with a calibration scale.
    Pattern-pruned weight columns are skipped in im2col.
    """

    def __init__(self, weight_codes: np.ndarray, weight_scales: np.ndarray,
                 bias: np.ndarray | None, stride: int, padding: int,
                 input_scale: float, activation_bits: int = 8):
        super().__init__()
        self.weight_codes = weight_codes.astype(np.int64)
        self.weight_scales = weight_scales.astype(np.float64)
        self.bias = None if bias is None else bias.astype(np.float64)
        self.stride = stride
        self.padding = padding
        self.input_scale = float(input_scale)
        self.activation_bits = activation_bits
        #: opt-in counter slot (LayerTelemetry); never touches outputs
        self.telemetry = None
        # Columns of the (out_c, in_c·k·k) weight matrix where *every*
        # filter is zero — the positions pattern pruning blanked in all
        # kernels of an input channel.  Skipped exactly (zero columns
        # contribute nothing to an integer accumulation).
        w_mat = self.weight_codes.reshape(self.weight_codes.shape[0], -1)
        self._keep_cols = np.any(w_mat != 0, axis=0)
        self._compact()

    def _compact(self) -> None:
        """(Re)build the packed execution structures from ``_keep_cols``.

        Call after mutating ``_keep_cols``; also clears the per-shape
        plan cache, whose gather indices embed the kept columns.
        """
        out_c = self.weight_codes.shape[0]
        w_mat = self.weight_codes.reshape(out_c, -1)
        self._w_kept = np.ascontiguousarray(w_mat[:, self._keep_cols])
        self._kept = int(self._keep_cols.sum())
        max_w = int(np.abs(self._w_kept).max()) if self._w_kept.size else 0
        act_max = 2 ** (self.activation_bits - 1) - 1
        # |acc| <= kept · max|w| · max|x| bounds every partial sum.
        self._use_gemm, self._use_f32, self._w_packed = _certify(
            self._kept * max_w * act_max, self._w_kept)
        self._plans: dict = {}
        # Guards every get/evict/insert on _plans: the forward path may
        # be driven by concurrent serving streams.  (Re)compaction
        # itself stays a single-threaded construction-time operation.
        self._plans_lock = threading.Lock()

    def _shape_plan(self, c: int, h: int, w: int):
        """Kept-column gather indices + geometry for one input shape."""

        def build():
            kernel = self.weight_codes.shape[-1]
            geometry = im2col_plan(c, h, w, kernel, self.stride,
                                   self.padding)
            idx = geometry.indices if self._keep_cols.all() \
                else geometry.indices[self._keep_cols]
            return (idx.ravel(), geometry)

        return _memoized_plan(self._plans, self._plans_lock,
                              (c, h, w), build)

    def _window_plan(self, c: int, h: int, w: int, window: tuple):
        """Kept-column gather indices restricted to an output window."""

        def build():
            kernel = self.weight_codes.shape[-1]
            plan = im2col_window_plan(c, h, w, kernel, self.stride,
                                      self.padding, window)
            idx = plan.indices if self._keep_cols.all() \
                else plan.indices[self._keep_cols]
            return (idx.ravel(), plan)

        return _memoized_plan(self._plans, self._plans_lock,
                              (c, h, w, window), build)

    def _dynamic_window(self, occ: np.ndarray, h: int, w: int,
                        geometry):
        """The occupancy-derived output window, if one applies.

        ``occ`` is the collapsed ``(n, h, w)`` occupancy of the input
        codes.  Returns ``None`` (run dense), :data:`_EMPTY_WINDOW`
        (the input is verified all-zero — reconstruct a zero
        accumulator), or a half-open ``(oi0, oi1, oj0, oj1)``
        output-position window whose complement provably accumulates
        to zero.  The window is the codes' own nonzero-support bbox
        (:func:`_support_window`), so exactness never depends on the
        occupancy context being right: the context only gates the
        scan, and a stale or wrong context can only cost speed, never
        bits.  Near-full windows run dense — per-column elimination on
        the dense gather covers them.
        """
        support = _support_window(occ.any(axis=0))
        if support is None:
            return _EMPTY_WINDOW
        r0, r1, c0, c1 = _bucket_window(support, h, w)
        if (r1 - r0) * (c1 - c0) >= _WINDOW_FULL_FRACTION * h * w:
            return None
        kernel = self.weight_codes.shape[-1]
        stride, pad = self.stride, self.padding
        # Output position oi reads input rows [oi·s − p, oi·s − p + k);
        # keep exactly those intersecting the occupied rows [r0, r1).
        oi0 = max(0, -(-(r0 + pad - kernel + 1) // stride))
        oi1 = min(geometry.out_h, (r1 - 1 + pad) // stride + 1)
        oj0 = max(0, -(-(c0 + pad - kernel + 1) // stride))
        oj1 = min(geometry.out_w, (c1 - 1 + pad) // stride + 1)
        if oi0 >= oi1 or oj0 >= oj1:
            # No output position reads an occupied cell: every column
            # is all-zero.
            return _EMPTY_WINDOW
        if (oi1 - oi0) * (oj1 - oj0) \
                >= _WINDOW_FULL_FRACTION * geometry.positions:
            return None
        return (oi0, oi1, oj0, oj1)

    @staticmethod
    def from_float(conv: Conv2d, input_scale: float,
                   weight_bits: int = 8,
                   activation_bits: int = 8) -> "QuantizedConv2d":
        """Quantize a float convolution with per-filter weight scales."""
        weights = conv.weight.data.astype(np.float64)
        out_c = weights.shape[0]
        codes, scales = _per_channel_codes(weights.reshape(out_c, -1),
                                           weight_bits)
        bias = None if conv.bias is None else conv.bias.data
        return QuantizedConv2d(codes.reshape(weights.shape), scales, bias,
                               conv.stride, conv.padding, input_scale,
                               activation_bits)

    def _accumulate(self, data: np.ndarray, dtype) -> np.ndarray:
        """Shared core: quantize → gather kept columns → one matmul.

        ``dtype=int64`` is the deployment path; ``dtype=float64`` is the
        reference semantics.  Both see the same codes and the same
        skipped columns, and both accumulations are exact, so they
        return equal values — the deployment path in the narrowest
        certified dtype (:func:`_accumulation_dtype`), the reference in
        float64 (a shared gemm when the bound certifies it).  The
        whole micro-batch (leading ``n``) runs as one matmul, which is
        byte-identical to ``n`` single-frame calls because exact sums
        are blocking-independent.

        Under an active :class:`~repro.nn.occupancy.OccupancyContext`
        (sparse lowered execution) the gather additionally restricts to
        the verified occupied output window and then to the columns
        that read at least one occupied cell — the subsetting happens
        on the *plan indices*, before the gather, so skipped columns
        are never materialized at all; their accumulators are
        reconstructed as exact zeros.  Both restrictions derive from
        scans of the actual codes, so the sparse path is
        unconditionally bit-for-bit: every surviving position's dot
        product reduces over identical kept rows in identical order.
        """
        n, c, h, w = data.shape
        out_c = self.weight_codes.shape[0]
        telemetry = self.telemetry
        idx, geometry = self._shape_plan(c, h, w)
        use_gemm = self._use_gemm
        acc_dtype = _accumulation_dtype(self, dtype)
        context = current_occupancy()
        dynamic = context is not None and (
            telemetry is not None
            or self._kept * geometry.positions >= _MIN_DYNAMIC_WORK)
        # With no counters attached, quantization is deferred onto the
        # gathered columns (quantization is elementwise and zero maps
        # to code zero, so quantize∘gather ≡ gather∘quantize); the
        # occupancy scan then runs on the float input, whose nonzero
        # support is a superset of the code support — conservative,
        # hence still exact.  Attached telemetry forces eager
        # quantization so the saturation counters see every value.
        defer_quant = dynamic and telemetry is None
        if defer_quant:
            x_codes = None
            occ = data.astype(bool).any(axis=1)
        else:
            x_codes = quantize_activation(data, self.input_scale,
                                          self.activation_bits,
                                          telemetry=telemetry,
                                          dtype=acc_dtype)
            occ = x_codes.any(axis=1) if dynamic else None
        window = None if occ is None \
            else self._dynamic_window(occ, h, w, geometry)
        if window is _EMPTY_WINDOW:
            acc = np.zeros((n, out_c, geometry.positions), dtype=acc_dtype)
            executed = 0
        else:
            if window is not None:
                idx, plan = self._window_plan(c, h, w, window)
            else:
                plan = geometry
            act_idx = None
            if occ is not None:
                kernel = self.weight_codes.shape[-1]
                active = _dilate_columns(occ, kernel, self.stride,
                                         self.padding, geometry.out_h,
                                         geometry.out_w)
                if window is not None:
                    oi0, oi1, oj0, oj1 = window
                    active = active[:, oi0:oi1, oj0:oj1]
                # Column subsetting shares one gather across the
                # micro-batch, so the eliminated set is the columns
                # inactive in *every* frame (the union of the
                # per-frame activity masks survives).
                union = active.reshape(n, plan.positions).any(axis=0)
                inactive = plan.positions - int(union.sum())
                if inactive >= max(1, int(plan.positions
                                          * _MIN_COLUMN_SKIP)):
                    act_idx = np.flatnonzero(union)
            w_mat = self._w_packed[acc_dtype]
            if act_idx is not None:
                # Restrict the gather itself: subset the cached index
                # matrix to the active columns, gather only those, and
                # embed the products back at their positions.  The
                # gather is the dominant cost of a lowered conv, so
                # this is where eliminated columns actually pay off.
                sub = idx.reshape(self._kept, plan.positions) \
                    .take(act_idx, axis=1)
                if x_codes is None \
                        and act_idx.size * self._kept >= data.size:
                    # Deferring only pays while the gathered subset is
                    # smaller than the input (k>1 gathers duplicate
                    # cells k² times); otherwise quantize eagerly.
                    x_codes = quantize_activation(
                        data, self.input_scale, self.activation_bits,
                        dtype=acc_dtype)
                source = data if x_codes is None else x_codes
                cols = plan.pad(source).reshape(n, -1) \
                    .take(sub.ravel(), axis=1) \
                    .reshape(n, self._kept, act_idx.size)
                if x_codes is None:
                    cols = quantize_activation(cols, self.input_scale,
                                               self.activation_bits,
                                               dtype=acc_dtype)
                if use_gemm:
                    res = _batched_gemm(w_mat, cols)
                else:
                    res = np.einsum("ok,nkp->nop", w_mat, cols)
                acc = np.zeros((n, out_c, plan.positions),
                               dtype=res.dtype)
                acc[:, :, act_idx] = res
                executed = n * int(act_idx.size)
            else:
                if x_codes is None:
                    x_codes = quantize_activation(
                        data, self.input_scale, self.activation_bits,
                        dtype=acc_dtype)
                cols = plan.pad(x_codes).reshape(n, -1).take(idx, axis=1) \
                    .reshape(n, self._kept, plan.positions)
                if use_gemm:
                    acc = _batched_gemm(w_mat, cols)
                else:
                    acc = np.einsum("ok,nkp->nop", w_mat, cols)
                executed = n * plan.positions
            if window is not None:
                oi0, oi1, oj0, oj1 = window
                full = np.zeros((n, out_c, geometry.out_h, geometry.out_w),
                                dtype=acc.dtype)
                full[:, :, oi0:oi1, oj0:oj1] = acc.reshape(
                    n, out_c, oi1 - oi0, oj1 - oj0)
                acc = full.reshape(n, out_c, geometry.positions)
        if telemetry is not None:
            keep = self._keep_cols
            telemetry.record_matmul(
                macs=out_c * self._kept * executed,
                columns_total=n * keep.size,
                columns_skipped=n * (keep.size - self._kept),
                frames=n)
            if context is not None:
                telemetry.record_dynamic(
                    n * geometry.positions,
                    n * geometry.positions - executed)
                _record_occupancy(telemetry, context, n)
            if acc.size:
                telemetry.record_accumulator(acc.min(), acc.max())
        return acc

    def _finish(self, acc: np.ndarray, input_shape: tuple) -> Tensor:
        n, _, h, w = input_shape
        out_c = self.weight_codes.shape[0]
        kernel = self.weight_codes.shape[-1]
        out_h = (h + 2 * self.padding - kernel) // self.stride + 1
        out_w = (w + 2 * self.padding - kernel) // self.stride + 1
        rescale = self.weight_scales[None, :, None] * self.input_scale
        out = acc.astype(np.float64) * rescale
        out = out.reshape(n, out_c, out_h, out_w)
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1, 1, 1)
        else:
            # Canonicalize zero signs: a dense matmul over an all-zero
            # column can yield -0.0 where the occupancy-windowed path
            # reconstructs +0.0.  Adding 0.0 maps -0.0 to +0.0 and is
            # the identity elsewhere, so every execution mode emits the
            # same bytes.
            out = out + 0.0
        return Tensor(out.astype(np.float32))

    def forward(self, x: Tensor) -> Tensor:
        data = _as_array(x)
        # The integer core: exact accumulation of the codes (via the
        # narrowest certified gemm when the bound holds), exactly as a
        # deployment engine's INT8 MACs with a 32/64-bit accumulator.
        return self._finish(self._accumulate(data, np.int64), data.shape)

    def reference(self, x: Tensor) -> Tensor:
        """Float-semantics twin: float64 accumulate, identical rescale."""
        data = _as_array(x)
        return self._finish(self._accumulate(data, np.float64), data.shape)

    def fake_quant_reference(self, x: Tensor) -> Tensor:
        """The float32 training-side view: dequantized weights convolved
        with the quantized input by the normal float pipeline.

        Used by tests to assert integer execution ≈ fake quantization
        (within float32 rounding of the rescale — one ulp per output).
        """
        weights = (self.weight_codes.reshape(len(self.weight_scales), -1)
                   * self.weight_scales[:, None]) \
            .reshape(self.weight_codes.shape)
        data = _as_array(x)
        x_deq = quantize_activation(data, self.input_scale,
                                    self.activation_bits) \
            * self.input_scale
        from . import functional as F
        out = F.conv2d(Tensor(x_deq.astype(np.float32)),
                       Tensor(weights.astype(np.float32)),
                       None if self.bias is None
                       else Tensor(self.bias.astype(np.float32)),
                       stride=self.stride, padding=self.padding)
        return out


class QuantizedConvTranspose2d(Module):
    """A transposed convolution executed in integer arithmetic.

    Weight layout is IOHW (matching :class:`ConvTranspose2d`); scales
    are per *output* channel, so the rescale is applied after the
    col2im scatter-add, which never mixes output channels.
    """

    def __init__(self, weight_codes: np.ndarray, weight_scales: np.ndarray,
                 bias: np.ndarray | None, stride: int, padding: int,
                 input_scale: float, activation_bits: int = 8):
        super().__init__()
        self.weight_codes = weight_codes.astype(np.int64)
        self.weight_scales = weight_scales.astype(np.float64)
        self.bias = None if bias is None else bias.astype(np.float64)
        self.stride = stride
        self.padding = padding
        self.input_scale = float(input_scale)
        self.activation_bits = activation_bits
        #: opt-in counter slot (LayerTelemetry); never touches outputs
        self.telemetry = None
        in_c = self.weight_codes.shape[0]
        w_mat = self.weight_codes.reshape(in_c, -1)
        # Scatter columns (out-channel, ki, kj) that no input channel
        # writes to — all-zero weights, skipped exactly.
        self._keep_cols = np.any(w_mat != 0, axis=0)
        self._compact()

    def _compact(self) -> None:
        """(Re)build the packed execution structures from ``_keep_cols``."""
        in_c, _, kernel, _ = self.weight_codes.shape
        w_mat = self.weight_codes.reshape(in_c, -1)
        # (kept, in_c): rows are the kept scatter columns, ready for the
        # (kept, in_c) @ (n, in_c, h·w) gemm.
        self._w_keptT = np.ascontiguousarray(w_mat[:, self._keep_cols].T)
        self._kept = int(self._keep_cols.sum())
        max_w = int(np.abs(self._w_keptT).max()) if self._w_keptT.size else 0
        act_max = 2 ** (self.activation_bits - 1) - 1
        # Each scatter-added output cell sums at most k·k contributors,
        # each an in_c-length dot: |acc| <= k²·in_c·max|w|·max|x|, which
        # also covers the col2im sums when they run in the gemm's dtype.
        self._use_gemm, self._use_f32, self._w_packed = _certify(
            kernel * kernel * in_c * max_w * act_max, self._w_keptT)
        self._plans: dict = {}
        # Same discipline as QuantizedConv2d: the memo must be safe
        # under concurrent forward callers.
        self._plans_lock = threading.Lock()

    def _shape_plan(self, h: int, w: int):
        """The kept-column scatter plan for one input spatial shape."""

        def build():
            _, out_c, kernel, _ = self.weight_codes.shape
            out_h = (h - 1) * self.stride - 2 * self.padding + kernel
            out_w = (w - 1) * self.stride - 2 * self.padding + kernel
            return col2im_plan(out_c, out_h, out_w, kernel, self.stride,
                               self.padding).restrict(self._keep_cols)

        return _memoized_plan(self._plans, self._plans_lock,
                              (h, w), build)

    def _out_shape(self, h: int, w: int) -> tuple[int, int]:
        kernel = self.weight_codes.shape[-1]
        return ((h - 1) * self.stride - 2 * self.padding + kernel,
                (w - 1) * self.stride - 2 * self.padding + kernel)

    def _window_scatter_plan(self, h: int, w: int, out_window: tuple):
        """Kept-column scatter plan over an output-cell window."""

        def build():
            _, out_c, kernel, _ = self.weight_codes.shape
            out_h, out_w = self._out_shape(h, w)
            return col2im_window_plan(out_c, out_h, out_w, kernel,
                                      self.stride, self.padding,
                                      out_window).restrict(self._keep_cols)

        return _memoized_plan(self._plans, self._plans_lock,
                              (h, w, out_window), build)

    def _dynamic_window(self, occ: np.ndarray, h: int, w: int):
        """The occupancy-derived *input* window, if one applies.

        ``occ`` is the collapsed ``(n, h, w)`` occupancy of the input
        codes.  Returns ``None`` (dense), :data:`_EMPTY_WINDOW` (input
        verified all-zero), or a half-open input window whose
        complement is verified zero — its scatter image is then the
        only output region that can be nonzero.  The window is the
        codes' own support bbox, bucketed like the conv counterpart;
        near-full windows run dense (column elimination covers them).
        """
        support = _support_window(occ.any(axis=0))
        if support is None:
            return _EMPTY_WINDOW
        r0, r1, c0, c1 = _bucket_window(support, h, w)
        if (r1 - r0) * (c1 - c0) >= _WINDOW_FULL_FRACTION * h * w:
            return None
        return (r0, r1, c0, c1)

    @staticmethod
    def from_float(deconv: ConvTranspose2d, input_scale: float,
                   weight_bits: int = 8,
                   activation_bits: int = 8) -> "QuantizedConvTranspose2d":
        """Quantize a float deconvolution with per-out-channel scales."""
        weights = deconv.weight.data.astype(np.float64)     # (in, out, k, k)
        out_c = weights.shape[1]
        per_out = weights.transpose(1, 0, 2, 3).reshape(out_c, -1)
        codes_t, scales = _per_channel_codes(per_out, weight_bits)
        codes = codes_t.reshape(out_c, weights.shape[0],
                                *weights.shape[2:]).transpose(1, 0, 2, 3)
        bias = None if deconv.bias is None else deconv.bias.data
        return QuantizedConvTranspose2d(codes, scales, bias, deconv.stride,
                                        deconv.padding, input_scale,
                                        activation_bits)

    def _accumulate(self, data: np.ndarray, dtype) -> np.ndarray:
        n, c, h, w = data.shape
        in_c = self.weight_codes.shape[0]
        kernel = self.weight_codes.shape[-1]
        telemetry = self.telemetry
        use_gemm = self._use_gemm
        acc_dtype = _accumulation_dtype(self, dtype)
        x_codes = quantize_activation(data, self.input_scale,
                                      self.activation_bits,
                                      telemetry=telemetry, dtype=acc_dtype)
        w_mat = self._w_packed[acc_dtype]
        context = current_occupancy()
        dynamic = context is not None and (
            telemetry is not None
            or self._kept * h * w >= _MIN_DYNAMIC_WORK)
        occ = x_codes.any(axis=1) if dynamic else None
        window = None if occ is None else self._dynamic_window(occ, h, w)
        out_h, out_w = self._out_shape(h, w)
        if window is _EMPTY_WINDOW:
            out_c = self.weight_codes.shape[1]
            acc = np.zeros((n, out_c, out_h, out_w), dtype=acc_dtype)
            executed = 0
        elif window is not None:
            # Matmul only the occupied input positions (their complement
            # is verified zero, so its columns are exact zeros), then
            # scatter into only the output cells the window can reach.
            r0, r1, c0, c1 = window
            x_win = x_codes[:, :, r0:r1, c0:c1] \
                .reshape(n, in_c, (r1 - r0) * (c1 - c0))
            active = occ[:, r0:r1, c0:c1].reshape(n, -1)
            cols_win, executed = _matmul_skip_zero_columns(
                w_mat, x_win, acc_dtype, use_gemm, active)
            cols = np.zeros((n, self._kept, h * w), dtype=cols_win.dtype)
            cols.reshape(n, self._kept, h, w)[:, :, r0:r1, c0:c1] = \
                cols_win.reshape(n, self._kept, r1 - r0, c1 - c0)
            # Input position (i, j) scatters into output rows
            # [i·s − p, i·s − p + k); the window's image bounds its
            # nonzero output support.
            ob = (max(0, r0 * self.stride - self.padding),
                  min(out_h, (r1 - 1) * self.stride - self.padding
                      + kernel),
                  max(0, c0 * self.stride - self.padding),
                  min(out_w, (c1 - 1) * self.stride - self.padding
                      + kernel))
            out_c = self.weight_codes.shape[1]
            if ob[0] >= ob[1] or ob[2] >= ob[3]:
                acc = np.zeros((n, out_c, out_h, out_w), dtype=acc_dtype)
            elif ob == (0, out_h, 0, out_w):
                acc = self._shape_plan(h, w).apply(cols)
            else:
                acc_win = self._window_scatter_plan(h, w, ob).apply(cols)
                acc = np.zeros((n, out_c, out_h, out_w),
                               dtype=acc_win.dtype)
                acc[:, :, ob[0]:ob[1], ob[2]:ob[3]] = acc_win
        else:
            x_mat = x_codes.reshape(n, in_c, h * w)
            active = None if occ is None else occ.reshape(n, h * w)
            cols, executed = _matmul_skip_zero_columns(
                w_mat, x_mat, acc_dtype, use_gemm, active)
            acc = self._shape_plan(h, w).apply(cols)
        if telemetry is not None:
            keep = self._keep_cols
            telemetry.record_matmul(
                macs=in_c * self._kept * executed,
                columns_total=n * keep.size,
                columns_skipped=n * (keep.size - self._kept),
                frames=n)
            if context is not None:
                telemetry.record_dynamic(n * h * w,
                                         n * h * w - executed)
                _record_occupancy(telemetry, context, n)
            if acc.size:
                # Range of the *scatter-added* accumulator — the value
                # the 2^53 exactness bound must cover.
                telemetry.record_accumulator(acc.min(), acc.max())
        return acc

    def _finish(self, acc: np.ndarray) -> Tensor:
        rescale = self.weight_scales[None, :, None, None] * self.input_scale
        out = acc.astype(np.float64) * rescale
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1, 1, 1)
        else:
            # Canonicalize zero signs (see QuantizedConv2d._finish).
            out = out + 0.0
        return Tensor(out.astype(np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return self._finish(self._accumulate(_as_array(x), np.int64))

    def reference(self, x: Tensor) -> Tensor:
        """Float-semantics twin: float64 accumulate, identical rescale."""
        return self._finish(self._accumulate(_as_array(x), np.float64))

    def fake_quant_reference(self, x: Tensor) -> Tensor:
        """Float32 view via the normal deconvolution pipeline."""
        out_c = self.weight_codes.shape[1]
        weights = (self.weight_codes.transpose(1, 0, 2, 3)
                   .reshape(out_c, -1) * self.weight_scales[:, None]) \
            .reshape(out_c, self.weight_codes.shape[0],
                     *self.weight_codes.shape[2:]).transpose(1, 0, 2, 3)
        data = _as_array(x)
        x_deq = quantize_activation(data, self.input_scale,
                                    self.activation_bits) \
            * self.input_scale
        from . import functional as F
        out = F.conv_transpose2d(Tensor(x_deq.astype(np.float32)),
                                 Tensor(weights.astype(np.float32)),
                                 None if self.bias is None
                                 else Tensor(self.bias.astype(np.float32)),
                                 stride=self.stride, padding=self.padding)
        return out


class QuantizedLinear(Module):
    """An affine layer executed in integer arithmetic.

    Weight layout is (out, in) with per-output-row scales.  Input
    features whose weight column is entirely zero (pruned in every
    output row) are skipped before the integer matmul.
    """

    def __init__(self, weight_codes: np.ndarray, weight_scales: np.ndarray,
                 bias: np.ndarray | None, input_scale: float,
                 activation_bits: int = 8):
        super().__init__()
        self.weight_codes = weight_codes.astype(np.int64)
        self.weight_scales = weight_scales.astype(np.float64)
        self.bias = None if bias is None else bias.astype(np.float64)
        self.input_scale = float(input_scale)
        self.activation_bits = activation_bits
        #: opt-in counter slot (LayerTelemetry); never touches outputs
        self.telemetry = None
        self._keep_cols = np.any(self.weight_codes != 0, axis=0)
        self._compact()

    def _compact(self) -> None:
        """(Re)build the packed execution structures from ``_keep_cols``."""
        self._w_kept = np.ascontiguousarray(
            self.weight_codes[:, self._keep_cols])
        self._keep_idx = np.flatnonzero(self._keep_cols)
        self._kept = int(self._keep_idx.size)
        max_w = int(np.abs(self._w_kept).max()) if self._w_kept.size else 0
        act_max = 2 ** (self.activation_bits - 1) - 1
        self._use_gemm, self._use_f32, self._w_packed = _certify(
            self._kept * max_w * act_max, self._w_kept)

    @staticmethod
    def from_float(linear: Linear, input_scale: float,
                   weight_bits: int = 8,
                   activation_bits: int = 8) -> "QuantizedLinear":
        """Quantize a float affine layer with per-row weight scales."""
        weights = linear.weight.data.astype(np.float64)
        codes, scales = _per_channel_codes(weights, weight_bits)
        bias = None if linear.bias is None else linear.bias.data
        return QuantizedLinear(codes, scales, bias, input_scale,
                               activation_bits)

    def _accumulate(self, data: np.ndarray, dtype) -> np.ndarray:
        in_features = self.weight_codes.shape[1]
        out_features = self.weight_codes.shape[0]
        telemetry = self.telemetry
        acc_dtype = _accumulation_dtype(self, dtype)
        x_codes = quantize_activation(data, self.input_scale,
                                      self.activation_bits,
                                      telemetry=telemetry, dtype=acc_dtype)
        # A leading batch dimension (ndim > 2) folds into the row axis:
        # one gemm covers the whole micro-batch.
        frames = data.shape[0] if data.ndim > 2 else 1
        x_mat = x_codes.reshape(-1, in_features)
        if self._kept != in_features:
            x_mat = x_mat.take(self._keep_idx, axis=1)
        weights = self._w_packed[acc_dtype]
        # Under an active occupancy context (sparse lowered execution)
        # skip all-zero input rows at runtime: a zero row's accumulator
        # is exactly zero in either dtype, so reconstructing it costs
        # no bits.  No window geometry is needed — the rows themselves
        # are the evidence.
        context = current_occupancy()
        dynamic = context is not None and (
            telemetry is not None or x_mat.size >= _MIN_DYNAMIC_WORK)
        row_active = None
        if dynamic and x_mat.size:
            row_active = np.any(x_mat != 0, axis=1)
            skipped = x_mat.shape[0] - int(row_active.sum())
            if skipped < max(1, int(x_mat.shape[0] * _MIN_COLUMN_SKIP)):
                row_active = None
        if row_active is not None:
            active = int(row_active.sum())
            acc = np.zeros((x_mat.shape[0], out_features), dtype=acc_dtype)
            if active:
                acc[row_active] = x_mat[row_active] @ weights.T
        else:
            active = x_mat.shape[0]
            acc = x_mat @ weights.T
        if telemetry is not None:
            keep = self._keep_cols
            telemetry.record_matmul(
                macs=active * self._kept * out_features,
                columns_total=frames * keep.size,
                columns_skipped=frames * (keep.size - self._kept),
                frames=frames)
            if context is not None:
                telemetry.record_dynamic(x_mat.shape[0],
                                         x_mat.shape[0] - active)
            if acc.size:
                telemetry.record_accumulator(acc.min(), acc.max())
        return acc

    def _finish(self, acc: np.ndarray, input_shape: tuple) -> Tensor:
        out = acc.astype(np.float64) \
            * (self.weight_scales[None, :] * self.input_scale)
        if self.bias is not None:
            out = out + self.bias[None, :]
        else:
            # Canonicalize zero signs (see QuantizedConv2d._finish).
            out = out + 0.0
        out_shape = input_shape[:-1] + (self.weight_codes.shape[0],)
        return Tensor(out.reshape(out_shape).astype(np.float32))

    def forward(self, x: Tensor) -> Tensor:
        data = _as_array(x)
        return self._finish(self._accumulate(data, np.int64), data.shape)

    def reference(self, x: Tensor) -> Tensor:
        """Float-semantics twin: float64 accumulate, identical rescale."""
        data = _as_array(x)
        return self._finish(self._accumulate(data, np.float64), data.shape)

    def fake_quant_reference(self, x: Tensor) -> Tensor:
        """Float32 view via the normal affine pipeline."""
        weights = self.weight_codes * self.weight_scales[:, None]
        data = _as_array(x)
        x_deq = quantize_activation(data, self.input_scale,
                                    self.activation_bits) \
            * self.input_scale
        from . import functional as F
        out = F.linear(Tensor(x_deq.astype(np.float32)),
                       Tensor(weights.astype(np.float32)),
                       None if self.bias is None
                       else Tensor(self.bias.astype(np.float32)))
        return out
