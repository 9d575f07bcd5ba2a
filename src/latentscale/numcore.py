"""Dense numeric kernels with transparent FLOPs and allocation metering.

Every kernel takes an explicit :class:`MeterContext`, charges FLOPs to it
according to the published cost table below, and registers its output buffer
so the context can track live and peak allocation bytes. Operands may be
:class:`Tensor` values or plain ``np.ndarray``s, so constant weights are
passed as they are; outputs are always read-only Tensors. Kernels are pure:
they never mutate their inputs, and identical inputs give bit-identical
outputs in the same precision.

Published FLOPs conventions (cost per element unless stated):

    ============== ===========================================
    matmul m,k,n    2*m*k*n (multiply-add counted as 2 FLOPs)
    add / scale     1
    clamp           1
    layer_norm      8   (mean 1, variance 3, normalize 2, affine 2)
    gelu            12  (cubic 5, tanh 4, gate 3; tanh approximation)
    softmax         5   (max, shift, exp, sum, divide)
    mean_pool t,d   t*d + d
    ============== ===========================================

Composite kernels (``attention_block``, ``linear``) charge exactly the sum of
their constituent primitives. ``flops_for`` evaluates the same table
analytically without executing anything; the two routes are cross-checked in
the test suite.

Data movement (copies, concatenation, gathers) and RNG draws are not FLOPs.
Non-finite kernel output (NaN/Inf) is a hard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DTYPE = np.float64
_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
GELU_C1 = 0.044715

# per-element costs referenced by both the kernels and flops_for
FLOPS_PER_ELEMENT = {
    "add": 1,
    "scale": 1,
    "clamp": 1,
    "layer_norm": 8,
    "gelu": 12,
    "softmax": 5,
}


class ShapeMismatchError(ValueError):
    """Kernel arguments have incompatible shapes."""


class NonFiniteError(FloatingPointError):
    """A kernel produced NaN or Inf."""


class UnknownKernelError(KeyError):
    """flops_for was asked about a kernel it does not know."""


@dataclass
class MeterContext:
    """Accumulates FLOPs and tracks live/peak bytes of kernel outputs.

    An output's bytes are live from registration until its Tensor wrapper
    dies. A context must not be shared across concurrent kernel executions;
    distinct contexts are independent. Kernels given ``ctx=None`` run
    unmetered.
    """

    flops_accumulated: int = 0
    bytes_live: int = 0
    bytes_peak: int = 0

    def add_flops(self, n: int) -> None:
        self.flops_accumulated += int(n)

    def register(self, tensor: "Tensor") -> None:
        """Count ``tensor``'s buffer as live until the wrapper dies."""
        self.bytes_live += tensor.data.nbytes
        if self.bytes_live > self.bytes_peak:
            self.bytes_peak = self.bytes_live
        tensor._meter = self


class Tensor:
    """Immutable dense array: explicit shape over a row-major float buffer.

    64-bit scalars by default; 32-bit selectable per run. The buffer is
    read-only, copied only if it is not C-contiguous float64/float32. A
    buffer registered with a MeterContext is live there until the wrapper
    dies. Kernels treat tensors as values and never write through them.
    """

    __slots__ = ("data", "_meter")

    def __init__(self, data, ctx: MeterContext | None = None):
        self._meter = None  # first, so __del__ holds even if the rest raises
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.data.flags.writeable = False
        if ctx is not None:
            ctx.register(self)

    def __del__(self):
        if self._meter is not None:
            self._meter.bytes_live -= self.data.nbytes

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


@dataclass
class BlockWeights:
    """Parameters of one pre-norm transformer block (single-head attention).

    ``t_bias`` is the constant conditioning bias added to the block input
    (the single-step collapse of a timestep embedding).
    """

    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    t_bias: np.ndarray

    @property
    def width(self) -> int:
        return self.wq.shape[0]


Operand = Tensor | np.ndarray


def _data(x: Operand) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else x


def _finish(arr: np.ndarray, ctx: MeterContext | None, flops: int) -> Tensor:
    if ctx is not None:
        ctx.add_flops(flops)
    if not np.isfinite(arr).all():
        raise NonFiniteError("kernel produced non-finite values")
    return Tensor(arr, ctx=ctx)


def matmul(a: Operand, b: Operand, ctx: MeterContext | None) -> Tensor:
    """Matrix product a[m,k] @ b[k,n]; charges 2*m*k*n FLOPs."""
    a, b = _data(a), _data(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatchError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ShapeMismatchError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    return _finish(a @ b, ctx, 2 * m * k * n)


def add(a: Operand, b: Operand, ctx: MeterContext | None) -> Tensor:
    """Elementwise sum; b may be a row vector broadcast over a's rows."""
    a, b = _data(a), _data(b)
    if a.shape != b.shape and not (b.ndim == 1 and a.shape[-1] == b.shape[0]):
        raise ShapeMismatchError(f"add shapes incompatible: {a.shape} + {b.shape}")
    return _finish(a + b, ctx, a.size)


def scale(a: Operand, s: float, ctx: MeterContext | None) -> Tensor:
    a = _data(a)
    return _finish(a * s, ctx, a.size)


def clamp01(a: Operand, ctx: MeterContext | None) -> Tensor:
    a = _data(a)
    return _finish(np.clip(a, 0.0, 1.0), ctx, a.size)


def layer_norm(x: Operand, gamma: np.ndarray, beta: np.ndarray,
               ctx: MeterContext | None, eps: float = 1e-5) -> Tensor:
    """Row-wise layer norm over the last axis with affine output."""
    x = _data(x)
    if x.shape[-1] != gamma.shape[0] or x.shape[-1] != beta.shape[0]:
        raise ShapeMismatchError("layer_norm affine width mismatch")
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)  # bitwise np.var
    return _finish(centered / np.sqrt(var + eps) * gamma + beta, ctx,
                   FLOPS_PER_ELEMENT["layer_norm"] * x.size)


def _gelu_raw(x: np.ndarray) -> np.ndarray:
    x2 = x * x
    inner = GELU_C0 * (x + GELU_C1 * (x2 * x))  # x**3 spelled out: libm pow is slow
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu(x: Operand, ctx: MeterContext | None) -> Tensor:
    """Tanh-approximation GELU."""
    x = _data(x)
    return _finish(_gelu_raw(x), ctx, FLOPS_PER_ELEMENT["gelu"] * x.size)


def _softmax_raw(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(x: Operand, ctx: MeterContext | None) -> Tensor:
    """Row-wise softmax over the last axis (max-shifted for stability)."""
    x = _data(x)
    return _finish(_softmax_raw(x), ctx, FLOPS_PER_ELEMENT["softmax"] * x.size)


def mean_pool(x: Operand, ctx: MeterContext | None) -> Tensor:
    """Mean over the token (first) axis of a [t, d] tensor."""
    x = _data(x)
    if x.ndim != 2:
        raise ShapeMismatchError(f"mean_pool needs [t, d], got {x.shape}")
    t, d = x.shape
    return _finish(x.mean(axis=0), ctx, t * d + d)


def concat_rows(a: Operand, b: Operand, ctx: MeterContext | None) -> Tensor:
    """Stack two [*, d] tensors along the token axis (data movement only)."""
    a, b = _data(a), _data(b)
    if a.shape[-1] != b.shape[-1]:
        raise ShapeMismatchError(f"concat width mismatch: {a.shape} vs {b.shape}")
    return _finish(np.concatenate([a, b], axis=0), ctx, 0)


def linear(x: Operand, w: np.ndarray, b: np.ndarray | None,
           ctx: MeterContext | None) -> Tensor:
    """x[t,din] @ w[din,dout] (+ b); charged as matmul + broadcast add."""
    out = matmul(x, w, ctx)
    if b is not None:
        out = add(out, b, ctx)
    return out


def attention_block(x: Operand, w: BlockWeights, ctx: MeterContext | None) -> Tensor:
    """Pre-norm transformer block: LN -> self-attention -> residual,
    LN -> GELU MLP -> residual, with a constant conditioning bias at entry."""
    x = _data(x)
    if x.ndim != 2:
        raise ShapeMismatchError(f"attention_block needs [t, d] input, got {x.shape}")
    t, d = x.shape
    if d != w.width:
        raise ShapeMismatchError(f"block width {w.width} does not match input width {d}")

    h = add(x, w.t_bias, ctx)
    a = layer_norm(h, w.ln1_gamma, w.ln1_beta, ctx)
    q = matmul(a, w.wq, ctx)
    k = matmul(a, w.wk, ctx)
    v = matmul(a, w.wv, ctx)
    # k^T reaches BLAS C-contiguous (a strided view changes the bits); the
    # Python float scale keeps float32 blocks float32 under NumPy 2
    scores = scale(matmul(q, np.ascontiguousarray(k.data.T), ctx), 1.0 / math.sqrt(d), ctx)
    probs = softmax(scores, ctx)
    att = matmul(probs, v, ctx)
    att_out = matmul(att, w.wo, ctx)
    h2 = add(h, att_out, ctx)

    m = layer_norm(h2, w.ln2_gamma, w.ln2_beta, ctx)
    u = add(matmul(m, w.w1, ctx), w.b1, ctx)
    g = gelu(u, ctx)
    y = add(matmul(g, w.w2, ctx), w.b2, ctx)
    return add(h2, y, ctx)


def flops_for(descriptor: tuple) -> int:
    """Analytic FLOPs for one kernel execution with concrete shapes.

    Descriptors: ("matmul", m, k, n), ("add", n), ("scale", n), ("clamp", n),
    ("layer_norm", rows, d), ("gelu", n), ("softmax", rows, n),
    ("mean_pool", t, d), ("linear", t, din, dout, bias),
    ("attention_block", t, d, mlp_width).
    """
    name, *args = descriptor
    if name in FLOPS_PER_ELEMENT:
        return FLOPS_PER_ELEMENT[name] * math.prod(args)
    if name == "matmul":
        m, k, n = args
        return 2 * m * k * n
    if name == "mean_pool":
        t, d = args
        return t * d + d
    if name == "linear":
        t, din, dout, bias = args
        return 2 * t * din * dout + (t * dout if bias else 0)
    if name == "attention_block":
        t, d, mlp = args
        total = flops_for(("add", t * d))                    # conditioning bias
        total += flops_for(("layer_norm", t, d))             # ln1
        total += 3 * flops_for(("matmul", t, d, d))          # q, k, v
        total += flops_for(("matmul", t, d, t))              # scores
        total += flops_for(("scale", t * t))
        total += flops_for(("softmax", t, t))
        total += flops_for(("matmul", t, t, d))              # aggregate values
        total += flops_for(("matmul", t, d, d))              # output proj
        total += flops_for(("add", t * d))                   # residual 1
        total += flops_for(("layer_norm", t, d))             # ln2
        total += flops_for(("linear", t, d, mlp, True))
        total += flops_for(("gelu", t * mlp))
        total += flops_for(("linear", t, mlp, d, True))
        total += flops_for(("add", t * d))                   # residual 2
        return total
    raise UnknownKernelError(name)


def init_block_weights(rng: np.random.Generator, d: int, mlp_width: int | None = None,
                       weight_std: float = 0.02, dtype=DEFAULT_DTYPE) -> BlockWeights:
    """Random block parameters at the given scale; LN affine at identity."""
    m = 4 * d if mlp_width is None else mlp_width
    def w(*shape):
        return (rng.standard_normal(shape) * weight_std).astype(dtype)
    return BlockWeights(
        ln1_gamma=np.ones(d, dtype=dtype), ln1_beta=np.zeros(d, dtype=dtype),
        wq=w(d, d), wk=w(d, d), wv=w(d, d), wo=w(d, d),
        ln2_gamma=np.ones(d, dtype=dtype), ln2_beta=np.zeros(d, dtype=dtype),
        w1=w(d, m), b1=np.zeros(m, dtype=dtype), w2=w(m, d), b2=np.zeros(d, dtype=dtype),
        t_bias=w(d),
    )
