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
    add             1   (no kernel: the fused bias and residual steps)
    clamp           1
    layer_norm      8   (mean 1, variance 3, normalize 2, affine 2)
    gelu            12  (cubic 5, tanh 4, gate 3; tanh approximation)
    softmax         5   (max, shift, exp, sum, divide)
    mean_pool t,d   t*d + d (no kernel: the pooled block's row means)
    normalize t,d   2*t*d + d (subtract, divide; d for the channel scale)
    ============== ===========================================

Composite kernels (``attention_block``, ``linear``) charge exactly the sum of
their constituent primitives. They fuse the bias and residual epilogues into
the buffer of the product before them, so a fused step is one output and one
charge; the table and the total charged are the same as unfused.

Every block here has one attention head as wide as the block, d. Its query
and key products then meet only as ``Wq Wkᵀ``, and its value and output
products only as ``Wv Wo``: each pair is one d×d matrix stored as two
factors (the QK and OV circuits of Elhage et al. 2021, "A Mathematical
Framework for Transformer Circuits"). So a block stores the two products,
``wqk_vo`` = [W_QK, W_VO] with ``W_QK = Wq Wkᵀ / √d`` and ``W_VO = Wv Wo``.
A row's key is its ln1 output ``a`` itself, its query ``a @ W_QK`` and its
value ``a @ W_VO``: one product with the stacked pair, which NumPy runs as
one BLAS call per slab, so the bits are those of two. The scores are ``q @
aᵀ`` with no scale step, and the attention residual is ``probs @ v + h``
with no output projection. A multi-head block whose heads are narrower than
d would keep its factors, since there each factor pair has rank below d.

The block computes only what its caller reads. It is two kernels in turn:
``block_entry`` (the bias, ln1 and the query and value product) and
``block_queries`` (attention, ln2 and the MLP for the query rows whose
residual and query it is handed, over every row's key and value). Every row
is a key and a value, so the entry runs on every row it is not given; the
queries run on the rows whose output is read: with ``rows=r`` the first r,
and a caller holding the entry can run other rows later, whose output joins
the first's.
``given=(h, qkv)`` appends p rows after x's whose entries ``block_entry``
computed before, for example once per token of a vocabulary: they are
written into the block's one [t, d] residual and one [3, t, d] q/k/v buffer
beside x's rows, so the block charges its entry, add(n*d) +
layer_norm(n, d) + matmul(n, d, 2d), for x's n = t - p rows alone and the
rest of the block as on t rows. With ``pool=True`` the caller reads the
row mean, which is computed as ``mean(g) @ w2 + b2 + mean(h2)`` (g the
GELU output, h2 the attention residual): mean_pool(r, mlp) + linear(1, mlp,
d) + mean_pool(r, d) + d in place of linear(r, mlp, d) + r*d and a
mean_pool(r, d) after the block.
``flops_for`` evaluates the same table analytically without executing
anything; the two routes are cross-checked in the test suite.

Data movement (copies, concatenation, gathers) and RNG draws are not FLOPs.
Non-finite kernel output (NaN/Inf) is a hard error: each output gets one exact
finite check. A dropped intermediate needs none, because adding any operand to
+/-Inf or NaN, or multiplying it into a product with finite factors, never
gives a finite value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
GELU_C1 = 0.044715

# per-element costs referenced by both the kernels and flops_for
FLOPS_PER_ELEMENT = {
    "add": 1,
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

    An output's bytes are live from registration while its Tensor wrapper
    lives and while a kernel reads it: a kernel holds its Tensor operands
    until it returns, so ``gelu(linear(...))`` counts both outputs on every
    Python version. A context must not be shared across concurrent kernel
    executions; distinct contexts are independent. Kernels given
    ``ctx=None`` run unmetered.
    """

    flops_accumulated: int = 0
    bytes_live: int = 0
    bytes_peak: int = 0

    def register(self, tensor: "Tensor") -> None:
        """Count ``tensor``'s buffer as live until the wrapper dies."""
        self.bytes_live += tensor.data.nbytes
        if self.bytes_live > self.bytes_peak:
            self.bytes_peak = self.bytes_live
        tensor._meter = self


class Tensor:
    """Immutable dense array: explicit shape over a row-major float buffer.

    Its scalars are float64 or float32, whichever the kernel computed in.
    ``data`` must be a C-contiguous float64/float32 array that nothing else
    writes to (a kernel's fresh output); it is kept as is and made
    read-only. A buffer registered with a MeterContext is live there while
    the wrapper lives and while a kernel reads it.
    Kernels treat tensors as values and never write through them.
    """

    __slots__ = ("data", "_meter")

    def __init__(self, data: np.ndarray, ctx: MeterContext | None = None):
        self._meter = None  # first, so __del__ holds even if the rest raises
        self.data = data
        data.flags.writeable = False
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

    ``wqk_vo`` is [2, d, d]: the attention's folded pair ``W_QK = Wq Wkᵀ /
    √d`` and ``W_VO = Wv Wo``, in that order (see the module docstring).
    ``t_bias`` is the constant conditioning bias added to the block input
    (the single-step collapse of a timestep embedding).
    """

    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    wqk_vo: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    t_bias: np.ndarray

    @property
    def width(self) -> int:
        return self.wqk_vo.shape[1]


Operand = Tensor | np.ndarray


def _data(x: Operand) -> np.ndarray:
    """x's array. A kernel binds it to a new name and keeps its parameter
    bound, so a Tensor operand, and its metered bytes, live until it returns."""
    return x.data if isinstance(x, Tensor) else x


def _finish(arr: np.ndarray, ctx: MeterContext | None, flops: int) -> Tensor:
    if ctx is not None:
        ctx.flops_accumulated += flops
    # the sum of squares is finite unless an element is, or finite values
    # overflow on squaring; only then is each element tested
    if not math.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
        raise NonFiniteError("kernel produced non-finite values")
    return Tensor(arr, ctx=ctx)


def _into(buf: np.ndarray, other: np.ndarray) -> np.ndarray | None:
    """``buf`` as the output of ``buf (op) other`` when NumPy would not widen
    the result (e.g. float32 with a float64 operand); else None, a new one."""
    return buf if np.promote_types(buf.dtype, other.dtype) == buf.dtype else None


def matmul(a: Operand, b: Operand, ctx: MeterContext | None) -> Tensor:
    """Matrix product a[m,k] @ b[k,n]; charges 2*m*k*n FLOPs."""
    ad, bd = _data(a), _data(b)
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeMismatchError(f"matmul needs 2-D operands, got {ad.shape} @ {bd.shape}")
    m, k = ad.shape
    k2, n = bd.shape
    if k != k2:
        raise ShapeMismatchError(f"inner dimensions differ: {ad.shape} @ {bd.shape}")
    return _finish(ad @ bd, ctx, 2 * m * k * n)


def clamp01(a: Operand, ctx: MeterContext | None) -> Tensor:
    ad = _data(a)
    return _finish(np.clip(ad, 0.0, 1.0), ctx, ad.size)


def layer_norm(x: Operand, gamma: np.ndarray, beta: np.ndarray,
               ctx: MeterContext | None) -> Tensor:
    """Row-wise layer norm over the last axis (epsilon 1e-5) with affine output."""
    xd = _data(x)
    if xd.shape[-1] != gamma.shape[0] or xd.shape[-1] != beta.shape[0]:
        raise ShapeMismatchError("layer_norm affine width mismatch")
    d = xd.shape[-1]
    # add.reduce / d is bitwise np.mean; centered * centered reduced is np.var
    c = xd - np.add.reduce(xd, axis=-1, keepdims=True) / d
    var = np.add.reduce(c * c, axis=-1, keepdims=True) / d
    var += 1e-5
    c /= np.sqrt(var, out=var)
    c = np.multiply(c, gamma, out=_into(c, gamma))
    return _finish(np.add(c, beta, out=_into(c, beta)), ctx,
                   FLOPS_PER_ELEMENT["layer_norm"] * xd.size)


def gelu(x: Operand, ctx: MeterContext | None) -> Tensor:
    """Tanh-approximation GELU."""
    xd = _data(x)
    inner = xd * xd
    inner *= xd  # x**3 spelled out: libm pow is slow
    inner *= GELU_C1
    inner += xd
    inner *= GELU_C0
    gate = np.tanh(inner, out=inner)
    gate += 1.0
    out = xd * 0.5
    out *= gate
    return _finish(out, ctx, FLOPS_PER_ELEMENT["gelu"] * xd.size)


def softmax(x: Operand, ctx: MeterContext | None) -> Tensor:
    """Row-wise softmax over the last axis (max-shifted for stability)."""
    xd = _data(x)
    e = xd - np.maximum.reduce(xd, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return _finish(e, ctx, FLOPS_PER_ELEMENT["softmax"] * xd.size)


def normalize(x: Operand, mean: np.ndarray, variance: np.ndarray,
              ctx: MeterContext | None) -> Tensor:
    """(x - mean) / sqrt(variance + 1e-6), channelwise over the last axis."""
    xd = _data(x)
    d = xd.shape[-1]
    if mean.shape != (d,) or variance.shape != (d,):
        raise ShapeMismatchError(
            f"normalize statistics {mean.shape}, {variance.shape} do not match width {d}")
    c = xd - mean
    s = np.sqrt(variance + 1e-6)
    return _finish(np.divide(c, s, out=_into(c, s)), ctx,
                   flops_for(("normalize", xd.size // d, d)))


def linear(x: Operand, w: np.ndarray, b: np.ndarray, ctx: MeterContext | None) -> Tensor:
    """x[t,din] @ w[din,dout] + b, one output; charged as matmul + broadcast add."""
    xd = _data(x)
    if xd.ndim != 2 or w.ndim != 2 or xd.shape[1] != w.shape[0]:
        raise ShapeMismatchError(f"linear needs [t, din] @ [din, dout], got {xd.shape} @ {w.shape}")
    (t, din), dout = xd.shape, w.shape[1]
    if b.shape != (dout,):
        raise ShapeMismatchError(f"linear bias {b.shape} does not match output width {dout}")
    out = xd @ w
    return _finish(np.add(out, b, out=_into(out, b)), ctx, flops_for(("linear", t, din, dout)))


def block_entry(x: Operand, w: BlockWeights, ctx: MeterContext | None,
                given: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[Tensor, Tensor]:
    """What a block's attention reads of its rows: the residual ``h = x +
    t_bias`` [t, d] and, with ``a = ln1(h)``, the query ``a @ W_QK``, the
    key ``a`` and the value ``a @ W_VO``, stacked [3, t, d].

    Both are computed for x's n rows only. ``given=(h, qkv)``, a [p, d] and
    a [3, p, d] array that this function returned before, appends p rows
    after them at no charge, so t = n + p.
    """
    xd = _data(x)
    if xd.ndim != 2:
        raise ShapeMismatchError(f"block needs [t, d] input, got {xd.shape}")
    n, d = xd.shape
    if d != w.width:
        raise ShapeMismatchError(f"block width {w.width} does not match input width {d}")
    if given is None:
        given = np.empty((0, d), xd.dtype), np.empty((3, 0, d), xd.dtype)
    given_h, given_qkv = given
    p = len(given_h)
    if given_h.shape != (p, d) or given_qkv.shape != (3, p, d):
        raise ShapeMismatchError(
            f"given rows {given_h.shape} and {given_qkv.shape} are not [p, {d}] and [3, p, {d}]")
    # x's rows go into the first n rows of each buffer. At the stack's width
    # the BLAS gives a row the same bits whatever rows it is computed beside,
    # so given rows from a table are bitwise what the block would compute
    h = np.empty((n + p, d), np.result_type(xd, w.t_bias, given_h))
    np.add(xd, w.t_bias, out=h[:n])
    h[n:] = given_h
    h = _finish(h, ctx, n * d)
    a = layer_norm(h.data[:n], w.ln1_gamma, w.ln1_beta, ctx)
    # two [n, d] products into the query and value slabs, with the bits of
    # two calls; the key slab is a
    qkv = np.empty((3, n + p, d), np.result_type(a.data, w.wqk_vo, given_qkv))
    np.matmul(a.data, w.wqk_vo, out=qkv[::2, :n])
    qkv[1, :n] = a.data
    qkv[:, n:] = given_qkv
    return h, _finish(qkv, ctx, 2 * n * d * 2 * d)


def block_queries(h: Operand, q: Operand, kv: Operand, w: BlockWeights,
                  ctx: MeterContext | None, *, pool: bool = False) -> Tensor:
    """The rest of a block after its entry, for r query rows: attention over
    all t rows' keys and values, the residual, ln2 and the MLP.

    ``h`` and ``q`` [r, d] are the query rows' residual and query, and
    ``kv`` [2, t, d] every row's key and value, as ``block_entry`` returned
    them. The output is the query rows' block output [r, d], or with
    ``pool=True`` its [d] mean, read out as ``mean(g) @ w2 + b2 + mean(h2)``
    (g the GELU output, h2 the attention residual) without the per-row MLP
    down-projection.
    """
    hd, qd, kvd = _data(h), _data(q), _data(kv)
    d = w.width
    if (hd.ndim != 2 or hd.shape[1] != d or qd.shape != hd.shape or not len(hd)
            or kvd.ndim != 3 or kvd.shape[::2] != (2, d) or not kvd.shape[1]):
        raise ShapeMismatchError(f"block queries {hd.shape}, {qd.shape} and keys and values "
                                 f"{kvd.shape} are not [r, {d}], [r, {d}], [2, t, {d}], r, t > 0")
    r, t = len(hd), kvd.shape[1]
    k, v = kvd
    # k^T reaches BLAS C-contiguous (a strided view changes the bits). The
    # scores stay a checked output: an overflow to -Inf here would vanish in
    # the softmax
    scores = _finish(qd @ np.ascontiguousarray(k.T), ctx, 2 * r * d * t)
    probs = softmax(scores, ctx)
    h2 = probs.data @ v
    h2 = _finish(np.add(h2, hd, out=_into(h2, hd)), ctx, 2 * r * t * d + r * d)

    m = layer_norm(h2, w.ln2_gamma, w.ln2_beta, ctx)
    g = gelu(linear(m, w.w1, w.b1, ctx), ctx)
    mlp = w.w2.shape[0]
    if pool:
        # add.reduce / r is bitwise the row mean, without np.mean's overhead
        out = (np.add.reduce(g.data, axis=0) / r) @ w.w2
        flops = (flops_for(("mean_pool", r, mlp)) + flops_for(("linear", 1, mlp, d))
                 + flops_for(("mean_pool", r, d)) + d)
        residual = np.add.reduce(h2.data, axis=0) / r
    else:
        out = g.data @ w.w2
        flops = 2 * r * mlp * d + 2 * r * d
        residual = h2.data
    out = np.add(out, w.b2, out=_into(out, w.b2))
    out = np.add(out, residual, out=_into(out, residual))
    return _finish(out, ctx, flops)


def attention_block(x: Operand, w: BlockWeights, ctx: MeterContext | None, *,
                    given: tuple[np.ndarray, np.ndarray] | None = None,
                    rows: int | None = None, pool: bool = False) -> Tensor:
    """Pre-norm transformer block: LN -> self-attention -> residual,
    LN -> GELU MLP -> residual, with a constant conditioning bias at entry;
    ``block_entry`` then ``block_queries``.

    ``given`` appends rows after x's whose entries ``block_entry`` computed
    before; the block is then the block on both sets of rows. All t rows
    give keys and values. ``rows=r`` lets only the first r query, so the
    output is the first r rows of the full block's. ``pool=True`` reads out
    the mean of the output rows.
    """
    # h and the q/k/v buffer stay held, so metered, while the queries read them
    h, qkv = block_entry(x, w, ctx, given)
    t = len(h.data)
    if rows is not None and not 0 < rows <= t:
        raise ShapeMismatchError(f"block query rows {rows} outside 1..{t}")
    return block_queries(h.data[:rows], qkv.data[0, :rows], qkv.data[1:], w, ctx, pool=pool)


def flops_for(descriptor: tuple) -> int:
    """Analytic FLOPs for one kernel execution with concrete shapes.

    Descriptors: ("matmul", m, k, n), ("add", n), ("clamp", n),
    ("layer_norm", rows, d), ("gelu", n), ("softmax", rows, n),
    ("mean_pool", t, d), ("normalize", t, d), ("linear", t, din, dout),
    ("block_entry", n, d) for ``block_entry`` on n rows of its own,
    ("block_queries", t, d, mlp_width[, rows]) for ``block_queries`` with
    t keys and values and ``rows`` (default t) query rows, ("attention_block", t, d,
    mlp_width[, rows[, given]]) for ``attention_block`` on t rows whose
    first ``rows`` (default t) query and whose last ``given`` (default 0)
    are given, that is block_entry on t - given rows plus block_queries,
    and ("block_queries_pool", ...) and ("attention_block_pool", ...) for
    the same with ``pool=True``.
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
    if name == "normalize":
        t, d = args
        return 2 * t * d + d
    if name == "linear":
        t, din, dout = args
        return 2 * t * din * dout + t * dout
    if name == "block_entry":
        n, d = args
        return (flops_for(("add", n * d))                    # conditioning bias
                + flops_for(("layer_norm", n, d))            # ln1
                + flops_for(("matmul", n, d, 2 * d)))        # query and value
    if name in ("block_queries", "block_queries_pool"):
        t, d, mlp, *rest = args
        r = rest[0] if rest else t
        total = flops_for(("matmul", r, d, t))               # scores of the query rows
        total += flops_for(("softmax", r, t))
        total += flops_for(("matmul", r, t, d))              # aggregate values
        total += flops_for(("add", r * d))                   # residual 1
        total += flops_for(("layer_norm", r, d))             # ln2
        total += flops_for(("linear", r, d, mlp))
        total += flops_for(("gelu", r * mlp))
        if name == "block_queries":
            total += flops_for(("linear", r, mlp, d))
            return total + flops_for(("add", r * d))         # residual 2
        total += flops_for(("mean_pool", r, mlp))            # mean(g)
        total += flops_for(("linear", 1, mlp, d))
        total += flops_for(("mean_pool", r, d))              # mean(h2)
        return total + flops_for(("add", d))                 # pooled residual 2
    if name in ("attention_block", "attention_block_pool"):
        t, d, mlp, *rest = args
        r = rest[0] if rest else t
        given = rest[1] if len(rest) > 1 else 0
        queries = "block_queries_pool" if name == "attention_block_pool" else "block_queries"
        return (flops_for(("block_entry", t - given, d))     # every row not given
                + flops_for((queries, t, d, mlp, r)))
    raise UnknownKernelError(name)


def init_block_weights(rng: np.random.Generator, d: int, *, weight_std: float,
                       dtype) -> BlockWeights:
    """Random block parameters at the given scale, drawn in float64 and
    rounded once to ``dtype``; MLP width 4*d, LN affine at identity.

    Wq, Wk, Wv and Wo are drawn in that order and folded in float64 into
    ``wqk_vo``, which is then rounded once."""
    m = 4 * d
    def w(*shape):
        return rng.standard_normal(shape) * weight_std
    wq, wk, wv, wo = w(d, d), w(d, d), w(d, d), w(d, d)
    return BlockWeights(
        ln1_gamma=np.ones(d, dtype=dtype), ln1_beta=np.zeros(d, dtype=dtype),
        wqk_vo=np.stack([wq @ wk.T / math.sqrt(d), wv @ wo]).astype(dtype),
        ln2_gamma=np.ones(d, dtype=dtype), ln2_beta=np.zeros(d, dtype=dtype),
        w1=w(d, m).astype(dtype), b1=np.zeros(m, dtype=dtype),
        w2=w(m, d).astype(dtype), b2=np.zeros(d, dtype=dtype),
        t_bias=w(d).astype(dtype),
    )
