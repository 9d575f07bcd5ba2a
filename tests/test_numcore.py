import functools
import gc
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from latentscale import numcore as nc


def ctx():
    return nc.MeterContext()


def rand_block(rng, d, std=0.5):
    return nc.init_block_weights(rng, d, weight_std=std, dtype=np.float64)


# ---------------------------------------------------------------- matmul

def test_matmul_identity_and_flops():
    c = ctx()
    a = nc.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = nc.Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]))
    out = nc.matmul(a, b, c)
    assert np.array_equal(out.data, b.data)
    assert c.flops_accumulated == 16


def test_matmul_scalar():
    c = ctx()
    out = nc.matmul(nc.Tensor(np.array([[2.0]])), nc.Tensor(np.array([[3.0]])), c)
    assert out.data[0, 0] == 6.0
    assert c.flops_accumulated == 2


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 4))
    b = rng.standard_normal((4, 8))
    got = nc.matmul(nc.Tensor(a), nc.Tensor(b), ctx()).data
    want = naive_matmul(a, b)
    assert np.abs(got - want).max() <= 1e-12


def test_matmul_dim_mismatch():
    with pytest.raises(nc.ShapeMismatchError):
        nc.matmul(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((2, 3))), ctx())


def given_rows(h_shape, qkv_shape):
    """A block of width 8 on 5 rows, given rows of these shapes."""
    w = rand_block(np.random.default_rng(0), 8)
    return nc.attention_block(np.ones((5, 8)), w, None,
                              given=(np.ones(h_shape), np.ones(qkv_shape)))


def queries(h_shape, q_shape, kv_shape):
    """block_queries of a block of width 8 on operands of these shapes."""
    w = rand_block(np.random.default_rng(0), 8)
    return nc.block_queries(np.ones(h_shape), np.ones(q_shape), np.ones(kv_shape), w, None)


@pytest.mark.parametrize("call", [
    lambda: given_rows((8,), (3, 1, 8)),
    lambda: given_rows((7, 8), (7, 8)),
    lambda: given_rows((7, 7), (3, 7, 7)),
    lambda: nc.linear(np.ones((5, 6)), np.ones((5, 3)), np.ones(3), None),
    lambda: nc.linear(np.ones(6), np.ones((6, 3)), np.ones(3), None),
    lambda: nc.linear(np.ones((5, 6)), np.ones((6, 3)), np.ones(4), None),
    lambda: nc.linear(np.ones((5, 6)), np.ones((6, 3)), np.ones((5, 3)), None),
    lambda: nc.normalize(np.ones((4, 6)), np.zeros(5), np.ones(5), None),
    lambda: nc.normalize(np.ones((4, 6)), np.zeros(6), np.ones((1, 6)), None),
    lambda: nc.attention_block(np.ones((5, 8)), rand_block(np.random.default_rng(0), 8), None,
                               rows=0),
    lambda: nc.attention_block(np.ones((5, 8)), rand_block(np.random.default_rng(0), 8), None,
                               rows=6),
    lambda: queries((0, 8), (0, 8), (2, 5, 8)),
    lambda: queries((5, 8), (4, 8), (2, 5, 8)),
    lambda: queries((5, 8), (5, 8), (3, 5, 8)),
    lambda: queries((5, 8), (5, 8), (2, 5, 7)),
    lambda: queries((5, 8), (5, 8), (2, 0, 8)),
    lambda: queries((5, 7), (5, 7), (2, 5, 7)),
], ids=["given_1d", "given_qkv_2d", "given_width", "linear_inner", "linear_1d",
        "linear_bias_width", "linear_bias_2d", "normalize_width", "normalize_2d_stats",
        "block_no_rows", "block_rows_past_input", "queries_none", "queries_qkv_rows",
        "queries_kv_not_2_t_d", "queries_kv_width", "queries_no_keys", "queries_width"])
def test_shape_errors_are_typed(call):
    with pytest.raises(nc.ShapeMismatchError):
        call()


def test_non_finite_is_hard_error():
    big = nc.Tensor(np.full((2, 2), 1e308))
    with np.errstate(over="ignore"), pytest.raises(nc.NonFiniteError):
        nc.matmul(big, big, ctx())


# ---------------------------------------------------------------- attention block

def test_block_zero_input_zero_weights():
    rng = np.random.default_rng(0)
    w = nc.init_block_weights(rng, 8, weight_std=0.0, dtype=np.float64)
    x = nc.Tensor(np.zeros((5, 8)))
    out = nc.attention_block(x, w, ctx())
    assert np.array_equal(out.data, np.zeros((5, 8)))


def test_block_zero_attn_mlp_weights_is_identity():
    rng = np.random.default_rng(1)
    # zero weights, LN at identity
    w = nc.init_block_weights(rng, 8, weight_std=0.0, dtype=np.float64)
    x = nc.Tensor(rng.standard_normal((6, 8)))
    out = nc.attention_block(x, w, ctx())
    assert np.abs(out.data - x.data).max() == 0.0


def reference_block(x, w):
    """Step-by-step re-implementation, kept independent of numcore."""
    def ln(v, g, b):
        mu = v.mean(axis=1)[:, None]
        var = ((v - mu) ** 2).mean(axis=1)[:, None]
        return (v - mu) / np.sqrt(var + 1e-5) * g + b

    def sm(v):
        rows = []
        for r in v:
            e = np.exp(r - r.max())
            rows.append(e / e.sum())
        return np.stack(rows)

    def gl(v):
        return 0.5 * v * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * v ** 3)))

    h = x + w.t_bias
    a = ln(h, w.ln1_gamma, w.ln1_beta)
    w_qk, w_vo = w.wqk_vo
    p = sm((a @ w_qk) @ a.T)
    h2 = h + p @ (a @ w_vo)
    m = ln(h2, w.ln2_gamma, w.ln2_beta)
    return h2 + gl(m @ w.w1 + w.b1) @ w.w2 + w.b2


def test_block_matches_reference():
    rng = np.random.default_rng(2)
    for trial in range(5):
        d = int(rng.integers(4, 24))
        t = int(rng.integers(1, 12))
        w = rand_block(rng, d)
        x = rng.standard_normal((t, d))
        got = nc.attention_block(nc.Tensor(x), w, ctx()).data
        want = reference_block(x, w)
        assert np.abs(got - want).max() <= 1e-10


def test_block_width_mismatch():
    rng = np.random.default_rng(3)
    w = rand_block(rng, 8)
    with pytest.raises(nc.ShapeMismatchError):
        nc.attention_block(nc.Tensor(np.zeros((4, 6))), w, ctx())


# ---------------------------------------------------------------- flops_for

def test_flops_for_matmul():
    assert nc.flops_for(("matmul", 8, 4, 8)) == 512


def test_flops_for_attention_block_frozen_constant():
    # metered once at T=16, d=32, mlp=128 and frozen as a regression value
    assert nc.flops_for(("attention_block", 16, 32, 128)) == 398_592


def test_flops_for_softmax_linear_in_n():
    for n in (1, 7, 64, 1000):
        assert nc.flops_for(("softmax", 1, n)) == nc.FLOPS_PER_ELEMENT["softmax"] * n


DTYPES = hst.sampled_from([np.float64, np.float32])


@settings(max_examples=100, deadline=None)
@given(t=hst.integers(1, 39), d=hst.integers(1, 64), data=hst.data(),
       seed=hst.integers(0, 2 ** 32 - 1), dtype=DTYPES)
def test_block_readouts_are_the_full_blocks_rows_and_mean(t, d, data, seed, dtype):
    # rows=r is the full block's first r rows and pool=True the mean of its
    # output rows, up to rounding; each charges what flops_for says
    rows = data.draw(hst.integers(1, t), label="rows")
    rng = np.random.default_rng(seed)
    w = nc.init_block_weights(rng, d, weight_std=0.3, dtype=dtype)
    x = rng.standard_normal((t, d)).astype(dtype)
    full = nc.attention_block(x, w, None).data
    tol = (1e-12 if dtype == np.float64 else 1e-5) * max(1.0, np.abs(full).max())
    for kw, want, descriptor in (
            ({"rows": rows}, full[:rows], ("attention_block", t, d, 4 * d, rows)),
            ({"pool": True}, full.mean(axis=0), ("attention_block_pool", t, d, 4 * d)),
            ({"rows": rows, "pool": True}, full[:rows].mean(axis=0),
             ("attention_block_pool", t, d, 4 * d, rows))):
        c = ctx()
        got = nc.attention_block(x, w, c, **kw).data
        assert (got.shape, got.dtype) == (want.shape, full.dtype)
        assert np.abs(got - want).max() <= tol
        assert c.flops_accumulated == nc.flops_for(descriptor)
    assert nc.flops_for(("attention_block", t, d, 4 * d, t)) == nc.flops_for(
        ("attention_block", t, d, 4 * d))


@pytest.mark.parametrize("shape", [(6,), (1, 6), (16, 64), (2, 3, 5)])
def test_normalize_charges_two_per_element_plus_one_per_channel(shape):
    rng = np.random.default_rng(2)
    d = shape[-1]
    c = ctx()
    out = nc.normalize(rng.standard_normal(shape), rng.standard_normal(d),
                       rng.uniform(0.5, 2.0, d), c)
    assert out.shape == shape
    assert c.flops_accumulated == nc.flops_for(("normalize", math.prod(shape) // d, d))
    assert c.flops_accumulated == 2 * math.prod(shape) + d


def test_flops_for_unknown_kernel():
    with pytest.raises(nc.UnknownKernelError):
        nc.flops_for(("conv2d", 3, 3))


def test_metering_exactness_100_random_shapes():
    rng = np.random.default_rng(11)
    for _ in range(100):
        kind = rng.choice(["matmul", "layer_norm", "gelu", "softmax", "linear", "attention_block",
                           "block_queries"])
        if kind == "matmul":
            m, k, n = (int(v) for v in rng.integers(1, 20, size=3))
            c = ctx()
            nc.matmul(nc.Tensor(rng.standard_normal((m, k))),
                      nc.Tensor(rng.standard_normal((k, n))), c)
            assert c.flops_accumulated == nc.flops_for(("matmul", m, k, n))
        elif kind == "layer_norm":
            r, d = int(rng.integers(1, 16)), int(rng.integers(2, 32))
            c = ctx()
            nc.layer_norm(nc.Tensor(rng.standard_normal((r, d))),
                          np.ones(d), np.zeros(d), c)
            assert c.flops_accumulated == nc.flops_for(("layer_norm", r, d))
        elif kind == "gelu":
            n = int(rng.integers(1, 400))
            c = ctx()
            nc.gelu(nc.Tensor(rng.standard_normal(n)), c)
            assert c.flops_accumulated == nc.flops_for(("gelu", n))
        elif kind == "softmax":
            r, n = int(rng.integers(1, 16)), int(rng.integers(1, 40))
            c = ctx()
            nc.softmax(nc.Tensor(rng.standard_normal((r, n))), c)
            assert c.flops_accumulated == nc.flops_for(("softmax", r, n))
        elif kind == "linear":
            t, din, dout = (int(v) for v in rng.integers(1, 20, size=3))
            c = ctx()
            nc.linear(rng.standard_normal((t, din)), rng.standard_normal((din, dout)),
                      rng.standard_normal(dout), c)
            assert c.flops_accumulated == nc.flops_for(("linear", t, din, dout))
        elif kind == "block_queries":
            t, d = int(rng.integers(1, 12)), int(rng.integers(4, 20))
            start = int(rng.integers(0, t))
            stop = int(rng.integers(start + 1, t + 1))
            pool = bool(rng.integers(0, 2))
            w = rand_block(rng, d, std=0.1)
            h, qkv = (e.data for e in nc.block_entry(rng.standard_normal((t, d)), w, None))
            c = ctx()
            nc.block_queries(h[start:stop], qkv[0, start:stop], qkv[1:], w, c, pool=pool)
            kernel = "block_queries_pool" if pool else "block_queries"
            assert c.flops_accumulated == nc.flops_for((kernel, t, d, 4 * d, stop - start))
        else:
            # the last p of the block's t rows are given: block_entry made them
            t, d = int(rng.integers(1, 12)), int(rng.integers(4, 20))
            p = int(rng.integers(0, t))
            w = rand_block(rng, d, std=0.1)
            c = ctx()
            h, qkv = nc.block_entry(rng.standard_normal((p, d)), w, c)
            assert c.flops_accumulated == nc.flops_for(("block_entry", p, d))
            c = ctx()
            nc.attention_block(nc.Tensor(rng.standard_normal((t - p, d))), w, c,
                               given=(h.data, qkv.data))
            assert c.flops_accumulated == nc.flops_for(("attention_block", t, d, 4 * d, t, p))


# ---------------------------------------------------------------- meter context

def test_meter_monotone_and_peak_dominance():
    rng = np.random.default_rng(5)
    c = ctx()
    seen = []
    x = nc.Tensor(rng.standard_normal((8, 8)))
    w = rand_block(rng, 8, std=0.1)
    for _ in range(4):
        before = c.flops_accumulated
        x = nc.attention_block(x, w, c)
        seen.append(c.flops_accumulated)
        assert c.flops_accumulated >= before
        assert c.bytes_peak >= c.bytes_live
    assert seen == sorted(seen)
    # peak covers at least the block's [8, 8] float64 output
    assert c.bytes_peak >= 8 * 8 * 8


def test_block_registers_10_outputs(monkeypatch):
    # the bias and residual epilogues share their product's buffer, and q,
    # k, v are slabs of one: h, ln1, qkv, scores, probs, h2, ln2, MLP-up,
    # gelu, out; given rows are written into h's and qkv's
    rng = np.random.default_rng(6)
    w = rand_block(rng, 8, std=0.1)
    h, qkv = nc.block_entry(rng.standard_normal((3, 8)), w, None)
    seen = []
    register = nc.MeterContext.register

    def record(c, tensor):
        seen.append(tensor.shape)
        register(c, tensor)

    monkeypatch.setattr(nc.MeterContext, "register", record)
    for given in (None, (h.data, qkv.data)):
        seen.clear()
        nc.attention_block(rng.standard_normal((5, 8)), w, ctx(), given=given)
        assert len(seen) == 10


def test_an_operand_passed_straight_in_is_metered_until_the_kernel_returns():
    # no caller holds linear's output while gelu reads it, so gelu keeps it
    c = ctx()
    out = nc.gelu(nc.linear(np.ones((4, 8)), np.ones((8, 16)), np.zeros(16), c), c)
    assert c.bytes_peak == 2 * 4 * 16 * 8  # the MLP-up output and the GELU's
    del out
    assert c.bytes_live == 0


def test_bytes_live_falls_when_tensors_die():
    c = ctx()
    out = nc.matmul(nc.Tensor(np.ones((32, 32))), nc.Tensor(np.ones((32, 32))), c)
    held = c.bytes_live
    assert held >= 32 * 32 * 8
    del out
    assert c.bytes_live < held


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        w = rand_block(rng, 16, std=0.3)
        x = nc.Tensor(rng.standard_normal((10, 16)))
        return nc.attention_block(x, w, ctx()).data.tobytes()

    assert run() == run()


def test_float32_supported():
    rng = np.random.default_rng(9)
    a = nc.Tensor(rng.standard_normal((4, 4)).astype(np.float32))
    out = nc.matmul(a, a, ctx())
    assert out.dtype == np.float32
    w = nc.init_block_weights(rng, 8, weight_std=0.1, dtype=np.float32)
    c = ctx()
    out = nc.attention_block(rng.standard_normal((5, 8)).astype(np.float32), w, c)
    assert out.dtype == np.float32
    assert c.bytes_live == out.data.nbytes == 5 * 8 * 4


# ---------------------------------------------------------------- operands and outputs

def _kernel_cases(seed=13, dtype=np.float64):
    """name -> (kernel, operands, params): ``kernel(*operands, *params, ctx)``.
    Operands may be Tensors; params are the weights passed as plain arrays."""
    rng = np.random.default_rng(seed)

    def r(*shape):
        return rng.standard_normal(shape).astype(dtype)

    x, y = r(5, 6), r(5, 6)
    w, b = r(6, 3), r(3)
    blk = nc.init_block_weights(rng, 6, weight_std=0.3, dtype=dtype)

    def block_given_y(a, y, blk, ctx):
        h, qkv = nc.block_entry(y, blk, None)
        return nc.attention_block(a, blk, ctx, given=(h.data, qkv.data))

    # writable, as the rest: rows 1..5 of a 10-row entry query, then rows 5..9
    h, qkv = (e.data for e in nc.block_entry(np.concatenate([x, y]), blk, None))
    entry = [(h[a:a + 5].copy(), qkv[0, a:a + 5].copy(), qkv[1:].copy()) for a in (1, 5)]

    return {
        "matmul": (nc.matmul, (x, w), ()),
        "clamp01": (nc.clamp01, (x,), ()),
        "layer_norm": (nc.layer_norm, (x,), (w[:, 0], w[:, 1])),
        "gelu": (nc.gelu, (x,), ()),
        "softmax": (nc.softmax, (x,), ()),
        "normalize": (nc.normalize, (x,), (r(6), rng.uniform(0.5, 2.0, 6).astype(dtype))),
        "linear": (nc.linear, (x,), (w, b)),
        "attention_block": (nc.attention_block, (x,), (blk,)),
        "attention_block_rows": (functools.partial(nc.attention_block, rows=3), (x,), (blk,)),
        "attention_block_pool": (functools.partial(nc.attention_block, pool=True), (x,), (blk,)),
        "attention_block_given": (block_given_y, (x,), (y, blk)),
        "block_queries": (nc.block_queries, entry[0], (blk,)),
        "block_queries_pool": (functools.partial(nc.block_queries, pool=True), entry[1],
                               (blk,)),
    }


def _ref_layer_norm(x, gamma, beta):
    centered = x - x.mean(axis=-1, keepdims=True)
    return centered / np.sqrt(np.var(x, axis=-1, keepdims=True) + 1e-5) * gamma + beta


def _ref_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(nc.GELU_C0 * (x + nc.GELU_C1 * (x * x * x))))


def _ref_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _ref_queries(h, q, kv, w, pool=False):
    """The block after its entry as unfused numpy steps in the kernels' order
    (bitwise reference): the rows of h and q query, and ``pool`` reads out
    their mean."""
    k, v = kv
    probs = _ref_softmax(q @ np.ascontiguousarray(k.T))
    h2 = probs @ v + h
    m = _ref_layer_norm(h2, w.ln2_gamma, w.ln2_beta)
    g = _ref_gelu(m @ w.w1 + w.b1)
    if pool:
        return h2.mean(axis=0) + (g.mean(axis=0) @ w.w2 + w.b2)
    return h2 + (g @ w.w2 + w.b2)


def _ref_block(x, w, rows=None, pool=False):
    """The block as unfused numpy steps (bitwise reference), with the query
    and value projected separately and ln1's output as the key; the first
    ``rows`` query, and ``pool`` reads out their mean."""
    h = x + w.t_bias
    a = _ref_layer_norm(h, w.ln1_gamma, w.ln1_beta)
    qkv = np.stack([a @ w.wqk_vo[0], a, a @ w.wqk_vo[1]])
    return _ref_queries(h[:rows], qkv[0, :rows], qkv[1:], w, pool=pool)


_REFERENCE = {
    "matmul": np.matmul,
    "clamp01": lambda a: np.clip(a, 0.0, 1.0),
    "layer_norm": _ref_layer_norm,
    "gelu": _ref_gelu,
    "softmax": _ref_softmax,
    "normalize": lambda a, mean, var: (a - mean) / np.sqrt(var + 1e-6),
    "linear": lambda a, w, b: a @ w + b,
    "attention_block": _ref_block,
    "attention_block_rows": functools.partial(_ref_block, rows=3),
    "attention_block_pool": functools.partial(_ref_block, pool=True),
    "attention_block_given": lambda a, y, w: _ref_block(np.concatenate([a, y]), w),
    "block_queries": _ref_queries,
    "block_queries_pool": functools.partial(_ref_queries, pool=True),
}

CASE_NAMES = sorted(_kernel_cases())


@pytest.mark.parametrize("name", CASE_NAMES)
def test_plain_array_operands_match_tensor_operands(name):
    kernel, args, params = _kernel_cases()[name]
    c_plain, c_tensor = ctx(), ctx()
    plain = kernel(*args, *params, c_plain)
    wrapped = kernel(*(nc.Tensor(a) for a in args), *params, c_tensor)
    assert isinstance(plain, nc.Tensor)
    assert plain.data.tobytes() == wrapped.data.tobytes()
    assert c_plain.flops_accumulated == c_tensor.flops_accumulated
    assert (c_plain.bytes_live, c_plain.bytes_peak) == (c_tensor.bytes_live, c_tensor.bytes_peak)
    assert not plain.data.flags.writeable
    with pytest.raises(ValueError):
        plain.data[...] = 0.0


@settings(max_examples=150, deadline=None)
@given(name=hst.sampled_from(CASE_NAMES), seed=hst.integers(0, 2 ** 32 - 1), dtype=DTYPES)
def test_fused_kernels_match_unfused_reference_bitwise(name, seed, dtype):
    kernel, args, params = _kernel_cases(seed, dtype)[name]
    got = kernel(*args, *params, None).data
    want = _REFERENCE[name](*args, *params)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(t=hst.integers(1, 39), d=hst.integers(1, 64), data=hst.data(),
       seed=hst.integers(0, 2 ** 32 - 1), dtype=DTYPES)
def test_block_matches_unfused_reference_bitwise_at_any_shape(t, d, data, seed, dtype):
    # the one query and value product gives the bits of two separate
    # products, in every readout
    rows = data.draw(hst.none() | hst.integers(1, t), label="rows")
    pool = data.draw(hst.booleans(), label="pool")
    rng = np.random.default_rng(seed)
    w = nc.init_block_weights(rng, d, weight_std=0.3, dtype=dtype)
    x = rng.standard_normal((t, d)).astype(dtype)
    got = nc.attention_block(x, w, None, rows=rows, pool=pool).data
    want = _ref_block(x, w, rows, pool)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _four_draws(rng, d, std):
    """Wq, Wk, Wv and Wo in float64, drawn as ``init_block_weights`` draws them."""
    return [rng.standard_normal((d, d)) * std for _ in range(4)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d", [1, 8, 64])
def test_init_folds_the_four_attention_draws_in_float64_and_rounds_once(d, dtype):
    rng = np.random.default_rng(21)
    wq, wk, wv, wo = _four_draws(rng, d, 0.01)
    w = nc.init_block_weights(np.random.default_rng(21), d, weight_std=0.01, dtype=dtype)
    folded = np.stack([wq @ wk.T / math.sqrt(d), wv @ wo])
    assert w.wqk_vo.tobytes() == folded.astype(dtype).tobytes()
    # the draws after the four keep their places in the stream
    assert w.w1.tobytes() == (rng.standard_normal((d, 4 * d)) * 0.01).astype(dtype).tobytes()


def _unfolded_block(x, factors, w, rows, pool):
    """The block in float64 with Wq, Wk, Wv and Wo apart and the scores
    scaled by an explicit 1/√d; its other weights are ``w``'s, widened."""
    wq, wk, wv, wo = factors
    f64 = {name: np.asarray(a, np.float64) for name, a in vars(w).items()}
    h = x + f64["t_bias"]
    a = _ref_layer_norm(h, f64["ln1_gamma"], f64["ln1_beta"])
    q, k, v = a @ wq, a @ wk, a @ wv
    h2 = h + (_ref_softmax(q @ k.T / math.sqrt(x.shape[1])) @ v) @ wo
    m = _ref_layer_norm(h2, f64["ln2_gamma"], f64["ln2_beta"])
    out = (h2 + _ref_gelu(m @ f64["w1"] + f64["b1"]) @ f64["w2"] + f64["b2"])[:rows]
    return out.mean(axis=0) if pool else out


@settings(max_examples=100, deadline=None)
@given(t=hst.integers(1, 39), d=hst.integers(1, 64), data=hst.data(),
       seed=hst.integers(0, 2 ** 32 - 1), dtype=DTYPES)
def test_folded_block_matches_the_unfolded_float64_block(t, d, data, seed, dtype):
    # the block on init_block_weights' folded pair against the same four
    # draws kept apart, on t rows whose last p are given, in every readout.
    # The fold reorders the sums and, in float32, rounds W_QK and W_VO
    # once: the two agree to 1e-12 (float64) or 1e-5 (float32) of the
    # output's scale, where 1,500 random cases of each read at most 6e-15
    # and 3.4e-6
    p = data.draw(hst.integers(0, t - 1), label="given")
    rows = data.draw(hst.none() | hst.integers(1, t), label="rows")
    pool = data.draw(hst.booleans(), label="pool")
    factors = _four_draws(np.random.default_rng(seed), d, 0.3)
    w = nc.init_block_weights(np.random.default_rng(seed), d, weight_std=0.3, dtype=dtype)
    x = np.random.default_rng([seed, 1]).standard_normal((t, d)).astype(dtype)
    given = None
    if p:
        given = tuple(e.data for e in nc.block_entry(x[t - p:], w, None))
    got = nc.attention_block(x[:t - p], w, None, given=given, rows=rows, pool=pool).data
    want = _unfolded_block(x.astype(np.float64), factors, w, rows, pool)
    assert got.shape == want.shape and got.dtype == dtype
    tol = (1e-12 if dtype == np.float64 else 1e-5) * max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= tol


@settings(max_examples=150, deadline=None)
@given(n=hst.integers(1, 30), p=hst.integers(0, 12), vocab=hst.integers(1, 40),
       data=hst.data(), seed=hst.integers(0, 2 ** 32 - 1), dtype=DTYPES)
def test_block_with_given_rows_is_the_block_on_the_concatenated_rows(n, p, vocab, data, seed,
                                                                     dtype):
    # p rows looked up in a table of block_entry's rows for a vocabulary.
    # At the stack's width, 64, OpenBLAS's gemm gives a product's row the
    # same bits whatever rows it is computed beside, so the looked-up rows
    # are bitwise the plain block's. NumPy sends a one-row product to gemv
    # instead, and at some widths the gemm kernel's bits depend on a row's
    # neighbours, so there the two agree to rounding
    d = data.draw(hst.just(64) | hst.integers(1, 64), label="d")
    rows = data.draw(hst.none() | hst.integers(1, n + p), label="rows")
    pool = data.draw(hst.booleans(), label="pool")
    rng = np.random.default_rng(seed)
    w = nc.init_block_weights(rng, d, weight_std=0.3, dtype=dtype)
    x = rng.standard_normal((n, d)).astype(dtype)
    table = rng.standard_normal((vocab, d)).astype(dtype)
    ids = rng.integers(0, vocab, p)
    h, qkv = nc.block_entry(table, w, None)
    c = ctx()
    got = nc.attention_block(x, w, c, given=(h.data[ids], qkv.data[:, ids]),
                             rows=rows, pool=pool).data
    want = nc.attention_block(np.concatenate([x, table[ids]]), w, None, rows=rows,
                              pool=pool).data
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    if d == 64 and min(n, vocab) >= 2:
        assert got.tobytes() == want.tobytes()
    else:
        tol = (1e-12 if dtype == np.float64 else 1e-5) * max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= tol
    kind = "attention_block_pool" if pool else "attention_block"
    assert c.flops_accumulated == nc.flops_for((kind, n + p, d, 4 * d, rows or n + p, p))


@settings(max_examples=100, deadline=None)
@given(t=hst.integers(2, 39), p=hst.integers(0, 12), data=hst.data(),
       seed=hst.integers(0, 2 ** 32 - 1))
def test_block_queries_split_at_any_row_join_to_the_block(t, p, data, seed):
    # width 64, float32, as the stack serves; the last p of the t rows are
    # given. The query rows' bits can depend on how the BLAS groups a
    # product's rows: with OpenBLAS's Haswell sgemm the scores product
    # [r, d] @ [d, t] takes rows in groups of 4 from the first, and NumPy
    # sends a one-row product to gemv, so a split is bitwise there when its
    # row is a multiple of 4 that leaves at least 2 rows after it, as the
    # generator's at 16 of 23 does, and else equal to rounding
    r = data.draw(hst.integers(1, t - 1), label="r")
    p = min(p, t - 1)
    rng = np.random.default_rng(seed)
    d = 64
    w = nc.init_block_weights(rng, d, weight_std=0.3, dtype=np.float32)
    x = rng.standard_normal((t - p, d)).astype(np.float32)
    given = None
    if p:
        given = tuple(e.data for e in nc.block_entry(
            rng.standard_normal((p, d)).astype(np.float32), w, None))
    c_entry, c_head, c_tail = ctx(), ctx(), ctx()
    h, qkv = (e.data for e in nc.block_entry(x, w, c_entry, given))
    head = nc.block_queries(h[:r], qkv[0, :r], qkv[1:], w, c_head).data
    tail = nc.block_queries(h[r:], qkv[0, r:], qkv[1:], w, c_tail).data
    want = nc.attention_block(x, w, None, given=given).data
    got = np.concatenate([head, tail])
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    if r % 4 == 0 and t - r >= 2:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max() <= 1e-5 * max(1.0, np.abs(want).max())
    assert c_head.flops_accumulated == nc.flops_for(("block_queries", t, d, 4 * d, r))
    assert c_tail.flops_accumulated == nc.flops_for(("block_queries", t, d, 4 * d, t - r))
    assert (c_entry.flops_accumulated + c_head.flops_accumulated + c_tail.flops_accumulated
            == nc.flops_for(("attention_block", t, d, 4 * d, t, p)))


def test_fused_kernels_keep_numpy_promotion_of_mixed_precision():
    # a float64 bias or affine on a float32 product widens the output, as
    # the unfused add did; it must not be cast down into the product's buffer
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 6)).astype(np.float32)
    w, b = rng.standard_normal((6, 3)).astype(np.float32), rng.standard_normal(3)
    out = nc.linear(x, w, b, None).data
    assert out.dtype == np.float64 and out.tobytes() == (x @ w + b).tobytes()
    g, beta = np.ones(6), rng.standard_normal(6)
    out = nc.layer_norm(x, g, beta, None).data
    assert out.dtype == np.float64 and out.tobytes() == _ref_layer_norm(x, g, beta).tobytes()


def _arrays(values):
    for v in values:
        if isinstance(v, nc.BlockWeights):
            yield from vars(v).values()
        elif isinstance(v, np.ndarray):
            yield v


@settings(max_examples=100, deadline=None)
@given(name=hst.sampled_from(CASE_NAMES), seed=hst.integers(0, 2 ** 32 - 1), dtype=DTYPES)
def test_kernels_never_write_to_their_operands(name, seed, dtype):
    kernel, args, params = _kernel_cases(seed, dtype)[name]
    arrays = list(_arrays(args + params))
    assert arrays and all(a.flags.writeable for a in arrays)
    before = [a.tobytes() for a in arrays]
    kernel(*args, *params, ctx())
    assert [a.tobytes() for a in arrays] == before


# ---------------------------------------------------------------- finite check

@settings(max_examples=200, deadline=None)
@given(name=hst.sampled_from(CASE_NAMES), seed=hst.integers(0, 2 ** 32 - 1), dtype=DTYPES,
       value=hst.sampled_from([np.nan, np.inf, -np.inf, "huge"]), where=hst.integers(0, 29))
def test_kernel_raises_iff_output_is_non_finite(name, seed, dtype, value, where):
    # "huge" is finite but its square overflows, so the exact fallback decides
    kernel, args, params = _kernel_cases(seed, dtype)[name]
    args[0].flat[where] = (1e200 if dtype == np.float64 else 1e30) if value == "huge" else value
    with np.errstate(all="ignore"):
        want = _REFERENCE[name](*args, *params)
        if np.isfinite(want).all():
            assert kernel(*args, *params, ctx()).data.tobytes() == want.tobytes()
        else:
            with pytest.raises(nc.NonFiniteError):
                kernel(*args, *params, ctx())


@pytest.mark.parametrize("name", CASE_NAMES)
def test_nan_operand_raises_for_every_kernel(name):
    kernel, args, params = _kernel_cases()[name]
    args[0].flat[7] = np.nan
    with pytest.raises(nc.NonFiniteError):
        kernel(*args, *params, ctx())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 9, 19])
def test_any_non_finite_output_element_raises(dtype, value, where):
    out = np.ones((4, 5), dtype=dtype)
    out.flat[where] = value
    with pytest.raises(nc.NonFiniteError):
        # [20, 1] @ [[1]]: the output is out, element for element
        nc.matmul(out.reshape(-1, 1), np.ones((1, 1), dtype), ctx())


@pytest.mark.parametrize("dtype, big", [(np.float64, 1e200), (np.float32, 1e30)])
def test_finite_values_whose_squares_overflow_pass(dtype, big):
    x = np.full((3, 4), big, dtype=dtype)
    assert not math.isfinite(np.vdot(x, x))  # the element-wise fallback runs
    out = nc.matmul(x, np.eye(4, dtype=dtype), ctx())
    assert np.isfinite(out.data).all() and np.abs(out.data).min() > big / 2


def test_overflowing_attention_scores_raise_though_softmax_would_hide_them():
    # token 0's self-score q0.a0 = a0 W_QK a0 overflows to -Inf through W_QK
    # while its query stays finite, and no other score overflows: the
    # softmax would make that row [0, 1], so only the checked scores catch it
    w = nc.init_block_weights(np.random.default_rng(8), 2, weight_std=0.3, dtype=np.float64)
    w.t_bias[:] = 0.0
    x = np.array([[10.0, -10.0], [-10.0, 10.0]])
    s = nc.layer_norm(x, w.ln1_gamma, w.ln1_beta, None).data[0, 0]
    w.ln1_beta[:] = s  # the normalized tokens become exactly (2s, 0) and (0, 2s)
    assert 2 * s > 1.5  # so the query's -1e308 times 2s overflows
    w_qk = np.diag([-1e308 / (2 * s), 1.0])
    w.wqk_vo = np.stack([w_qk, w.wqk_vo[1]])
    with np.errstate(all="ignore"):
        a = nc.layer_norm(x, w.ln1_gamma, w.ln1_beta, None).data
        q = a @ w_qk
        scores = q @ a.T
        assert np.isfinite(q).all()
        assert np.isneginf(scores[0, 0]) and np.isfinite(scores.ravel()[1:]).all()
        assert np.isfinite(_ref_block(x, w)).all()
        with pytest.raises(nc.NonFiniteError):
            nc.attention_block(x, w, ctx())


@settings(max_examples=150, deadline=None)
@given(name=hst.sampled_from(CASE_NAMES), seed=hst.integers(0, 2 ** 32 - 1), dtype=DTYPES)
def test_kernel_outputs_are_fresh_read_only_c_contiguous_floats(name, seed, dtype):
    # Tensor keeps what it is handed, so every kernel must hand it this
    kernel, args, params = _kernel_cases(seed, dtype)[name]
    out = kernel(*args, *params, ctx()).data
    assert out.dtype == dtype and out.flags.c_contiguous and not out.flags.writeable
    operands = [*args, *params, *(w for p in params if isinstance(p, nc.BlockWeights)
                                  for w in vars(p).values())]
    assert not any(np.shares_memory(out, a) for a in operands if isinstance(a, np.ndarray))


@pytest.mark.parametrize("bad", [[[1.0], [1.0, 2.0]], object()], ids=["ragged", "object"])
def test_failed_tensor_init_is_released_quietly(bad, monkeypatch):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    c = ctx()
    with pytest.raises(AttributeError):  # a non-array has no write flag to clear
        nc.Tensor(bad, c)
    gc.collect()
    assert unraisable == []
    assert c.bytes_live == 0
