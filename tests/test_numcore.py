import gc
import math
import sys

import numpy as np
import pytest

from latentscale import numcore as nc


def ctx():
    return nc.MeterContext()


def rand_block(rng, d, mlp=None, std=0.5):
    return nc.init_block_weights(rng, d, mlp_width=mlp, weight_std=std)


# ---------------------------------------------------------------- matmul

def test_matmul_identity_and_flops():
    c = ctx()
    a = nc.Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = nc.Tensor([[3.0, 4.0], [5.0, 6.0]])
    out = nc.matmul(a, b, c)
    assert np.array_equal(out.data, b.data)
    assert c.flops_accumulated == 16


def test_matmul_scalar():
    c = ctx()
    out = nc.matmul(nc.Tensor([[2.0]]), nc.Tensor([[3.0]]), c)
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


def test_non_finite_is_hard_error():
    big = nc.Tensor(np.full((2, 2), 1e308))
    with np.errstate(over="ignore"), pytest.raises(nc.NonFiniteError):
        nc.matmul(big, big, ctx())


# ---------------------------------------------------------------- attention block

def test_block_zero_input_zero_weights():
    rng = np.random.default_rng(0)
    w = nc.init_block_weights(rng, 8, weight_std=0.0)
    x = nc.Tensor(np.zeros((5, 8)))
    out = nc.attention_block(x, w, ctx())
    assert np.array_equal(out.data, np.zeros((5, 8)))


def test_block_zero_attn_mlp_weights_is_identity():
    rng = np.random.default_rng(1)
    w = nc.init_block_weights(rng, 8, weight_std=0.0)  # zero weights, LN at identity
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
    q, k, v = a @ w.wq, a @ w.wk, a @ w.wv
    p = sm(q @ k.T / math.sqrt(x.shape[1]))
    h2 = h + (p @ v) @ w.wo
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
    assert nc.flops_for(("attention_block", 16, 32, 128)) == 464_384


def test_flops_for_softmax_linear_in_n():
    for n in (1, 7, 64, 1000):
        assert nc.flops_for(("softmax", 1, n)) == nc.FLOPS_PER_ELEMENT["softmax"] * n


def test_flops_for_unknown_kernel():
    with pytest.raises(nc.UnknownKernelError):
        nc.flops_for(("conv2d", 3, 3))


def test_metering_exactness_100_random_shapes():
    rng = np.random.default_rng(11)
    for _ in range(100):
        kind = rng.choice(["matmul", "layer_norm", "gelu", "softmax", "attention_block"])
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
        else:
            t, d = int(rng.integers(1, 12)), int(rng.integers(4, 20))
            w = rand_block(rng, d, std=0.1)
            c = ctx()
            nc.attention_block(nc.Tensor(rng.standard_normal((t, d))), w, c)
            assert c.flops_accumulated == nc.flops_for(("attention_block", t, d, 4 * d))


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
    # one block allocates ~11 intermediate [t,d]-ish buffers; peak covers them
    assert c.bytes_peak >= 8 * 8 * 8


def test_bytes_live_falls_when_tensors_die():
    c = ctx()
    out = nc.matmul(nc.Tensor(np.ones((32, 32))), nc.Tensor(np.ones((32, 32))), c)
    held = c.bytes_live
    assert held >= 32 * 32 * 8
    del out
    assert c.bytes_live < held


def test_disabled_context_is_noop():
    c = nc.MeterContext(enabled=False)
    nc.matmul(nc.Tensor(np.ones((4, 4))), nc.Tensor(np.ones((4, 4))), c)
    assert c.flops_accumulated == 0 and c.bytes_peak == 0


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

def _kernel_cases():
    rng = np.random.default_rng(13)
    x, y = rng.standard_normal((5, 6)), rng.standard_normal((5, 6))
    w, b = rng.standard_normal((6, 3)), rng.standard_normal(3)
    blk = rand_block(rng, 6, std=0.3)
    return {
        "matmul": (nc.matmul, (x, w)),
        "add": (nc.add, (x, y)),
        "add_row": (nc.add, (x, rng.standard_normal(6))),
        "scale": (lambda a, c: nc.scale(a, 0.3, c), (x,)),
        "clamp01": (nc.clamp01, (x,)),
        "layer_norm": (lambda a, c: nc.layer_norm(a, w[:, 0], w[:, 1], c), (x,)),
        "gelu": (nc.gelu, (x,)),
        "softmax": (nc.softmax, (x,)),
        "mean_pool": (nc.mean_pool, (x,)),
        "concat_rows": (nc.concat_rows, (x, y)),
        "linear": (lambda a, c: nc.linear(a, w, b, c), (x,)),
        "attention_block": (lambda a, c: nc.attention_block(a, blk, c), (x,)),
    }


@pytest.mark.parametrize("name", sorted(_kernel_cases()))
def test_plain_array_operands_match_tensor_operands(name):
    kernel, args = _kernel_cases()[name]
    c_plain, c_tensor = ctx(), ctx()
    plain = kernel(*args, c_plain)
    wrapped = kernel(*(nc.Tensor(a) for a in args), c_tensor)
    assert isinstance(plain, nc.Tensor)
    assert plain.data.tobytes() == wrapped.data.tobytes()
    assert c_plain.flops_accumulated == c_tensor.flops_accumulated
    assert (c_plain.bytes_live, c_plain.bytes_peak) == (c_tensor.bytes_live, c_tensor.bytes_peak)
    assert not plain.data.flags.writeable
    with pytest.raises(ValueError):
        plain.data[...] = 0.0


def test_tensor_copies_only_non_contiguous_or_non_float_input():
    a = np.ones((4, 3))
    assert nc.Tensor(a).data is a
    assert not a.flags.writeable
    f32 = np.ones((4, 3), dtype=np.float32)
    assert nc.Tensor(f32).data is f32
    strided = np.ones((4, 6))[:, ::2]
    t = nc.Tensor(strided)
    assert t.data.flags.c_contiguous and not np.shares_memory(t.data, strided)
    assert nc.Tensor(np.ones(3, dtype=np.int64)).dtype == np.float64


@pytest.mark.parametrize("bad", [[[1.0], [1.0, 2.0]], object()], ids=["ragged", "object"])
def test_failed_tensor_init_is_released_quietly(bad, monkeypatch):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    c = ctx()
    with pytest.raises((TypeError, ValueError)):
        nc.Tensor(bad, c)
    gc.collect()
    assert unraisable == []
    assert c.bytes_live == 0
