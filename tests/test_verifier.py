import dataclasses
import hashlib
import io
import json
import os
import stat
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from latentscale import fit, scenes, toygen, verifier
from latentscale.numcore import (
    BlockWeights, MeterContext, Tensor, attention_block, block_entry, flops_for, gelu, linear,
    normalize,
)
from latentscale.verifier import (
    CheckpointError, Score, VerifierConfig, init_verifier, load_checkpoint,
    save_checkpoint, score_from_logits, select_best,
)


def in_score_range(value: float) -> bool:
    return -1.0 <= value <= -0.5 or 0.5 <= value <= 1.0


# ---------------------------------------------------------------- scores

@given(hst.lists(hst.floats(-1e6, 1e6), min_size=2, max_size=2))
def test_score_from_logits_in_range_with_sign_of_decision(logits):
    s = score_from_logits(np.array(logits))
    assert in_score_range(s.value)
    assert s.decision == (s.value > 0)


def test_candidate_scores_in_range_and_float64(default_generator, rng):
    cfg = VerifierConfig()
    params = init_verifier(cfg)
    for seed in range(6):
        p = scenes.sample_prompt(rng)
        st = toygen.generate_tapped(default_generator, p, seed, None)
        feats = verifier.extract_features(default_generator, st, cfg, None, None)
        ids = scenes.encode_prompt_tokens(p)
        s = verifier.score(params, cfg, feats, ids)
        assert in_score_range(s.value)
        # float32 features still give a float64 margin, whose logits [margin, 0] are scored
        margin = verifier.head_margin(params, feats.data.astype(np.float32))
        assert type(margin) is float
        assert s == score_from_logits(np.array([margin, 0.0]))


@settings(max_examples=50, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), scale=hst.floats(1e-3, 1e3),
       bias=hst.floats(-1e3, 1e3))
def test_head_scores_in_range_with_sign_of_decision(seed, scale, bias):
    params = init_verifier(VerifierConfig(), seed=seed)
    params["head.b"] = np.array([bias], dtype=np.float32)
    rng = np.random.default_rng(seed)
    feats = (rng.standard_normal((toygen.CONTENT_TOKENS, verifier.FEATURE_DIM))
             * scale).astype(np.float32)
    s = verifier.score(params, VerifierConfig(), feats, np.zeros(scenes.PROMPT_TOKEN_LEN, int))
    assert in_score_range(s.value)
    assert s.decision == (s.value > 0) == (verifier.head_margin(params, feats) >= 0)


def test_head_margin_is_the_float64_dot_product(default_generator, rng):
    # the checked-in head on normalized tap features; float32 sums of n terms
    # in any order are within n * eps * sum|terms| of the float64 result
    params, cfg, stats, _ = load_checkpoint(fit.CHECKPOINT)
    w, b = params["head.w"].astype(np.float64)[:, 0], float(params["head.b"][0])
    eps = np.finfo(np.float32).eps
    for seed in range(8):
        st = toygen.generate_tapped(default_generator, scenes.sample_prompt(rng), seed, None)
        feats = verifier.extract_features(default_generator, st, cfg, stats, None)
        x = feats.data.ravel().astype(np.float64)
        tolerance = verifier.HEAD_INPUTS * eps * (np.abs(x) @ np.abs(w) + abs(b))
        assert abs(verifier.head_margin(params, feats) - (x @ w + b)) <= tolerance


# ---------------------------------------------------------------- FLOPs

def scorer_flops(tokens: int) -> int:
    """Closed-form FLOPs of ``score`` on ``tokens`` feature rows: block 0
    looks up the prompt rows' entries, and the last block reads out the row
    mean."""
    d, seq = verifier.SCORER_DIM, tokens + scenes.PROMPT_TOKEN_LEN
    hidden = verifier.CONNECTOR_HIDDEN
    blocks = (flops_for(("attention_block", seq, d, 4 * d, seq, scenes.PROMPT_TOKEN_LEN))
              + (verifier.SCORER_BLOCKS - 2) * flops_for(("attention_block", seq, d, 4 * d))
              + flops_for(("attention_block_pool", seq, d, 4 * d)))
    return (flops_for(("linear", tokens, verifier.FEATURE_DIM, hidden))
            + flops_for(("gelu", tokens * hidden))
            + flops_for(("linear", tokens, hidden, d))                 # feature segment in b2
            + blocks
            + flops_for(("linear", 1, d, 2))
            + flops_for(("softmax", 1, 2)))


def head_flops() -> int:
    """Closed-form FLOPs of the ``hidden_state`` ``score``: the head's
    product with its bias, and the softmax over [margin, 0]."""
    return flops_for(("linear", 1, verifier.HEAD_INPUTS, 1)) + flops_for(("softmax", 1, 2))


def encoder_flops() -> int:
    """Closed-form FLOPs of ``encode_pixels``: patch projection and blocks."""
    patches, e = (scenes.IMAGE_SIZE // scenes.PATCH) ** 2, verifier.FEATURE_DIM
    return (flops_for(("linear", patches, 3 * scenes.PATCH ** 2, e))
            + verifier.ENCODER_DEPTH * flops_for(("attention_block", patches, e, 4 * e)))


def metered_verification_flops(gen, cfg, stats, prompt, state, image=None) -> int:
    params, ctx = init_verifier(cfg), MeterContext()
    feats = verifier.extract_features(gen, state, cfg, stats, ctx, params=params, image=image)
    verifier.score(params, cfg, feats, scenes.encode_prompt_tokens(prompt), ctx)
    return ctx.flops_accumulated


def test_hidden_state_verification_flops_match_closed_form(default_generator, rng):
    cfg, p = VerifierConfig(), scenes.sample_prompt(rng)
    st = toygen.generate_tapped(default_generator, p, 2, None)
    feats = toygen.tap_hidden_features(st)
    stats = scenes.calibrate_feature_stats([feats, feats + 1.0])
    tokens, width = feats.shape
    normalize = 2 * tokens * width + width
    assert (metered_verification_flops(default_generator, cfg, stats, p, st)
            == normalize + head_flops())


def test_default_bon_hidden_flops_per_image_closed_form(default_generator, rng):
    # per candidate: tap and verify; then one resume for the selected candidate
    cfg, p = VerifierConfig(), scenes.sample_prompt(rng)
    c_tap, c_res = MeterContext(), MeterContext()
    st = toygen.generate_tapped(default_generator, p, 4, c_tap)
    feats = toygen.tap_hidden_features(st)
    stats = scenes.calibrate_feature_stats([feats, feats + 1.0])
    verify = metered_verification_flops(default_generator, cfg, stats, p, st)
    toygen.resume_and_decode(default_generator, st, c_res)
    tokens, width = feats.shape
    assert verify == 2 * tokens * width + width + head_flops() == 2_112 + 2_049 + 10 == 4_171
    assert (32 * (c_tap.flops_accumulated + verify) + c_res.flops_accumulated
            == 32 * (163_840 + 4_171) + 16_633_475 == 22_009_827)


def test_default_bon_pixel_flops_per_image_closed_form(default_generator, rng):
    # per candidate: a full run, decoded, re-encoded and verified
    cfg, p = VerifierConfig(mode="pixel_reencode"), scenes.sample_prompt(rng)
    c_full = MeterContext()
    image, st = toygen.generate_full(default_generator, p, 4, c_full)
    verify = metered_verification_flops(default_generator, cfg, None, p, st, image)
    patches = (scenes.IMAGE_SIZE // scenes.PATCH) ** 2
    assert verify == encoder_flops() + scorer_flops(patches) == 6_975_734
    assert 8 * (c_full.flops_accumulated + verify) == 8 * (16_797_315 + 6_975_734) == 190_184_392


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_metered_normalization_is_bitwise_reference(dtype):
    # the kernel keeps NumPy's promotion: float32 features meet float64
    # statistics in float64
    rng = np.random.default_rng(9)
    feats = rng.standard_normal((16, 64)).astype(dtype)
    stats = scenes.calibrate_feature_stats(rng.standard_normal((5, 16, 64)))
    got = normalize(feats, stats.mean, stats.variance, MeterContext()).data
    want = (feats - stats.mean) / np.sqrt(stats.variance + 1e-6)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_pixel_reencode_verification_flops_match_closed_form(default_generator, rng):
    cfg, p = VerifierConfig(mode="pixel_reencode"), scenes.sample_prompt(rng)
    image, st = toygen.generate_full(default_generator, p, 2, None)
    patches = (scenes.IMAGE_SIZE // scenes.PATCH) ** 2
    # the image is passed in, so nothing is decoded again
    assert (metered_verification_flops(default_generator, cfg, None, p, st, image)
            == encoder_flops() + scorer_flops(patches))


# ---------------------------------------------------------------- precision

@dataclasses.dataclass
class DtypeMeter(MeterContext):
    """A meter that also records the dtype and shape of each output."""
    outputs: list = dataclasses.field(default_factory=list)

    def register(self, tensor):
        self.outputs.append((tensor.dtype, tensor.shape))
        super().register(tensor)


def _tensor_as(t: Tensor | None, dtype) -> Tensor | None:
    return None if t is None else Tensor(t.data.astype(dtype))


# every mode, as the float32 stack serves it and as a float64 cast of the
# verifier's parameters and of what the generator hands it: the verifier's
# kernels compute in their operands' dtype, at the same FLOPs
@pytest.mark.parametrize("mode", verifier.MODES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@settings(max_examples=3, deadline=None)
@given(prompt_seed=hst.integers(0, 2 ** 32 - 1), seed=hst.integers(0, 2 ** 62))
def test_verifier_computes_in_its_precision_with_the_same_flops(
        mode, dtype, prompt_seed, seed, default_generator):
    gen = default_generator
    cfg = VerifierConfig(mode=mode)
    params = {name: arr.astype(dtype) for name, arr in init_verifier(cfg).items()}
    p = scenes.sample_prompt(np.random.default_rng(prompt_seed))
    stats = image = None
    if mode == "hidden_state":
        st = toygen.generate_tapped(gen, p, seed, None)
    else:
        # the decode is the generator's, so the image is passed in, as in BoN
        image, st = toygen.generate_full(gen, p, seed, None)
        image = toygen.RenderedImage(_tensor_as(image.pixels, dtype))
    st = dataclasses.replace(st, hidden=_tensor_as(st.hidden, dtype),
                             z0=_tensor_as(st.z0, dtype))
    if mode == "hidden_state":
        feats = toygen.tap_hidden_features(st)
        stats = scenes.calibrate_feature_stats([feats, feats + 1.0])
    ctx = DtypeMeter()
    feats = verifier.extract_features(gen, st, cfg, stats, ctx, params=params, image=image)
    verifier.score(params, cfg, feats, scenes.encode_prompt_tokens(p), ctx)
    *computed, softmax_out = ctx.outputs
    assert {dt for dt, _ in computed} == {np.dtype(dtype)}
    assert softmax_out == (np.float64, (2,))
    tokens = toygen.CONTENT_TOKENS
    if mode == "hidden_state":
        want = flops_for(("normalize", tokens, verifier.FEATURE_DIM)) + head_flops()
    else:
        want = {"ae_latent": 0, "pixel_reencode": encoder_flops()}[mode] + scorer_flops(tokens)
    assert ctx.flops_accumulated == want


@settings(max_examples=10, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1))
def test_scorer_block_0_with_looked_up_prompt_rows_is_the_block_on_the_concatenated_rows(seed):
    # tables of block 0's entry for stand-in token rows; the scorer run on
    # [projected features ++ token rows] gives the same logits bit for bit
    params = init_verifier(VerifierConfig(mode="pixel_reencode"))
    rng = np.random.default_rng(seed)
    d, dtype = verifier.SCORER_DIM, toygen.DTYPE
    tokens = rng.standard_normal((scenes.VOCAB_SIZE, d)).astype(dtype)
    h, qkv = block_entry(tokens, verifier.block_view(params, "scorer.block0"), None)
    params.update({"prompt.h": h.data, "prompt.qkv": qkv.data})
    feats = rng.standard_normal((toygen.CONTENT_TOKENS, verifier.FEATURE_DIM)).astype(dtype)
    ids = scenes.encode_prompt_tokens(scenes.sample_prompt(rng))
    got = verifier.scorer_forward(params, feats, ids)
    x = gelu(linear(feats, params["connector.w1"], params["connector.b1"], None), None)
    x = linear(x, params["connector.w2"], params["connector.b2"], None).data
    x = np.concatenate([x, tokens[ids]])
    for i in range(verifier.SCORER_BLOCKS):
        x = attention_block(x, verifier.block_view(params, f"scorer.block{i}"), None,
                            pool=i == verifier.SCORER_BLOCKS - 1)
    want = linear(x.data[None, :], params["head.w"], params["head.b"], None).data[0]
    assert got.tobytes() == want.astype(np.float64).tobytes()


@pytest.mark.parametrize("mode", ["hidden_state", "pixel_reencode"])
def test_the_meter_counts_the_features_while_the_scorer_reads_them(
        mode, default_generator, rng, monkeypatch):
    # the features are passed straight into score, so only the verifier holds
    # them: its first product (the head's, or the connector's) must find their
    # bytes live, and nothing else of the verification
    cfg, p = VerifierConfig(mode=mode), scenes.sample_prompt(rng)
    params, stats, image = init_verifier(cfg), None, None
    if mode == "hidden_state":
        st = toygen.generate_tapped(default_generator, p, 2, None)
        feats = toygen.tap_hidden_features(st)
        stats = scenes.calibrate_feature_stats([feats, feats + 1.0])
    else:
        image, st = toygen.generate_full(default_generator, p, 2, None)
    nbytes = verifier.extract_features(default_generator, st, cfg, stats, None, params=params,
                                       image=image).data.nbytes
    assert nbytes == toygen.CONTENT_TOKENS * verifier.FEATURE_DIM * 4
    ctx, live = MeterContext(), []
    linear_kernel = verifier.linear
    first = params["head.w" if mode == "hidden_state" else "connector.w1"]

    def spy(x, w, b, c):
        if w is first:
            live.append(ctx.bytes_live)
        return linear_kernel(x, w, b, c)

    monkeypatch.setattr(verifier, "linear", spy)
    verifier.score(params, cfg, verifier.extract_features(
        default_generator, st, cfg, stats, ctx, params=params, image=image),
        scenes.encode_prompt_tokens(p), ctx)
    assert live == [nbytes]
    assert ctx.bytes_live == 0


def test_features_and_pixels_enter_in_the_parameters_dtype():
    # float64 pixels and features meet float32 parameters: nothing promotes
    cfg = VerifierConfig(mode="pixel_reencode")
    params = init_verifier(cfg)
    rng = np.random.default_rng(7)
    ctx = DtypeMeter()
    feats = verifier.encode_pixels(
        params, rng.uniform(size=(scenes.IMAGE_SIZE, scenes.IMAGE_SIZE, 3)), ctx)
    prompt_ids = scenes.encode_prompt_tokens(scenes.sample_prompt(rng))
    logits = verifier.scorer_forward(params, rng.standard_normal(feats.shape), prompt_ids, ctx)
    assert {dtype for dtype, _ in ctx.outputs} == {np.dtype(np.float32)}
    assert logits.dtype == np.float64


# ---------------------------------------------------------------- selection

def test_select_best_ties_go_to_lowest_index():
    scores = [Score(False, -0.7), Score(True, 0.9), Score(True, 0.6), Score(True, 0.9)]
    assert select_best(scores) == 1
    assert select_best([Score(False, -0.5)] * 4) == 0


# ---------------------------------------------------------------- mode gating

@pytest.mark.parametrize("mode", ["ae_latent", "pixel_reencode"])
def test_full_run_modes_reject_tapped_state(mode, default_generator, rng):
    cfg = VerifierConfig(mode=mode)
    params, p = init_verifier(cfg), scenes.sample_prompt(rng)
    st = toygen.generate_tapped(default_generator, p, 3, None)
    with pytest.raises(toygen.StateCompletionError):
        verifier.extract_features(default_generator, st, cfg, None, None, params=params)
    if mode == "pixel_reencode":
        # the decode is the generator's: a completed state without its image is refused
        _, completed = toygen.generate_full(default_generator, p, 3, None)
        with pytest.raises(toygen.StateCompletionError):
            verifier.extract_features(default_generator, completed, cfg, None, None, params=params)


def test_hidden_state_mode_rejects_state_not_at_its_tap(default_generator, rng):
    # a completed state holds the last block's content rows, not the embed's
    cfg, p = VerifierConfig(), scenes.sample_prompt(rng)
    _, completed = toygen.generate_full(default_generator, p, 3, None)
    with pytest.raises(toygen.StateCompletionError):
        verifier.extract_features(default_generator, completed, cfg, None, None)


# ---------------------------------------------------------------- checkpoints

def _stats() -> scenes.FeatureStats:
    rng = np.random.default_rng(3)
    return scenes.FeatureStats(mean=rng.standard_normal(64).astype(np.float32),
                               variance=rng.uniform(0.5, 2.0, 64).astype(np.float32),
                               sample_count=10)


def write_checkpoint(tmp_path, cfg=VerifierConfig()):
    params, stats = init_verifier(cfg), _stats()
    path = save_checkpoint(tmp_path / "ckpt.npz", params, cfg, stats, meta={"step": 3})
    return path, params, cfg, stats


def test_checkpoint_round_trip_float32(tmp_path):
    path, params, cfg, stats = write_checkpoint(tmp_path)
    assert list(tmp_path.iterdir()) == [path]
    got, got_cfg, got_stats, meta = load_checkpoint(path)
    assert got_cfg == cfg and meta == {"step": 3}
    assert got.keys() == params.keys()
    for name, arr in params.items():
        assert got[name].dtype == np.float32
        assert got[name].tobytes() == arr.tobytes()
    # statistics are stored in float32 too
    assert got_stats.sample_count == 10
    for got_arr, arr in ((got_stats.mean, stats.mean), (got_stats.variance, stats.variance)):
        assert got_arr.dtype == np.float32 and got_arr.tobytes() == arr.tobytes()


@pytest.mark.parametrize("precision, stored", [("f32", "<f4")])
def test_checkpoint_stores_every_entry_in_its_precision(precision, stored, tmp_path):
    # float32, the one precision served, is what every stored entry holds
    params = init_verifier(VerifierConfig())
    feats = np.random.default_rng(5).standard_normal((3, 16, 64)).astype(np.float32)
    stats = scenes.calibrate_feature_stats(feats)
    path = save_checkpoint(tmp_path / "ckpt.npz", params, VerifierConfig(), stats)
    with np.load(path) as npz:
        # the entries' dtype is the precision; the header names none
        assert "precision" not in json.loads(str(npz["header"]))
        assert {npz[name].dtype.str for name in npz.files if name != "header"} == {stored}
    got, got_cfg, got_stats, _ = load_checkpoint(path)
    assert got_cfg == VerifierConfig()
    for name, arr in params.items():
        assert got[name].tobytes() == arr.tobytes()
    assert got_stats.mean.tobytes() == stats.mean.tobytes()
    assert got_stats.variance.tobytes() == stats.variance.tobytes()


@pytest.mark.parametrize("entry", ["head.w", "stats.mean"])
def test_checkpoint_refuses_an_entry_of_another_precision(entry, tmp_path):
    # nothing is rounded on the way to disk: one float64 entry among float32
    params = init_verifier(VerifierConfig())
    stats = scenes.calibrate_feature_stats(np.zeros((2, 16, 64), dtype=np.float32))
    if entry == "head.w":
        params[entry] = params[entry].astype(np.float64)
    else:
        stats = dataclasses.replace(stats, mean=stats.mean.astype(np.float64))
    with pytest.raises(CheckpointError, match=entry):
        save_checkpoint(tmp_path / "ckpt.npz", params, VerifierConfig(), stats)
    assert not any(tmp_path.iterdir())


# statistics that load refuses; save refuses them too, before writing
BAD_STATS = {
    "nan_stats_mean": lambda s: dataclasses.replace(s, mean=np.full_like(s.mean, np.nan)),
    "negative_variance": lambda s: dataclasses.replace(
        s, variance=np.full_like(s.variance, -1.0)),
    "stats_of_3_channels": lambda s: dataclasses.replace(
        s, mean=s.mean[:3], variance=s.variance[:3]),
    "sample_count_of_1": lambda s: dataclasses.replace(s, sample_count=1),
    # the hidden-state head reads normalized features
    "no_stats": lambda s: None,
}


@pytest.mark.parametrize("name", sorted(BAD_STATS))
def test_save_refuses_what_load_refuses_and_writes_nothing(name, tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "ckpt.npz", init_verifier(VerifierConfig()),
                        VerifierConfig(), BAD_STATS[name](_stats()))
    assert not any(tmp_path.iterdir())


def test_failed_save_leaves_the_old_checkpoint_as_it_was(tmp_path, monkeypatch):
    path, params, cfg, stats = write_checkpoint(tmp_path)
    before = path.read_bytes()
    # a meta JSON cannot encode is refused before the file is touched
    with pytest.raises(CheckpointError, match="JSON"):
        save_checkpoint(path, params, cfg, stats, meta={"x": np.float32(1)})
    assert path.read_bytes() == before

    # a write that fails midway replaces nothing and leaves no temporary file
    def fail(f, **entries):
        f.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, params, cfg, stats)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_saved_checkpoint_has_the_mode_a_plain_open_gives(umask, tmp_path):
    # the save writes a temporary file, which starts at 0o600, and renames it:
    # the checkpoint must be as readable as a file opened for writing under
    # the same umask
    old = os.umask(umask)
    try:
        path = write_checkpoint(tmp_path)[0]
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(f.stat().st_mode) for f in (path, tmp_path / "plain")}
    assert modes == {0o666 & ~umask}


def _edit_entries(edit):
    """Rewrite the checkpoint with ``edit`` applied to its {name: array} entries."""
    def apply(path):
        with np.load(path) as npz:
            entries = {name: npz[name] for name in npz.files}
        edit(entries)
        with path.open("wb") as f:
            np.savez(f, **entries)  # pickles object entries
    return apply


def _edit_header(edit):
    def edit_entries(entries):
        header = json.loads(str(entries["header"]))
        edit(header)
        entries["header"] = np.array(json.dumps(header))
    return _edit_entries(edit_entries)


def _replace(name, new):
    """Entry ``name`` replaced by ``new`` of it."""
    return _edit_entries(lambda e: e.update({name: new(e[name])}))


def _cast(name, dtype):
    return _replace(name, lambda a: a.astype(dtype))


def _npy_header(name, text):
    """Entry ``name``'s .npy header replaced by ``text``, its data bytes kept;
    the archive is rewritten, so every CRC-32 matches."""
    def apply(path):
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        f = io.BytesIO(members[f"{name}.npy"])
        np.lib.format.read_magic(f)
        np.lib.format.read_array_header_1_0(f)
        header = text.encode() + b"\n"
        members[f"{name}.npy"] = (b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little")
                                  + header + f.read())
        with zipfile.ZipFile(path, "w") as zf:
            for n, raw in members.items():
                zf.writestr(n, raw)
    return apply


def _flip_bit(name):
    """One bit flipped inside entry ``name``'s data, the archive left as it is."""
    def apply(path):
        with np.load(path) as npz:
            data = npz[name].tobytes()
        raw = bytearray(path.read_bytes())
        raw[raw.index(data) + len(data) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
    return apply


def _store_twice(name):
    def apply(path):
        with zipfile.ZipFile(path, "a") as zf:
            raw = zf.read(f"{name}.npy")
            with pytest.warns(UserWarning, match="Duplicate name"):
                zf.writestr(f"{name}.npy", raw)
    return apply


def _schema_7_entries(entries):
    """Schema 7's prompt table and segment vectors in place of the
    per-token tables of scorer block 0 (their values do not matter)."""
    h = entries.pop("prompt.h")
    entries.pop("prompt.qkv")
    return {"prompt_embed.table": h, "segment.features": entries["connector.b2"],
            "segment.prompt": entries["connector.b2"]}


def _schema_8_entries(entries):
    """Schema 8's four attention factors, ``*.wqkv`` [3, d, d] and ``*.wo``
    [d, d], in place of each block's folded ``*.wqk_vo`` (their values do
    not matter)."""
    factors = {}
    for name in [n for n in entries if n.endswith(".wqk_vo")]:
        folded = entries.pop(name)
        prefix = name.removesuffix("wqk_vo")
        factors[prefix + "wqkv"] = np.concatenate([folded, folded[:1]])
        factors[prefix + "wo"] = folded[1]
    return factors


def _without_stats(entries):
    """The checkpoint as saved without statistics."""
    del entries["stats.mean"], entries["stats.variance"]
    header = json.loads(str(entries["header"]))
    entries["header"] = np.array(json.dumps({**header, "sample_count": None}))


def _truncate(path):
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])


CORRUPTIONS = {
    "bogus_mode": _edit_header(lambda h: h["config"].update(mode="bogus")),
    "unknown_config_key": _edit_header(lambda h: h["config"].update(depth=3)),
    "schema": _edit_header(lambda h: h.update(schema=99)),
    "schema_4_with_tap_layer": _edit_header(
        lambda h: h.update(schema=4, config={**h["config"], "tap_layer": 0})),
    "schema_5_with_precision": _edit_header(lambda h: h.update(schema=5, precision="f32")),
    "header_not_json": _edit_entries(lambda e: e.update(header=np.array("{"))),
    "missing_header": _edit_entries(lambda e: e.pop("header")),
    "missing_entry_key": _npy_header("head.w", "{'descr': '<f4', 'fortran_order': False}"),
    "nbytes_disagrees_with_shape": _npy_header(
        "head.w", "{'descr': '<f4', 'fortran_order': False, 'shape': (64, 3)}"),
    "integer_dtype": _cast("head.w", "<i8"),
    "big_endian_dtype": _cast("head.w", ">f4"),
    "float64_entry": _cast("head.w", "<f8"),
    "object_entry": _cast("head.b", object),
    "bit_flip": _flip_bit("head.w"),
    "truncated_file": _truncate,
    "missing_entry": _edit_entries(lambda e: e.pop("head.b")),
    "missing_stats_entry": _edit_entries(lambda e: e.pop("stats.variance")),
    "renamed_entry": _edit_entries(lambda e: e.update({"head.bias": e.pop("head.b")})),
    "misshaped_entry": _edit_entries(  # same byte count
        lambda e: e.update({"head.w": e["head.w"].reshape(1, -1)})),
    "duplicate_entry": _store_twice("head.b"),
    "stats_of_3_channels": _replace("stats.mean", lambda a: a[:3]),
    "negative_variance": _replace("stats.variance", lambda a: np.full_like(a, -1.0)),
    "nan_stats_mean": _replace("stats.mean", lambda a: np.full_like(a, np.nan)),
    "inf_head_w": _replace("head.w", lambda a: np.full_like(a, np.inf)),
    "string_sample_count": _edit_header(lambda h: h.update(sample_count="ten")),
    "bool_sample_count": _edit_header(lambda h: h.update(sample_count=True)),
    "sample_count_of_1": _edit_header(lambda h: h.update(sample_count=1)),
    "list_meta": _edit_header(lambda h: h.update(meta=[1, 2])),
    "integer_mode": _edit_header(lambda h: h["config"].update(mode=1)),
    "schema_6_with_scorer_blocks": _edit_header(
        lambda h: h.update(schema=6, config={**h["config"], "scorer_blocks": 2})),
    "schema_7_layout": _edit_entries(lambda e: e.update(
        header=np.array(json.dumps({**json.loads(str(e["header"])), "schema": 7})),
        **_schema_7_entries(e))),
    "schema_7_layout_under_schema_10": _edit_entries(lambda e: e.update(_schema_7_entries(e))),
    "schema_8_layout": _edit_entries(lambda e: e.update(
        header=np.array(json.dumps({**json.loads(str(e["header"])), "schema": 8})),
        **_schema_8_entries(e))),
    "schema_8_layout_under_schema_10": _edit_entries(lambda e: e.update(_schema_8_entries(e))),
    "schema_9": _edit_header(lambda h: h.update(schema=9)),
    # schema 9 stored the scorer in hidden_state checkpoints, as ae_latent's are
    "schema_9_layout_under_schema_10": _edit_entries(
        lambda e: e.update(init_verifier(VerifierConfig(mode="ae_latent")))),
    "hidden_state_without_stats": _edit_entries(_without_stats),
}

# the corruptions of the scorer's entries: a pixel_reencode checkpoint has them
SCORER_CORRUPTIONS = {"schema_7_layout", "schema_7_layout_under_schema_10",
                      "schema_8_layout", "schema_8_layout_under_schema_10"}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_malformed_checkpoint_raises_checkpoint_error(name, tmp_path):
    mode = "pixel_reencode" if name in SCORER_CORRUPTIONS else "hidden_state"
    path = write_checkpoint(tmp_path, VerifierConfig(mode=mode))[0]
    load_checkpoint(path)
    CORRUPTIONS[name](path)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# ---------------------------------------------------------------- parameters

# sha256 of the float32 encoder weights that are draws alone, in draw order:
# every entry but the blocks' folded wqk_vo, whose bits depend on the BLAS
# (test_numcore pins the fold against its four draws). Taken over the same
# entries of the unfolded schema-8 weights, it is the same digest
ENCODER_SHA256 = "5495b100a7ccc1d16131de57768d7bfcb27f7e2262d51350209c539dfb1df1c9"


def test_pixel_encoder_weights_are_unchanged():
    cfg = VerifierConfig(mode="pixel_reencode")
    params = init_verifier(cfg, seed=0)
    names = ["encoder.patch.w", "encoder.patch.b"] + [
        f"encoder.block{i}.{f.name}"
        for i in range(verifier.ENCODER_DEPTH) for f in dataclasses.fields(BlockWeights)
        if f.name != "wqk_vo"]
    digest = hashlib.sha256()
    for name in names:
        digest.update(params[name].tobytes())
    assert digest.hexdigest() == ENCODER_SHA256


# sha256 of the float32 scorer weights of pixel_reencode that are draws
# alone, in draw order: the connector, the blocks but their folded wqk_vo and
# the head. The per-token tables prompt.h and prompt.qkv are computed from
# them, with bits that depend on the BLAS. The scorer's draws come before the
# encoder's, so ENCODER_SHA256 holds only while these keep their count
SCORER_SHA256 = "dd770407fd4bada87f8d8f6ce7f41d0e9711b9182cc2a683a061adbc6e517e50"


def test_pixel_scorer_weights_are_unchanged():
    params = init_verifier(VerifierConfig(mode="pixel_reencode"), seed=0)
    names = ["connector.w1", "connector.b1", "connector.w2", "connector.b2"] + [
        f"scorer.block{i}.{f.name}"
        for i in range(verifier.SCORER_BLOCKS) for f in dataclasses.fields(BlockWeights)
        if f.name != "wqk_vo"] + ["head.w", "head.b"]
    digest = hashlib.sha256()
    for name in names:
        digest.update(params[name].tobytes())
    assert digest.hexdigest() == SCORER_SHA256
