import dataclasses
import functools
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from latentscale import scenes, toygen, verifier
from latentscale.numcore import BlockWeights, MeterContext, flops_for, normalize
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


def test_candidate_scores_in_range_and_float64(small_generator, rng):
    cfg = VerifierConfig(tap_layer=small_generator.config.tap_layer)
    params = init_verifier(cfg)
    for seed in range(6):
        p = scenes.sample_prompt(rng)
        st = toygen.generate_tapped(small_generator, p, seed, None)
        feats = verifier.extract_features(small_generator, st, cfg, None, None)
        ids = scenes.encode_prompt_tokens(p)
        assert in_score_range(verifier.score(params, cfg, feats, ids).value)
        # float32 features still give float64 logits
        logits = verifier.scorer_forward(params, cfg, feats.astype(np.float32), ids)
        assert logits.dtype == np.float64


# ---------------------------------------------------------------- FLOPs

def scorer_flops(cfg: VerifierConfig, tokens: int) -> int:
    """Closed-form FLOPs of ``score`` on ``tokens`` feature rows."""
    d, seq = verifier.SCORER_DIM, tokens + scenes.PROMPT_TOKEN_LEN
    hidden = verifier.CONNECTOR_HIDDEN
    return (flops_for(("linear", tokens, verifier.FEATURE_DIM, hidden, True))
            + flops_for(("gelu", tokens * hidden))
            + flops_for(("linear", tokens, hidden, d, True))
            + flops_for(("add", tokens * d))                           # feature segment
            + flops_for(("add", scenes.PROMPT_TOKEN_LEN * d))          # prompt segment
            + cfg.scorer_blocks * flops_for(("attention_block", seq, d, 4 * d))
            + flops_for(("mean_pool", seq, d))
            + flops_for(("linear", 1, d, 2, True))
            + flops_for(("softmax", 1, 2)))


def encoder_flops(cfg: VerifierConfig) -> int:
    """Closed-form FLOPs of ``encode_pixels``: patch projection and blocks."""
    patches, e = (scenes.IMAGE_SIZE // scenes.PATCH) ** 2, verifier.FEATURE_DIM
    return (flops_for(("linear", patches, 3 * scenes.PATCH ** 2, e, True))
            + cfg.encoder_depth * flops_for(("attention_block", patches, e, 4 * e)))


def metered_verification_flops(gen, cfg, stats, state, image=None) -> int:
    params, ctx = init_verifier(cfg), MeterContext()
    feats = verifier.extract_features(gen, state, cfg, stats, ctx, params=params, image=image)
    verifier.score(params, cfg, feats, scenes.encode_prompt_tokens(state.prompt), ctx)
    return ctx.flops_accumulated


def test_hidden_state_verification_flops_match_closed_form(small_generator, rng):
    cfg = VerifierConfig(tap_layer=small_generator.config.tap_layer)
    st = toygen.generate_tapped(small_generator, scenes.sample_prompt(rng), 2, None)
    feats = toygen.tap_hidden_features(st)
    stats = scenes.calibrate_feature_stats([feats, feats + 1.0])
    tokens, width = feats.shape
    normalize = 2 * tokens * width + width
    assert (metered_verification_flops(small_generator, cfg, stats, st)
            == normalize + scorer_flops(cfg, tokens))


def test_default_bon_hidden_flops_per_image_closed_form(default_generator, rng):
    # per candidate: tap and verify; then one resume for the selected candidate
    cfg, p = VerifierConfig(), scenes.sample_prompt(rng)
    c_tap, c_res = MeterContext(), MeterContext()
    st = toygen.generate_tapped(default_generator, p, 4, c_tap)
    feats = toygen.tap_hidden_features(st)
    stats = scenes.calibrate_feature_stats([feats, feats + 1.0])
    verify = metered_verification_flops(default_generator, cfg, stats, st)
    toygen.resume_and_decode(default_generator, st, c_res)
    tokens, width = feats.shape
    assert verify == 2 * tokens * width + width + scorer_flops(cfg, tokens) == 5_568_472
    assert (32 * (c_tap.flops_accumulated + verify) + c_res.flops_accumulated
            == 281_553_034)


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


def test_pixel_reencode_verification_flops_match_closed_form(small_generator, rng):
    cfg = VerifierConfig(mode="pixel_reencode")
    image, st = toygen.generate_full(small_generator, scenes.sample_prompt(rng), 2, None)
    patches = (scenes.IMAGE_SIZE // scenes.PATCH) ** 2
    # the image is passed in, so nothing is decoded again
    assert (metered_verification_flops(small_generator, cfg, None, st, image)
            == encoder_flops(cfg) + scorer_flops(cfg, patches))


# ---------------------------------------------------------------- precision

@dataclasses.dataclass
class DtypeMeter(MeterContext):
    """A meter that also records the dtype and shape of each output."""
    outputs: list = dataclasses.field(default_factory=list)

    def register(self, tensor):
        self.outputs.append((tensor.dtype, tensor.shape))
        super().register(tensor)


@functools.cache
def two_layer_generator(precision: str) -> toygen.Generator:
    return toygen.build_generator(toygen.GeneratorConfig(num_layers=2, precision=precision))


# every mode, in each serving precision of the generator and the verifier
@pytest.mark.parametrize("mode", verifier.MODES)
@pytest.mark.parametrize("precision", sorted(toygen.PRECISIONS))
@settings(max_examples=3, deadline=None)
@given(prompt_seed=hst.integers(0, 2 ** 32 - 1), seed=hst.integers(0, 2 ** 62))
def test_verifier_computes_in_its_precision_with_the_same_flops(
        mode, precision, prompt_seed, seed):
    gen = two_layer_generator(precision)
    cfg = VerifierConfig(mode=mode)
    params = init_verifier(cfg, precision=precision)
    p = scenes.sample_prompt(np.random.default_rng(prompt_seed))
    stats = image = None
    if mode == "hidden_state":
        st = toygen.generate_tapped(gen, p, seed, None)
        feats = toygen.tap_hidden_features(st)
        stats = scenes.calibrate_feature_stats([feats, feats + 1.0])
    else:
        # the decode is the generator's, so the image is passed in, as in BoN
        image, st = toygen.generate_full(gen, p, seed, None)
    ctx = DtypeMeter()
    feats = verifier.extract_features(gen, st, cfg, stats, ctx, params=params, image=image)
    verifier.score(params, cfg, feats, scenes.encode_prompt_tokens(p), ctx)
    *computed, softmax_out = ctx.outputs
    assert {dtype for dtype, _ in computed} == {np.dtype(toygen.PRECISIONS[precision])}
    assert softmax_out == (np.float64, (2,))
    tokens = gen.config.num_noise_tokens
    features = {"hidden_state": flops_for(("normalize", tokens, verifier.FEATURE_DIM)),
                "ae_latent": 0, "pixel_reencode": encoder_flops(cfg)}[mode]
    assert ctx.flops_accumulated == features + scorer_flops(cfg, tokens)


@pytest.mark.parametrize("mode", verifier.MODES)
def test_f32_parameters_are_the_f64_ones_rounded_once(mode):
    f64 = init_verifier(VerifierConfig(mode=mode), precision="f64")
    f32 = init_verifier(VerifierConfig(mode=mode), precision="f32")
    assert f32.keys() == f64.keys()
    for name, arr in f64.items():
        assert arr.dtype == np.float64 and f32[name].dtype == np.float32
        assert f32[name].tobytes() == arr.astype(np.float32).tobytes()


def test_features_and_pixels_enter_in_the_parameters_dtype():
    # float64 pixels and features meet float32 parameters: nothing promotes
    cfg = VerifierConfig(mode="pixel_reencode")
    params = init_verifier(cfg, precision="f32")
    rng = np.random.default_rng(7)
    ctx = DtypeMeter()
    feats = verifier.encode_pixels(
        params, cfg, rng.uniform(size=(scenes.IMAGE_SIZE, scenes.IMAGE_SIZE, 3)), ctx)
    prompt_ids = scenes.encode_prompt_tokens(scenes.sample_prompt(rng))
    logits = verifier.scorer_forward(params, cfg, rng.standard_normal(feats.shape),
                                     prompt_ids, ctx)
    assert {dtype for dtype, _ in ctx.outputs} == {np.dtype(np.float32)}
    assert logits.dtype == np.float64


# ---------------------------------------------------------------- selection

def test_select_best_ties_go_to_lowest_index():
    scores = [Score(False, -0.7), Score(True, 0.9), Score(True, 0.6), Score(True, 0.9)]
    assert select_best(scores) == 1
    assert select_best([Score(False, -0.5)] * 4) == 0


# ---------------------------------------------------------------- mode gating

@pytest.mark.parametrize("mode", ["ae_latent", "pixel_reencode"])
def test_full_run_modes_reject_tapped_state(mode, small_generator, rng):
    cfg = VerifierConfig(mode=mode)
    st = toygen.generate_tapped(small_generator, scenes.sample_prompt(rng), 3, None)
    with pytest.raises(toygen.StateCompletionError):
        verifier.extract_features(small_generator, st, cfg, None, None,
                                  params=init_verifier(cfg))


def test_hidden_state_mode_rejects_state_not_at_its_tap(small_generator, rng):
    tap = small_generator.config.tap_layer
    p = scenes.sample_prompt(rng)
    _, completed = toygen.generate_full(small_generator, p, 3, None)
    with pytest.raises(toygen.StateCompletionError):
        verifier.extract_features(small_generator, completed,
                                  VerifierConfig(tap_layer=tap), None, None)
    tapped = toygen.generate_tapped(small_generator, p, 3, None)
    with pytest.raises(toygen.StateCompletionError):
        verifier.extract_features(small_generator, tapped,
                                  VerifierConfig(tap_layer=tap + 1), None, None)


# ---------------------------------------------------------------- checkpoints

def write_checkpoint(tmp_path):
    cfg = VerifierConfig()
    params = init_verifier(cfg, precision="f32")
    rng = np.random.default_rng(3)
    stats = scenes.FeatureStats(mean=rng.standard_normal(64).astype(np.float32),
                                variance=rng.uniform(0.5, 2.0, 64).astype(np.float32),
                                sample_count=10)
    prefix = tmp_path / "ckpt"
    save_checkpoint(prefix, params, cfg, stats, meta={"step": 3})
    return prefix, params, cfg, stats


def test_checkpoint_round_trip_float32(tmp_path):
    prefix, params, cfg, stats = write_checkpoint(tmp_path)
    got, got_cfg, got_stats, meta = load_checkpoint(prefix)
    assert got_cfg == cfg and meta == {"step": 3}
    assert got.keys() == params.keys()
    for name, arr in params.items():
        assert got[name].dtype == np.float32
        assert got[name].tobytes() == arr.tobytes()
    # statistics are stored in the checkpoint's precision too
    assert got_stats.sample_count == 10
    for got_arr, arr in ((got_stats.mean, stats.mean), (got_stats.variance, stats.variance)):
        assert got_arr.dtype == np.float32 and got_arr.tobytes() == arr.tobytes()


@pytest.mark.parametrize("precision, stored", [("f32", "<f4"), ("f64", "<f8")])
def test_checkpoint_stores_every_entry_in_its_precision(precision, stored, tmp_path):
    # float64 parameters and statistics, cast explicitly to the precision saved
    dtype = toygen.PRECISIONS[precision]
    params = {name: arr.astype(dtype)
              for name, arr in init_verifier(VerifierConfig(), precision="f64").items()}
    feats = np.random.default_rng(5).standard_normal((3, 16, 64)).astype(dtype)
    stats = scenes.calibrate_feature_stats(feats)
    json_path, _ = save_checkpoint(tmp_path / "ckpt", params, VerifierConfig(), stats)
    header = json.loads(json_path.read_text())
    assert header["precision"] == precision
    assert {e["dtype"] for e in header["params"]} == {stored}
    got, got_cfg, got_stats, _ = load_checkpoint(tmp_path / "ckpt")
    assert got_cfg == VerifierConfig()
    for name, arr in params.items():
        assert got[name].tobytes() == arr.tobytes()
    assert got_stats.mean.tobytes() == stats.mean.tobytes()
    assert got_stats.variance.tobytes() == stats.variance.tobytes()


@pytest.mark.parametrize("entry", ["head.w", "stats.mean"])
def test_checkpoint_refuses_an_entry_of_another_precision(entry, tmp_path):
    # nothing is rounded on the way to disk: one float64 entry among float32
    params = init_verifier(VerifierConfig(), precision="f32")
    stats = scenes.calibrate_feature_stats(np.zeros((2, 16, 64), dtype=np.float32))
    if entry == "head.w":
        params[entry] = params[entry].astype(np.float64)
    else:
        stats = dataclasses.replace(stats, mean=stats.mean.astype(np.float64))
    with pytest.raises(CheckpointError, match=entry):
        save_checkpoint(tmp_path / "ckpt", params, VerifierConfig(), stats)
    assert not any(tmp_path.iterdir())


def _edit_header(edit):
    def apply(prefix):
        path = prefix.with_suffix(".json")
        header = json.loads(path.read_text())
        edit(header)
        path.write_text(json.dumps(header))
    return apply


def _truncate_bin(prefix):
    path = prefix.with_suffix(".bin")
    path.write_bytes(path.read_bytes()[:-4])


def _first_entry(**changes):
    return _edit_header(lambda h: h["params"][0].update(changes))


def _entry(name, /, **changes):
    return _edit_header(lambda h: next(e for e in h["params"] if e["name"] == name)
                        .update(changes))


def _drop_entry(name):
    return _edit_header(lambda h: h.update(params=[e for e in h["params"] if e["name"] != name]))


def _repeat_entry(name, bytes_of):
    """A second ``name`` entry, reading the leading bytes of ``bytes_of``."""
    def edit(header):
        entries = {e["name"]: e for e in header["params"]}
        header["params"].append({**entries[name], "offset": entries[bytes_of]["offset"]})
    return _edit_header(edit)


CORRUPTIONS = {
    "bogus_mode": _edit_header(lambda h: h["config"].update(mode="bogus")),
    "unknown_config_key": _edit_header(lambda h: h["config"].update(depth=3)),
    "schema": _edit_header(lambda h: h.update(schema=99)),
    "missing_entry_key": _edit_header(lambda h: h["params"][0].pop("offset")),
    "offset_beyond_bin": _first_entry(offset=10 ** 9),
    "negative_offset": _first_entry(offset=-8),
    "nbytes_disagrees_with_shape": _first_entry(nbytes=8),
    "integer_dtype": _first_entry(dtype="<i8"),
    "big_endian_dtype": _first_entry(dtype=">f8"),
    "truncated_bin": _truncate_bin,
    "header_not_json": lambda prefix: prefix.with_suffix(".json").write_text("{"),
    "missing_entry": _drop_entry("head.b"),
    "renamed_entry": _entry("head.b", name="head.bias"),
    "misshaped_entry": _entry("connector.w1", shape=[128, 64]),  # same byte count
    "duplicate_entry": _repeat_entry("head.b", bytes_of="head.w"),
    # the float32 entries stay consistent with their own shapes and bytes
    "dtype_disagrees_with_precision": _edit_header(lambda h: h.update(precision="f64")),
    "unknown_precision": _edit_header(lambda h: h.update(precision="f16")),
    "string_scorer_blocks": _edit_header(lambda h: h["config"].update(scorer_blocks="2")),
    "float_tap_layer": _edit_header(lambda h: h["config"].update(tap_layer=0.0)),
    "bool_encoder_depth": _edit_header(lambda h: h["config"].update(encoder_depth=True)),
    "negative_scorer_blocks": _edit_header(lambda h: h["config"].update(scorer_blocks=-1)),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_malformed_checkpoint_raises_checkpoint_error(name, tmp_path):
    prefix = write_checkpoint(tmp_path)[0]
    load_checkpoint(prefix)
    CORRUPTIONS[name](prefix)
    with pytest.raises(CheckpointError):
        load_checkpoint(prefix)


# ---------------------------------------------------------------- parameters

# sha256 of the encoder weights in draw order, taken while init_verifier still
# drew the alignment readouts that its 28*d discarded normals stand in for
ENCODER_SHA256 = "f06d64aa9fb1f84af5b21123a1fad7545ec0d5acc9f181732c3ea2d9d3c06231"


def test_pixel_encoder_weights_are_unchanged():
    cfg = VerifierConfig(mode="pixel_reencode")
    params = init_verifier(cfg, seed=0, precision="f64")
    names = ["encoder.patch.w", "encoder.patch.b"] + [
        f"encoder.block{i}.{f.name}"
        for i in range(cfg.encoder_depth) for f in dataclasses.fields(BlockWeights)]
    digest = hashlib.sha256()
    for name in names:
        digest.update(params[name].tobytes())  # wqkv holds wq, wk, wv in turn
    assert digest.hexdigest() == ENCODER_SHA256
