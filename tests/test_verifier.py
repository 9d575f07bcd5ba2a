import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from latentscale import scenes, toygen, verifier
from latentscale.numcore import BlockWeights, MeterContext, flops_for
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
    d, seq = cfg.scorer_dim, tokens + scenes.PROMPT_TOKEN_LEN
    return (flops_for(("linear", tokens, cfg.in_dim, cfg.connector_hidden, True))
            + flops_for(("gelu", tokens * cfg.connector_hidden))
            + flops_for(("linear", tokens, cfg.connector_hidden, d, True))
            + flops_for(("add", tokens * d))                           # feature segment
            + flops_for(("add", scenes.PROMPT_TOKEN_LEN * d))          # prompt segment
            + cfg.scorer_blocks * flops_for(("attention_block", seq, d, 4 * d))
            + flops_for(("mean_pool", seq, d))
            + flops_for(("linear", 1, d, 2, True))
            + flops_for(("softmax", 1, 2)))


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


def test_pixel_reencode_verification_flops_match_closed_form(small_generator, rng):
    cfg = VerifierConfig(mode="pixel_reencode")
    image, st = toygen.generate_full(small_generator, scenes.sample_prompt(rng), 2, None)
    patches = (scenes.IMAGE_SIZE // scenes.PATCH) ** 2
    e = cfg.encoder_dim
    encoder = (flops_for(("linear", patches, 3 * scenes.PATCH ** 2, e, True))
               + cfg.encoder_depth * flops_for(("attention_block", patches, e, 4 * e)))
    # the image is passed in, so nothing is decoded again
    assert (metered_verification_flops(small_generator, cfg, None, st, image)
            == encoder + scorer_flops(cfg, patches))


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

def write_checkpoint(tmp_path, dtype=np.float64):
    cfg = VerifierConfig()
    params = {k: v.astype(dtype) for k, v in init_verifier(cfg).items()}
    rng = np.random.default_rng(3)
    stats = scenes.FeatureStats(mean=rng.standard_normal(64).astype(dtype),
                                variance=rng.uniform(0.5, 2.0, 64).astype(dtype),
                                sample_count=10)
    prefix = tmp_path / "ckpt"
    save_checkpoint(prefix, params, cfg, stats, meta={"step": 3})
    return prefix, params, cfg, stats


def test_checkpoint_round_trip_float32(tmp_path):
    prefix, params, cfg, stats = write_checkpoint(tmp_path, np.float32)
    got, got_cfg, got_stats, meta = load_checkpoint(prefix)
    assert got_cfg == cfg and meta == {"step": 3}
    assert got.keys() == params.keys()
    for name, arr in params.items():
        assert got[name].dtype == np.float32
        assert got[name].tobytes() == arr.tobytes()
    # statistics are stored as float64, which holds float32 values exactly
    assert got_stats.sample_count == 10
    assert np.array_equal(got_stats.mean, stats.mean)
    assert np.array_equal(got_stats.variance, stats.variance)


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
    "string_scorer_blocks": _edit_header(lambda h: h["config"].update(scorer_blocks="2")),
    "float_in_dim": _edit_header(lambda h: h["config"].update(in_dim=64.0)),
    "bool_encoder_depth": _edit_header(lambda h: h["config"].update(encoder_depth=True)),
    "negative_width": _edit_header(lambda h: h["config"].update(connector_hidden=-3)),
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
    params = init_verifier(cfg, seed=0)
    names = ["encoder.patch.w", "encoder.patch.b"] + [
        f"encoder.block{i}.{f.name}"
        for i in range(cfg.encoder_depth) for f in dataclasses.fields(BlockWeights)]
    digest = hashlib.sha256()
    for name in names:
        digest.update(params[name].tobytes())  # wqkv holds wq, wk, wv in turn
    assert digest.hexdigest() == ENCODER_SHA256
