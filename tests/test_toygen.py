import dataclasses
import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from latentscale import scenes, toygen
from latentscale.numcore import MeterContext, flops_for
from latentscale.scenes import oracle_check, parse_scene, sample_prompt, scenes_equal
from latentscale.toygen import (
    Generator, GeneratorConfig, GeneratorConfigError, StateCompletionError,
    build_generator, generate_full, generate_tapped, resume_and_decode,
    tap_hidden_features,
)
from latentscale.verifier import VerifierConfig, VerifierConfigError, init_verifier


def test_zero_corruption_matches_target(rng, default_generator):
    gen = Generator(dataclasses.replace(default_generator.config, corruption_rate=0.0),
                    default_generator.params)
    for seed in range(20):
        p = sample_prompt(rng)
        st = generate_tapped(gen, p, seed, None)
        assert not st.corrupted
        assert oracle_check(p, st.rendered_scene)


def test_full_corruption_flips_exactly_one_attribute(rng, default_generator):
    gen = Generator(dataclasses.replace(default_generator.config, corruption_rate=1.0),
                    default_generator.params)
    for seed in range(50):
        p = sample_prompt(rng)
        st = generate_tapped(gen, p, seed, None)
        assert st.corrupted
        assert not oracle_check(p, st.rendered_scene)
        spec = scenes.candidate_scene(p, seed, gen.config.corruption_rate).spec
        before, after = (dataclasses.astuple(s) for s in (p.target, spec))
        assert sum(x != y for x, y in zip(before, after)) == 1


def test_corruption_frequency_monte_carlo():
    rng = np.random.default_rng(0)
    prompts = [sample_prompt(rng) for _ in range(20)]
    fired = sum(scenes.candidate_scene(prompts[s % 20], s, 0.3).corrupted
                for s in range(10_000))
    assert abs(fired / 10_000 - 0.3) <= 0.02


# -------------------------------------------------------- truncate / resume

@functools.cache
def _params_for(precision: str):
    return build_generator(GeneratorConfig(num_layers=6, precision=precision)).params


def _generator(cfg: GeneratorConfig) -> Generator:
    """``cfg`` over parameters shared between tests (at most 6 layers)."""
    params = _params_for(cfg.precision)
    return Generator(cfg, dataclasses.replace(params, blocks=params.blocks[:cfg.num_layers]))


def _uninterrupted(gen: Generator, prompt, seed: int, ctx):
    """All layers in one loop, then projection and decoding: the reference
    that a tapped run resumed later must equal. Returns (image, hidden, z0)."""
    cfg = gen.config
    realized = scenes.candidate_scene(prompt, seed, cfg.corruption_rate)
    x = toygen._embed_layer0(gen, prompt, seed, realized, ctx)
    x = toygen._run_blocks(gen, x, 0, cfg.num_layers, ctx)
    z0 = toygen._project(gen, x, ctx)
    return toygen.decode_latent(gen, z0, ctx), x, z0


@settings(max_examples=30, deadline=None)
@given(layers=hst.integers(1, 6), tap_frac=hst.floats(0.0, 1.0, exclude_max=True),
       corruption=hst.floats(0.0, 1.0), precision=hst.sampled_from(["f64", "f32"]),
       prompt_seed=hst.integers(0, 2 ** 32 - 1), seed=hst.integers(0, 2 ** 62))
def test_resume_equals_full_bitwise(layers, tap_frac, corruption, precision,
                                    prompt_seed, seed):
    gen = _generator(GeneratorConfig(num_layers=layers, tap_layer=int(tap_frac * layers),
                                     corruption_rate=corruption, precision=precision))
    p = sample_prompt(np.random.default_rng(prompt_seed))
    st = generate_tapped(gen, p, seed, MeterContext())
    img_resume = resume_and_decode(gen, st, MeterContext())
    img_ref, hidden_ref, z0_ref = _uninterrupted(gen, p, seed, MeterContext())
    assert img_resume.pixels.data.tobytes() == img_ref.pixels.data.tobytes()
    assert st.z0.data.tobytes() == z0_ref.data.tobytes()
    assert st.hidden.data.tobytes() == hidden_ref.data.tobytes()


def test_metered_and_unmetered_runs_bitwise_equal(default_generator, rng):
    for seed in range(3):
        p = sample_prompt(rng)
        img_m, st_m = generate_full(default_generator, p, seed, MeterContext())
        img_u, st_u = generate_full(default_generator, p, seed, None)
        assert img_m.pixels.data.tobytes() == img_u.pixels.data.tobytes()
        assert st_m.z0.data.tobytes() == st_u.z0.data.tobytes()


def test_metered_buffers_never_alias(default_generator, rng, monkeypatch):
    # each buffer the meter counts is held here, so none can be freed and reused;
    # the count is 4 at embed, 11 in each of 8 blocks, 1 projection, 6 at decode
    seen = []
    register = MeterContext.register

    def record(ctx, tensor):
        seen.append(tensor.data)
        register(ctx, tensor)

    monkeypatch.setattr(MeterContext, "register", record)
    generate_full(default_generator, sample_prompt(rng), 6, MeterContext())
    assert len(seen) == 99
    assert [(a.shape, b.shape) for a, b in itertools.combinations(seen, 2)
            if np.shares_memory(a, b)] == []


def test_bytes_live_returns_to_start_when_results_dropped(default_generator, rng):
    ctx = MeterContext()
    p = sample_prompt(rng)
    img, st = generate_full(default_generator, p, 7, ctx)
    tapped = generate_tapped(default_generator, p, 8, ctx)
    assert ctx.bytes_live > 0 and ctx.bytes_peak >= ctx.bytes_live
    del img, st, tapped
    assert ctx.bytes_live == 0


def test_f32_precision_is_honoured_end_to_end(rng):
    gen = _generator(GeneratorConfig(num_layers=3, tap_layer=1, precision="f32"))
    p = sample_prompt(rng)
    st = generate_tapped(gen, p, 5, MeterContext())
    assert st.hidden.dtype == np.float32
    img = resume_and_decode(gen, st, MeterContext())
    assert st.z0.dtype == np.float32 and img.pixels.dtype == np.float32
    img_full, st_full = generate_full(gen, p, 5, None)
    assert st_full.hidden.dtype == st_full.z0.dtype == img_full.pixels.dtype == np.float32
    assert img.pixels.data.tobytes() == img_full.pixels.data.tobytes()


@given(seed=hst.integers(0, 2 ** 62))
def test_f32_parameters_and_noise_are_the_f64_ones_rounded_once(seed):
    for a64, a32 in zip(_param_arrays(_params_for("f64")), _param_arrays(_params_for("f32")),
                        strict=True):
        assert a32.dtype == np.float32 and a32.tobytes() == a64.astype(np.float32).tobytes()
    z64, z32 = (toygen._derive_noise(GeneratorConfig(precision=p), seed) for p in ("f64", "f32"))
    assert z32.dtype == np.float32 and z32.tobytes() == z64.astype(np.float32).tobytes()


@pytest.mark.parametrize("precision, peak", [("f32", 74_888), ("f64", 149_776)])
def test_metered_peak_of_a_full_run_halves_in_f32(precision, peak, rng):
    # the same buffers in either precision, each half the bytes in float32
    ctx = MeterContext()
    generate_full(build_generator(GeneratorConfig(precision=precision)), sample_prompt(rng), 5, ctx)
    assert ctx.bytes_peak == peak


def test_generator_weights_and_outputs_are_read_only(default_generator, rng):
    p = default_generator.params
    arrays = [p.token_code, p.channel_code, p.token_table, p.seg_prompt, p.w_proj,
              p.w_proj_inv]
    arrays += [getattr(b, f.name) for b in p.blocks for f in dataclasses.fields(b)]
    assert not any(a.flags.writeable for a in arrays)
    img, st = generate_full(default_generator, sample_prompt(rng), 1, MeterContext())
    for a in (img.pixels.data, st.z0.data, st.hidden.data):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        p.channel_code[0, 0] = 1.0


def test_resume_on_completed_state_raises(default_generator, rng):
    p = sample_prompt(rng)
    st = generate_tapped(default_generator, p, 5, None)
    resume_and_decode(default_generator, st, None)
    with pytest.raises(StateCompletionError):
        resume_and_decode(default_generator, st, None)


def test_tap_at_last_layer_resume_only_decodes(rng):
    cfg = GeneratorConfig(num_layers=4, tap_layer=3)
    gen = build_generator(cfg)
    p = sample_prompt(rng)
    c_tap, c_res = MeterContext(), MeterContext()
    st = generate_tapped(gen, p, 11, c_tap)
    resume_and_decode(gen, st, c_res)
    # resume ran zero blocks: projection + decode only
    d, n = cfg.model_width, cfg.num_noise_tokens
    expected = (flops_for(("matmul", n, d, d)) * 2
                + _unembed_flops(cfg)
                + 3 * cfg.raster_dim)  # scale + shift + clamp
    assert c_res.flops_accumulated == expected


@settings(max_examples=20, deadline=None)
@given(layers=hst.integers(1, 6), tap_frac=hst.floats(0.0, 1.0, exclude_max=True),
       corruption=hst.floats(0.0, 1.0), prompt_seed=hst.integers(0, 2 ** 32 - 1),
       seed=hst.integers(0, 2 ** 62))
def test_flops_additivity_random_configs(layers, tap_frac, corruption, prompt_seed, seed):
    gen = _generator(GeneratorConfig(num_layers=layers, tap_layer=int(tap_frac * layers),
                                     corruption_rate=corruption))
    p = sample_prompt(np.random.default_rng(prompt_seed))
    c_tap, c_res, c_full = MeterContext(), MeterContext(), MeterContext()
    st = generate_tapped(gen, p, seed, c_tap)
    resume_and_decode(gen, st, c_res)
    _uninterrupted(gen, p, seed, c_full)
    assert c_tap.flops_accumulated + c_res.flops_accumulated == c_full.flops_accumulated


def _unembed_flops(cfg: GeneratorConfig) -> int:
    """Decoder's un-embed: A[:, :r]ᵀ @ t, then @ B, for the r raster rows."""
    n, d = cfg.num_noise_tokens, cfg.model_width
    r = -(-cfg.raster_dim // d)
    return flops_for(("matmul", r, n, d)) + flops_for(("matmul", r, d, d))


def test_generation_flops_match_closed_form(default_generator, rng):
    cfg = default_generator.config
    p = sample_prompt(rng)
    c_tap, c_res, c_full = MeterContext(), MeterContext(), MeterContext()
    resume_and_decode(default_generator, generate_tapped(default_generator, p, 3, c_tap), c_res)
    generate_full(default_generator, p, 3, c_full)
    t, d = cfg.num_tokens, cfg.model_width
    n = cfg.num_noise_tokens
    block = flops_for(("attention_block", t, d, 4 * d))
    tapped = (
        flops_for(("matmul", n, n, d)) + flops_for(("matmul", n, d, d))  # code embed A @ X @ Bᵀ
        + scenes.PROMPT_TOKEN_LEN * d                               # prompt segment add
        + (cfg.tap_layer + 1) * block
    )
    resumed = (
        (cfg.num_layers - cfg.tap_layer - 1) * block
        + flops_for(("matmul", n, d, d))                            # final projection
        + flops_for(("matmul", n, d, d))                            # decoder: undo projection
        + _unembed_flops(cfg)                                       # decoder: un-embed
        + 3 * cfg.raster_dim                                        # scale + shift + clamp
    )
    # the default tap is block 0
    assert c_tap.flops_accumulated == tapped == 2_669_862
    assert c_res.flops_accumulated == resumed == 17_926_346
    assert c_full.flops_accumulated == tapped + resumed == 20_596_208


# -------------------------------------------------------- scene code

def _param_arrays(params) -> list[np.ndarray]:
    return [a for a in (*vars(params).values(), *(v for b in params.blocks
                                                   for v in vars(b).values()))
            if isinstance(a, np.ndarray)]


@hst.composite
def _code_shapes(draw):
    """(num_noise_tokens, model_width) of a valid config, code_dim <= 1280."""
    tokens = draw(hst.integers(8, 24))
    least = -(-(GeneratorConfig().raster_dim + toygen.MATCH_CHANNELS) // tokens)
    return tokens, draw(hst.integers(least, 1280 // tokens))


@settings(max_examples=20, deadline=None)
@given(shape=_code_shapes(), precision=hst.sampled_from(["f64", "f32"]),
       prompt_seed=hst.integers(0, 2 ** 32 - 1), seed=hst.integers(0, 2 ** 62))
@example(shape=(16, 80), precision="f64", prompt_seed=0, seed=0)  # raster_dim % d != 0
@example(shape=(16, 80), precision="f32", prompt_seed=0, seed=0)
def test_factored_code_is_the_dense_orthogonal_code(shape, precision, prompt_seed, seed):
    tokens, width = shape
    cfg = GeneratorConfig(num_layers=1, tap_layer=0, num_noise_tokens=tokens,
                          model_width=width, precision=precision)
    gen = build_generator(cfg)
    tol = 1e-12 if precision == "f64" else 1e-5
    # (A ⊗ B)(A ⊗ B)ᵀ = AAᵀ ⊗ BBᵀ: the code is orthogonal when both factors are
    a, b = (c.astype(np.float64) for c in (gen.params.token_code, gen.params.channel_code))
    for f in (a, b):
        assert np.abs(f @ f.T - np.eye(len(f))).max() <= tol

    p = sample_prompt(np.random.default_rng(prompt_seed))
    realized = scenes.candidate_scene(p, seed, cfg.corruption_rate)
    coords = toygen._code_coordinates(cfg, p, seed, realized)
    x = toygen._embed_layer0(gen, p, seed, realized, None)
    dense = (np.kron(a, b) @ coords.reshape(-1)).reshape(tokens, width)
    assert np.abs(x.data[:tokens] - dense).max() <= tol
    if precision == "f64":
        # no blocks between embed and projection: decoding inverts the code
        img = toygen.decode_latent(gen, toygen._project(gen, x, None), None)
        assert np.abs(img.pixels.data - scenes.render(realized.scene)).max() <= 1e-12


# sha256 of the float64 generator's drawn parameters (block weights, w_proj,
# token_table, seg_prompt) and of the code coordinates (raster, match and noise
# banks) of one candidate of each of the first 200 prompts of
# sample_prompt(default_rng(0)); the QR factors and w_proj_inv are left out,
# since their bits depend on the LAPACK build
DRAWS_AND_CODE_SHA256 = "0c718480a2babef25500208ec3f8d57c4eece127902be0d57825ecce7b54dce1"


def test_generator_draws_and_code_coordinates_are_unchanged():
    cfg = GeneratorConfig(precision="f64")
    p = build_generator(cfg).params
    digest = hashlib.sha256()
    for block in p.blocks:
        for f in dataclasses.fields(block):
            digest.update(getattr(block, f.name).tobytes())
    for arr in (p.w_proj, p.token_table, p.seg_prompt):
        digest.update(arr.tobytes())
    rng = np.random.default_rng(0)
    for seed in range(200):
        prompt = sample_prompt(rng)
        realized = scenes.candidate_scene(prompt, seed, cfg.corruption_rate)
        digest.update(toygen._code_coordinates(cfg, prompt, seed, realized).tobytes())
    assert digest.hexdigest() == DRAWS_AND_CODE_SHA256


@pytest.mark.parametrize("width", [64, 80])
def test_no_parameter_spans_the_code_dimension(width):
    cfg = GeneratorConfig(model_width=width)
    tracemalloc.start()
    try:
        gen = build_generator(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = _param_arrays(gen.params)
    assert all(cfg.code_dim not in a.shape for a in arrays)
    assert peak <= 2 * sum(a.nbytes for a in arrays)


# -------------------------------------------------------- decoding

def test_decoded_uncorrupted_image_passes_oracle(rng, default_generator):
    gen = Generator(dataclasses.replace(default_generator.config, corruption_rate=0.0),
                    default_generator.params)
    for seed in range(30):
        p = sample_prompt(rng)
        img, st = generate_full(gen, p, seed, None)
        assert img.pixels.data.min() >= 0.0 and img.pixels.data.max() <= 1.0
        parsed = parse_scene(img.pixels.data)
        assert scenes_equal(parsed, st.rendered_scene)
        assert oracle_check(p, parsed)


def test_different_seeds_different_latents(default_generator, rng):
    p = sample_prompt(rng)
    st1 = generate_tapped(default_generator, p, 1, None)
    st2 = generate_tapped(default_generator, p, 2, None)
    z1, z2 = (toygen._derive_noise(default_generator.config, s) for s in (1, 2))
    assert not np.array_equal(z1, z2)
    assert not np.array_equal(st1.hidden.data, st2.hidden.data)


def test_terminal_latent_has_one_token_per_cell(default_generator, rng):
    p = sample_prompt(rng)
    _, st = generate_full(default_generator, p, 21, None)
    latent = st.z0
    assert latent.shape == (default_generator.config.num_noise_tokens,
                            default_generator.config.model_width)
    assert latent.shape[0] == (scenes.IMAGE_SIZE // scenes.PATCH) ** 2


# -------------------------------------------------------- config

@pytest.mark.parametrize("name, value", [
    ("num_layers", "8"),               # int field given a string
    ("tap_layer", 2.5),                # int field given a float
    ("corruption_rate", "0.3"),        # float field given a string
    ("tap_layer", True),               # a bool is not an int
    ("corruption_rate", math.nan),     # floats must be finite
    ("corruption_rate", math.inf),
])
def test_config_field_of_the_wrong_type_raises_typed_error(name, value):
    with pytest.raises(GeneratorConfigError, match=f"{name} must be (int|float|finite)"):
        GeneratorConfig(**{name: value})


def test_generator_and_verifier_default_to_the_same_tap():
    # otherwise every default hidden_state request raises StateCompletionError
    assert GeneratorConfig().tap_layer == VerifierConfig().tap_layer


def test_config_float_fields_accept_ints():
    assert GeneratorConfig(corruption_rate=0).corruption_rate == 0


def test_invalid_configs_rejected():
    with pytest.raises(GeneratorConfigError):
        GeneratorConfig(tap_layer=8)
    with pytest.raises(GeneratorConfigError):
        GeneratorConfig(corruption_rate=1.5)
    with pytest.raises(GeneratorConfigError):
        GeneratorConfig(model_width=16)  # too little code capacity
    with pytest.raises(GeneratorConfigError):
        dataclasses.replace(GeneratorConfig(), tap_layer=99)
    with pytest.raises(VerifierConfigError):
        VerifierConfig(mode="bogus")
    with pytest.raises(VerifierConfigError):
        dataclasses.replace(VerifierConfig(), tap_layer=-1)  # no generator depth to exceed
    with pytest.raises(VerifierConfigError):
        VerifierConfig(scorer_blocks=-1)
    with pytest.raises(VerifierConfigError):
        VerifierConfig(encoder_depth=-1)  # any mode, though only pixel_reencode reads it
    with pytest.raises(GeneratorConfigError):
        GeneratorConfig(precision="f16")
    with pytest.raises(VerifierConfigError):
        init_verifier(VerifierConfig(), precision="f16")


# -------------------------------------------------------- informativeness

def test_linear_probe_reads_corruption_bit(default_generator):
    gen = Generator(dataclasses.replace(default_generator.config, corruption_rate=0.5),
                    default_generator.params)
    rng = np.random.default_rng(42)
    n_train, n_test = 4000, 1500
    feat_dim = gen.config.code_dim
    X = np.empty((n_train + n_test, feat_dim))
    y = np.empty(n_train + n_test)
    for i in range(n_train + n_test):
        p = sample_prompt(rng)
        st = generate_tapped(gen, p, 10_000 + i, None)
        X[i] = tap_hidden_features(st).reshape(-1)
        y[i] = 0.0 if st.corrupted else 1.0
    Xtr, ytr, Xte, yte = X[:n_train], y[:n_train], X[n_train:], y[n_train:]
    mu, sd = Xtr.mean(axis=0), Xtr.std(axis=0) + 1e-9
    ztr, zte = (Xtr - mu) / sd, (Xte - mu) / sd
    w = np.linalg.solve(ztr.T @ ztr + 30.0 * np.eye(feat_dim), ztr.T @ (2 * ytr - 1))
    acc = (((zte @ w) > 0) == (yte > 0.5)).mean()
    assert acc >= 0.95
