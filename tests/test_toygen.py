import dataclasses
import functools
import hashlib
import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from latentscale import numcore, scenes, toygen, verifier
from latentscale.numcore import MeterContext, block_entry, flops_for
from latentscale.scenes import oracle_check, parse_scene, sample_prompt, scenes_equal
from latentscale.toygen import (
    CONTENT_TOKENS, MATCH_CHANNELS, MODEL_WIDTH, RASTER_DIM, Generator, GeneratorConfig,
    GeneratorConfigError, StateCompletionError, build_generator, generate_full,
    generate_tapped, resume_and_decode,
)
from latentscale.verifier import VerifierConfig, VerifierConfigError


def _at_rate(gen: Generator, rate: float) -> Generator:
    """``gen``'s parameters, corrupting candidates at ``rate``."""
    return Generator(GeneratorConfig(corruption_rate=rate), gen.params)


def test_zero_corruption_matches_target(rng, default_generator):
    gen = _at_rate(default_generator, 0.0)
    for seed in range(20):
        p = sample_prompt(rng)
        st = generate_tapped(gen, p, seed, None)
        assert not st.corrupted
        assert oracle_check(p, st.rendered_scene)


def test_full_corruption_flips_exactly_one_attribute(rng, default_generator):
    gen = _at_rate(default_generator, 1.0)
    for seed in range(50):
        p = sample_prompt(rng)
        st = generate_tapped(gen, p, seed, None)
        assert st.corrupted
        assert not oracle_check(p, st.rendered_scene)
        spec = scenes.candidate_scene(p, scenes.candidate_rng(p, seed),
                                      gen.config.corruption_rate).spec
        before, after = (dataclasses.astuple(s) for s in (p.target, spec))
        assert sum(x != y for x, y in zip(before, after)) == 1


def test_corruption_frequency_monte_carlo():
    rng = np.random.default_rng(0)
    prompts = [sample_prompt(rng) for _ in range(20)]
    fired = sum(scenes.candidate_scene(p, scenes.candidate_rng(p, s), 0.3).corrupted
                for s, p in zip(range(10_000), itertools.cycle(prompts)))
    assert abs(fired / 10_000 - 0.3) <= 0.02


@settings(max_examples=50, deadline=None)
@given(prompt_seed=hst.integers(0, 2 ** 32 - 1), seed=hst.integers(0, 2 ** 62),
       rate=hst.floats(0.0, 1.0))
def test_candidate_content_is_reproducible_without_the_generator(
        prompt_seed, seed, rate, default_generator):
    gen = _at_rate(default_generator, rate)
    p = sample_prompt(np.random.default_rng(prompt_seed))
    st = generate_tapped(gen, p, seed, None)
    cand = scenes.candidate_scene(p, scenes.candidate_rng(p, seed), rate)
    assert (st.corrupted, st.rendered_scene) == (cand.corrupted, cand.scene)


# -------------------------------------------------------- truncate / resume

def _drawn_scene(cfg: GeneratorConfig, prompt, seed: int):
    """The candidate's scene and its stream after the scene draws."""
    rng = scenes.candidate_rng(prompt, seed)
    return scenes.candidate_scene(prompt, rng, cfg.corruption_rate), rng


def _block_input(gen: Generator, prompt, seed: int, stop: int, ctx=None) -> numcore.Tensor:
    """The rows entering block ``stop`` (at least 1): the embed, then blocks
    0..stop-1 on every row, each one ``attention_block`` call; block 0 is
    given the prompt rows' entries from the per-token tables."""
    realized, rng = _drawn_scene(gen.config, prompt, seed)
    p, ids = gen.params, scenes.encode_prompt_tokens(prompt)
    x = toygen._embed_layer0(gen, realized, rng, ctx)
    x = toygen.attention_block(x, p.blocks[0], ctx, given=(p.prompt_h[ids], p.prompt_qkv[:, ids]))
    for w in p.blocks[1:stop]:
        x = toygen.attention_block(x, w, ctx)
    return x


def _uninterrupted(gen: Generator, prompt, seed: int, ctx):
    """All blocks in one loop of its own, the last on the content rows, then
    projection and decoding: the reference that a tapped run resumed later
    must equal. Returns (image, hidden, z0)."""
    x = _block_input(gen, prompt, seed, toygen.NUM_LAYERS - 1, ctx)
    x = toygen.attention_block(x, gen.params.blocks[-1], ctx, rows=CONTENT_TOKENS)
    z0 = toygen._project(gen, x, ctx)
    return toygen.decode_latent(gen, z0, ctx), x, z0


@settings(max_examples=30, deadline=None)
@given(corruption=hst.floats(0.0, 1.0), prompt_seed=hst.integers(0, 2 ** 32 - 1),
       seed=hst.integers(0, 2 ** 62))
def test_resume_equals_full_bitwise(corruption, prompt_seed, seed, default_generator):
    gen = _at_rate(default_generator, corruption)
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
    # the count is 2 at embed, 10 in each of 8 blocks, 1 projection, 3 at
    # decode (the first product, the second with its shift, the clamp), and
    # 10 more because the tap block's query pass runs twice: the prompt rows'
    # pass at resume (7), the key and value kept at the tap, the resume's
    # joined keys and values, and the joined rows
    seen = []
    register = MeterContext.register

    def record(ctx, tensor):
        seen.append(tensor.data)
        register(ctx, tensor)

    monkeypatch.setattr(MeterContext, "register", record)
    generate_full(default_generator, sample_prompt(rng), 6, MeterContext())
    assert len(seen) == 96
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


def test_f32_precision_is_honoured_end_to_end(default_generator, rng):
    gen = default_generator
    p = sample_prompt(rng)
    st = generate_tapped(gen, p, 5, MeterContext())
    assert st.hidden.dtype == np.float32
    img = resume_and_decode(gen, st, MeterContext())
    assert st.z0.dtype == np.float32 and img.pixels.dtype == np.float32
    img_full, st_full = generate_full(gen, p, 5, None)
    assert st_full.hidden.dtype == st_full.z0.dtype == img_full.pixels.dtype == np.float32
    assert img.pixels.data.tobytes() == img_full.pixels.data.tobytes()


def _coordinates(cfg: GeneratorConfig, prompt, seed: int) -> np.ndarray:
    return toygen._code_coordinates(*_drawn_scene(cfg, prompt, seed))


def test_metered_peak_of_a_full_run(default_generator, rng):
    # float32 buffers; the peak depends on shapes only. It is reached as a
    # 23-row block from the second past the tap to the last but one
    # registers its GELU, while the GELU still reads the MLP-up output: the
    # state's tapped content rows 4,096, the tap block's joined rows 5,888,
    # the block's input 5,888, h 5,888, q/k/v 17,664, scores and probs
    # 2 * 2,116, h2 and ln2 2 * 5,888, and the MLP-up and GELU outputs
    # 2 * 23,552
    ctx = MeterContext()
    generate_full(default_generator, sample_prompt(rng), 5, ctx)
    assert ctx.bytes_peak == 4_096 + 3 * 5_888 + 17_664 + 2 * 2_116 + 2 * 5_888 + 2 * 23_552
    assert ctx.bytes_peak == 102_536


def test_metered_peak_does_not_depend_on_who_holds_a_calls_arguments(
        default_generator, rng, monkeypatch):
    # Python 3.10 keeps a call's arguments referenced in its caller until
    # the call returns, 3.11 hands them to the callee. Emulate 3.10 by
    # calling every function of numcore and toygen through a frame that
    # holds its arguments: the peak must not move
    p = sample_prompt(rng)
    plain = MeterContext()
    generate_full(default_generator, p, 5, plain)
    for module in (numcore, toygen):
        for name, f in list(vars(module).items()):
            if isinstance(f, types.FunctionType):
                monkeypatch.setattr(module, name, functools.partial(_held, f))
    held = MeterContext()
    toygen.generate_full(default_generator, p, 5, held)
    assert held.bytes_peak == plain.bytes_peak


def _held(f, *args, **kwargs):
    return f(*args, **kwargs)


def test_generator_weights_and_outputs_are_read_only(default_generator, rng):
    p = default_generator.params
    arrays = [p.token_code, p.channel_code, p.prompt_h, p.prompt_qkv, p.w_proj, p.w_decode]
    arrays += [getattr(b, f.name) for b in p.blocks for f in dataclasses.fields(b)]
    assert not any(a.flags.writeable for a in arrays)
    img, st = generate_full(default_generator, sample_prompt(rng), 1, MeterContext())
    for a in (img.pixels.data, st.z0.data, st.hidden.data):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        p.channel_code[0, 0] = 1.0


def test_the_tap_blocks_query_split_falls_where_the_blas_groups_rows():
    # the tap block's content rows query at the tap and its prompt rows at
    # resume; test_resume_equals_full_bitwise needs the two passes to give
    # the bits of one. OpenBLAS's sgemm takes the scores product's rows in
    # groups of 4, and NumPy sends a one-row product to gemv, so that holds
    # only for a split at a multiple of 4 with at least 2 rows after it
    # (test_block_queries_split_at_any_row_join_to_the_block)
    assert CONTENT_TOKENS % 4 == 0, (
        f"CONTENT_TOKENS = {CONTENT_TOKENS} splits the tap block's scores product inside "
        "one of OpenBLAS sgemm's 4-row groups, so tap + resume is no longer bitwise the "
        "full run")
    assert scenes.PROMPT_TOKEN_LEN >= 2, "a one-row prompt query pass would run as gemv"


def test_tapped_state_keeps_the_content_rows_and_the_tap_blocks_content_keys_and_values(
        default_generator, rng):
    # float32 at the default config: hidden 4,096 B and the key and value 8,192 B
    n, d = CONTENT_TOKENS, MODEL_WIDTH
    p = sample_prompt(rng)
    ctx = MeterContext()
    st = generate_tapped(default_generator, p, 9, ctx)
    assert st.hidden.shape == (n, d) and st.kv.shape == (2, n, d)
    assert st.prompt_ids.tolist() == scenes.encode_prompt_tokens(p).tolist()
    assert ctx.bytes_live == 4 * n * d + 4 * 2 * n * d == 12_288
    resume_and_decode(default_generator, st, MeterContext())
    assert (st.kv, st.prompt_ids) == (None, None)
    assert ctx.bytes_live == 0  # the tap's buffers went with what resume dropped
    pruned = generate_tapped(default_generator, p, 10, ctx)
    assert ctx.bytes_live == 12_288
    del pruned
    assert ctx.bytes_live == 0


def test_resume_joins_the_tap_blocks_keys_and_values_and_queries_the_prompt_rows(
        default_generator, rng, monkeypatch):
    # one [2, 23, 64] key and value buffer, the 7 prompt rows' query pass,
    # then the joined [23, 64] rows; no entry is rebuilt for all 23 rows
    n, d, prompt = CONTENT_TOKENS, MODEL_WIDTH, scenes.PROMPT_TOKEN_LEN
    st = generate_tapped(default_generator, sample_prompt(rng), 4, None)
    seen = []
    register = MeterContext.register

    def record(ctx, tensor):
        seen.append(tensor.shape)
        register(ctx, tensor)

    monkeypatch.setattr(MeterContext, "register", record)
    rows = toygen._tap_block_rows(default_generator, st, MeterContext())
    assert seen == [(2, n + prompt, d), (prompt, n + prompt), (prompt, n + prompt),
                    (prompt, d), (prompt, d), (prompt, 4 * d), (prompt, 4 * d),
                    (prompt, d), (n + prompt, d)]
    assert rows.shape == (n + prompt, d)


def test_resume_on_completed_state_raises(default_generator, rng):
    p = sample_prompt(rng)
    st = generate_tapped(default_generator, p, 5, None)
    resume_and_decode(default_generator, st, None)
    with pytest.raises(StateCompletionError):
        resume_and_decode(default_generator, st, None)


def test_last_blocks_content_rows_are_the_unpruned_blocks_first_rows(default_generator, rng):
    # the last block returns the content rows only; a completed state's hidden
    # must be all of them, as the same block run on every row gives them
    gen, p = default_generator, sample_prompt(rng)
    _, st = generate_full(gen, p, 11, None)
    x = _block_input(gen, p, 11, toygen.NUM_LAYERS - 1)
    unpruned = toygen.attention_block(x, gen.params.blocks[-1], None).data
    n, d = CONTENT_TOKENS, MODEL_WIDTH
    assert st.hidden.shape == (n, d) and unpruned.shape == (n + scenes.PROMPT_TOKEN_LEN, d)
    assert np.abs(st.hidden.data - unpruned[:n]).max() <= 1e-5 * np.abs(unpruned).max()


@settings(max_examples=20, deadline=None)
@given(prompt_seed=hst.integers(0, 2 ** 32 - 1), seed=hst.integers(0, 2 ** 62))
def test_block_0_with_looked_up_prompt_rows_is_the_block_on_the_concatenated_rows(
        prompt_seed, seed, default_generator):
    # tables of block 0's entry for stand-in token rows; the tap block lets
    # the content rows alone query
    rng = np.random.default_rng(prompt_seed)
    tokens = rng.standard_normal((scenes.VOCAB_SIZE, MODEL_WIDTH)).astype(toygen.DTYPE)
    h, qkv = block_entry(tokens, default_generator.params.blocks[0], None)
    gen = Generator(default_generator.config, dataclasses.replace(
        default_generator.params, prompt_h=h.data, prompt_qkv=qkv.data))
    p = sample_prompt(rng)
    realized, stream = _drawn_scene(gen.config, p, seed)
    x = np.concatenate([toygen._embed_layer0(gen, realized, stream, None).data,
                        tokens[scenes.encode_prompt_tokens(p)]])
    want = toygen.attention_block(x, gen.params.blocks[0], None, rows=CONTENT_TOKENS)
    assert generate_tapped(gen, p, seed, None).hidden.data.tobytes() == want.data.tobytes()


@settings(max_examples=20, deadline=None)
@given(corruption=hst.floats(0.0, 1.0), prompt_seed=hst.integers(0, 2 ** 32 - 1),
       seed=hst.integers(0, 2 ** 62))
def test_flops_additivity_random_configs(corruption, prompt_seed, seed, default_generator):
    gen = _at_rate(default_generator, corruption)
    p = sample_prompt(np.random.default_rng(prompt_seed))
    c_tap, c_res, c_full = MeterContext(), MeterContext(), MeterContext()
    st = generate_tapped(gen, p, seed, c_tap)
    resume_and_decode(gen, st, c_res)
    _uninterrupted(gen, p, seed, c_full)
    assert c_tap.flops_accumulated + c_res.flops_accumulated == c_full.flops_accumulated


def _unembed_flops() -> int:
    """The decode's two products for the r raster rows: A[:, :r]ᵀ @ z0, then
    @ (W⁻¹ @ B)."""
    n, d = CONTENT_TOKENS, MODEL_WIDTH
    r = RASTER_DIM // d
    return flops_for(("matmul", r, n, d)) + flops_for(("matmul", r, d, d))


def test_generation_flops_match_closed_form(default_generator, rng):
    p = sample_prompt(rng)
    c_tap, c_res, c_full = MeterContext(), MeterContext(), MeterContext()
    resume_and_decode(default_generator, generate_tapped(default_generator, p, 3, c_tap), c_res)
    generate_full(default_generator, p, 3, c_full)
    n, d, prompt = CONTENT_TOKENS, MODEL_WIDTH, scenes.PROMPT_TOKEN_LEN
    t = n + prompt
    block = flops_for(("attention_block", t, d, 4 * d))
    # the tap is block 0: its prompt rows are given, and query at resume
    tapped = (
        flops_for(("matmul", n, n, d)) + flops_for(("matmul", n, d, d))  # code embed A @ X @ Bᵀ
        + flops_for(("attention_block", t, d, 4 * d, n, prompt))
    )
    resumed = (
        flops_for(("block_queries", t, d, 4 * d, prompt))
        + (toygen.NUM_LAYERS - 2) * block
        + flops_for(("attention_block", t, d, 4 * d, n))            # last block: content rows
        + flops_for(("matmul", n, d, d))                            # final projection
        + _unembed_flops()                                          # decode
        + 2 * RASTER_DIM                                            # shift + clamp
    )
    assert c_tap.flops_accumulated == tapped == 1_644_336
    assert c_res.flops_accumulated == resumed == 15_152_979
    assert c_full.flops_accumulated == tapped + resumed == 16_797_315


# -------------------------------------------------------- scene code

def _param_arrays(params) -> list[np.ndarray]:
    return [a for a in (*vars(params).values(), *(v for b in params.blocks
                                                   for v in vars(b).values()))
            if isinstance(a, np.ndarray)]


def test_the_code_holds_the_raster_and_match_banks_in_whole_rows():
    # the capacity the code needs, and the decode's exact raster rows
    assert CONTENT_TOKENS * MODEL_WIDTH >= RASTER_DIM + MATCH_CHANNELS
    assert RASTER_DIM % MODEL_WIDTH == 0
    # the generator alone owns the width the verifier reads
    assert verifier.FEATURE_DIM is MODEL_WIDTH


@settings(max_examples=20, deadline=None)
@given(prompt_seed=hst.integers(0, 2 ** 32 - 1), seed=hst.integers(0, 2 ** 62))
def test_factored_code_is_the_dense_orthogonal_code(prompt_seed, seed, default_generator):
    gen = default_generator
    cfg = gen.config
    tol = 1e-5
    # (A ⊗ B)(A ⊗ B)ᵀ = AAᵀ ⊗ BBᵀ: the code is orthogonal when both factors are
    a, b = (c.astype(np.float64) for c in (gen.params.token_code, gen.params.channel_code))
    for f in (a, b):
        assert np.abs(f @ f.T - np.eye(len(f))).max() <= tol

    p = sample_prompt(np.random.default_rng(prompt_seed))
    realized, rng = _drawn_scene(cfg, p, seed)
    coords = _coordinates(cfg, p, seed)
    x = toygen._embed_layer0(gen, realized, rng, None)
    dense = (np.kron(a, b) @ coords.reshape(-1)).reshape(CONTENT_TOKENS, MODEL_WIDTH)
    assert np.abs(x.data - dense).max() <= tol
    # no blocks between embed and projection: decoding inverts the code
    img = toygen.decode_latent(gen, toygen._project(gen, x, None), None)
    assert np.abs(img.pixels.data - scenes.render(realized.scene)).max() <= tol


# sha256 of the generator's float32 parameters made of draws and sums alone
# (every block entry but the folded wqk_vo, w_proj, prompt_h: each token's
# row plus block 0's t_bias); wqk_vo, prompt_qkv, the QR factors and
# w_decode are left out, since their bits depend on the BLAS and LAPACK
# build (test_numcore pins the fold against its four draws). The
# candidates' code coordinates are pinned with their scenes in test_scenes
GENERATOR_DRAWS_SHA256 = "6ee355763fca2fe2923cdae6c89cc38613584875e93738d16ab37170acb5680a"


def test_generator_draws_are_unchanged():
    p = build_generator(GeneratorConfig()).params
    digest = hashlib.sha256()
    for block in p.blocks:
        for f in dataclasses.fields(block):
            if f.name != "wqk_vo":
                digest.update(getattr(block, f.name).tobytes())
    for arr in (p.w_proj, p.prompt_h):
        digest.update(arr.tobytes())
    assert digest.hexdigest() == GENERATOR_DRAWS_SHA256


def test_no_parameter_spans_the_code_dimension():
    tracemalloc.start()
    try:
        gen = build_generator(GeneratorConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = _param_arrays(gen.params)
    assert all(CONTENT_TOKENS * MODEL_WIDTH not in a.shape for a in arrays)
    assert peak <= 2 * sum(a.nbytes for a in arrays)


# -------------------------------------------------------- decoding

def test_decoded_uncorrupted_image_passes_oracle(rng, default_generator):
    gen = _at_rate(default_generator, 0.0)
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
    cfg = default_generator.config
    # the noise bank: the coordinates after the raster and match banks
    z1, z2 = (_coordinates(cfg, p, s).reshape(-1)[RASTER_DIM + MATCH_CHANNELS:]
              for s in (1, 2))
    assert not np.array_equal(z1, z2)
    assert not np.array_equal(st1.hidden.data, st2.hidden.data)


def test_terminal_latent_has_one_token_per_cell(default_generator, rng):
    p = sample_prompt(rng)
    _, st = generate_full(default_generator, p, 21, None)
    latent = st.z0
    assert latent.shape == (CONTENT_TOKENS, MODEL_WIDTH)
    assert latent.shape[0] == (scenes.IMAGE_SIZE // scenes.PATCH) ** 2


# -------------------------------------------------------- config

@pytest.mark.parametrize("name, value", [
    ("corruption_rate", "0.3"),        # a string
    ("corruption_rate", True),         # a bool is not a number here
    ("corruption_rate", math.nan),     # the rate must be finite
    ("corruption_rate", math.inf),
    ("corruption_rate", -math.inf),
])
def test_config_field_of_the_wrong_type_raises_typed_error(name, value):
    with pytest.raises(GeneratorConfigError, match=rf"{name} must be a number in \[0, 1\]"):
        GeneratorConfig(**{name: value})


def test_config_float_fields_accept_ints():
    assert GeneratorConfig(corruption_rate=0).corruption_rate == 0


def test_invalid_configs_rejected():
    with pytest.raises(GeneratorConfigError):
        GeneratorConfig(corruption_rate=1.5)
    with pytest.raises(GeneratorConfigError):
        dataclasses.replace(GeneratorConfig(), corruption_rate=-0.1)
    with pytest.raises(VerifierConfigError):
        VerifierConfig(mode="bogus")
    with pytest.raises(VerifierConfigError):
        VerifierConfig(mode=1)
    with pytest.raises(VerifierConfigError):
        VerifierConfig(mode=["hidden_state"])
