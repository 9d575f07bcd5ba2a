"""Hand-constructed single-step transformer generator over grid scenes.

The generator is constructed, not trained. Scene content enters the token
stream at layer 0 through a fixed orthogonal linear code and is carried by
genuine attention blocks whose small random weights perturb it only mildly,
so a fixed linear un-embedding recovers the image at the end.

The code is the Kronecker product ``A ⊗ B`` of two small orthogonal factors:
``A`` [T, T] over the content tokens and ``B`` [d, d] over the channels,
each the QR of a normal draw. With the code coordinates ``X`` laid out as
[T, d] (row-major), the content tokens are ``A @ X @ Bᵀ``, which is exactly
``(A ⊗ B) @ vec(X)`` without the [T·d, T·d] matrix. Its inverse is
``Aᵀ @ C @ B``; the raster fills exactly the first ``RASTER_DIM / d`` rows
of ``X``, so the decoder multiplies by those columns of ``A`` alone, and it
undoes the final projection ``W`` and the channel factor in one product
with ``W⁻¹ @ B``, which ``build_generator`` solves for in float64 and
rounds once. The code coordinates split into three orthogonal banks:

  * raster bank   - the centered pixel raster of the candidate's scene;
  * match bank    - a few redundant channels holding a noisy indicator of
                    whether the rendered scene agrees with the prompt
                    (the learnable signal for hidden-state verification);
  * noise bank    - the surviving component of a latent drawn from the
                    candidate's stream, so different seeds give different
                    trajectories.

A candidate's randomness is one stream, ``scenes.candidate_rng(prompt,
seed)``: the scene draws first (``scenes.candidate_scene``), then the match
evidence and the latent (``_code_coordinates``).

The raster bank holds the centered raster unscaled. The shape (``T =
CONTENT_TOKENS`` content tokens of ``d = MODEL_WIDTH`` channels, and
``NUM_LAYERS`` blocks), the other banks' scales (``MATCH_GAIN`` and
``MATCH_NOISE``, ``NOISE_GAIN``) and the blocks' ``WEIGHT_STD`` are module
constants, since no caller varies them; ``GeneratorConfig`` holds the
corruption rate alone.

Prompt tokens enter block 0 by lookup. A prompt token's row at layer 0 is
its attribute embedding plus a prompt segment vector, a function of its id
alone, so ``build_generator`` computes block 0's entry for every vocabulary
token once (``numcore.block_entry``: the conditioning bias, ln1 and the
query, key and value, the key being the ln1 output itself) into
``prompt_h`` and ``prompt_qkv``. The embed makes
the content rows only, and block 0 appends the prompt rows' looked-up
entries after them; its output, and every later block's input, is the
content rows, then the prompt rows.

Execution is tap and resume. The tap is block 0: ``generate_tapped`` runs
the embed and block 0 and returns the hidden state for scoring;
``resume_and_decode`` runs blocks 1 to ``NUM_LAYERS - 1``, projects, and
decodes. ``generate_full`` is just the two in turn, so full and resumed runs
share one path, values and metered FLOPs. The projection reads only the
content rows, so the last block lets only those query and returns them
alone. Block 0, too, lets only the content rows query at the tap
(``numcore.block_queries``): the verifier reads them alone, and a pruned
candidate never runs block 1, the only reader of the prompt rows. The state
keeps the content rows' keys (their ln1 outputs) and values (those outputs
times the block's folded ``W_VO``) and the prompt ids until resume. Resume
joins those keys and values with the prompt rows', runs the prompt rows'
queries on their looked-up residual and query as they are, appends their
output after the content rows and drops what the state kept. A state holds
the content rows only, at the tap and once completed.

The match bank is written at embed and the blocks' small weights barely
touch it, so a linear readout finds the alignment evidence as well after
block 0 as after block 3 or 7; at block 0 a candidate runs the embed and one
block before it is scored.

The stack serves in one dtype, float32 (``DTYPE``): the generator's
parameters and noise, and the verifier's parameters, are drawn in float64
and rounded once to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scenes
from .numcore import (
    BlockWeights, MeterContext, Tensor, attention_block, block_entry, block_queries, clamp01,
    init_block_weights, linear, matmul,
)

MODEL_WIDTH = 64            # d: channels of every token, and the verifier's FEATURE_DIM
CONTENT_TOKENS = 16         # T: content tokens, one per scene cell
NUM_LAYERS = 8              # attention blocks; the tap is block 0
RASTER_DIM = 3 * scenes.IMAGE_SIZE * scenes.IMAGE_SIZE  # fills RASTER_DIM / d rows of X
MATCH_CHANNELS = 4
WEIGHT_STD = 0.01           # scale of the attention blocks' random weights
MATCH_GAIN = 0.5            # match bank: ±MATCH_GAIN for an (un)corrupted scene,
MATCH_NOISE = (0.2, 0.75)   # plus noise whose σ is drawn uniformly from this range
NOISE_GAIN = 0.5            # scale of the noise latent
DTYPE = np.float32          # serving dtype of the generator and the verifier parameters
_UNCENTRE = np.full(MODEL_WIDTH, 0.5, dtype=DTYPE)  # decode's bias: the shift back to [0, 1]
_UNCENTRE.flags.writeable = False


class GeneratorConfigError(ValueError):
    """Invalid generator configuration."""


class StateCompletionError(RuntimeError):
    """Resume called on a completed state, or a full run was required."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Generator settings, checked when built: GeneratorConfigError if invalid.

    ``corruption_rate`` must be an int or a float (not a bool) in [0, 1],
    which rules out NaN and the infinities."""
    corruption_rate: float = 0.3

    def __post_init__(self):
        rate = self.corruption_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0 <= rate <= 1:
            raise GeneratorConfigError(f"corruption_rate must be a number in [0, 1], got {rate!r}")


@dataclass
class GeneratorParams:
    """Fixed random parameters; immutable after construction."""
    token_code: np.ndarray    # A: orthogonal [T, T], the code's factor over tokens
    channel_code: np.ndarray  # B: orthogonal [d, d], its factor over channels
    prompt_h: np.ndarray      # [VOCAB_SIZE, d] block 0's residual h of each prompt token
    prompt_qkv: np.ndarray    # [3, VOCAB_SIZE, d] block 0's query, key (ln1 output), value
    blocks: list[BlockWeights]
    w_proj: np.ndarray        # [d, d] final projection W producing z0
    w_decode: np.ndarray      # [d, d] W⁻¹ @ B: the decoder's channel half; Aᵀ is the other


@dataclass
class Generator:
    config: GeneratorConfig
    params: GeneratorParams


@dataclass
class GeneratorState:
    """One candidate: tapped after block 0, or completed (``z0`` set).

    ``hidden`` is the ``CONTENT_TOKENS`` content rows [T, d] of the token
    stream, after block 0 when tapped and after the last block once
    completed: both blocks let only the content rows query. Until it is
    resumed, a tapped state also keeps what block 0's prompt rows read when
    they query at resume and the per-token tables cannot supply: the content
    rows' keys and values ``kv`` (their ln1 outputs, and those times the
    folded ``W_VO``) and the prompt's token ids, by which the prompt rows'
    entries are looked up. Resume joins ``kv`` with the prompt rows' keys and
    values, hands their residual and query to the queries as they are, and
    drops what was kept.
    """
    hidden: Tensor
    rendered_scene: scenes.Scene    # post-corruption ground truth
    corrupted: bool
    kv: Tensor | None = None        # [2, T, d] block 0's content keys and values
    prompt_ids: np.ndarray | None = None
    z0: Tensor | None = None        # terminal latent, set on completion

    @property
    def completed(self) -> bool:
        return self.z0 is not None


@dataclass
class RenderedImage:
    pixels: Tensor  # [IMAGE_SIZE, IMAGE_SIZE, 3], clamped to [0, 1]


def build_generator(config: GeneratorConfig) -> Generator:
    """Construct fixed generator parameters for a config."""
    d = MODEL_WIDTH
    rng = np.random.default_rng([0, 101])
    a, _ = np.linalg.qr(rng.standard_normal((CONTENT_TOKENS, CONTENT_TOKENS)))
    b, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w_proj = np.eye(d) + 0.02 * rng.standard_normal((d, d))
    blocks = [init_block_weights(rng, d, weight_std=WEIGHT_STD, dtype=DTYPE)
              for _ in range(NUM_LAYERS)]
    # a prompt token's row is its attribute embedding plus the prompt segment
    # vector; block 0's entry for it depends on nothing else
    token_table = (rng.standard_normal((scenes.VOCAB_SIZE, d)) * 0.5).astype(DTYPE)
    seg_prompt = (rng.standard_normal(d) * 0.1).astype(DTYPE)
    prompt_h, prompt_qkv = block_entry(token_table + seg_prompt, blocks[0], None)
    params = GeneratorParams(
        token_code=a.astype(DTYPE),
        channel_code=b.astype(DTYPE),
        prompt_h=prompt_h.data,
        prompt_qkv=prompt_qkv.data,
        blocks=blocks,
        w_proj=w_proj.astype(DTYPE),
        w_decode=np.linalg.solve(w_proj, b).astype(DTYPE),
    )
    # kernels take the weights as plain arrays, so freeze them here
    for arr in [*vars(params).values(), *(a for b in blocks for a in vars(b).values())]:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return Generator(config, params)


def _code_coordinates(realized: scenes.RealizedCandidate,
                      rng: np.random.Generator) -> np.ndarray:
    """The coordinates X [T, d] that the code maps to content tokens; read
    row-major, they are the raster bank, the match bank, then the noise bank.
    ``rng`` is the candidate's stream after its scene draws."""
    raster = scenes.render(realized.scene).reshape(-1).astype(DTYPE)

    # noisy alignment evidence; per-candidate noise level varies so that
    # confidence carries ranking information, like real verifier scores
    bit = -1.0 if realized.corrupted else 1.0
    sigma = rng.uniform(*MATCH_NOISE)
    match = (bit * MATCH_GAIN
             + sigma * rng.standard_normal(MATCH_CHANNELS)).astype(DTYPE)

    # scene banks are overwritten, the noise bank takes its coefficients
    # straight from the latent (an orthogonal basis makes any fixed linear
    # restriction of z distributionally equivalent)
    z = rng.standard_normal((CONTENT_TOKENS, MODEL_WIDTH))
    mixed = (NOISE_GAIN * z).astype(DTYPE)
    flat = mixed.reshape(-1)
    flat[:RASTER_DIM] = raster - 0.5
    flat[RASTER_DIM:RASTER_DIM + MATCH_CHANNELS] = match
    return mixed


def _embed_layer0(gen: Generator, realized: scenes.RealizedCandidate,
                  rng: np.random.Generator, ctx: MeterContext | None) -> Tensor:
    """The content tokens at layer 0: the coded coordinates A @ X @ Bᵀ."""
    p = gen.params
    mixed = _code_coordinates(realized, rng)
    return matmul(matmul(p.token_code, mixed, ctx), p.channel_code.T, ctx)


def _run_blocks(gen: Generator, x: Tensor, ctx: MeterContext | None) -> Tensor:
    """Blocks 1..NUM_LAYERS-1 on block 0's output; the last block returns the
    content rows only, since the projection reads nothing else."""
    *middle, last = gen.params.blocks[1:]
    for w in middle:
        x = attention_block(x, w, ctx)
    return attention_block(x, last, ctx, rows=CONTENT_TOKENS)


def _project(gen: Generator, x: Tensor, ctx: MeterContext | None) -> Tensor:
    """The final projection of the last block's content rows: z0 = x @ W."""
    return matmul(x, gen.params.w_proj, ctx)


def decode_latent(gen: Generator, z0: Tensor, ctx: MeterContext | None) -> RenderedImage:
    """Undo the projection and the code on the raster rows, then un-centre and clamp.

    The raster coordinates are exactly the first r = RASTER_DIM / d rows of
    X = Aᵀ @ z0 @ W⁻¹ @ B, computed as two products, ``A[:, :r]ᵀ @ z0`` and
    then ``@ (W⁻¹ @ B)``, the second with the shift as its bias.
    """
    p = gen.params
    r = RASTER_DIM // MODEL_WIDTH
    shifted = linear(matmul(p.token_code[:, :r].T, z0, ctx), p.w_decode, _UNCENTRE, ctx)
    pixels = clamp01(shifted.data.reshape(scenes.IMAGE_SIZE, scenes.IMAGE_SIZE, 3), ctx)
    return RenderedImage(pixels=pixels)


def generate_tapped(gen: Generator, prompt: scenes.Prompt, seed: int,
                    ctx: MeterContext | None) -> GeneratorState:
    """Run the embed and block 0, the tap; returns the state holding the tap hidden.

    Block 0 appends the prompt rows after the content rows, their entries
    looked up in the per-token tables, and lets only the content rows query.
    A pruned candidate stops here, and its prompt rows' queries would be
    read by block 1 alone.
    """
    n, p = CONTENT_TOKENS, gen.params
    rng = scenes.candidate_rng(prompt, seed)
    realized = scenes.candidate_scene(prompt, rng, gen.config.corruption_rate)
    prompt_ids = scenes.encode_prompt_tokens(prompt)
    x = _embed_layer0(gen, realized, rng, ctx)
    w = p.blocks[0]
    h, qkv = block_entry(x, w, ctx, (p.prompt_h[prompt_ids], p.prompt_qkv[:, prompt_ids]))
    return GeneratorState(
        hidden=block_queries(h.data[:n], qkv.data[0, :n], qkv.data[1:], w, ctx),
        rendered_scene=realized.scene, corrupted=realized.corrupted,
        kv=Tensor(np.ascontiguousarray(qkv.data[1:, :n]), ctx), prompt_ids=prompt_ids)


def _tap_block_rows(gen: Generator, state: GeneratorState,
                    ctx: MeterContext | None) -> Tensor:
    """Block 0's output on every row block 1 reads: the prompt rows query
    now and are joined after the content rows that queried at the tap, and
    the state drops what it kept for them."""
    p = gen.params
    h_p, qkv_p = p.prompt_h[state.prompt_ids], p.prompt_qkv[:, state.prompt_ids]
    kv = Tensor(np.concatenate([state.kv.data, qkv_p[1:]], axis=1), ctx)
    state.kv = state.prompt_ids = None
    prompt_rows = block_queries(h_p, qkv_p[0], kv, p.blocks[0], ctx)
    return Tensor(np.concatenate([state.hidden.data, prompt_rows.data]), ctx)


def resume_and_decode(gen: Generator, state: GeneratorState,
                      ctx: MeterContext | None) -> RenderedImage:
    """Finish block 0's prompt rows, run blocks 1..NUM_LAYERS-1 on a tapped
    state, project, and decode."""
    if state.completed:
        raise StateCompletionError("state is already completed")
    # the joined rows are held, so metered, to the last block on every Python:
    # passed straight in, 3.10 would hold them that long but 3.11 would not
    x = _tap_block_rows(gen, state, ctx)
    x = _run_blocks(gen, x, ctx)
    z0 = _project(gen, x, ctx)
    state.hidden = x
    state.z0 = z0
    return decode_latent(gen, z0, ctx)


def generate_full(gen: Generator, prompt: scenes.Prompt, seed: int,
                  ctx: MeterContext | None) -> tuple[RenderedImage, GeneratorState]:
    """``generate_tapped`` then ``resume_and_decode``: the image and completed state."""
    state = generate_tapped(gen, prompt, seed, ctx)
    return resume_and_decode(gen, state, ctx), state


def tap_hidden_features(state: GeneratorState) -> np.ndarray:
    """Content-token hidden state at the tap, block 0's output, the
    verifier's raw features: [CONTENT_TOKENS, MODEL_WIDTH]."""
    return state.hidden.data
