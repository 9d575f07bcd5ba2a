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
``Aᵀ @ C @ B``; the decoder needs only the first ``ceil(raster_dim / d)``
rows of ``X``, so it multiplies by those columns of ``A`` alone. The code
coordinates split into three orthogonal banks:

  * raster bank   - the centered pixel raster of the candidate's scene;
  * match bank    - a few redundant channels holding a noisy indicator of
                    whether the rendered scene agrees with the prompt
                    (the learnable signal for hidden-state verification);
  * noise bank    - the surviving component of the seed-derived latent, so
                    different seeds give different trajectories.

The banks' scales (``CODE_GAIN``, ``MATCH_GAIN`` and ``MATCH_NOISE``,
``NOISE_GAIN``) and the blocks' ``WEIGHT_STD`` are module constants, since
no caller varies them; ``GeneratorConfig`` holds the shape, the tap, the
corruption rate and the precision.

Execution is tap and resume: ``generate_tapped`` stops after the tap layer
and returns the hidden state for scoring; ``resume_and_decode`` completes the
remaining layers, projects, and decodes. ``generate_full`` is just the two in
turn, so full and resumed runs share one path, values and metered FLOPs.

The default tap is layer 0, the first block. The match bank is written at
embed and the blocks' small weights barely touch it, so a linear readout
finds the alignment evidence as well after block 0 as after block 3 or 7;
a candidate then runs the embed and one block before it is scored.
``VerifierConfig.tap_layer`` defaults to the same layer.

The default precision is float32 (``precision="f32"``), and the verifier's
parameters default to it; ``"f64"`` serves in float64 with the same FLOPs.
Parameters and noise are drawn in float64 and rounded once, so the float32
ones are exactly the float64 ones cast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import scenes
from .numcore import (
    BlockWeights, MeterContext, Tensor, add, attention_block, clamp01,
    concat_rows, init_block_weights, matmul, scale,
)

MATCH_CHANNELS = 4
WEIGHT_STD = 0.01           # scale of the attention blocks' random weights
CODE_GAIN = 1.0             # scale of the centered raster in the code
MATCH_GAIN = 0.5            # match bank: ±MATCH_GAIN for an (un)corrupted scene,
MATCH_NOISE = (0.2, 0.75)   # plus noise whose σ is drawn uniformly from this range
NOISE_GAIN = 0.5            # scale of the seed-derived latent

# serving precisions of the generator and the verifier parameters
PRECISIONS = {"f64": np.float64, "f32": np.float32}


class GeneratorConfigError(ValueError):
    """Invalid generator configuration."""


class StateCompletionError(RuntimeError):
    """Resume called on a completed state, or a full run was required."""


_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def check_field_types(config, error: type[Exception]) -> None:
    """Raise ``error`` unless each field of the dataclass ``config`` holds its
    annotated type: an int for int, a finite int or float for float, a str
    for str; a bool is never accepted."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
            raise error(f"{f.name} must be {f.type}, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GeneratorConfig:
    """Generator settings, checked when built: GeneratorConfigError if invalid."""
    num_layers: int = 8
    model_width: int = 64
    num_noise_tokens: int = 16
    tap_layer: int = 0
    corruption_rate: float = 0.3
    precision: str = "f32"

    @property
    def dtype(self):
        return PRECISIONS[self.precision]

    @property
    def code_dim(self) -> int:
        return self.num_noise_tokens * self.model_width

    @property
    def raster_dim(self) -> int:
        return 3 * scenes.IMAGE_SIZE * scenes.IMAGE_SIZE

    @property
    def num_tokens(self) -> int:
        return self.num_noise_tokens + scenes.PROMPT_TOKEN_LEN

    def __post_init__(self):
        check_field_types(self, GeneratorConfigError)
        if self.num_layers < 1:
            raise GeneratorConfigError("num_layers must be >= 1")
        if not 0 <= self.tap_layer <= self.num_layers - 1:
            raise GeneratorConfigError("tap_layer must lie in [0, num_layers-1]")
        if not 0.0 <= self.corruption_rate <= 1.0:
            raise GeneratorConfigError("corruption_rate must lie in [0, 1]")
        if self.code_dim < self.raster_dim + MATCH_CHANNELS:
            raise GeneratorConfigError(
                f"token capacity {self.code_dim} cannot hold raster "
                f"({self.raster_dim}) plus match channels")
        if self.precision not in PRECISIONS:
            raise GeneratorConfigError(
                f"precision must be one of {sorted(PRECISIONS)}, got {self.precision!r}")


@dataclass
class GeneratorParams:
    """Fixed random parameters; immutable after construction."""
    token_code: np.ndarray    # A: orthogonal [T, T], the code's factor over tokens
    channel_code: np.ndarray  # B: orthogonal [d, d], its factor over channels
    token_table: np.ndarray   # [VOCAB_SIZE, d] prompt attribute embeddings
    seg_prompt: np.ndarray    # [d] segment vector added to prompt tokens
    blocks: list[BlockWeights]
    w_proj: np.ndarray        # [d, d] final projection producing z0
    w_proj_inv: np.ndarray    # decoder half 1: undo the projection; half 2 is Aᵀ and B


@dataclass
class Generator:
    config: GeneratorConfig
    params: GeneratorParams


@dataclass
class GeneratorState:
    """One candidate: either tapped (layers_done == tap+1) or fully run."""
    prompt: scenes.Prompt
    seed: int
    hidden: Tensor                  # token stream after `layers_done` layers
    layers_done: int
    rendered_scene: scenes.Scene    # post-corruption ground truth
    corrupted: bool
    z0: Tensor | None = None        # terminal latent, set on completion

    @property
    def completed(self) -> bool:
        return self.z0 is not None


@dataclass
class RenderedImage:
    pixels: Tensor  # [IMAGE_SIZE, IMAGE_SIZE, 3], clamped to [0, 1]


def build_generator(config: GeneratorConfig, param_seed: int = 0) -> Generator:
    """Construct fixed generator parameters for a config."""
    dt = config.dtype
    d = config.model_width
    rng = np.random.default_rng(np.random.SeedSequence([param_seed, 101]))
    a, _ = np.linalg.qr(rng.standard_normal((config.num_noise_tokens,) * 2))
    b, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w_proj = np.eye(d) + 0.02 * rng.standard_normal((d, d))
    blocks = [init_block_weights(rng, d, weight_std=WEIGHT_STD, dtype=dt)
              for _ in range(config.num_layers)]
    params = GeneratorParams(
        token_code=a.astype(dt, copy=False),
        channel_code=b.astype(dt, copy=False),
        token_table=(rng.standard_normal((scenes.VOCAB_SIZE, d)) * 0.5).astype(dt),
        seg_prompt=(rng.standard_normal(d) * 0.1).astype(dt),
        blocks=blocks,
        w_proj=w_proj.astype(dt),
        w_proj_inv=np.linalg.inv(w_proj).astype(dt),
    )
    # kernels take the weights as plain arrays, so freeze them here
    for arr in [*vars(params).values(), *(a for b in blocks for a in vars(b).values())]:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return Generator(config, params)


def _derive_noise(config: GeneratorConfig, seed: int) -> np.ndarray:
    # NOISE_GAIN folded in here so the embed path stays pure data movement;
    # the result is a fresh array
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    z = rng.standard_normal((config.num_noise_tokens, config.model_width))
    return (NOISE_GAIN * z).astype(config.dtype, copy=False)


def _code_coordinates(cfg: GeneratorConfig, prompt: scenes.Prompt, seed: int,
                      realized: scenes.RealizedCandidate) -> np.ndarray:
    """The coordinates X [T, d] that the code maps to content tokens; read
    row-major, they are the raster bank, the match bank, then the noise bank."""
    raster = scenes.render(realized.scene).reshape(-1).astype(cfg.dtype)

    # noisy alignment evidence; per-candidate noise level varies so that
    # confidence carries ranking information, like real verifier scores
    rng = np.random.default_rng(np.random.SeedSequence([seed, prompt.hash64, 4]))
    bit = -1.0 if realized.corrupted else 1.0
    sigma = rng.uniform(*MATCH_NOISE)
    match = (bit * MATCH_GAIN
             + sigma * rng.standard_normal(MATCH_CHANNELS)).astype(cfg.dtype)

    # scene banks are overwritten, the noise bank takes its coefficients
    # straight from the latent (an orthogonal basis makes any fixed linear
    # restriction of z distributionally equivalent)
    mixed = _derive_noise(cfg, seed)
    flat = mixed.reshape(-1)
    flat[:cfg.raster_dim] = (raster - 0.5) * CODE_GAIN
    flat[cfg.raster_dim:cfg.raster_dim + MATCH_CHANNELS] = match
    return mixed


def _embed_layer0(gen: Generator, prompt: scenes.Prompt, seed: int,
                  realized: scenes.RealizedCandidate, ctx: MeterContext | None) -> Tensor:
    """Token stream at layer 0: coded content tokens A @ X @ Bᵀ, then prompt tokens."""
    cfg, p = gen.config, gen.params
    mixed = _code_coordinates(cfg, prompt, seed, realized)
    content = matmul(matmul(p.token_code, mixed, ctx), p.channel_code.T, ctx)
    ids = scenes.encode_prompt_tokens(prompt)
    prompt_tokens = add(p.token_table[ids], p.seg_prompt, ctx)
    return concat_rows(content, prompt_tokens, ctx)


def _run_blocks(gen: Generator, x: Tensor, start: int, stop: int,
                ctx: MeterContext | None) -> Tensor:
    for layer in range(start, stop):
        x = attention_block(x, gen.params.blocks[layer], ctx)
    return x


def _project(gen: Generator, x: Tensor, ctx: MeterContext | None) -> Tensor:
    return matmul(x.data[:gen.config.num_noise_tokens], gen.params.w_proj, ctx)


def decode_latent(gen: Generator, z0: Tensor, ctx: MeterContext | None) -> RenderedImage:
    """Undo the projection and the code on the raster rows, then un-centre and clamp."""
    cfg, p = gen.config, gen.params
    t = matmul(z0, p.w_proj_inv, ctx)
    # the raster coordinates fill the first r rows of X = Aᵀ @ t @ B
    r = -(-cfg.raster_dim // cfg.model_width)
    x = matmul(matmul(p.token_code[:, :r].T, t, ctx), p.channel_code, ctx)
    coef = x.data.reshape(-1)[:cfg.raster_dim]
    shifted = add(scale(coef, 1.0 / CODE_GAIN, ctx),
                  np.full(coef.shape, 0.5, dtype=cfg.dtype), ctx)
    pixels = clamp01(shifted.data.reshape(scenes.IMAGE_SIZE, scenes.IMAGE_SIZE, 3), ctx)
    return RenderedImage(pixels=pixels)


def generate_tapped(gen: Generator, prompt: scenes.Prompt, seed: int,
                    ctx: MeterContext | None) -> GeneratorState:
    """Run layers 0..tap_layer only; returns the state holding the tap hidden."""
    cfg = gen.config
    realized = scenes.candidate_scene(prompt, seed, cfg.corruption_rate)
    x = _embed_layer0(gen, prompt, seed, realized, ctx)
    x = _run_blocks(gen, x, 0, cfg.tap_layer + 1, ctx)
    return GeneratorState(
        prompt=prompt, seed=seed, hidden=x, layers_done=cfg.tap_layer + 1,
        rendered_scene=realized.scene, corrupted=realized.corrupted)


def resume_and_decode(gen: Generator, state: GeneratorState,
                      ctx: MeterContext | None) -> RenderedImage:
    """Complete layers tap+1..L-1 for a tapped state, project, and decode."""
    cfg = gen.config
    if state.layers_done != cfg.tap_layer + 1 or state.completed:
        raise StateCompletionError("state is not a tapped state of this config")
    x = _run_blocks(gen, state.hidden, cfg.tap_layer + 1, cfg.num_layers, ctx)
    z0 = _project(gen, x, ctx)
    state.hidden = x
    state.layers_done = cfg.num_layers
    state.z0 = z0
    return decode_latent(gen, z0, ctx)


def generate_full(gen: Generator, prompt: scenes.Prompt, seed: int,
                  ctx: MeterContext | None) -> tuple[RenderedImage, GeneratorState]:
    """``generate_tapped`` then ``resume_and_decode``: the image and completed state."""
    state = generate_tapped(gen, prompt, seed, ctx)
    return resume_and_decode(gen, state, ctx), state


def tap_hidden_features(state: GeneratorState) -> np.ndarray:
    """Content-token hidden state at the tap, the verifier's raw features."""
    return state.hidden.data[:-scenes.PROMPT_TOKEN_LEN]
