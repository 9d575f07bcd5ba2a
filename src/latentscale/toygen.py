"""Hand-constructed single-step transformer generator over grid scenes.

The generator is constructed, not trained. Scene content enters the token
stream at layer 0 through a fixed orthogonal linear code and is carried by
genuine attention blocks whose small random weights perturb it only mildly,
so a fixed linear un-embedding recovers the image at the end. The code
splits the content-token space into three orthogonal banks:

  * raster bank   - the centered pixel raster of the candidate's scene;
  * match bank    - a few redundant channels holding a noisy indicator of
                    whether the rendered scene agrees with the prompt
                    (the learnable signal for hidden-state verification);
  * noise bank    - the surviving component of the seed-derived latent, so
                    different seeds give different trajectories.

Execution is tap and resume: ``generate_tapped`` stops after the tap layer
and returns the hidden state for scoring; ``resume_and_decode`` completes the
remaining layers, projects, and decodes. ``generate_full`` is just the two in
turn, so full and resumed runs share one path, values and metered FLOPs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import scenes
from .numcore import (
    BlockWeights, MeterContext, Tensor, add, attention_block, clamp01,
    concat_rows, init_block_weights, matmul, scale,
)

MATCH_CHANNELS = 4


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
    tap_layer: int = 3
    corruption_rate: float = 0.3
    weight_std: float = 0.01
    code_gain: float = 1.0
    match_gain: float = 0.5
    match_noise_lo: float = 0.2
    match_noise_hi: float = 0.75
    noise_gain: float = 0.5
    precision: str = "f64"

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32

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
        if self.code_gain <= 0:
            raise GeneratorConfigError("code_gain must be > 0")
        if self.code_dim < self.raster_dim + MATCH_CHANNELS:
            raise GeneratorConfigError(
                f"token capacity {self.code_dim} cannot hold raster "
                f"({self.raster_dim}) plus match channels")
        if not 0 <= self.match_noise_lo <= self.match_noise_hi:
            raise GeneratorConfigError("match noise range must be ordered and non-negative")
        if self.precision not in ("f64", "f32"):
            raise GeneratorConfigError("precision must be 'f64' or 'f32'")

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GeneratorConfig":
        """Parse and build; malformed text raises GeneratorConfigError."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GeneratorConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise GeneratorConfigError("config JSON must be an object")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise GeneratorConfigError(f"unknown config keys: {unknown}")
        return cls(**obj)


@dataclass
class GeneratorParams:
    """Fixed random parameters; immutable after construction."""
    code: np.ndarray        # orthogonal [code_dim, code_dim]
    token_table: np.ndarray  # [VOCAB_SIZE, d] prompt attribute embeddings
    seg_prompt: np.ndarray   # [d] segment vector added to prompt tokens
    blocks: list[BlockWeights]
    w_proj: np.ndarray       # [d, d] final projection producing z0
    w_proj_inv: np.ndarray   # decoder half 1: undo the projection
    unembed: np.ndarray      # decoder half 2: [raster_dim, code_dim] = raster rows of code^T


@dataclass
class Generator:
    config: GeneratorConfig
    params: GeneratorParams


@dataclass
class GeneratorState:
    """One candidate: either tapped (layers_done == tap+1) or fully run."""
    prompt: scenes.Prompt
    seed: int
    z_noise: Tensor                 # the seed-derived latent z_T
    hidden: Tensor                  # token stream after `layers_done` layers
    layers_done: int
    rendered_scene: scenes.Scene    # post-corruption ground truth
    scene_spec: scenes.SceneSpec
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
    n = config.code_dim
    rng = np.random.default_rng(np.random.SeedSequence([param_seed, 101]))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w_proj = np.eye(d) + 0.02 * rng.standard_normal((d, d))
    blocks = [init_block_weights(rng, d, weight_std=config.weight_std, dtype=dt)
              for _ in range(config.num_layers)]
    params = GeneratorParams(
        code=q.astype(dt, copy=False),
        token_table=(rng.standard_normal((scenes.VOCAB_SIZE, d)) * 0.5).astype(dt),
        seg_prompt=(rng.standard_normal(d) * 0.1).astype(dt),
        blocks=blocks,
        w_proj=w_proj.astype(dt),
        w_proj_inv=np.linalg.inv(w_proj).astype(dt),
        unembed=np.ascontiguousarray(q[:, :3 * scenes.IMAGE_SIZE ** 2].T, dtype=dt),
    )
    # kernels take the weights as plain arrays, so freeze them here
    for arr in [*vars(params).values(), *(a for b in blocks for a in vars(b).values())]:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return Generator(config, params)


def _derive_noise(config: GeneratorConfig, seed: int) -> np.ndarray:
    # noise_gain folded in here so the embed path stays pure data movement
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    z = rng.standard_normal((config.num_noise_tokens, config.model_width))
    return (config.noise_gain * z).astype(config.dtype)


def _embed_layer0(gen: Generator, prompt: scenes.Prompt, seed: int,
                  realized: scenes.RealizedCandidate, z_noise: Tensor,
                  ctx: MeterContext | None) -> Tensor:
    """Token stream at layer 0: coded content tokens then prompt tokens."""
    cfg, p = gen.config, gen.params
    raster = scenes.render(realized.scene).reshape(-1).astype(cfg.dtype)

    # noisy alignment evidence; per-candidate noise level varies so that
    # confidence carries ranking information, like real verifier scores
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, scenes.prompt_hash64(prompt), 4]))
    bit = -1.0 if realized.corrupted else 1.0
    sigma = rng.uniform(cfg.match_noise_lo, cfg.match_noise_hi)
    match = (bit * cfg.match_gain
             + sigma * rng.standard_normal(MATCH_CHANNELS)).astype(cfg.dtype)

    # code coordinates: scene banks are overwritten, the noise bank takes its
    # coefficients straight from the latent (an orthogonal basis makes any
    # fixed linear restriction of z distributionally equivalent)
    mixed = z_noise.data.reshape(-1, 1).copy()
    mixed[:cfg.raster_dim, 0] = (raster - 0.5) * cfg.code_gain
    mixed[cfg.raster_dim:cfg.raster_dim + MATCH_CHANNELS, 0] = match
    content = matmul(p.code, mixed, ctx)

    ids = scenes.encode_prompt_tokens(prompt)
    prompt_tokens = add(p.token_table[ids], p.seg_prompt, ctx)
    return concat_rows(content.data.reshape(cfg.num_noise_tokens, cfg.model_width),
                       prompt_tokens, ctx)


def _run_blocks(gen: Generator, x: Tensor, start: int, stop: int,
                ctx: MeterContext | None) -> Tensor:
    for layer in range(start, stop):
        x = attention_block(x, gen.params.blocks[layer], ctx)
    return x


def _project(gen: Generator, x: Tensor, ctx: MeterContext | None) -> Tensor:
    return matmul(x.data[:gen.config.num_noise_tokens], gen.params.w_proj, ctx)


def decode_latent(gen: Generator, z0: Tensor, ctx: MeterContext | None) -> RenderedImage:
    cfg, p = gen.config, gen.params
    t = matmul(z0, p.w_proj_inv, ctx)
    coef = matmul(p.unembed, t.data.reshape(-1, 1), ctx)
    shifted = add(scale(coef, 1.0 / cfg.code_gain, ctx),
                  np.full(coef.shape, 0.5, dtype=cfg.dtype), ctx)
    pixels = clamp01(shifted.data.reshape(scenes.IMAGE_SIZE, scenes.IMAGE_SIZE, 3), ctx)
    return RenderedImage(pixels=pixels)


def generate_tapped(gen: Generator, prompt: scenes.Prompt, seed: int,
                    ctx: MeterContext | None) -> GeneratorState:
    """Run layers 0..tap_layer only; returns the state holding the tap hidden."""
    cfg = gen.config
    realized = scenes.candidate_scene(prompt, seed, cfg.corruption_rate)
    z_noise = Tensor(_derive_noise(cfg, seed))
    x = _embed_layer0(gen, prompt, seed, realized, z_noise, ctx)
    x = _run_blocks(gen, x, 0, cfg.tap_layer + 1, ctx)
    return GeneratorState(
        prompt=prompt, seed=seed, z_noise=z_noise, hidden=x,
        layers_done=cfg.tap_layer + 1, rendered_scene=realized.scene,
        scene_spec=realized.spec, corrupted=realized.corrupted)


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
    n = state.z_noise.shape[0]
    return state.hidden.data[:n]
