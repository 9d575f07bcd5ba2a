"""Candidate verifiers: score a generation against its prompt without labels.

Three architectures share one connector + scorer stack and differ only in
where their visual features come from:

  * ``hidden_state``   - the generator's tap-layer activations, normalized
                         by pre-computed channel statistics; candidates only
                         need to run up to the tap, by default block 0, the
                         generator's default tap.
  * ``ae_latent``      - the terminal latent z0, flattened over spatial
                         positions; needs a completed generation.
  * ``pixel_reencode`` - decoded pixels pushed through a frozen stand-in
                         visual encoder (patchify + attention blocks); the
                         decode and re-encode passes are fully metered.

The scorer is a compact transformer reading [projected features ++ prompt
attribute tokens] into a 2-logit yes/no head; the continuous score is the
probability of the sampled class, negated for "no", giving values in
[-1, -0.5] or [0.5, 1].

The widths are module constants: features enter the connector, and the
pixel encoder works, at ``FEATURE_DIM`` channels (the default generator's
model width); the connector's hidden layer has ``CONNECTOR_HIDDEN`` and the
scorer ``SCORER_DIM``. ``VerifierConfig`` holds only the mode, the tap and
the scorer's and encoder's depths.

Parameters live in a flat ``{name: array}`` dict, which checkpoints store
entry by entry. Every metered operation, feature normalization included,
runs as a ``numcore`` kernel.

Precision: the verifier computes in its parameters' dtype, which
``init_verifier`` takes from the stack's serving precision, the default
generator's (float32) unless told otherwise. It makes the same float64
draws in either precision and rounds them once, so float32 parameters are
exactly the float64 ones cast. Features and pixels are cast to the
parameters' dtype where they enter the connector and the encoder, a no-op
when generator and verifier share a precision; normalization runs in the
dtype of the tapped features, which ``calibrate_feature_stats`` gives its
statistics at set-up. Only the 2 head logits are promoted to float64, for
the softmax that gives the score. The metered FLOPs are the same in either
precision. A checkpoint (schema 4) records the config and the precision in
its header and holds every entry, statistics included, in that precision
(``<f4`` or ``<f8``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import scenes, toygen
from .numcore import (
    BlockWeights, MeterContext, add, attention_block, concat_rows, gelu,
    init_block_weights, linear, mean_pool, normalize, softmax,
)

MODES = ("hidden_state", "ae_latent", "pixel_reencode")

FEATURE_DIM = 64        # feature channels entering the connector; the encoder's width
CONNECTOR_HIDDEN = 128
SCORER_DIM = 64

_BLOCK_FIELDS = tuple(f.name for f in fields(BlockWeights))


class VerifierConfigError(ValueError):
    """Invalid verifier configuration."""


@dataclass(frozen=True)
class VerifierConfig:
    """Verifier settings, checked when built: VerifierConfigError if invalid."""
    mode: str = "hidden_state"
    tap_layer: int = 0                 # hidden_state mode only; the generator's default tap
    scorer_blocks: int = 2
    encoder_depth: int = 2             # pixel_reencode stand-in encoder

    def __post_init__(self):
        toygen.check_field_types(self, VerifierConfigError)
        if self.mode not in MODES:
            raise VerifierConfigError(f"unknown mode {self.mode!r}")
        if min(self.tap_layer, self.scorer_blocks, self.encoder_depth) < 0:
            raise VerifierConfigError("tap_layer, scorer_blocks and encoder_depth must be >= 0")
        if self.mode == "pixel_reencode" and self.encoder_depth < 1:
            raise VerifierConfigError("pixel_reencode needs encoder_depth >= 1")


@dataclass
class Score:
    decision: bool            # True <=> "yes"
    value: float              # P(yes) if yes else -P(no); |value| >= 0.5


def block_view(params: dict[str, np.ndarray], prefix: str) -> BlockWeights:
    return BlockWeights(*(params[f"{prefix}.{f}"] for f in _BLOCK_FIELDS))


def init_verifier(config: VerifierConfig, seed: int = 0,
                  precision: str = toygen.GeneratorConfig.precision) -> dict[str, np.ndarray]:
    """Fresh random parameters for ``config``, drawn from ``seed``.

    ``precision`` is the stack's serving precision, a key of
    ``toygen.PRECISIONS``, by default the generator's default. The draws
    are float64 in either precision and rounded once to its dtype. The
    pixel encoder comes after 28*d discarded normals, the draws of the
    deleted, never-read alignment readouts, so its weights stay as they
    were.
    """
    if precision not in toygen.PRECISIONS:
        raise VerifierConfigError(
            f"precision must be one of {sorted(toygen.PRECISIONS)}, got {precision!r}")
    dtype = toygen.PRECISIONS[precision]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 202]))
    d = SCORER_DIM
    p: dict[str, np.ndarray] = {}

    def put_block(prefix: str, width: int, std: float):
        bw = init_block_weights(rng, width, weight_std=std, dtype=dtype)
        p.update((f"{prefix}.{f}", getattr(bw, f)) for f in _BLOCK_FIELDS)

    p["connector.w1"] = rng.standard_normal((FEATURE_DIM, CONNECTOR_HIDDEN)) * 0.05
    p["connector.b1"] = np.zeros(CONNECTOR_HIDDEN)
    p["connector.w2"] = rng.standard_normal((CONNECTOR_HIDDEN, d)) * 0.05
    p["connector.b2"] = np.zeros(d)
    p["prompt_embed.table"] = rng.standard_normal((scenes.VOCAB_SIZE, d)) * 0.5
    p["segment.features"] = rng.standard_normal(d) * 0.1
    p["segment.prompt"] = rng.standard_normal(d) * 0.1
    for i in range(config.scorer_blocks):
        put_block(f"scorer.block{i}", d, 0.05)
    p["head.w"] = rng.standard_normal((d, 2)) * 0.05
    p["head.b"] = np.zeros(2)
    if config.mode == "pixel_reencode":
        rng.standard_normal(28 * d)
        patch_dim = 3 * scenes.PATCH * scenes.PATCH
        p["encoder.patch.w"] = rng.standard_normal((patch_dim, FEATURE_DIM)) * 0.1
        p["encoder.patch.b"] = np.zeros(FEATURE_DIM)
        for i in range(config.encoder_depth):
            put_block(f"encoder.block{i}", FEATURE_DIM, 0.05)
    return {name: arr.astype(dtype, copy=False) for name, arr in p.items()}


# ------------------------------------------------------------- features

def patchify(pixels: np.ndarray) -> np.ndarray:
    """[G, G, 3] image -> [cells, PATCH*PATCH*3] rows (data movement only)."""
    g, patch = scenes.IMAGE_SIZE, scenes.PATCH
    cells = g // patch
    x = pixels.reshape(cells, patch, cells, patch, 3)
    return x.transpose(0, 2, 1, 3, 4).reshape(cells * cells, patch * patch * 3)


def encode_pixels(params: dict[str, np.ndarray], config: VerifierConfig,
                  pixels: np.ndarray, ctx: MeterContext | None) -> np.ndarray:
    """Frozen stand-in visual encoder: patch projection + attention blocks,
    on the pixels cast to the parameters' dtype."""
    w = params["encoder.patch.w"]
    x = linear(patchify(pixels.astype(w.dtype, copy=False)), w, params["encoder.patch.b"], ctx)
    for i in range(config.encoder_depth):
        x = attention_block(x, block_view(params, f"encoder.block{i}"), ctx)
    return x.data


def extract_features(gen: toygen.Generator, state: toygen.GeneratorState,
                     config: VerifierConfig, stats: scenes.FeatureStats | None,
                     ctx: MeterContext | None,
                     params: dict[str, np.ndarray] | None = None,
                     image: toygen.RenderedImage | None = None) -> np.ndarray:
    """Mode-appropriate candidate features, with the pathway's cost metered.

    ``hidden_state`` needs a state tapped at ``config.tap_layer``; the other
    modes need a completed state. Otherwise StateCompletionError is raised.
    Normalization runs in the features' and statistics' dtype, the encoder
    in the parameters'. Without an ``image``, pixel mode decodes one first;
    that decode is the generator's and runs in its precision.
    """
    if config.mode == "hidden_state":
        if state.layers_done != config.tap_layer + 1:
            raise toygen.StateCompletionError(
                f"hidden_state verification taps layer {config.tap_layer}, "
                f"but the state has run {state.layers_done} layers")
        feats = toygen.tap_hidden_features(state)
        if stats is not None:
            feats = normalize(feats, stats.mean, stats.variance, ctx).data
        return feats
    if not state.completed:
        raise toygen.StateCompletionError(
            f"{config.mode} verification needs a completed generation")
    if config.mode == "ae_latent":
        return state.z0.data
    if image is None:
        image = toygen.decode_latent(gen, state.z0, ctx)
    return encode_pixels(params, config, image.pixels.data, ctx)


# ------------------------------------------------------------- forward

def scorer_forward(params: dict[str, np.ndarray], config: VerifierConfig,
                   features: np.ndarray, prompt_ids: np.ndarray,
                   ctx: MeterContext | None = None) -> np.ndarray:
    """Connector + scorer forward pass in the parameters' dtype; returns the
    2 [yes, no] logits as float64."""
    f = np.ascontiguousarray(features, dtype=params["connector.w1"].dtype)
    if f.shape[-1] != params["connector.w1"].shape[0]:
        raise VerifierConfigError(
            f"feature width {f.shape[-1]} does not match connector input "
            f"{params['connector.w1'].shape[0]}")
    c_pre = linear(f, params["connector.w1"], params["connector.b1"], ctx)
    c_act = gelu(c_pre, ctx)
    projected = linear(c_act, params["connector.w2"], params["connector.b2"], ctx)
    proj_seg = add(projected, params["segment.features"], ctx)
    prompt_tok = add(params["prompt_embed.table"][prompt_ids], params["segment.prompt"], ctx)
    x = concat_rows(proj_seg, prompt_tok, ctx)
    for i in range(config.scorer_blocks):
        x = attention_block(x, block_view(params, f"scorer.block{i}"), ctx)
    pooled = mean_pool(x, ctx)
    logits = linear(pooled.data[None, :], params["head.w"], params["head.b"], ctx)
    return logits.data[0].astype(np.float64)


def score_from_logits(logits: np.ndarray, ctx: MeterContext | None = None) -> Score:
    """Softmax over the 2 [yes, no] logits in float64, greedy decision."""
    p = softmax(np.asarray(logits, dtype=np.float64), ctx).data
    decision = bool(p[0] >= p[1])
    value = float(p[0]) if decision else float(-p[1])
    return Score(decision=decision, value=value)


def score(params: dict[str, np.ndarray], config: VerifierConfig,
          features: np.ndarray, prompt_ids: np.ndarray,
          ctx: MeterContext | None = None) -> Score:
    """Forward pass, softmax over the 2 logits, greedy decision."""
    return score_from_logits(scorer_forward(params, config, features, prompt_ids, ctx), ctx)


# ------------------------------------------------------------- selection

def select_best(scores: list[Score]) -> int:
    """Argmax over continuous value; ties broken toward the lowest index."""
    if not scores:
        raise ValueError("select_best needs a non-empty score list")
    return int(np.argmax([s.value for s in scores]))


# ------------------------------------------------------------- checkpoints

CHECKPOINT_SCHEMA = 4


class CheckpointError(ValueError):
    """A checkpoint on disk is malformed or inconsistent with its header, or
    the entries given to save one do not share one precision."""


def save_checkpoint(prefix: str | Path, params: dict[str, np.ndarray],
                    config: VerifierConfig, stats: scenes.FeatureStats | None,
                    meta: dict | None = None) -> tuple[Path, Path]:
    """Write <prefix>.json header plus <prefix>.bin of named little-endian
    tensors; normalization statistics ride along as stats.* entries.

    Every entry must have the parameters' dtype, one of
    ``toygen.PRECISIONS``; the header records that precision. Otherwise
    CheckpointError is raised and nothing is written.
    """
    prefix = Path(prefix)
    param_dtype = params["connector.w1"].dtype
    precision = _PRECISION_OF.get(param_dtype)
    if precision is None:
        raise CheckpointError(f"parameters of dtype {param_dtype} are not a serving precision")
    arrays = dict(params)
    stats_ref = None
    if stats is not None:
        arrays["stats.mean"] = stats.mean
        arrays["stats.variance"] = stats.variance
        stats_ref = {"sample_count": int(stats.sample_count)}
    dtype = _stored_dtype(precision)
    other = sorted(n for n, arr in arrays.items() if np.asarray(arr).dtype != dtype)
    if other:
        raise CheckpointError(f"entries not in the parameters' {precision}: {other}")
    entries = []
    offset = 0
    blob = bytearray()
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=dtype)
        raw = arr.tobytes()
        entries.append({"name": name, "dtype": dtype.str, "shape": list(arr.shape),
                        "offset": offset, "nbytes": len(raw)})
        blob.extend(raw)
        offset += len(raw)
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "mode": config.mode,
        "config": asdict(config),
        "precision": precision,
        "stats_ref": stats_ref,
        "params": entries,
        "meta": meta or {},
    }
    json_path = prefix.with_suffix(".json")
    bin_path = prefix.with_suffix(".bin")
    json_path.write_text(json.dumps(header, indent=1, sort_keys=True))
    bin_path.write_bytes(bytes(blob))
    return json_path, bin_path


_PRECISION_OF = {np.dtype(t): name for name, t in toygen.PRECISIONS.items()}


def _stored_dtype(precision: str) -> np.dtype:
    """The little-endian dtype of every entry of a ``precision`` checkpoint."""
    if precision not in toygen.PRECISIONS:
        raise CheckpointError(f"unknown checkpoint precision {precision!r}")
    return np.dtype(toygen.PRECISIONS[precision]).newbyteorder("<")


def _read_entry(entry: dict, blob: bytes, dtype: np.dtype) -> np.ndarray:
    name, shape = entry["name"], entry["shape"]
    offset, nbytes = entry["offset"], entry["nbytes"]
    if entry["dtype"] != dtype.str:
        raise CheckpointError(
            f"{name}: dtype {entry['dtype']!r} disagrees with the precision's {dtype.str!r}")
    if not all(isinstance(v, int) and v >= 0 for v in (offset, nbytes, *shape)):
        raise CheckpointError(f"{name}: offset, nbytes and shape must be non-negative integers")
    if offset + nbytes > len(blob):
        raise CheckpointError(
            f"{name}: bytes [{offset}, {offset + nbytes}) lie beyond the {len(blob)}-byte .bin")
    if nbytes != math.prod(shape) * dtype.itemsize:
        raise CheckpointError(f"{name}: {nbytes} bytes do not hold {dtype} of shape {shape}")
    return np.frombuffer(blob, dtype=dtype, count=math.prod(shape),
                         offset=offset).reshape(shape).copy()


def load_checkpoint(prefix: str | Path):
    """Inverse of save_checkpoint; returns (params, config, stats, meta).

    A header or .bin that is malformed, or inconsistent with the other,
    raises CheckpointError, as do a name listed twice, a dtype other than
    the stored precision's, and entries whose names or shapes differ from
    those ``init_verifier`` makes for the stored config.
    """
    prefix = Path(prefix)
    try:
        header = json.loads(prefix.with_suffix(".json").read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint header is not valid JSON: {exc}") from exc
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(f"unsupported checkpoint schema {schema!r}")
    blob = prefix.with_suffix(".bin").read_bytes()
    try:
        config = VerifierConfig(**header["config"])
        names = [e["name"] for e in header["params"]]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise CheckpointError(f"entries listed more than once: {repeated}")
        dtype = _stored_dtype(header["precision"])
        arrays = {e["name"]: _read_entry(e, blob, dtype) for e in header["params"]}
        stats = None
        if header["stats_ref"] is not None:
            stats = scenes.FeatureStats(
                mean=arrays.pop("stats.mean"), variance=arrays.pop("stats.variance"),
                sample_count=header["stats_ref"]["sample_count"])
        meta = header["meta"]
    except (KeyError, TypeError, VerifierConfigError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc
    found = {name: arr.shape for name, arr in arrays.items()}
    expected = {name: arr.shape for name, arr in init_verifier(config).items()}
    wrong = sorted(n for n in found.keys() | expected.keys() if found.get(n) != expected.get(n))
    if wrong:
        raise CheckpointError(f"entries missing, unexpected or mis-shaped for the config: {wrong}")
    return arrays, config, stats, meta
