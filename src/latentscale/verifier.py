"""Candidate verifiers: score a generation against its prompt without labels.

Three modes, which differ in where their visual features come from and in
what reads them:

  * ``hidden_state``   - the generator's tap activations, normalized by
                         pre-computed channel statistics and read by one
                         linear head; candidates only need to run up to the
                         generator's tap, block 0.
  * ``ae_latent``      - the terminal latent z0, flattened over spatial
                         positions; needs a completed generation.
  * ``pixel_reencode`` - the completed run's decoded image pushed through a
                         frozen stand-in visual encoder (patchify + attention
                         blocks), fully metered.

The ``hidden_state`` head is ``linear`` on the ``HEAD_INPUTS`` = T*d
normalized tap features as one row, with ``head.w`` [T*d, 1] and ``head.b``
[1]; its output is the margin, and the 2 [yes, no] logits are [margin, 0].
It does not read the prompt: the toy generator writes the evidence of a
mismatch into the tap. ``fit`` fits it in closed form and writes the
checkpoint ``fit.CHECKPOINT``; a head that ``init_verifier`` draws is random.

``ae_latent`` and ``pixel_reencode`` share one connector + scorer stack: a
compact transformer reading [projected features ++ prompt attribute tokens]
into a 2-logit yes/no head on the mean of its output rows; its last block
reads that mean out pooled (``attention_block(pool=True)``), so the MLP
down-projection runs once, not once per row. A prompt token's row depends on
its id alone, so block 0 looks up its entry (residual and query, key and
value; the key is the row's ln1 output) in per-token tables made once by
``init_verifier``.
In every mode the continuous score is the probability of the chosen class,
negated for "no", giving values in [-1, -0.5] or [0.5, 1].

The widths and depths are module constants: features enter the connector,
and the pixel encoder works, at ``FEATURE_DIM`` channels, which is the
generator's ``toygen.MODEL_WIDTH``; the connector's hidden layer has
``CONNECTOR_HIDDEN`` and the scorer ``SCORER_DIM``; the scorer has
``SCORER_BLOCKS`` blocks and the encoder ``ENCODER_DEPTH``.
``VerifierConfig`` holds only the mode.

Parameters live in a flat ``{name: array}`` dict, which a checkpoint stores
entry by entry. Every metered operation, feature normalization included,
runs as a ``numcore`` kernel.

Precision: ``init_verifier`` draws in float64 and rounds once to the
stack's serving dtype, ``toygen.DTYPE`` (float32). The forward pass
computes in its parameters' dtype, so a float64 cast of them computes in
float64 with the same metered FLOPs. Features and pixels are cast to the
parameters' dtype where they enter the head, the connector and the encoder,
a no-op on the float32 stack; normalization runs in the dtype of the tapped
features, which ``calibrate_feature_stats`` gives its statistics at
set-up. Only the 2 logits are promoted to float64, for the softmax that
gives the score. A checkpoint (schema 10) is one CRC-checked ``.npz``
whose JSON ``header`` entry records the config, the statistics' sample
count and the caller's meta; every other entry, statistics included, is
little-endian float32 (``<f4``). Save and load apply the same checks, so
what save writes, load reads.

Schema 10's entries: a ``hidden_state`` checkpoint holds ``head.w``
[T*d, 1], ``head.b`` [1] and the statistics ``stats.mean`` and
``stats.variance`` [FEATURE_DIM], which it cannot go without, since its head
reads normalized features. The other modes hold the scorer:
``connector.{w1,b1,w2,b2}`` (``b2`` holds the feature segment vector),
``prompt.h`` [VOCAB_SIZE, SCORER_DIM] and ``prompt.qkv`` [3, VOCAB_SIZE,
SCORER_DIM] (scorer block 0's entry for each prompt token),
``scorer.block{i}.*`` and ``head.w`` [SCORER_DIM, 2] and ``head.b`` [2];
``pixel_reencode`` adds ``encoder.*``, and statistics are optional. A
block's attention is one entry, ``*.wqk_vo`` [2, d, d], the folded ``W_QK``
and ``W_VO`` of ``numcore.BlockWeights``. Schema 9 stored the scorer in
``hidden_state`` too; schema 8 the four attention factors as ``*.wqkv``
[3, d, d] and ``*.wo`` [d, d]; schema 7 the prompt embedding table and both
segment vectors in place of the per-token tables and the folded ``b2``. All
are refused. Training updates ``prompt.h`` and ``prompt.qkv`` as parameters
in their own right: the embedding they were made from is not kept.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import scenes, toygen
from .numcore import (
    BlockWeights, MeterContext, Operand, Tensor, _data, attention_block, block_entry, gelu,
    init_block_weights, linear, normalize, softmax,
)

MODES = ("hidden_state", "ae_latent", "pixel_reencode")

FEATURE_DIM = toygen.MODEL_WIDTH  # feature channels entering the connector; the encoder's width
CONNECTOR_HIDDEN = 128
SCORER_DIM = 64
SCORER_BLOCKS = 2       # the last reads out the pooled row mean
ENCODER_DEPTH = 2       # blocks of the pixel_reencode stand-in encoder
HEAD_INPUTS = toygen.CONTENT_TOKENS * FEATURE_DIM  # the hidden_state head reads the tap flattened

_BLOCK_FIELDS = tuple(f.name for f in fields(BlockWeights))


class VerifierConfigError(ValueError):
    """Invalid verifier configuration."""


@dataclass(frozen=True)
class VerifierConfig:
    """Verifier settings, checked when built: VerifierConfigError if invalid."""
    mode: str = "hidden_state"

    def __post_init__(self):
        if self.mode not in MODES:
            raise VerifierConfigError(f"unknown mode {self.mode!r}")


@dataclass
class Score:
    decision: bool            # True <=> "yes"
    value: float              # P(yes) if yes else -P(no); |value| >= 0.5


def block_view(params: dict[str, np.ndarray], prefix: str) -> BlockWeights:
    return BlockWeights(*(params[f"{prefix}.{f}"] for f in _BLOCK_FIELDS))


def init_verifier(config: VerifierConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Fresh random parameters for ``config``, drawn from ``seed``.

    The draws are float64, rounded once to ``toygen.DTYPE``. ``hidden_state``
    draws its head alone. The other modes draw the scorer; the pixel
    encoder comes after it and 28*d discarded normals, the draws of the
    deleted, never-read alignment readouts, so its weights stay as they were.

    A prompt token's row is its attribute embedding plus the prompt segment
    vector, so scorer block 0's entry for it is one row of the per-token
    tables ``prompt.h`` and ``prompt.qkv``, computed here in the serving
    dtype. The feature segment vector is ``connector.b2``, which is zero
    without it.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 202]))
    if config.mode == "hidden_state":
        head = {"head.w": rng.standard_normal((HEAD_INPUTS, 1)) * 0.05, "head.b": np.zeros(1)}
        return {name: arr.astype(toygen.DTYPE, copy=False) for name, arr in head.items()}
    d = SCORER_DIM
    p: dict[str, np.ndarray] = {}

    def put_block(prefix: str, width: int, std: float):
        bw = init_block_weights(rng, width, weight_std=std, dtype=toygen.DTYPE)
        p.update((f"{prefix}.{f}", getattr(bw, f)) for f in _BLOCK_FIELDS)

    p["connector.w1"] = rng.standard_normal((FEATURE_DIM, CONNECTOR_HIDDEN)) * 0.05
    p["connector.b1"] = np.zeros(CONNECTOR_HIDDEN)
    p["connector.w2"] = rng.standard_normal((CONNECTOR_HIDDEN, d)) * 0.05
    token_table = rng.standard_normal((scenes.VOCAB_SIZE, d)) * 0.5
    p["connector.b2"] = rng.standard_normal(d) * 0.1
    seg_prompt = rng.standard_normal(d) * 0.1
    for i in range(SCORER_BLOCKS):
        put_block(f"scorer.block{i}", d, 0.05)
    tokens = token_table.astype(toygen.DTYPE) + seg_prompt.astype(toygen.DTYPE)
    h, qkv = block_entry(tokens, block_view(p, "scorer.block0"), None)
    p["prompt.h"], p["prompt.qkv"] = h.data.copy(), qkv.data.copy()  # writable, as the rest
    p["head.w"] = rng.standard_normal((d, 2)) * 0.05
    p["head.b"] = np.zeros(2)
    if config.mode == "pixel_reencode":
        rng.standard_normal(28 * d)
        patch_dim = 3 * scenes.PATCH * scenes.PATCH
        p["encoder.patch.w"] = rng.standard_normal((patch_dim, FEATURE_DIM)) * 0.1
        p["encoder.patch.b"] = np.zeros(FEATURE_DIM)
        for i in range(ENCODER_DEPTH):
            put_block(f"encoder.block{i}", FEATURE_DIM, 0.05)
    return {name: arr.astype(toygen.DTYPE, copy=False) for name, arr in p.items()}


# ------------------------------------------------------------- features

def patchify(pixels: np.ndarray) -> np.ndarray:
    """[G, G, 3] image -> [cells, PATCH*PATCH*3] rows (data movement only)."""
    g, patch = scenes.IMAGE_SIZE, scenes.PATCH
    cells = g // patch
    x = pixels.reshape(cells, patch, cells, patch, 3)
    return x.transpose(0, 2, 1, 3, 4).reshape(cells * cells, patch * patch * 3)


def encode_pixels(params: dict[str, np.ndarray], pixels: np.ndarray,
                  ctx: MeterContext | None) -> Tensor:
    """Frozen stand-in visual encoder: patch projection + attention blocks,
    on the pixels cast to the parameters' dtype."""
    w = params["encoder.patch.w"]
    x = linear(patchify(pixels.astype(w.dtype, copy=False)), w, params["encoder.patch.b"], ctx)
    for i in range(ENCODER_DEPTH):
        x = attention_block(x, block_view(params, f"encoder.block{i}"), ctx)
    return x


def extract_features(gen: toygen.Generator, state: toygen.GeneratorState,
                     config: VerifierConfig, stats: scenes.FeatureStats | None,
                     ctx: MeterContext | None,
                     params: dict[str, np.ndarray] | None = None,
                     image: toygen.RenderedImage | None = None) -> Tensor:
    """Mode-appropriate candidate features, with the pathway's cost metered.

    The features are a Tensor, so a meter counts them while the caller, and
    then the head or the scorer, holds them.

    ``hidden_state`` needs a tapped state, not a completed one; the other
    modes need a completed state, and ``pixel_reencode`` also the ``image``
    that state decoded to. Otherwise StateCompletionError is raised.
    Normalization runs in the features' and statistics' dtype, the encoder
    in the parameters'. ``gen`` is not read: the tap is always block 0, and
    the benchmark adapter passes ``gen`` positionally.
    """
    if config.mode == "hidden_state":
        if state.completed:
            raise toygen.StateCompletionError(
                "hidden_state verification reads a tapped state, not a completed one")
        if stats is None:
            return state.hidden
        return normalize(state.hidden, stats.mean, stats.variance, ctx)
    if not state.completed:
        raise toygen.StateCompletionError(
            f"{config.mode} verification needs a completed generation")
    if config.mode == "ae_latent":
        return state.z0
    if image is None:
        raise toygen.StateCompletionError("pixel_reencode verification needs the decoded image")
    return encode_pixels(params, image.pixels.data, ctx)


# ------------------------------------------------------------- forward

def scorer_forward(params: dict[str, np.ndarray], features: Operand,
                   prompt_ids: np.ndarray, ctx: MeterContext | None = None) -> np.ndarray:
    """Connector + scorer forward pass in the parameters' dtype; returns the
    2 [yes, no] logits as float64.

    Block 0 appends the rows of the prompt tokens ``prompt_ids`` after the
    feature rows, their entries looked up in ``prompt.h`` and
    ``prompt.qkv``. The head reads the mean of the scorer's output rows,
    which the last block reads out pooled.
    """
    f = np.ascontiguousarray(_data(features), dtype=params["connector.w1"].dtype)
    if f.shape[-1] != params["connector.w1"].shape[0]:
        raise VerifierConfigError(
            f"feature width {f.shape[-1]} does not match connector input "
            f"{params['connector.w1'].shape[0]}")
    c_pre = linear(f, params["connector.w1"], params["connector.b1"], ctx)
    c_act = gelu(c_pre, ctx)
    x = linear(c_act, params["connector.w2"], params["connector.b2"], ctx)
    given = params["prompt.h"][prompt_ids], params["prompt.qkv"][:, prompt_ids]
    for i in range(SCORER_BLOCKS):
        x = attention_block(x, block_view(params, f"scorer.block{i}"), ctx, given=given,
                            pool=i == SCORER_BLOCKS - 1)
        given = None
    logits = linear(x.data[None, :], params["head.w"], params["head.b"], ctx)
    return logits.data[0].astype(np.float64)


def head_margin(params: dict[str, np.ndarray], features: Operand,
                ctx: MeterContext | None = None) -> float:
    """The ``hidden_state`` head: ``linear`` on the [T, d] features as one
    [1, T*d] row, in the parameters' dtype; returns the margin, the "yes"
    logit against a "no" logit of 0."""
    w = params["head.w"]
    f = np.ascontiguousarray(_data(features), dtype=w.dtype).reshape(1, -1)
    return float(linear(f, w, params["head.b"], ctx).data[0, 0])


def score_from_logits(logits: np.ndarray, ctx: MeterContext | None = None) -> Score:
    """Softmax over the 2 [yes, no] logits in float64, greedy decision."""
    p = softmax(np.asarray(logits, dtype=np.float64), ctx).data
    decision = bool(p[0] >= p[1])
    value = float(p[0]) if decision else float(-p[1])
    return Score(decision=decision, value=value)


def score(params: dict[str, np.ndarray], config: VerifierConfig,
          features: Operand, prompt_ids: np.ndarray,
          ctx: MeterContext | None = None) -> Score:
    """The 2 logits of ``config.mode``'s verifier, softmax over them, greedy
    decision: ``hidden_state`` reads [``head_margin``, 0] and does not read
    ``prompt_ids``; the other modes run ``scorer_forward``."""
    if config.mode == "hidden_state":
        logits = np.array([head_margin(params, features, ctx), 0.0])
    else:
        logits = scorer_forward(params, features, prompt_ids, ctx)
    return score_from_logits(logits, ctx)


# ------------------------------------------------------------- selection

def select_best(scores: list[Score]) -> int:
    """Argmax over continuous value; ties broken toward the lowest index."""
    if not scores:
        raise ValueError("select_best needs a non-empty score list")
    return int(np.argmax([s.value for s in scores]))


# ------------------------------------------------------------- checkpoints

CHECKPOINT_SCHEMA = 10

# the dtype of every checkpoint entry but the header, on disk
_STORED = np.dtype(toygen.DTYPE).newbyteorder("<")


class CheckpointError(ValueError):
    """A checkpoint on disk is unreadable, malformed or inconsistent with its
    header, or what is given to save one would be."""


def _check_checkpoint(arrays: dict[str, np.ndarray], config: VerifierConfig,
                      sample_count, meta) -> None:
    """Raise CheckpointError unless ``arrays`` (parameters, and stats.* when
    ``sample_count`` is not null), ``sample_count`` and ``meta`` are what a
    checkpoint of ``config`` holds; save and load both call this.

    Every entry must be ``<f4``, finite and named and shaped as
    ``init_verifier`` makes it for ``config`` (statistics are
    [FEATURE_DIM]); the variance must be >= 0, ``sample_count`` null or an
    int >= 2 and ``meta`` a dict. A ``hidden_state`` checkpoint must hold
    statistics: its head reads normalized features.
    """
    if sample_count is not None and not (isinstance(sample_count, int) and sample_count >= 2):
        raise CheckpointError(f"sample_count must be null or an int >= 2, got {sample_count!r}")
    if sample_count is None and config.mode == "hidden_state":
        raise CheckpointError("a hidden_state checkpoint needs its normalization statistics")
    if not isinstance(meta, dict):
        raise CheckpointError(f"meta must be a JSON object, got {meta!r}")
    other = sorted(n for n, arr in arrays.items() if arr.dtype != _STORED)
    if other:
        raise CheckpointError(f"entries not {_STORED.str} (float32): {other}")
    found = {name: arr.shape for name, arr in arrays.items()}
    expected = {name: arr.shape for name, arr in init_verifier(config).items()}
    if sample_count is not None:
        expected.update({"stats.mean": (FEATURE_DIM,), "stats.variance": (FEATURE_DIM,)})
    wrong = sorted(n for n in found.keys() | expected.keys() if found.get(n) != expected.get(n))
    if wrong:
        raise CheckpointError(f"entries missing, unexpected or mis-shaped for the config: {wrong}")
    nonfinite = sorted(n for n, arr in arrays.items() if not np.isfinite(arr).all())
    if nonfinite:
        raise CheckpointError(f"entries not finite: {nonfinite}")
    if sample_count is not None and (arrays["stats.variance"] < 0).any():
        raise CheckpointError("stats.variance has a negative entry")


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray],
                    config: VerifierConfig, stats: scenes.FeatureStats | None,
                    meta: dict | None = None) -> Path:
    """Write one ``.npz`` at ``path``: every parameter, the normalization
    statistics as stats.* entries, and a JSON string entry ``header``.

    What ``load_checkpoint`` would refuse, and a ``meta`` that JSON cannot
    encode, raise CheckpointError before anything is written. The file is
    written next to ``path`` and then renamed over it, so ``path`` holds
    either its old content or the whole new checkpoint; it gets the mode
    that ``open(path, "w")`` would give it, 0o666 less the umask.
    """
    path = Path(path)
    arrays = {name: np.asarray(arr) for name, arr in params.items()}
    sample_count = None
    if stats is not None:
        arrays["stats.mean"] = np.asarray(stats.mean)
        arrays["stats.variance"] = np.asarray(stats.variance)
        sample_count = int(stats.sample_count)
    meta = {} if meta is None else meta
    _check_checkpoint(arrays, config, sample_count, meta)
    header = {"schema": CHECKPOINT_SCHEMA, "config": asdict(config),
              "sample_count": sample_count, "meta": meta}
    try:
        text = json.dumps(header, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint header not JSON-encodable: {exc!r}") from exc
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, header=np.array(text), **arrays)
            f.flush()
            # mkstemp creates the file 0o600; give it what open() would. The
            # umask is read only by setting it, so it is set back at once
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(f.fileno(), 0o666 & ~umask)
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_checkpoint(path: str | Path):
    """Inverse of save_checkpoint; returns (params, config, stats, meta).

    numpy checks each entry's header and byte count, and zipfile its CRC-32;
    what they refuse raises CheckpointError, as do a malformed header, a
    name stored twice and whatever ``_check_checkpoint`` refuses.
    """
    try:
        # np.load would leave the file open when the archive is unreadable
        with open(path, "rb") as f, np.lib.npyio.NpzFile(f, allow_pickle=False) as npz:
            names = npz.files
            arrays = {name: npz[name] for name in names}
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
        raise CheckpointError(f"unreadable checkpoint: {exc!r}") from exc
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise CheckpointError(f"entries stored more than once: {repeated}")
    try:
        header = json.loads(str(arrays.pop("header")))
    except (KeyError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint header missing or not JSON: {exc!r}") from exc
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(f"unsupported checkpoint schema {schema!r}")
    try:
        config = VerifierConfig(**header["config"])
        sample_count, meta = header["sample_count"], header["meta"]
    except (KeyError, TypeError, VerifierConfigError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc
    _check_checkpoint(arrays, config, sample_count, meta)
    stats = None
    if sample_count is not None:
        stats = scenes.FeatureStats(mean=arrays.pop("stats.mean"),
                                    variance=arrays.pop("stats.variance"),
                                    sample_count=sample_count)
    return arrays, config, stats, meta
