"""The benchmark's only point of contact with ``latentscale``.

Every call into the library, and every library name the traced run wraps,
is in this file. An API change (for example batched ``[N, t, d]``
candidates) therefore edits this file and nothing else in the benchmark.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Import the sources of the checkout this file sits in, never an installed
# copy: the benchmark measures the tree it was checked out with.
_SRC = Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "latentscale" / "__init__.py").is_file():
    raise ImportError(f"no latentscale sources under {_SRC}")
sys.path.insert(0, str(_SRC))

from latentscale import numcore, scenes, toygen, verifier  # noqa: E402

CALIBRATION_SAMPLES = 64
# Candidate seeds of requests are drawn below this; calibration candidates
# use seeds from it up, so the two ranges are disjoint.
CALIBRATION_SEED_BASE = 2 ** 62
_REQUEST_KEY = 8111
_CALIBRATION_KEY = 8112

# Library functions the traced run wraps, as the calling module binds them:
# (owner, attribute, layer). Several attributes may share one layer.
TRACE_SPANS = (
    (toygen, "attention_block", "toygen.blocks"),
    (toygen, "matmul", "toygen.matmul"),
    (toygen, "decode_latent", "toygen.decode"),
    (scenes, "candidate_scene", "scenes.candidate_scene"),
    (scenes, "render", "scenes.render"),
    (verifier, "attention_block", "verifier.blocks"),
    (verifier, "linear", "verifier.connector"),
    (verifier, "gelu", "verifier.connector"),
    (verifier, "scorer_forward", "verifier.scorer"),
    (verifier, "score", "verifier.scorer"),
    (verifier, "extract_features", "verifier.features"),
    (verifier, "encode_pixels", "verifier.encode_pixels"),
)

# Methods whose calls the traced run counts: (owner, attribute, counter).
TRACE_COUNTS = (
    (numcore.MeterContext, "register", "numcore.meter.register_calls"),
    (numcore.Tensor, "__init__", "numcore.tensor_inits"),
)


@dataclass(frozen=True)
class Request:
    prompt: scenes.Prompt
    seeds: tuple[int, ...]  # one distinct generator seed per candidate


@dataclass
class Stack:
    """What set-up builds: the generator and, for BoN, the verifier."""
    gen: toygen.Generator
    vconfig: verifier.VerifierConfig | None
    vparams: dict[str, np.ndarray] | None
    stats: scenes.FeatureStats | None


@dataclass
class Outcome:
    """One served request: the selected image and what selection saw."""
    pixels: np.ndarray
    state: toygen.GeneratorState      # the selected candidate
    best: int
    decisions: list[bool]             # verifier yes/no per candidate
    corrupted: list[bool]             # ground-truth corruption per candidate


def _calibration_prompts() -> list[scenes.Prompt]:
    rng = np.random.default_rng(np.random.SeedSequence([_CALIBRATION_KEY]))
    return [scenes.sample_prompt(rng) for _ in range(CALIBRATION_SAMPLES)]


def setup(verifier_mode: str | None) -> Stack:
    """Build the default generator and, given a mode, the untrained
    verifier; the hidden-state verifier also gets its feature statistics
    from tapped candidates of the calibration seed range."""
    gen = toygen.build_generator(toygen.GeneratorConfig())
    if verifier_mode is None:
        return Stack(gen, None, None, None)
    vconfig = verifier.VerifierConfig(mode=verifier_mode)
    vparams = verifier.init_verifier(vconfig, seed=0)
    stats = None
    if verifier_mode == "hidden_state":
        stats = scenes.calibrate_feature_stats([
            toygen.tap_hidden_features(toygen.generate_tapped(
                gen, prompt, CALIBRATION_SEED_BASE + i, None))
            for i, prompt in enumerate(_calibration_prompts())])
    return Stack(gen, vconfig, vparams, stats)


def make_requests(seed: int, count: int, n: int) -> list[Request]:
    """``count`` requests of ``n`` candidates each; a function of ``seed``.

    Prompts come from ``sample_prompt`` with its uniform category mix, and
    every candidate of every request gets its own generator seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _REQUEST_KEY]))
    prompts = [scenes.sample_prompt(rng) for _ in range(count)]
    seeds = rng.choice(CALIBRATION_SEED_BASE, size=(count, n), replace=False)
    return [Request(p, tuple(int(s) for s in row)) for p, row in zip(prompts, seeds)]


def new_meter() -> numcore.MeterContext:
    return numcore.MeterContext()


def meter_flops(ctx: numcore.MeterContext | None) -> int:
    return 0 if ctx is None else ctx.flops_accumulated


def meter_bytes_peak(ctx: numcore.MeterContext | None) -> int:
    return 0 if ctx is None else ctx.bytes_peak


def full_candidate_flops(stack: Stack, req: Request) -> int:
    """Metered FLOPs of one candidate run in full and decoded, unverified."""
    ctx = new_meter()
    toygen.generate_full(stack.gen, req.prompt, req.seeds[0], ctx)
    return ctx.flops_accumulated


def serve(stack: Stack, req: Request, ctx: numcore.MeterContext | None) -> Outcome:
    """Prompt to selected decoded image.

    Without a verifier the single candidate runs in full. The hidden-state
    verifier scores candidates at the tap and only the best is resumed and
    decoded. Other verifiers need every candidate run in full and decoded.
    """
    gen, prompt = stack.gen, req.prompt
    if stack.vconfig is None:
        image, state = toygen.generate_full(gen, prompt, req.seeds[0], ctx)
        return Outcome(image.pixels.data, state, 0, [], [state.corrupted])

    prompt_ids = scenes.encode_prompt_tokens(prompt)
    tapped = stack.vconfig.mode == "hidden_state"
    states, images, scores = [], [], []
    for seed in req.seeds:
        if tapped:
            state, image = toygen.generate_tapped(gen, prompt, seed, ctx), None
        else:
            image, state = toygen.generate_full(gen, prompt, seed, ctx)
        features = verifier.extract_features(
            gen, state, stack.vconfig, stack.stats, ctx,
            params=stack.vparams, image=image)
        scores.append(verifier.score(stack.vparams, stack.vconfig, features,
                                     prompt_ids, ctx))
        states.append(state)
        images.append(image)
    best = verifier.select_best(scores)
    image = (toygen.resume_and_decode(gen, states[best], ctx) if tapped
             else images[best])
    return Outcome(image.pixels.data, states[best], best,
                   [s.decision for s in scores], [s.corrupted for s in states])


def check(req: Request, out: Outcome) -> tuple[bool, bool]:
    """(consistent, passed) for a served request.

    The selected image must parse back to the candidate's rendered scene,
    and the oracle's verdict on it must agree with the corruption flag.
    """
    parsed = scenes.parse_scene(out.pixels)
    passed = scenes.oracle_check(req.prompt, parsed)
    consistent = (scenes.scenes_equal(parsed, out.state.rendered_scene)
                  and passed == (not out.state.corrupted))
    return consistent, passed
