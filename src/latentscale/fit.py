"""Closed-form ridge fit of the ``hidden_state`` verifier's linear head.

The fit taps ``FIT_SAMPLES`` calibration candidates of the default
generator at ``FIT_CORRUPTION_RATE``, takes their channel statistics with
``scenes.calibrate_feature_stats``, normalizes their tap features with
``numcore.normalize`` as serving does, and fits ridge regression (penalty
``RIDGE_LAMBDA``, bias not penalized) of the labels +1 (uncorrupted) and
-1 (corrupted) on the flattened features, in float64, with one
``np.linalg.solve``. The tap is the generator's embed, its content rows at
layer 0, so the fit runs no block. A linear probe of an intermediate layer
(Alain and Bengio 2016, arXiv 1610.01644) needs no backward pass.

Calibration candidate i has the i-th prompt that ``scenes.sample_prompt``
draws from ``default_rng([77, 1])`` and the seed ``CALIBRATION_SEED_BASE +
i``: the benchmark draws its requests' seeds below 2**62, so no calibration
candidate is a request's. The fit reads candidates 0 .. ``FIT_SAMPLES`` - 1 and nothing
else, so later ones are held out.

Run from the repository root to rewrite the checked-in checkpoint
``CHECKPOINT`` (head and statistics, through ``verifier.save_checkpoint``):

    PYTHONPATH=src python -m latentscale.fit
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import scenes, toygen, verifier
from .numcore import normalize

FIT_SAMPLES = 3000
FIT_CORRUPTION_RATE = 0.5
RIDGE_LAMBDA = 30.0
CALIBRATION_SEED_BASE = 2 ** 62
CHECKPOINT = Path(__file__).with_name("hidden_state_head.npz")


def calibration_candidates(count: int, first: int = 0) -> list[tuple[scenes.Prompt, int]]:
    """(prompt, seed) of calibration candidates ``first`` .. ``first + count - 1``."""
    rng = np.random.default_rng([77, 1])
    prompts = [scenes.sample_prompt(rng) for _ in range(first + count)]
    return [(prompts[i], CALIBRATION_SEED_BASE + i) for i in range(first, first + count)]


def tap(gen: toygen.Generator, candidates) -> tuple[np.ndarray, np.ndarray]:
    """The candidates' tap features [count, T, d] and labels, +1 for an
    uncorrupted candidate and -1 for a corrupted one."""
    features, labels = [], []
    for prompt, seed in candidates:
        state = toygen.generate_tapped(gen, prompt, seed, None)
        features.append(toygen.tap_hidden_features(state))
        labels.append(-1.0 if state.corrupted else 1.0)
    return np.stack(features), np.array(labels)


def fit() -> tuple[dict[str, np.ndarray], scenes.FeatureStats]:
    """The head, ``head.w`` [T*d, 1] and ``head.b`` [1] in the serving dtype,
    and the statistics it reads, fitted on the calibration candidates
    0 .. FIT_SAMPLES - 1."""
    gen = toygen.build_generator(toygen.GeneratorConfig(corruption_rate=FIT_CORRUPTION_RATE))
    features, labels = tap(gen, calibration_candidates(FIT_SAMPLES))
    stats = scenes.calibrate_feature_stats(features)
    x = normalize(features, stats.mean, stats.variance, None).data.reshape(FIT_SAMPLES, -1)
    x = np.hstack([x.astype(np.float64), np.ones((FIT_SAMPLES, 1))])
    penalty = np.full(x.shape[1], RIDGE_LAMBDA)
    penalty[-1] = 0.0  # the bias
    theta = np.linalg.solve(x.T @ x + np.diag(penalty), x.T @ labels)
    head = {"head.w": theta[:-1, None], "head.b": theta[-1:]}
    return {name: arr.astype(toygen.DTYPE) for name, arr in head.items()}, stats


def main() -> None:
    params, stats = fit()
    meta = {"fit": "ridge", "ridge_lambda": RIDGE_LAMBDA, "samples": FIT_SAMPLES,
            "corruption_rate": FIT_CORRUPTION_RATE}
    path = verifier.save_checkpoint(CHECKPOINT, params, verifier.VerifierConfig(), stats, meta)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
