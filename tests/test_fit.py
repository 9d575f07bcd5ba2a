import numpy as np
import pytest

from latentscale import fit, scenes, toygen, verifier
from latentscale.numcore import normalize


@pytest.fixture(scope="module")
def refit():
    """The fit run anew, with the seeds of the candidates it tapped."""
    seeds, generate_tapped = [], toygen.generate_tapped

    def spy(gen, prompt, seed, ctx):
        seeds.append(seed)
        return generate_tapped(gen, prompt, seed, ctx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toygen, "generate_tapped", spy)
        params, stats = fit.fit()
    return params, stats, seeds


@pytest.fixture(scope="module")
def checkpoint():
    params, config, stats, meta = verifier.load_checkpoint(fit.CHECKPOINT)
    assert config == verifier.VerifierConfig(mode="hidden_state")
    return params, stats, meta


def test_every_fit_seed_is_a_calibration_seed(refit):
    # request seeds are drawn below 2**62, so the fit never sees a request's candidate
    seeds = refit[2]
    assert len(seeds) == len(set(seeds)) == fit.FIT_SAMPLES
    assert min(seeds) >= fit.CALIBRATION_SEED_BASE == 2 ** 62


def test_refit_reproduces_the_checked_in_head(refit, checkpoint):
    # the BLAS may order the generator's and the solve's sums differently on
    # another machine; noise of one float32 ulp on every tap feature moved the
    # head by at most 3e-6 of its largest weight, against the 1e-4 allowed here
    got_params, got_stats, _ = refit
    params, stats, meta = checkpoint
    assert meta == {"fit": "ridge", "ridge_lambda": fit.RIDGE_LAMBDA,
                    "samples": fit.FIT_SAMPLES, "corruption_rate": fit.FIT_CORRUPTION_RATE}
    assert got_params.keys() == params.keys() == {"head.w", "head.b"}
    scale = np.abs(params["head.w"]).max()
    for name, want in params.items():
        assert got_params[name].dtype == want.dtype
        np.testing.assert_allclose(got_params[name], want, rtol=0, atol=1e-4 * scale)
    assert got_stats.sample_count == stats.sample_count == fit.FIT_SAMPLES
    np.testing.assert_allclose(got_stats.mean, stats.mean, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(got_stats.variance, stats.variance, rtol=1e-5)


def test_head_reads_held_out_calibration_candidates(checkpoint):
    # candidates after the fit's, from the same calibration stream, as served
    params, stats, _ = checkpoint
    gen = toygen.build_generator(toygen.GeneratorConfig(corruption_rate=fit.FIT_CORRUPTION_RATE))
    features, labels = fit.tap(gen, fit.calibration_candidates(1000, first=fit.FIT_SAMPLES))
    cfg = verifier.VerifierConfig()
    right = sum(
        verifier.score(params, cfg, normalize(f, stats.mean, stats.variance, None), None).decision
        == (label > 0) for f, label in zip(features, labels))
    assert right / len(labels) >= 0.95


def test_best_of_8_with_the_checked_in_head_nearly_always_passes(default_generator, checkpoint):
    # served at the default corruption rate, 0.3; at least one of 8 candidates
    # is uncorrupted for all but 0.3**8 of the prompts
    params, stats, _ = checkpoint
    cfg, gen = verifier.VerifierConfig(), default_generator
    rng = np.random.default_rng(3)
    passed = 0
    for _ in range(200):
        prompt = scenes.sample_prompt(rng)
        ids = scenes.encode_prompt_tokens(prompt)
        states = [toygen.generate_tapped(gen, prompt, int(seed), None)
                  for seed in rng.integers(fit.CALIBRATION_SEED_BASE, size=8)]
        scores = [verifier.score(params, cfg,
                                 verifier.extract_features(gen, st, cfg, stats, None), ids)
                  for st in states]
        image = toygen.resume_and_decode(gen, states[verifier.select_best(scores)], None)
        passed += scenes.oracle_check(prompt, scenes.parse_scene(image.pixels.data))
    assert passed / 200 >= 0.98
