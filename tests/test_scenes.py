import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from latentscale import scenes
from latentscale.scenes import (
    CELL_GRID, COLORS, NUM_CELLS, SHAPES, MalformedPromptError, ObjectSpec,
    Scene, SceneObject, SceneSpec, calibrate_feature_stats, corrupt_spec,
    make_prompt, normalize, oracle_check, parse_scene, realize_scene, render,
    sample_prompt, scenes_equal, spec_attributes,
)

SEEDS = hst.integers(0, 2 ** 32 - 1)
PROMPTS = SEEDS.map(lambda s: sample_prompt(np.random.default_rng(s)))
CELLS = hst.tuples(hst.integers(0, CELL_GRID - 1), hst.integers(0, CELL_GRID - 1))
# every placement of glyphs on distinct cells, not only those realize_scene makes
SCENES = hst.lists(hst.builds(SceneObject, hst.sampled_from(SHAPES),
                              hst.sampled_from(COLORS), CELLS),
                   max_size=NUM_CELLS, unique_by=lambda o: o.cell).map(
    lambda objs: Scene(tuple(objs)))


def scene_of(*objs):
    return Scene(tuple(SceneObject(s, c, cell) for s, c, cell in objs))


# ---------------------------------------------------------------- oracle

def test_counting_exact():
    p = make_prompt("counting", SceneSpec((ObjectSpec("circle", None, 3),)))
    yes = scene_of(("circle", "red", (0, 0)), ("circle", "blue", (1, 1)),
                   ("circle", "green", (2, 2)))
    assert oracle_check(p, yes)


def test_counting_off_by_one_rejected():
    p = make_prompt("counting", SceneSpec((ObjectSpec("wedge", None, 4),)))
    five = scene_of(*((("wedge", "red", (i // 4, i % 4))) for i in range(5)))
    assert not oracle_check(p, five)


def test_position_and_reflection():
    p = make_prompt("position", SceneSpec(
        (ObjectSpec("square", None), ObjectSpec("dot", None)), relation="left_of"))
    good = scene_of(("square", "red", (1, 0)), ("dot", "blue", (1, 3)))
    reflected = scene_of(("square", "red", (1, 3)), ("dot", "blue", (1, 0)))
    assert oracle_check(p, good)
    assert not oracle_check(p, reflected)


def test_color_attr_binding():
    p = make_prompt("color_attr", SceneSpec(
        (ObjectSpec("square", "red"), ObjectSpec("circle", "green"))))
    assert oracle_check(p, scene_of(("square", "red", (0, 0)), ("circle", "green", (3, 3))))
    # colors swapped between the objects
    assert not oracle_check(p, scene_of(("square", "green", (0, 0)), ("circle", "red", (3, 3))))


def test_oracle_deterministic_and_total(rng):
    for _ in range(300):
        p = sample_prompt(rng)
        other = sample_prompt(rng)
        scene = realize_scene(other.target, rng)
        assert oracle_check(p, scene) == oracle_check(p, scene)


def test_malformed_prompts_raise():
    with pytest.raises(MalformedPromptError):
        make_prompt("counting", SceneSpec((ObjectSpec("circle", None, 1),)))
    with pytest.raises(MalformedPromptError):
        make_prompt("position", SceneSpec(
            (ObjectSpec("dot", None), ObjectSpec("dot", None)), relation="left_of"))
    with pytest.raises(MalformedPromptError):
        make_prompt("color_attr", SceneSpec(
            (ObjectSpec("dot", "red"), ObjectSpec("cross", "red"))))
    with pytest.raises(MalformedPromptError):
        make_prompt("colors", SceneSpec((ObjectSpec("dot", None),)))


# ---------------------------------------------------------------- planted corruption

def test_clean_realization_always_passes(rng):
    for _ in range(300):
        p = sample_prompt(rng)
        assert oracle_check(p, realize_scene(p.target, rng))


@settings(max_examples=500, deadline=None)
@given(p=PROMPTS, seed=SEEDS)
def test_corrupt_spec_fails_oracle_and_flips_one_attribute(p, seed):
    rng = np.random.default_rng(seed)
    bad = corrupt_spec(p, rng)
    before = spec_attributes(p.category, p.target)
    after = spec_attributes(p.category, bad)
    assert sum(before[k] != after[k] for k in before) == 1
    assert not oracle_check(p, realize_scene(bad, rng))


def test_realize_scene_distinct_cells(rng):
    for _ in range(200):
        p = sample_prompt(rng)
        scene = realize_scene(p.target, rng)
        cells = [o.cell for o in scene.objects]
        assert len(set(cells)) == len(cells)


def test_label_base_rate_tracks_corruption_rate():
    rng = np.random.default_rng(7)
    prompts = [sample_prompt(rng) for _ in range(50)]
    hits = total = 0
    for i in range(100):
        for p in prompts:
            cand = scenes.candidate_scene(p, 7000 + i, 0.3)
            label = oracle_check(p, cand.scene)
            assert label == (not cand.corrupted)
            hits += cand.corrupted
            total += 1
    assert abs(hits / total - 0.3) < 0.02


# ---------------------------------------------------------------- raster

@settings(max_examples=200, deadline=None)
@given(scene=SCENES)
def test_render_parse_roundtrip(scene):
    img = render(scene)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert scenes_equal(parse_scene(img), scene)


def test_parse_robust_to_perturbation(rng):
    for _ in range(50):
        scene = realize_scene(sample_prompt(rng).target, rng)
        noisy = render(scene) + rng.uniform(-0.2, 0.2, size=(16, 16, 3))
        assert scenes_equal(parse_scene(noisy), scene)


# ---------------------------------------------------------------- tokens

def test_prompt_tokens_fixed_length_and_padding(rng):
    for _ in range(50):
        toks = scenes.encode_prompt_tokens(sample_prompt(rng))
        assert toks.shape == (scenes.PROMPT_TOKEN_LEN,)
        assert (toks >= 0).all() and (toks < scenes.VOCAB_SIZE).all()
    single = make_prompt("single_object", SceneSpec((ObjectSpec("dot", None),)))
    toks = scenes.encode_prompt_tokens(single)
    assert toks[2] == 0 and toks[3] == 0 and toks[4] == 0  # no colors, no 2nd shape


# ---------------------------------------------------------------- feature stats

def test_normalize_constant_features_is_zero():
    feats = [np.full((4, 3), 2.5) for _ in range(5)]
    stats = calibrate_feature_stats(feats)
    out = normalize(feats[0], stats)
    assert np.abs(out).max() == 0.0


def test_normalize_standardizes_gaussian():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((10_000, 8)) * 3.0 + 1.0
    stats = calibrate_feature_stats(feats[:, None, :])
    z = normalize(feats, stats)
    assert np.abs(z.mean(axis=0)).max() <= 0.05
    assert 0.9 <= z.var(axis=0).min() and z.var(axis=0).max() <= 1.1


def test_recalibration_idempotent():
    rng = np.random.default_rng(4)
    feats = [rng.standard_normal((16, 8)) * 5 + 2 for _ in range(400)]
    stats = calibrate_feature_stats(feats)
    renorm = [normalize(f, stats) for f in feats]
    stats2 = calibrate_feature_stats(renorm)
    assert np.abs(stats2.mean).max() <= 0.05
    assert 0.9 <= stats2.variance.min() and stats2.variance.max() <= 1.1


def test_sana_shaped_features_accepted():
    rng = np.random.default_rng(5)
    feats = [rng.standard_normal((1024, 2240)).astype(np.float32) for _ in range(2)]
    stats = calibrate_feature_stats(feats)
    assert stats.mean.shape == (2240,)
    assert normalize(feats[0], stats).shape == (1024, 2240)


def test_calibrate_requires_two_samples():
    with pytest.raises(ValueError):
        calibrate_feature_stats([np.zeros((2, 2))])
