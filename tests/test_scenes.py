import dataclasses
import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from latentscale import scenes
from latentscale.scenes import (
    CATEGORY_TABLE, CELL_GRID, COLORS, NUM_CELLS, RELATIONS, SHAPES,
    MalformedPromptError, ObjectSpec, Prompt, Scene, SceneObject, SceneSpec,
    calibrate_feature_stats, corrupt_spec, make_prompt, normalize, oracle_check,
    parse_scene, realize_scene, render, sample_prompt, scenes_equal,
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


def spec_fields(spec: SceneSpec) -> list:
    """Each entry's shape, color and count, then the relation."""
    return [f for e in spec.entries for f in (e.shape, e.color, e.count)] + [spec.relation]


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


DOT, CROSS = ObjectSpec("dot", None), ObjectSpec("cross", None)


def _malformed(name, category, spec, text=None):
    build = (functools.partial(make_prompt, category, spec) if text is None
             else functools.partial(Prompt, category, spec, text))
    return pytest.param(build, id=name)


@pytest.mark.parametrize("build", [
    _malformed("counting_count_1", "counting", SceneSpec((ObjectSpec("circle", None, 1),))),
    _malformed("position_same_shapes", "position", SceneSpec((DOT, DOT), relation="left_of")),
    _malformed("color_attr_same_color", "color_attr",
               SceneSpec((ObjectSpec("dot", "red"), ObjectSpec("cross", "red")))),
    _malformed("colors_uncolored", "colors", SceneSpec((DOT,))),
    _malformed("single_object_colored", "single_object", SceneSpec((ObjectSpec("dot", "red"),))),
    _malformed("single_object_count_3", "single_object", SceneSpec((ObjectSpec("dot", None, 3),))),
    _malformed("two_object_relation", "two_object", SceneSpec((DOT, CROSS), relation="left_of")),
    _malformed("counting_colored", "counting", SceneSpec((ObjectSpec("dot", "red", 3),))),
    _malformed("counting_count_8", "counting", SceneSpec((ObjectSpec("dot", None, 8),))),
    _malformed("relation_sideways", "position", SceneSpec((DOT, CROSS), relation="sideways")),
    _malformed("position_one_entry", "position", SceneSpec((DOT,), relation="left_of")),
    _malformed("two_object_one_entry", "two_object", SceneSpec((DOT,))),
    _malformed("second_entry_count", "two_object", SceneSpec((DOT, ObjectSpec("cross", None, 2)))),
    _malformed("unknown_category", "landscape", SceneSpec((DOT,))),
    _malformed("text_not_stating_target", "single_object", SceneSpec((DOT,)),
               text="a photo of a cross"),
])
def test_malformed_prompts_raise(build):
    with pytest.raises(MalformedPromptError):
        build()


def _with_slot(spec: SceneSpec, slot: str, value) -> SceneSpec:
    """``spec`` with ``slot`` set to ``value``; setting a second entry's
    color adds a dot as that entry when there is none."""
    a, *b = spec.entries
    if slot == "relation":
        return dataclasses.replace(spec, relation=value)
    if slot == "color_a":
        a = dataclasses.replace(a, color=value)
    elif slot == "count":
        a = dataclasses.replace(a, count=value)
    elif slot == "shape_b":
        b = [ObjectSpec(value, None)]
    else:  # color_b
        b = [dataclasses.replace(b[0] if b else DOT, color=value)]
    return SceneSpec((a, *b), spec.relation)


SLOT_DRAWS = {"color_a": hst.sampled_from(COLORS), "shape_b": hst.sampled_from(SHAPES),
              "color_b": hst.sampled_from(COLORS), "count": hst.integers(2, 7),
              "relation": hst.sampled_from(RELATIONS)}


@settings(max_examples=300, deadline=None)
@given(p=PROMPTS, data=hst.data())
def test_setting_an_unconstrained_slot_raises(p, data):
    slot = data.draw(hst.sampled_from(
        [s for s in SLOT_DRAWS if s not in CATEGORY_TABLE[p.category][1]]))
    spec = _with_slot(p.target, slot, data.draw(SLOT_DRAWS[slot]))
    with pytest.raises(MalformedPromptError):
        make_prompt(p.category, spec)
    with pytest.raises(MalformedPromptError):
        Prompt(p.category, spec, p.text)


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
    assert len(bad.entries) == len(p.target.entries)
    assert sum(x != y for x, y in zip(spec_fields(p.target), spec_fields(bad))) == 1
    assert not oracle_check(p, realize_scene(bad, rng))


def _stream_text(spec: SceneSpec) -> str:
    return ";".join(f"{e.shape},{e.color},{e.count}" for e in spec.entries) + f";{spec.relation}"


# sha256 of the first 200 prompts of sample_prompt(default_rng(0)) and of
# their candidate scenes at corruption rates 0.3 and 1.0, taken while each
# category still had its own code path; the streams must never move
STREAM_SHA256 = "fc557d576bb26962d0024dd489d18e93e8c1759d196f6aa4bdb1d7ee7cdb7afa"


def test_prompt_and_candidate_streams_are_unchanged():
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for i in range(200):
        p = sample_prompt(rng)
        digest.update(f"{p.category}|{_stream_text(p.target)}|{p.text}".encode())
        for rate in (0.3, 1.0):
            cand = scenes.candidate_scene(p, i, rate)
            objs = ";".join(f"{o.shape},{o.color},{o.cell}" for o in cand.scene.objects)
            digest.update(f"{objs}|{_stream_text(cand.spec)}|{cand.corrupted}".encode())
    assert digest.hexdigest() == STREAM_SHA256


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
