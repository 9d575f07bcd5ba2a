import dataclasses
import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from latentscale import scenes, toygen
from latentscale.numcore import normalize
from latentscale.scenes import (
    CATEGORY_TABLE, CELL_GRID, COLORS, NUM_CELLS, RELATIONS, SHAPES, SLOT_VALUES,
    MalformedPromptError, Prompt, Scene, SceneObject, SceneSpec,
    calibrate_feature_stats, corrupt_spec, oracle_check,
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


# ---------------------------------------------------------------- oracle

def test_counting_exact():
    p = Prompt("counting", SceneSpec(shape_a="circle", count=3))
    yes = scene_of(("circle", "red", (0, 0)), ("circle", "blue", (1, 1)),
                   ("circle", "green", (2, 2)))
    assert oracle_check(p, yes)


def test_counting_off_by_one_rejected():
    p = Prompt("counting", SceneSpec(shape_a="wedge", count=4))
    five = scene_of(*((("wedge", "red", (i // 4, i % 4))) for i in range(5)))
    assert not oracle_check(p, five)


def test_position_and_reflection():
    p = Prompt("position", SceneSpec(shape_a="square", shape_b="dot", relation="left_of"))
    good = scene_of(("square", "red", (1, 0)), ("dot", "blue", (1, 3)))
    reflected = scene_of(("square", "red", (1, 3)), ("dot", "blue", (1, 0)))
    assert oracle_check(p, good)
    assert not oracle_check(p, reflected)


def test_color_attr_binding():
    p = Prompt("color_attr", SceneSpec("square", "red", "circle", "green"))
    assert oracle_check(p, scene_of(("square", "red", (0, 0)), ("circle", "green", (3, 3))))
    # colors swapped between the objects
    assert not oracle_check(p, scene_of(("square", "green", (0, 0)), ("circle", "red", (3, 3))))


def test_oracle_deterministic_and_total(rng):
    for _ in range(300):
        p = sample_prompt(rng)
        other = sample_prompt(rng)
        scene = realize_scene(other.target, rng)
        assert oracle_check(p, scene) == oracle_check(p, scene)


def _malformed(name, category, **slots):
    return pytest.param(functools.partial(Prompt, category, SceneSpec(**slots)), id=name)


@pytest.mark.parametrize("build", [
    _malformed("counting_count_1", "counting", shape_a="circle", count=1),
    _malformed("position_same_shapes", "position", shape_a="dot", shape_b="dot",
               relation="left_of"),
    _malformed("color_attr_same_color", "color_attr", shape_a="dot", color_a="red",
               shape_b="cross", color_b="red"),
    _malformed("colors_uncolored", "colors", shape_a="dot"),
    _malformed("single_object_colored", "single_object", shape_a="dot", color_a="red"),
    _malformed("single_object_count_3", "single_object", shape_a="dot", count=3),
    _malformed("two_object_relation", "two_object", shape_a="dot", shape_b="cross",
               relation="left_of"),
    _malformed("counting_colored", "counting", shape_a="dot", color_a="red", count=3),
    _malformed("counting_count_8", "counting", shape_a="dot", count=8),
    _malformed("relation_sideways", "position", shape_a="dot", shape_b="cross",
               relation="sideways"),
    _malformed("position_one_entry", "position", shape_a="dot", relation="left_of"),
    _malformed("two_object_one_entry", "two_object", shape_a="dot"),
    _malformed("unknown_category", "landscape", shape_a="dot"),
])
def test_malformed_prompts_raise(build):
    with pytest.raises(MalformedPromptError):
        build()


def test_every_slot_assignment_builds_iff_well_formed_with_distinct_text():
    texts = []
    for category, (_, wanted) in CATEGORY_TABLE.items():
        b = next((k for k in wanted if k.endswith("_b")), None)
        for values in itertools.product(*(SLOT_VALUES[k] for k in wanted)):
            slots = dict(zip(wanted, values))
            if b is not None and slots[b] == slots[b[:-1] + "a"]:
                with pytest.raises(MalformedPromptError):
                    Prompt(category, SceneSpec(**slots))
            else:
                texts.append(Prompt(category, SceneSpec(**slots)).text)
    # Prompt.hash64, and so each candidate's stream, is keyed on the text alone
    assert len(texts) == len(set(texts)) == 3984


def test_replace_derives_the_text_anew():
    p = Prompt("counting", SceneSpec(shape_a="dot", count=3))
    q = dataclasses.replace(p, target=SceneSpec(shape_a="wedge", count=5))
    fresh = Prompt("counting", SceneSpec(shape_a="wedge", count=5))
    assert q.text == "a photo of five wedges"
    assert q == fresh
    assert q.token_ids.tobytes() == fresh.token_ids.tobytes() != p.token_ids.tobytes()
    assert q.hash64 == fresh.hash64 != p.hash64
    with pytest.raises(TypeError):  # the text is derived, never given
        Prompt("single_object", SceneSpec(shape_a="dot"), "a photo of a cross")


SLOT_DRAWS = {"color_a": hst.sampled_from(COLORS), "shape_b": hst.sampled_from(SHAPES),
              "color_b": hst.sampled_from(COLORS), "count": hst.integers(2, 7),
              "relation": hst.sampled_from(RELATIONS)}


@settings(max_examples=300, deadline=None)
@given(p=PROMPTS, data=hst.data())
def test_setting_an_unconstrained_slot_raises(p, data):
    slot = data.draw(hst.sampled_from(
        [s for s in SLOT_DRAWS if s not in CATEGORY_TABLE[p.category][1]]))
    spec = dataclasses.replace(p.target, **{slot: data.draw(SLOT_DRAWS[slot])})
    with pytest.raises(MalformedPromptError):
        Prompt(p.category, spec)
    with pytest.raises(MalformedPromptError):
        dataclasses.replace(p, target=spec)


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
    assert sum(x != y for x, y in zip(dataclasses.astuple(p.target),
                                      dataclasses.astuple(bad))) == 1
    assert bad.count != 1  # one object is stated by an unset count
    assert not oracle_check(p, realize_scene(bad, rng))


def _stream_text(spec: SceneSpec) -> str:
    """The target as the digest was first taken: each object's shape, color
    and count, then the relation."""
    objs = [(spec.shape_a, spec.color_a, spec.count or 1)]
    if spec.shape_b is not None:
        objs.append((spec.shape_b, spec.color_b, 1))
    return ";".join(f"{s},{c},{n}" for s, c, n in objs) + f";{spec.relation}"


# sha256 of the first 200 prompts of sample_prompt(default_rng(0)): their
# category, target, text and token ids, taken while a target was still a list
# of entries; the prompts must never move
PROMPT_STREAM_SHA256 = "4cca20e51c3f8fe56b86dc23cdec803ed35f1b7c8cd7b7202a001f4c4d7a16f0"
# sha256 of candidate i of prompt i of the same 200, at corruption rates 0.3
# and 1.0: its scene, then the float32 code coordinates (match evidence and
# noise latent) drawn from the rest of its stream; taken while float64
# serving was still selectable, so it holds the float32 bits as they were
CANDIDATE_STREAM_SHA256 = "654b9e3745b922407564ae8ae00ff04f17423c00b51d8d2b28ea9c5aedd26d6a"


def test_prompt_and_candidate_streams_are_unchanged():
    rng = np.random.default_rng(0)
    prompts, candidates = hashlib.sha256(), hashlib.sha256()
    for i in range(200):
        p = sample_prompt(rng)
        prompts.update(f"{p.category}|{_stream_text(p.target)}|{p.text}".encode())
        prompts.update(scenes.encode_prompt_tokens(p).tobytes())
        for rate in (0.3, 1.0):
            stream = scenes.candidate_rng(p, i)
            cand = scenes.candidate_scene(p, stream, rate)
            objs = ";".join(f"{o.shape},{o.color},{o.cell}" for o in cand.scene.objects)
            candidates.update(f"{objs}|{_stream_text(cand.spec)}|{cand.corrupted}".encode())
            candidates.update(toygen._code_coordinates(cand, stream).tobytes())
    assert prompts.hexdigest() == PROMPT_STREAM_SHA256
    assert candidates.hexdigest() == CANDIDATE_STREAM_SHA256


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
            cand = scenes.candidate_scene(p, scenes.candidate_rng(p, 7000 + i), 0.3)
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
    single = Prompt("single_object", SceneSpec(shape_a="dot"))
    assert tuple(vars(single.target)) == tuple(SLOT_VALUES)  # slots in token order
    toks = scenes.encode_prompt_tokens(single)
    assert toks[2] == 0 and toks[3] == 0 and toks[4] == 0  # no colors, no 2nd shape


def test_token_ids_and_hash_are_derived_once_and_read_only(rng):
    for _ in range(20):
        p = sample_prompt(rng)
        assert scenes.encode_prompt_tokens(p) is p.token_ids
        assert not p.token_ids.flags.writeable
        with pytest.raises(ValueError):
            p.token_ids[0] = 1
        text_digest = hashlib.blake2b(p.text.encode(), digest_size=8).digest()
        assert p.hash64 == int.from_bytes(text_digest, "little")
        # the derived fields take no part in equality or hashing
        twin = Prompt(p.category, p.target)
        assert twin == p and hash(twin) == hash(p) and twin.token_ids is not p.token_ids


# ---------------------------------------------------------------- feature stats

def test_normalize_constant_features_is_zero():
    feats = [np.full((4, 3), 2.5) for _ in range(5)]
    stats = calibrate_feature_stats(feats)
    out = normalize(feats[0], stats.mean, stats.variance, None).data
    assert np.abs(out).max() == 0.0


def test_normalize_standardizes_gaussian():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((10_000, 8)) * 3.0 + 1.0
    stats = calibrate_feature_stats(feats[:, None, :])
    z = normalize(feats, stats.mean, stats.variance, None).data
    assert np.abs(z.mean(axis=0)).max() <= 0.05
    assert 0.9 <= z.var(axis=0).min() and z.var(axis=0).max() <= 1.1


def test_recalibration_idempotent():
    rng = np.random.default_rng(4)
    feats = [rng.standard_normal((16, 8)) * 5 + 2 for _ in range(400)]
    stats = calibrate_feature_stats(feats)
    renorm = [normalize(f, stats.mean, stats.variance, None).data for f in feats]
    stats2 = calibrate_feature_stats(renorm)
    assert np.abs(stats2.mean).max() <= 0.05
    assert 0.9 <= stats2.variance.min() and stats2.variance.max() <= 1.1


def test_sana_shaped_features_accepted():
    rng = np.random.default_rng(5)
    feats = [rng.standard_normal((1024, 2240)).astype(np.float32) for _ in range(2)]
    stats = calibrate_feature_stats(feats)
    assert stats.mean.shape == (2240,)
    assert normalize(feats[0], stats.mean, stats.variance, None).shape == (1024, 2240)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_statistics_are_rounded_once_to_the_features_dtype(dtype):
    feats = (np.random.default_rng(6).standard_normal((3, 16, 8)) * 3.0 + 1.0).astype(dtype)
    stats = calibrate_feature_stats(feats)
    ref = calibrate_feature_stats(feats.astype(np.float64))
    assert ref.mean.dtype == ref.variance.dtype == np.float64
    assert stats.mean.dtype == stats.variance.dtype == dtype
    # float64 sums, one rounding at the end
    assert stats.mean.tobytes() == ref.mean.astype(dtype).tobytes()
    assert stats.variance.tobytes() == ref.variance.astype(dtype).tobytes()


def test_calibrate_requires_two_samples():
    with pytest.raises(ValueError):
        calibrate_feature_stats([np.zeros((2, 2))])
