"""Synthetic grid-scene task suite: prompts, exact oracle, rasterization.

A scene is a set of colored glyphs placed on distinct cells of a 4x4 cell
grid; each cell rasterizes to a 4x4 pixel patch, giving 16x16 RGB images.
Prompts come from a closed template set across six categories and carry a
fully structured target, so the oracle is an exact rule evaluation rather
than a learned judge.

The palette and glyph table are chosen so that rasterization is exactly
invertible: distinct colors differ by at least 0.5 in some channel and
glyph masks are pairwise distinct, so ``parse_scene`` recovers the scene
from any image within 0.25 per-channel error of a clean render.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

IMAGE_SIZE = 16
PATCH = 4
CELL_GRID = IMAGE_SIZE // PATCH  # 4x4 cells
NUM_CELLS = CELL_GRID * CELL_GRID

CATEGORIES = ("single_object", "two_object", "counting", "colors", "position", "color_attr")
RELATIONS = ("left_of", "right_of", "above", "below")
RELATION_TEXT = {"left_of": "left of", "right_of": "right of",
                 "above": "above", "below": "below"}
COUNT_WORDS = {1: "one", 2: "two", 3: "three", 4: "four", 5: "five", 6: "six", 7: "seven"}
PROMPT_COUNTS = (2, 3, 4, 5)

SHAPES = ("square", "circle", "triangle", "cross", "diamond", "stripe", "wedge", "dot")

_GLYPH_ROWS = {
    "square":   ("1111", "1001", "1001", "1111"),
    "circle":   ("0110", "1111", "1111", "0110"),
    "triangle": ("0001", "0011", "0111", "1111"),
    "cross":    ("1001", "0110", "0110", "1001"),
    "diamond":  ("0110", "1001", "1001", "0110"),
    "stripe":   ("0000", "1111", "1111", "0000"),
    "wedge":    ("1000", "1100", "1110", "1111"),
    "dot":      ("0000", "0110", "0110", "0000"),
}
GLYPHS = {name: np.array([[int(c) for c in row] for row in rows], dtype=bool)
          for name, rows in _GLYPH_ROWS.items()}

COLORS = ("red", "green", "blue", "yellow", "magenta", "cyan", "white", "orange")
COLOR_RGB = {
    "red": (1.0, 0.0, 0.0), "green": (0.0, 1.0, 0.0), "blue": (0.0, 0.0, 1.0),
    "yellow": (1.0, 1.0, 0.0), "magenta": (1.0, 0.0, 1.0), "cyan": (0.0, 1.0, 1.0),
    "white": (1.0, 1.0, 1.0), "orange": (1.0, 0.5, 0.0),
}


class MalformedPromptError(ValueError):
    """A prompt violates its category's well-formedness rules."""


@dataclass(frozen=True)
class ObjectSpec:
    shape: str
    color: str | None  # None: any color acceptable
    count: int = 1


@dataclass(frozen=True)
class SceneSpec:
    """Structured description of what a scene must contain."""
    entries: tuple[ObjectSpec, ...]
    relation: str | None = None  # between entries[0] and entries[1]


@dataclass(frozen=True)
class Prompt:
    category: str
    target: SceneSpec
    text: str


@dataclass(frozen=True)
class SceneObject:
    shape: str
    color: str
    cell: tuple[int, int]  # (row, col) on the cell grid


@dataclass(frozen=True)
class Scene:
    objects: tuple[SceneObject, ...]


@dataclass
class FeatureStats:
    """Channelwise normalization statistics over a feature population."""
    mean: np.ndarray
    variance: np.ndarray
    sample_count: int


# --------------------------------------------------------------- prompts

def _spec_text(category: str, spec: SceneSpec) -> str:
    e = spec.entries
    if category == "single_object":
        return f"a photo of a {e[0].shape}"
    if category == "two_object":
        return f"a photo of a {e[0].shape} and a {e[1].shape}"
    if category == "counting":
        return f"a photo of {COUNT_WORDS[e[0].count]} {e[0].shape}s"
    if category == "colors":
        return f"a photo of a {e[0].color} {e[0].shape}"
    if category == "position":
        return f"a photo of a {e[0].shape} {RELATION_TEXT[spec.relation]} a {e[1].shape}"
    if category == "color_attr":
        return (f"a photo of a {e[0].color} {e[0].shape} "
                f"and a {e[1].color} {e[1].shape}")
    raise MalformedPromptError(f"unknown category {category!r}")


def validate_prompt(prompt: Prompt) -> None:
    """Raise MalformedPromptError unless the prompt fits its category's rules."""
    cat, e = prompt.category, prompt.target.entries
    if cat not in CATEGORIES:
        raise MalformedPromptError(f"unknown category {cat!r}")
    for obj in e:
        if obj.shape not in SHAPES:
            raise MalformedPromptError(f"unknown shape {obj.shape!r}")
        if obj.color is not None and obj.color not in COLORS:
            raise MalformedPromptError(f"unknown color {obj.color!r}")
    if cat == "counting":
        if len(e) != 1 or e[0].count < 2:
            raise MalformedPromptError("counting prompts need one entry with count >= 2")
    elif cat == "position":
        if len(e) != 2 or prompt.target.relation not in RELATIONS:
            raise MalformedPromptError("position prompts need two entries and a relation")
        if e[0].shape == e[1].shape:
            # a same-shape pair satisfies the mirrored relation read backwards
            raise MalformedPromptError("position prompts need two distinct shapes")
    elif cat == "color_attr":
        if (len(e) != 2 or e[0].color is None or e[1].color is None
                or e[0].color == e[1].color):
            raise MalformedPromptError("color_attr prompts bind a distinct color per object")
    elif cat == "colors":
        if len(e) != 1 or e[0].color is None:
            raise MalformedPromptError("colors prompts need one colored entry")
    elif cat == "single_object":
        if len(e) != 1:
            raise MalformedPromptError("single_object prompts have one entry")
    elif cat == "two_object":
        if len(e) != 2 or e[0].shape == e[1].shape:
            raise MalformedPromptError("two_object prompts need two distinct shapes")


def make_prompt(category: str, spec: SceneSpec) -> Prompt:
    p = Prompt(category=category, target=spec, text=_spec_text(category, spec))
    validate_prompt(p)
    return p


def sample_prompt(rng: np.random.Generator, category: str | None = None) -> Prompt:
    """Draw a well-formed prompt; uniform category mix when unspecified."""
    cat = category or CATEGORIES[rng.integers(len(CATEGORIES))]
    shapes = list(rng.choice(SHAPES, size=2, replace=False))
    colors = list(rng.choice(COLORS, size=2, replace=False))
    if cat == "single_object":
        spec = SceneSpec((ObjectSpec(shapes[0], None),))
    elif cat == "two_object":
        spec = SceneSpec((ObjectSpec(shapes[0], None), ObjectSpec(shapes[1], None)))
    elif cat == "counting":
        n = int(rng.choice(PROMPT_COUNTS))
        spec = SceneSpec((ObjectSpec(shapes[0], None, n),))
    elif cat == "colors":
        spec = SceneSpec((ObjectSpec(shapes[0], colors[0]),))
    elif cat == "position":
        rel = RELATIONS[rng.integers(len(RELATIONS))]
        spec = SceneSpec((ObjectSpec(shapes[0], None), ObjectSpec(shapes[1], None)),
                         relation=rel)
    else:  # color_attr
        spec = SceneSpec((ObjectSpec(shapes[0], colors[0]), ObjectSpec(shapes[1], colors[1])))
    return make_prompt(cat, spec)


def prompt_hash64(prompt: Prompt) -> int:
    """Stable 64-bit digest of the canonical prompt text."""
    return int.from_bytes(hashlib.blake2b(prompt.text.encode(), digest_size=8).digest(), "little")


# --------------------------------------------------------------- oracle

def _relation_holds(a: SceneObject, b: SceneObject, relation: str) -> bool:
    if relation == "left_of":
        return a.cell[1] < b.cell[1]
    if relation == "right_of":
        return a.cell[1] > b.cell[1]
    if relation == "above":
        return a.cell[0] < b.cell[0]
    if relation == "below":
        return a.cell[0] > b.cell[0]
    raise MalformedPromptError(f"unknown relation {relation!r}")


def _matches(obj: SceneObject, spec: ObjectSpec) -> bool:
    return obj.shape == spec.shape and (spec.color is None or obj.color == spec.color)


def oracle_check(prompt: Prompt, scene: Scene) -> bool:
    """Exact rule evaluation of a scene against a prompt (True <=> "Yes")."""
    validate_prompt(prompt)
    cat, spec = prompt.category, prompt.target
    objs = scene.objects
    if cat in ("single_object", "colors"):
        return any(_matches(o, spec.entries[0]) for o in objs)
    if cat == "counting":
        return sum(o.shape == spec.entries[0].shape for o in objs) == spec.entries[0].count
    if cat in ("two_object", "color_attr"):
        ea, eb = spec.entries
        return any(
            _matches(a, ea) and _matches(b, eb) and a is not b
            for a in objs for b in objs
        )
    if cat == "position":
        ea, eb = spec.entries
        return any(
            _matches(a, ea) and _matches(b, eb) and a is not b
            and _relation_holds(a, b, spec.relation)
            for a in objs for b in objs
        )
    raise MalformedPromptError(f"unknown category {cat!r}")


# --------------------------------------------------------------- corruption

def spec_attributes(category: str, spec: SceneSpec) -> dict[str, object]:
    """Flat attribute view used to count spec-level differences."""
    e = spec.entries
    if category == "single_object":
        return {"shape": e[0].shape}
    if category == "two_object":
        return {"shape_a": e[0].shape, "shape_b": e[1].shape}
    if category == "counting":
        return {"shape": e[0].shape, "count": e[0].count}
    if category == "colors":
        return {"shape": e[0].shape, "color": e[0].color}
    if category == "position":
        return {"shape_a": e[0].shape, "shape_b": e[1].shape, "relation": spec.relation}
    if category == "color_attr":
        return {"shape_a": e[0].shape, "color_a": e[0].color,
                "shape_b": e[1].shape, "color_b": e[1].color}
    raise MalformedPromptError(f"unknown category {category!r}")


def _other(rng: np.random.Generator, pool, current):
    options = [x for x in pool if x != current]
    return options[rng.integers(len(options))]


def corrupt_spec(prompt: Prompt, rng: np.random.Generator) -> SceneSpec:
    """Flip exactly one prompt-constrained attribute; the result always fails
    the oracle for this prompt."""
    cat, spec = prompt.category, prompt.target
    e = list(spec.entries)
    attrs = {
        "single_object": ["shape_a"],
        "two_object": ["shape_a", "shape_b"],
        "counting": ["count", "shape_a"],
        "colors": ["color_a", "shape_a"],
        "position": ["relation", "shape_a", "shape_b"],
        "color_attr": ["color_a", "color_b", "shape_a", "shape_b"],
    }[cat]
    which = attrs[rng.integers(len(attrs))]
    relation = spec.relation
    if which == "count":
        new = _other(rng, range(1, max(PROMPT_COUNTS) + 2), e[0].count)
        e[0] = ObjectSpec(e[0].shape, e[0].color, int(new))
    elif which == "relation":
        inverse = {"left_of": "right_of", "right_of": "left_of",
                   "above": "below", "below": "above"}
        relation = inverse[relation]
    else:
        idx = 0 if which.endswith("_a") else 1
        if which.startswith("shape"):
            e[idx] = ObjectSpec(_other(rng, SHAPES, e[idx].shape), e[idx].color, e[idx].count)
        else:
            e[idx] = ObjectSpec(e[idx].shape, _other(rng, COLORS, e[idx].color), e[idx].count)
    return SceneSpec(tuple(e), relation=relation)


# --------------------------------------------------------------- realization

def realize_scene(spec: SceneSpec, rng: np.random.Generator) -> Scene:
    """Place the spec's objects on distinct random cells (relation respected)."""
    objects: list[SceneObject] = []
    taken: set[tuple[int, int]] = set()

    def free_cells(predicate=None):
        cells = [(r, c) for r in range(CELL_GRID) for c in range(CELL_GRID)
                 if (r, c) not in taken and (predicate is None or predicate((r, c)))]
        return cells

    def place(entry: ObjectSpec, predicate=None) -> SceneObject:
        cells = free_cells(predicate)
        cell = cells[rng.integers(len(cells))]
        taken.add(cell)
        color = entry.color or COLORS[rng.integers(len(COLORS))]
        obj = SceneObject(entry.shape, color, cell)
        objects.append(obj)
        return obj

    if spec.relation is not None:
        rel = spec.relation
        # anchor placed away from the far edge so a consistent partner cell exists
        if rel == "left_of":
            a = place(spec.entries[0], lambda c: c[1] < CELL_GRID - 1)
            place(spec.entries[1], lambda c: c[1] > a.cell[1])
        elif rel == "right_of":
            a = place(spec.entries[0], lambda c: c[1] > 0)
            place(spec.entries[1], lambda c: c[1] < a.cell[1])
        elif rel == "above":
            a = place(spec.entries[0], lambda c: c[0] < CELL_GRID - 1)
            place(spec.entries[1], lambda c: c[0] > a.cell[0])
        else:
            a = place(spec.entries[0], lambda c: c[0] > 0)
            place(spec.entries[1], lambda c: c[0] < a.cell[0])
    else:
        for entry in spec.entries:
            for _ in range(entry.count):
                place(ObjectSpec(entry.shape, entry.color))
    return Scene(tuple(objects))


def corruption_gate(seed: int, prompt: Prompt, corruption_rate: float) -> bool:
    """Pseudo-random gate keyed on (seed, prompt); fires with the given rate."""
    key = f"{seed}|{prompt.text}|corrupt".encode()
    u = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")
    return u / 2.0 ** 64 < corruption_rate


@dataclass(frozen=True)
class RealizedCandidate:
    """What one candidate depicts: placed scene, its spec, corruption flag."""
    scene: Scene
    spec: SceneSpec
    corrupted: bool


def candidate_scene(prompt: Prompt, seed: int, corruption_rate: float) -> RealizedCandidate:
    """The scene a candidate with this seed depicts.

    The corruption gate and all placement randomness are keyed on
    (seed, prompt), independent of the noise latent, so candidate content is
    reproducible without running the generator.
    """
    validate_prompt(prompt)
    rng = np.random.default_rng(np.random.SeedSequence([seed, prompt_hash64(prompt), 2]))
    corrupted = corruption_gate(seed, prompt, corruption_rate)
    spec = corrupt_spec(prompt, rng) if corrupted else prompt.target
    return RealizedCandidate(realize_scene(spec, rng), spec, corrupted)


# --------------------------------------------------------------- raster

def render(scene: Scene) -> np.ndarray:
    """Rasterize to a [IMAGE_SIZE, IMAGE_SIZE, 3] float image in [0, 1]."""
    img = np.zeros((IMAGE_SIZE, IMAGE_SIZE, 3))
    for obj in scene.objects:
        r0, c0 = obj.cell[0] * PATCH, obj.cell[1] * PATCH
        mask = GLYPHS[obj.shape]
        rgb = np.array(COLOR_RGB[obj.color])
        img[r0:r0 + PATCH, c0:c0 + PATCH][mask] = rgb
    return img


_PALETTE = np.array([COLOR_RGB[c] for c in COLORS])
_MASK_TO_SHAPE = {GLYPHS[s].tobytes(): s for s in SHAPES}


def parse_scene(pixels: np.ndarray) -> Scene:
    """Invert ``render``: recover the scene from a (possibly perturbed) image.

    Lit pixels are those with max channel > 0.5; glyph masks are matched
    exactly, colors by nearest palette entry over the lit pixels.
    """
    objects = []
    for r in range(CELL_GRID):
        for c in range(CELL_GRID):
            patch = pixels[r * PATCH:(r + 1) * PATCH, c * PATCH:(c + 1) * PATCH]
            mask = patch.max(axis=-1) > 0.5
            if not mask.any():
                continue
            shape = _MASK_TO_SHAPE.get(mask.tobytes())
            if shape is None:
                # nearest glyph by Hamming distance (perturbation fallback)
                shape = min(SHAPES, key=lambda s: int((GLYPHS[s] ^ mask).sum()))
            mean_rgb = patch[mask].mean(axis=0)
            color = COLORS[int(np.argmin(((_PALETTE - mean_rgb) ** 2).sum(axis=1)))]
            objects.append(SceneObject(shape, color, (r, c)))
    return Scene(tuple(objects))


def scenes_equal(a: Scene, b: Scene) -> bool:
    return sorted(a.objects, key=lambda o: o.cell) == sorted(b.objects, key=lambda o: o.cell)


# --------------------------------------------------------------- tokenization

# token vocabulary: 0 = none, then categories, shapes, colors, counts, relations
_NONE = 0
_CAT_BASE = 1
_SHAPE_BASE = _CAT_BASE + len(CATEGORIES)
_COLOR_BASE = _SHAPE_BASE + len(SHAPES)
_COUNT_BASE = _COLOR_BASE + len(COLORS)
_MAX_COUNT = max(PROMPT_COUNTS) + 2
_REL_BASE = _COUNT_BASE + _MAX_COUNT
VOCAB_SIZE = _REL_BASE + len(RELATIONS)
PROMPT_TOKEN_LEN = 7


def encode_prompt_tokens(prompt: Prompt) -> np.ndarray:
    """Fixed-length attribute token ids:
    [category, shape_a, color_a, shape_b, color_b, count, relation]."""
    e = prompt.target.entries

    def shape_id(i):
        return _SHAPE_BASE + SHAPES.index(e[i].shape) if i < len(e) else _NONE

    def color_id(i):
        if i < len(e) and e[i].color is not None:
            return _COLOR_BASE + COLORS.index(e[i].color)
        return _NONE

    count = e[0].count
    tokens = [
        _CAT_BASE + CATEGORIES.index(prompt.category),
        shape_id(0), color_id(0), shape_id(1), color_id(1),
        _COUNT_BASE + (count - 1) if count > 1 else _NONE,
        _REL_BASE + RELATIONS.index(prompt.target.relation)
        if prompt.target.relation else _NONE,
    ]
    return np.array(tokens, dtype=np.int64)


def canonical_relation(a: SceneObject, b: SceneObject) -> str | None:
    """Column relation first, then row; None for aligned/single objects."""
    if a.cell[1] != b.cell[1]:
        return "left_of" if a.cell[1] < b.cell[1] else "right_of"
    if a.cell[0] != b.cell[0]:
        return "above" if a.cell[0] < b.cell[0] else "below"
    return None


def alignment_targets(scene: Scene) -> tuple[int, int, int, int]:
    """Attribute class ids describing the scene itself (the re-caption analog):
    (dominant shape, its color, object count, relation between first two)."""
    objs = sorted(scene.objects, key=lambda o: o.cell)
    counts: dict[str, int] = {}
    for o in objs:
        counts[o.shape] = counts.get(o.shape, 0) + 1
    dominant = max(counts, key=lambda s: (counts[s], s))
    first = next(o for o in objs if o.shape == dominant)
    shape_id = SHAPES.index(dominant)
    color_id = COLORS.index(first.color)
    count_id = min(len(objs), _MAX_COUNT) - 1
    if len(objs) >= 2:
        rel = canonical_relation(objs[0], objs[1])
        rel_id = 1 + RELATIONS.index(rel) if rel else 0
    else:
        rel_id = 0
    return shape_id, color_id, count_id, rel_id


ALIGNMENT_SLOT_SIZES = (len(SHAPES), len(COLORS), _MAX_COUNT, 1 + len(RELATIONS))


# --------------------------------------------------------------- statistics

def calibrate_feature_stats(features) -> FeatureStats:
    """Channelwise mean/variance over an iterable of feature arrays of shape
    [tokens, channels]. Statistics pool over samples and tokens.
    """
    total = None
    total_sq = None
    rows = 0
    count = 0
    for feat in features:
        arr = np.asarray(feat, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if total is None:
            total = arr.sum(axis=0)
            total_sq = (arr ** 2).sum(axis=0)
        else:
            total += arr.sum(axis=0)
            total_sq += (arr ** 2).sum(axis=0)
        rows += arr.shape[0]
        count += 1
    if count < 2:
        raise ValueError("calibrate_feature_stats needs at least 2 samples")
    mean = total / rows
    variance = np.maximum(total_sq / rows - mean ** 2, 0.0)
    return FeatureStats(mean=mean, variance=variance, sample_count=count)


def normalize(features: np.ndarray, stats: FeatureStats, eps: float = 1e-6) -> np.ndarray:
    """(x - mean) / sqrt(variance + eps), channelwise over the last axis."""
    return (np.asarray(features) - stats.mean) / np.sqrt(stats.variance + eps)
