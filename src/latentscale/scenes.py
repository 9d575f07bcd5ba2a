"""Synthetic grid-scene task suite: prompts, exact oracle, rasterization.

A scene is a set of colored glyphs placed on distinct cells of a 4x4 cell
grid; each cell rasterizes to a 4x4 pixel patch, giving 16x16 RGB images.
Prompts come from a closed template set across six categories and carry a
fully structured target, so the oracle is an exact rule evaluation rather
than a learned judge.

What a category constrains is data, not code. A target, ``SceneSpec``, is
six slots in token order (the keys of ``SLOT_VALUES``: two shapes, two
colors, a count and a relation), each None where unset, so a target has
exactly one spelling. ``CATEGORY_TABLE`` gives each category its text
template and the slots it sets; ``RELATION_TABLE`` gives each relation its
text and the cell axis and sign it compares. Text, checks, sampling,
corruption, the oracle, placement and tokens all read these two tables. A
``Prompt`` derives its text from its category and target once, when built,
and raises unless the target sets exactly the category's slots, each to a
known value. Templates and draw orders are frozen: the prompt text keys
``Prompt.hash64``, and ``candidate_rng`` keys each candidate's one random
stream on (seed, ``hash64``), so a changed word or draw changes every
candidate.

The palette and glyph table are chosen so that rasterization is exactly
invertible: distinct colors differ by at least 0.5 in some channel and
glyph masks are pairwise distinct, so ``parse_scene`` recovers the scene
from any image within 0.25 per-channel error of a clean render.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

IMAGE_SIZE = 16
PATCH = 4
CELL_GRID = IMAGE_SIZE // PATCH  # 4x4 cells
NUM_CELLS = CELL_GRID * CELL_GRID

# GenEval's six tasks (Ghosh et al. 2023): category -> (text template, the
# slots it sets). Slots are listed in corruption draw order, which puts the
# slot that tells the two objects apart first, so a category's first ``_b`` slot
# must differ from its ``_a`` slot.
CATEGORY_TABLE = {
    "single_object": ("a photo of a {shape_a}", ("shape_a",)),
    "two_object": ("a photo of a {shape_a} and a {shape_b}", ("shape_a", "shape_b")),
    "counting": ("a photo of {count} {shape_a}s", ("count", "shape_a")),
    "colors": ("a photo of a {color_a} {shape_a}", ("color_a", "shape_a")),
    "position": ("a photo of a {shape_a} {relation} a {shape_b}",
                 ("relation", "shape_a", "shape_b")),
    "color_attr": ("a photo of a {color_a} {shape_a} and a {color_b} {shape_b}",
                   ("color_a", "color_b", "shape_a", "shape_b")),
}
# relation -> (text, cell axis, sign): "a <relation> b" holds when
# sign * (b.cell[axis] - a.cell[axis]) > 0
RELATION_TABLE = {
    "left_of": ("left of", 1, 1),
    "right_of": ("right of", 1, -1),
    "above": ("above", 0, 1),
    "below": ("below", 0, -1),
}
CATEGORIES = tuple(CATEGORY_TABLE)
RELATIONS = tuple(RELATION_TABLE)
COUNT_WORDS = {2: "two", 3: "three", 4: "four", 5: "five", 6: "six", 7: "seven"}
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

# slot -> the values a prompt may set it to; one object leaves "count" unset
SLOT_VALUES = {"shape_a": SHAPES, "color_a": COLORS, "shape_b": SHAPES,
               "color_b": COLORS, "count": tuple(COUNT_WORDS), "relation": RELATIONS}


class MalformedPromptError(ValueError):
    """A prompt violates its category's well-formedness rules."""


@dataclass(frozen=True)
class SceneSpec:
    """What a scene must contain: the six slots of ``SLOT_VALUES`` in token
    order, each None where unset. ``count`` copies of object a (one when
    None), then object b if set; a None color accepts any color, and the
    relation holds between a and b."""
    shape_a: str | None = None
    color_a: str | None = None
    shape_b: str | None = None
    color_b: str | None = None
    count: int | None = None
    relation: str | None = None


@dataclass(frozen=True)
class Prompt:
    """A category and its target; ``text``, the read-only ``token_ids`` and
    the text's ``hash64`` are derived from them when built
    (``dataclasses.replace`` derives them anew). MalformedPromptError unless
    the target sets exactly the category's slots, each to a known value."""
    category: str
    target: SceneSpec
    text: str = field(init=False)
    token_ids: np.ndarray = field(init=False, compare=False, repr=False)
    hash64: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        text = _spec_text(self.category, self.target)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "token_ids", _token_ids(self.category, self.target))
        object.__setattr__(self, "hash64", int.from_bytes(
            hashlib.blake2b(text.encode(), digest_size=8).digest(), "little"))


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
    """The text stating ``spec``; MalformedPromptError unless ``spec`` sets
    exactly the category's slots, each to a known value."""
    if category not in CATEGORY_TABLE:
        raise MalformedPromptError(f"unknown category {category!r}")
    template, wanted = CATEGORY_TABLE[category]
    s = vars(spec)
    if {k for k, v in s.items() if v is not None} != set(wanted):
        raise MalformedPromptError(f"{category} prompts set exactly {wanted}")
    for k in wanted:
        if s[k] not in SLOT_VALUES[k]:
            raise MalformedPromptError(f"unknown {k} {s[k]!r}")
    b = next((k for k in wanted if k.endswith("_b")), None)
    if b is not None and s[b] == s[b[:-1] + "a"]:
        raise MalformedPromptError(f"{category} prompts need distinct {b[:-2]}s")
    words = dict(s, count=COUNT_WORDS.get(s["count"]),
                 relation=RELATION_TABLE[s["relation"]][0] if s["relation"] else None)
    return template.format(**words)


def sample_prompt(rng: np.random.Generator) -> Prompt:
    """Draw a well-formed prompt from a uniform category mix."""
    cat = CATEGORIES[rng.integers(len(CATEGORIES))]
    shapes = rng.choice(SHAPES, size=2, replace=False)
    colors = rng.choice(COLORS, size=2, replace=False)
    wanted = CATEGORY_TABLE[cat][1]
    drawn = {"shape_a": shapes[0], "color_a": colors[0],
             "shape_b": shapes[1], "color_b": colors[1],
             "count": int(rng.choice(PROMPT_COUNTS)) if "count" in wanted else None,
             "relation": RELATIONS[rng.integers(len(RELATIONS))] if "relation" in wanted else None}
    return Prompt(cat, SceneSpec(**{k: v if k in wanted else None for k, v in drawn.items()}))


# --------------------------------------------------------------- oracle

def _relation_holds(a: tuple[int, int], b: tuple[int, int], relation: str) -> bool:
    _, axis, sign = RELATION_TABLE[relation]
    return sign * (b[axis] - a[axis]) > 0


def _fits(obj: SceneObject, shape, color) -> bool:
    return obj.shape == shape and (color is None or obj.color == color)


def oracle_check(prompt: Prompt, scene: Scene) -> bool:
    """Exact rule evaluation of a scene against a prompt (True <=> "Yes")."""
    t = prompt.target
    objs = scene.objects
    first = [o for o in objs if _fits(o, t.shape_a, t.color_a)]
    if t.count is not None:
        return len(first) == t.count
    if t.shape_b is None:
        return bool(first)
    second = [o for o in objs if _fits(o, t.shape_b, t.color_b)]
    return any(a is not b and (t.relation is None
                               or _relation_holds(a.cell, b.cell, t.relation))
               for a in first for b in second)


# --------------------------------------------------------------- corruption

def _other(rng: np.random.Generator, pool, current):
    options = [x for x in pool if x != current]
    return options[rng.integers(len(options))]


def corrupt_spec(prompt: Prompt, rng: np.random.Generator) -> SceneSpec:
    """Flip exactly one prompt-constrained slot; the result always fails
    the oracle for this prompt. A relation flips to its mirror image, and a
    count drawn as one object leaves ``count`` unset."""
    wanted = CATEGORY_TABLE[prompt.category][1]
    which = wanted[rng.integers(len(wanted))]
    old = getattr(prompt.target, which)
    if which == "relation":
        _, axis, sign = RELATION_TABLE[old]
        new = next(r for r, (_, ax, sg) in RELATION_TABLE.items() if (ax, sg) == (axis, -sign))
    elif which == "count":
        new = _other(rng, range(1, max(PROMPT_COUNTS) + 2), old)
        new = None if new == 1 else new
    else:
        new = _other(rng, SLOT_VALUES[which], old)
    return replace(prompt.target, **{which: new})


# --------------------------------------------------------------- realization

def realize_scene(spec: SceneSpec, rng: np.random.Generator) -> Scene:
    """Place the spec's objects on distinct random cells (relation respected)."""
    objects: list[SceneObject] = []
    taken: set[tuple[int, int]] = set()

    def place(shape: str, color: str | None, fits=None) -> tuple[int, int]:
        cells = [(r, c) for r in range(CELL_GRID) for c in range(CELL_GRID)
                 if (r, c) not in taken and (fits is None or fits((r, c)))]
        cell = cells[rng.integers(len(cells))]
        taken.add(cell)
        color = color or COLORS[rng.integers(len(COLORS))]
        objects.append(SceneObject(shape, color, cell))
        return cell

    if spec.relation is not None:
        _, axis, sign = RELATION_TABLE[spec.relation]
        # anchor placed away from the far edge so a consistent partner cell exists
        anchor = place(spec.shape_a, spec.color_a, lambda c: 0 <= c[axis] + sign < CELL_GRID)
        place(spec.shape_b, spec.color_b, lambda c: _relation_holds(anchor, c, spec.relation))
    else:
        for _ in range(spec.count or 1):
            place(spec.shape_a, spec.color_a)
        if spec.shape_b is not None:
            place(spec.shape_b, spec.color_b)
    return Scene(tuple(objects))


def candidate_rng(prompt: Prompt, seed: int) -> np.random.Generator:
    """The one random stream of the candidate with this seed for this prompt."""
    return np.random.default_rng([seed, prompt.hash64])


@dataclass(frozen=True)
class RealizedCandidate:
    """What one candidate depicts: placed scene, its spec, corruption flag."""
    scene: Scene
    spec: SceneSpec
    corrupted: bool


def candidate_scene(prompt: Prompt, rng: np.random.Generator,
                    corruption_rate: float) -> RealizedCandidate:
    """The scene a candidate depicts, drawn first from its stream ``rng``.

    The corruption gate fires with ``corruption_rate``; a fired gate
    corrupts the target, then the scene is placed. These are the first
    draws of ``candidate_rng(prompt, seed)``, so candidate content is
    reproducible without running the generator.
    """
    corrupted = rng.random() < corruption_rate
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
_COUNT_BASE = _COLOR_BASE + len(COLORS) + 1  # one unused id keeps every pinned token id
_REL_BASE = _COUNT_BASE + len(COUNT_WORDS)
VOCAB_SIZE = _REL_BASE + len(RELATIONS)
PROMPT_TOKEN_LEN = 1 + len(SLOT_VALUES)
_SLOT_BASE = {"shape_a": _SHAPE_BASE, "color_a": _COLOR_BASE, "shape_b": _SHAPE_BASE,
              "color_b": _COLOR_BASE, "count": _COUNT_BASE, "relation": _REL_BASE}


def _token_ids(category: str, spec: SceneSpec) -> np.ndarray:
    tokens = [_CAT_BASE + CATEGORIES.index(category)] + [
        _NONE if v is None else _SLOT_BASE[k] + SLOT_VALUES[k].index(v)
        for k, v in vars(spec).items()]
    ids = np.array(tokens, dtype=np.int64)
    ids.flags.writeable = False
    return ids


def encode_prompt_tokens(prompt: Prompt) -> np.ndarray:
    """Fixed-length attribute token ids, derived when built and read-only:
    [category, shape_a, color_a, shape_b, color_b, count, relation]."""
    return prompt.token_ids


# --------------------------------------------------------------- statistics

def calibrate_feature_stats(features) -> FeatureStats:
    """Channelwise mean/variance over an iterable of feature arrays of shape
    [tokens, channels]. Statistics pool over samples and tokens.

    Sums run in float64; the statistics are rounded once to the features'
    float dtype (float32 at least), so they normalize those features as
    they are.
    """
    total = None
    total_sq = None
    rows = 0
    count = 0
    dtype = np.dtype(np.float32)
    for feat in features:
        arr = np.asarray(feat)
        dtype = np.promote_types(dtype, arr.dtype)
        arr = arr.astype(np.float64, copy=False)
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
    return FeatureStats(mean=mean.astype(dtype, copy=False),
                        variance=variance.astype(dtype, copy=False), sample_count=count)
