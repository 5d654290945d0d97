"""Synthetic scenes with semantic ground truth.

The paper's experiments need video whose *fine* content (scoreboard digits,
jersey logos, spectator counts, ear shapes) is destroyed by aggressive
quantisation while its *coarse* content (who is in the frame, what they are
doing) survives — that is exactly what makes QA samples video-quality
sensitive (Section 2.3) and what context-aware bit allocation exploits
(Section 3.2).

A :class:`Scene` is a set of :class:`SceneObject` regions rendered onto a
background.  Each object carries semantic ``concepts`` (consumed by the
CLIP-style encoder) and a ``detail_scale`` controlling the spatial frequency
of its texture: high-detail objects lose their information first as QP
rises.  :class:`SceneFact` records the ground-truth answers that questions
can ask about, together with the visual granularity needed to answer them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .frames import VideoFrame, VideoSource

# QA categories used by DeViBench (Figure 8 of the paper).
CATEGORY_TEXT_RICH = "text_rich"
CATEGORY_ACTION = "action"
CATEGORY_ATTRIBUTE = "attribute"
CATEGORY_COUNTING = "counting"
CATEGORY_OBJECT = "object"
CATEGORY_SPATIAL = "spatial"

CATEGORIES = (
    CATEGORY_TEXT_RICH,
    CATEGORY_ACTION,
    CATEGORY_ATTRIBUTE,
    CATEGORY_COUNTING,
    CATEGORY_OBJECT,
    CATEGORY_SPATIAL,
)

#: The category mix the paper reports for DeViBench (Figure 8).
PAPER_CATEGORY_DISTRIBUTION = {
    CATEGORY_TEXT_RICH: 0.5484,
    CATEGORY_ACTION: 0.1703,
    CATEGORY_ATTRIBUTE: 0.1443,
    CATEGORY_COUNTING: 0.06,
    CATEGORY_OBJECT: 0.059,
    CATEGORY_SPATIAL: 0.018,
}

#: Fraction of DeViBench questions that need multiple frames (Figure 8).
PAPER_MULTI_FRAME_FRACTION = 0.3445


@dataclass(frozen=True)
class SceneFact:
    """One ground-truth fact about a scene that a question can target."""

    object_name: str
    key: str
    value: str
    domain: tuple[str, ...]
    category: str
    detail_scale: float
    question: str
    multi_frame: bool = False
    query_concepts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if not 0.0 <= self.detail_scale <= 1.0:
            raise ValueError("detail_scale must be in [0, 1]")
        if self.value not in self.domain:
            raise ValueError(f"value {self.value!r} must appear in its domain {self.domain}")
        if len(set(self.domain)) < 2:
            raise ValueError("domain must contain at least two distinct options")


@dataclass
class SceneObject:
    """A rectangular semantic region of the scene."""

    name: str
    concepts: tuple[str, ...]
    bbox: tuple[float, float, float, float]
    detail_scale: float = 0.5
    base_intensity: float = 128.0
    texture_contrast: float = 45.0
    velocity: tuple[float, float] = (0.0, 0.0)
    texture_seed: int = 0

    def __post_init__(self) -> None:
        x, y, w, h = self.bbox
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"bbox origin must lie in [0,1]^2, got {self.bbox}")
        if w <= 0 or h <= 0 or x + w > 1.0001 or y + h > 1.0001:
            raise ValueError(f"bbox must fit inside the frame, got {self.bbox}")
        if not 0.0 <= self.detail_scale <= 1.0:
            raise ValueError("detail_scale must be in [0, 1]")

    def bbox_at(self, time_s: float) -> tuple[float, float, float, float]:
        """Bounding box at a given time, clamped to stay inside the frame."""
        x, y, w, h = self.bbox
        x = float(np.clip(x + self.velocity[0] * time_s, 0.0, 1.0 - w))
        y = float(np.clip(y + self.velocity[1] * time_s, 0.0, 1.0 - h))
        return (x, y, w, h)

    def pixel_region(self, height: int, width: int, time_s: float = 0.0) -> tuple[int, int, int, int]:
        """(row0, row1, col0, col1) pixel slice of the object at ``time_s``."""
        x, y, w, h = self.bbox_at(time_s)
        col0 = int(round(x * width))
        row0 = int(round(y * height))
        col1 = min(width, max(col0 + 1, int(round((x + w) * width))))
        row1 = min(height, max(row0 + 1, int(round((y + h) * height))))
        return (row0, row1, col0, col1)


@dataclass
class Scene:
    """A synthetic scene: objects + facts + a deterministic renderer."""

    name: str
    description: str
    objects: list[SceneObject]
    facts: list[SceneFact]
    height: int = 360
    width: int = 640
    fps: float = 30.0
    duration_s: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.height <= 0 or self.width <= 0:
            raise ValueError("scene dimensions must be positive")
        names = [obj.name for obj in self.objects]
        if len(names) != len(set(names)):
            raise ValueError("object names must be unique within a scene")
        known = set(names)
        for fact in self.facts:
            if fact.object_name not in known:
                raise ValueError(f"fact references unknown object {fact.object_name!r}")

    # -- lookups ----------------------------------------------------------

    def object_by_name(self, name: str) -> SceneObject:
        for obj in self.objects:
            if obj.name == name:
                return obj
        raise KeyError(f"no object named {name!r} in scene {self.name!r}")

    @property
    def frame_count(self) -> int:
        return max(1, int(round(self.duration_s * self.fps)))

    # -- rendering ---------------------------------------------------------

    def _background(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        yy, xx = np.mgrid[0 : self.height, 0 : self.width]
        gradient = 70 + 60 * (xx / max(self.width - 1, 1)) + 25 * (yy / max(self.height - 1, 1))
        # A smooth low-frequency undulation so the background is not trivially flat.
        phase_x, phase_y = rng.uniform(0, 2 * np.pi, size=2)
        undulation = 10 * np.sin(2 * np.pi * xx / self.width + phase_x) * np.cos(
            2 * np.pi * yy / self.height + phase_y
        )
        return gradient + undulation

    def _object_texture(self, obj: SceneObject, rows: int, cols: int, time_s: float) -> np.ndarray:
        """Texture whose spatial frequency grows with the object's detail scale."""
        rng = np.random.default_rng(self.seed * 1009 + obj.texture_seed)
        yy, xx = np.mgrid[0:rows, 0:cols]
        # Fine detail => high spatial frequency => first casualty of coarse QP.
        cycles = 1.0 + obj.detail_scale * 14.0
        phase = rng.uniform(0, 2 * np.pi)
        pattern = np.sin(2 * np.pi * cycles * xx / max(cols, 1) + phase)
        pattern += np.sin(2 * np.pi * cycles * yy / max(rows, 1) + phase * 0.7)
        # A static pseudo-random component representing textual / structural detail.
        static = rng.normal(0, 1.0, size=(rows, cols))
        blend = 0.35 + 0.65 * obj.detail_scale
        texture = (1 - blend) * pattern / 2.0 + blend * static
        return obj.base_intensity + obj.texture_contrast * texture

    def render(self, frame_index: int) -> np.ndarray:
        """Render one frame as a luma array in [0, 255]."""
        if not 0 <= frame_index < self.frame_count:
            raise IndexError(f"frame index {frame_index} out of range [0, {self.frame_count})")
        time_s = frame_index / self.fps
        frame = self._background().copy()
        for obj in self.objects:
            row0, row1, col0, col1 = obj.pixel_region(self.height, self.width, time_s)
            texture = self._object_texture(obj, row1 - row0, col1 - col0, time_s)
            frame[row0:row1, col0:col1] = texture
        return np.clip(frame, 0, 255)

    def to_source(self) -> "SceneVideoSource":
        return SceneVideoSource(self)


class SceneVideoSource(VideoSource):
    """Adapts a :class:`Scene` to the :class:`VideoSource` interface."""

    def __init__(self, scene: Scene) -> None:
        self.scene = scene
        self.fps = scene.fps
        self.height = scene.height
        self.width = scene.width
        self._cache: dict[int, np.ndarray] = {}

    def frame_count(self) -> int:
        return self.scene.frame_count

    def frame_at(self, index: int) -> VideoFrame:
        if index not in self._cache:
            pixels = self.scene.render(index)
            pixels.flags.writeable = False  # shared by every frame_at(index)
            self._cache[index] = pixels
        return VideoFrame(
            frame_id=index,
            timestamp=index / self.fps,
            pixels=self._cache[index],
            metadata={"scene": self.scene.name},
        )


# ---------------------------------------------------------------------------
# Scene library
# ---------------------------------------------------------------------------


def make_sports_scene(seed: int = 0, height: int = 360, width: int = 640) -> Scene:
    """A basketball-game scene mirroring the paper's Figure 4 example."""
    rng = np.random.default_rng(seed)
    score = f"{rng.integers(0, 9)}-{rng.integers(0, 9)}"
    score_domain = tuple(sorted({score, "3-2", "1-4", "2-2", "5-0"}))
    logo = str(rng.choice(["swoosh", "stripes", "star", "wing"]))
    spectators = int(rng.integers(3, 9))
    action = str(rng.choice(["covering his mouth", "shooting", "dribbling", "defending"]))

    objects = [
        SceneObject(
            name="scoreboard",
            concepts=("scoreboard", "score", "text", "numbers", "game"),
            bbox=(0.72, 0.05, 0.24, 0.14),
            detail_scale=0.92,
            base_intensity=200.0,
            texture_contrast=55.0,
            texture_seed=1,
        ),
        SceneObject(
            name="player",
            concepts=("player", "person", "athlete", "action", "body"),
            bbox=(0.35, 0.30, 0.22, 0.55),
            detail_scale=0.25,
            base_intensity=150.0,
            velocity=(0.01, 0.0),
            texture_seed=2,
        ),
        SceneObject(
            name="jersey_logo",
            concepts=("logo", "jersey", "brand", "emblem"),
            bbox=(0.41, 0.42, 0.08, 0.10),
            detail_scale=0.88,
            base_intensity=90.0,
            texture_contrast=60.0,
            texture_seed=3,
        ),
        SceneObject(
            name="spectators",
            concepts=("spectators", "crowd", "people", "audience"),
            bbox=(0.02, 0.05, 0.55, 0.18),
            detail_scale=0.75,
            base_intensity=110.0,
            texture_seed=4,
        ),
        SceneObject(
            name="court",
            concepts=("court", "floor", "ground"),
            bbox=(0.0, 0.82, 1.0, 0.18),
            detail_scale=0.10,
            base_intensity=170.0,
            texture_contrast=15.0,
            texture_seed=5,
        ),
        SceneObject(
            name="player_hands",
            concepts=("hands", "player", "action", "gesture"),
            bbox=(0.44, 0.33, 0.07, 0.08),
            detail_scale=0.72,
            base_intensity=185.0,
            texture_contrast=55.0,
            velocity=(0.01, 0.0),
            texture_seed=6,
        ),
    ]
    hand_side = str(rng.choice(["left hand", "right hand"]))
    facts = [
        SceneFact(
            object_name="scoreboard",
            key="score",
            value=score,
            domain=score_domain,
            category=CATEGORY_TEXT_RICH,
            detail_scale=0.9,
            question="Could you tell me the present score of the game?",
            query_concepts=("score", "scoreboard", "numbers"),
        ),
        SceneFact(
            object_name="jersey_logo",
            key="logo",
            value=logo,
            domain=("swoosh", "stripes", "star", "wing"),
            category=CATEGORY_ATTRIBUTE,
            detail_scale=0.85,
            question="What logo is seen on the jersey of the player covering his mouth?",
            query_concepts=("logo", "jersey", "brand"),
        ),
        SceneFact(
            object_name="spectators",
            key="count",
            value=str(spectators),
            domain=tuple(str(v) for v in range(3, 9)),
            category=CATEGORY_COUNTING,
            detail_scale=0.28,
            question="How many spectators can be seen?",
            query_concepts=("spectators", "crowd", "people"),
        ),
        SceneFact(
            object_name="player_hands",
            key="gesture_hand",
            value=hand_side,
            domain=("left hand", "right hand"),
            category=CATEGORY_ACTION,
            detail_scale=0.7,
            question="Which hand does the player use to cover his mouth during the clip?",
            multi_frame=True,
            query_concepts=("hands", "player", "action"),
        ),
        SceneFact(
            object_name="player",
            key="action",
            value=action,
            domain=("covering his mouth", "shooting", "dribbling", "defending"),
            category=CATEGORY_ACTION,
            detail_scale=0.15,
            question="What is the player doing?",
            multi_frame=True,
            query_concepts=("player", "action", "person"),
        ),
        SceneFact(
            object_name="player",
            key="present",
            value="yes",
            domain=("yes", "no"),
            category=CATEGORY_OBJECT,
            detail_scale=0.05,
            question="Is there a player visible in the video?",
            query_concepts=("player", "person"),
        ),
    ]
    return Scene(
        name=f"sports_{seed}",
        description="A basketball game with a scoreboard, a player, and spectators.",
        objects=objects,
        facts=facts,
        height=height,
        width=width,
        seed=seed,
    )


def make_park_scene(seed: int = 0, height: int = 360, width: int = 640) -> Scene:
    """A park scene mirroring the paper's Figure 5 examples (dog ears, grass/season)."""
    rng = np.random.default_rng(seed + 17)
    ear_type = str(rng.choice(["erect-eared", "floppy-eared"]))
    season = str(rng.choice(["spring", "summer", "autumn", "winter"]))
    dog_side = str(rng.choice(["left", "right"]))
    head_orientation = str(rng.choice(["toward the tree", "away from the tree"]))
    dog_x = 0.12 if dog_side == "left" else 0.62

    objects = [
        SceneObject(
            name="dog_head",
            concepts=("dog", "head", "ears", "animal", "pet"),
            bbox=(dog_x, 0.35, 0.14, 0.18),
            detail_scale=0.82,
            base_intensity=100.0,
            texture_contrast=50.0,
            texture_seed=11,
        ),
        SceneObject(
            name="dog_body",
            concepts=("dog", "animal", "pet", "body"),
            bbox=(dog_x, 0.53, 0.20, 0.25),
            detail_scale=0.35,
            base_intensity=105.0,
            texture_seed=12,
        ),
        SceneObject(
            name="grass",
            concepts=("grass", "lawn", "plants", "season", "nature"),
            bbox=(0.0, 0.70, 1.0, 0.30),
            detail_scale=0.55,
            base_intensity=140.0,
            texture_contrast=35.0,
            texture_seed=13,
        ),
        SceneObject(
            name="tree",
            concepts=("tree", "plants", "nature", "season"),
            bbox=(0.80, 0.10, 0.18, 0.60),
            detail_scale=0.45,
            base_intensity=95.0,
            texture_seed=14,
        ),
        SceneObject(
            name="sky",
            concepts=("sky", "background", "weather"),
            bbox=(0.0, 0.0, 1.0, 0.10),
            detail_scale=0.05,
            base_intensity=220.0,
            texture_contrast=8.0,
            texture_seed=15,
        ),
    ]
    facts = [
        SceneFact(
            object_name="dog_head",
            key="ear_type",
            value=ear_type,
            domain=("erect-eared", "floppy-eared"),
            category=CATEGORY_ATTRIBUTE,
            detail_scale=0.8,
            question="Is the dog in the video erect-eared or floppy-eared?",
            query_concepts=("dog", "ears", "head"),
        ),
        SceneFact(
            object_name="grass",
            key="season",
            value=season,
            domain=("spring", "summer", "autumn", "winter"),
            category=CATEGORY_ATTRIBUTE,
            detail_scale=0.5,
            question="Infer what season it might be in the video.",
            query_concepts=("season", "grass", "plants"),
        ),
        SceneFact(
            object_name="dog_body",
            key="position",
            value=dog_side,
            domain=("left", "right"),
            category=CATEGORY_SPATIAL,
            detail_scale=0.1,
            question="Is the dog on the left or the right side of the frame?",
            query_concepts=("dog", "position"),
        ),
        SceneFact(
            object_name="dog_head",
            key="head_orientation",
            value=head_orientation,
            domain=("toward the tree", "away from the tree"),
            category=CATEGORY_SPATIAL,
            detail_scale=0.62,
            question="Is the dog's head turned toward the tree or away from it?",
            query_concepts=("dog", "head", "tree", "position"),
        ),
        SceneFact(
            object_name="dog_body",
            key="present",
            value="yes",
            domain=("yes", "no"),
            category=CATEGORY_OBJECT,
            detail_scale=0.05,
            question="Is there a dog in the video?",
            query_concepts=("dog", "animal"),
        ),
        SceneFact(
            object_name="dog_body",
            key="action",
            value="walking",
            domain=("walking", "sleeping", "jumping", "eating"),
            category=CATEGORY_ACTION,
            detail_scale=0.2,
            question="What is the dog doing across the video?",
            multi_frame=True,
            query_concepts=("dog", "action"),
        ),
    ]
    return Scene(
        name=f"park_{seed}",
        description="A dog walking in a park with grass and a tree.",
        objects=objects,
        facts=facts,
        height=height,
        width=width,
        seed=seed + 17,
    )


def make_street_scene(seed: int = 0, height: int = 360, width: int = 640) -> Scene:
    """A street scene rich in text (signs, plates) and counting targets."""
    rng = np.random.default_rng(seed + 41)
    sign_text = str(rng.choice(["STOP", "SLOW", "YIELD", "EXIT"]))
    plate = f"{rng.integers(100, 999)}"
    car_count = int(rng.integers(2, 7))
    pedestrian_action = str(rng.choice(["crossing the road", "waiting", "running", "cycling"]))
    pedestrian_glance = str(
        rng.choice(["glances at the parked car", "never looks at the parked car"])
    )

    objects = [
        SceneObject(
            name="road_sign",
            concepts=("sign", "text", "road", "traffic"),
            bbox=(0.05, 0.08, 0.16, 0.18),
            detail_scale=0.9,
            base_intensity=210.0,
            texture_contrast=60.0,
            texture_seed=21,
        ),
        SceneObject(
            name="license_plate",
            concepts=("plate", "text", "numbers", "car"),
            bbox=(0.45, 0.62, 0.10, 0.06),
            detail_scale=0.95,
            base_intensity=230.0,
            texture_contrast=65.0,
            texture_seed=22,
        ),
        SceneObject(
            name="cars",
            concepts=("car", "vehicles", "traffic"),
            bbox=(0.30, 0.45, 0.55, 0.30),
            detail_scale=0.6,
            base_intensity=120.0,
            texture_seed=23,
        ),
        SceneObject(
            name="pedestrian",
            concepts=("pedestrian", "person", "walking", "action"),
            bbox=(0.10, 0.40, 0.12, 0.45),
            detail_scale=0.25,
            base_intensity=140.0,
            velocity=(0.02, 0.0),
            texture_seed=24,
        ),
        SceneObject(
            name="pedestrian_face",
            concepts=("pedestrian", "head", "person", "action"),
            bbox=(0.13, 0.41, 0.05, 0.07),
            detail_scale=0.70,
            base_intensity=180.0,
            texture_contrast=50.0,
            velocity=(0.02, 0.0),
            texture_seed=26,
        ),
        SceneObject(
            name="buildings",
            concepts=("building", "background", "city"),
            bbox=(0.0, 0.0, 1.0, 0.35),
            detail_scale=0.2,
            base_intensity=160.0,
            texture_contrast=20.0,
            texture_seed=25,
        ),
    ]
    facts = [
        SceneFact(
            object_name="road_sign",
            key="sign_text",
            value=sign_text,
            domain=("STOP", "SLOW", "YIELD", "EXIT"),
            category=CATEGORY_TEXT_RICH,
            detail_scale=0.88,
            question="What does the road sign say?",
            query_concepts=("sign", "text", "road"),
        ),
        SceneFact(
            object_name="license_plate",
            key="plate_number",
            value=plate,
            domain=tuple(sorted({plate, "123", "457", "808", "336"})),
            category=CATEGORY_TEXT_RICH,
            detail_scale=0.95,
            question="What number is on the license plate of the parked car?",
            multi_frame=True,
            query_concepts=("plate", "numbers", "car"),
        ),
        SceneFact(
            object_name="cars",
            key="car_count",
            value=str(car_count),
            domain=tuple(str(v) for v in range(2, 7)),
            category=CATEGORY_COUNTING,
            detail_scale=0.25,
            question="How many cars are visible in the street?",
            query_concepts=("car", "vehicles"),
        ),
        SceneFact(
            object_name="pedestrian_face",
            key="pedestrian_glance",
            value=pedestrian_glance,
            domain=("glances at the parked car", "never looks at the parked car"),
            category=CATEGORY_ACTION,
            detail_scale=0.66,
            question="Does the pedestrian glance at the parked car while passing it?",
            multi_frame=True,
            query_concepts=("pedestrian", "action", "head"),
        ),
        SceneFact(
            object_name="pedestrian",
            key="action",
            value=pedestrian_action,
            domain=("crossing the road", "waiting", "running", "cycling"),
            category=CATEGORY_ACTION,
            detail_scale=0.2,
            question="What is the pedestrian doing over the course of the video?",
            multi_frame=True,
            query_concepts=("pedestrian", "action", "person"),
        ),
        SceneFact(
            object_name="pedestrian",
            key="position",
            value="left",
            domain=("left", "right"),
            category=CATEGORY_SPATIAL,
            detail_scale=0.1,
            question="Does the pedestrian start on the left or the right of the frame?",
            query_concepts=("pedestrian", "position"),
        ),
    ]
    return Scene(
        name=f"street_{seed}",
        description="A street with a road sign, parked cars, and a pedestrian.",
        objects=objects,
        facts=facts,
        height=height,
        width=width,
        seed=seed + 41,
    )


def make_kitchen_scene(seed: int = 0, height: int = 360, width: int = 640) -> Scene:
    """A cooking scene with label text, ingredient counts, and an action."""
    rng = np.random.default_rng(seed + 73)
    label = str(rng.choice(["FLOUR", "SUGAR", "SALT", "RICE"]))
    timer = f"{rng.integers(1, 6)}:{rng.integers(10, 59)}"
    item_count = int(rng.integers(2, 8))
    action = str(rng.choice(["chopping vegetables", "stirring a pot", "pouring water", "plating food"]))
    stir_direction = str(rng.choice(["clockwise", "counterclockwise"]))
    utensil = str(rng.choice(["a small spoon", "a whisk", "a peeler", "a thermometer"]))

    objects = [
        SceneObject(
            name="jar_label",
            concepts=("label", "text", "jar", "ingredient"),
            bbox=(0.70, 0.30, 0.15, 0.20),
            detail_scale=0.9,
            base_intensity=215.0,
            texture_contrast=60.0,
            texture_seed=31,
        ),
        SceneObject(
            name="timer",
            concepts=("timer", "numbers", "text", "clock"),
            bbox=(0.05, 0.05, 0.14, 0.12),
            detail_scale=0.92,
            base_intensity=40.0,
            texture_contrast=70.0,
            texture_seed=32,
        ),
        SceneObject(
            name="ingredients",
            concepts=("ingredients", "food", "vegetables"),
            bbox=(0.25, 0.55, 0.40, 0.30),
            detail_scale=0.65,
            base_intensity=150.0,
            texture_seed=33,
        ),
        SceneObject(
            name="cook",
            concepts=("cook", "person", "hands", "action"),
            bbox=(0.30, 0.20, 0.30, 0.50),
            detail_scale=0.25,
            base_intensity=135.0,
            texture_seed=34,
        ),
        SceneObject(
            name="utensil",
            concepts=("utensil", "spoon", "hands", "ingredient"),
            bbox=(0.62, 0.58, 0.07, 0.08),
            detail_scale=0.78,
            base_intensity=200.0,
            texture_contrast=55.0,
            texture_seed=35,
        ),
    ]
    facts = [
        SceneFact(
            object_name="jar_label",
            key="label_text",
            value=label,
            domain=("FLOUR", "SUGAR", "SALT", "RICE"),
            category=CATEGORY_TEXT_RICH,
            detail_scale=0.88,
            question="What is written on the jar label on the counter?",
            query_concepts=("label", "text", "jar"),
        ),
        SceneFact(
            object_name="timer",
            key="timer_value",
            value=timer,
            domain=tuple(sorted({timer, "1:30", "2:45", "4:15", "5:20"})),
            category=CATEGORY_TEXT_RICH,
            detail_scale=0.92,
            question="What time is shown on the kitchen timer?",
            multi_frame=True,
            query_concepts=("timer", "numbers", "clock"),
        ),
        SceneFact(
            object_name="ingredients",
            key="item_count",
            value=str(item_count),
            domain=tuple(str(v) for v in range(2, 8)),
            category=CATEGORY_COUNTING,
            detail_scale=0.25,
            question="How many ingredients are laid out on the counter?",
            query_concepts=("ingredients", "food"),
        ),
        SceneFact(
            object_name="utensil",
            key="utensil_kind",
            value=utensil,
            domain=("a small spoon", "a whisk", "a peeler", "a thermometer"),
            category=CATEGORY_OBJECT,
            detail_scale=0.76,
            question="What small utensil is lying next to the ingredients?",
            query_concepts=("utensil", "spoon", "ingredient"),
        ),
        SceneFact(
            object_name="utensil",
            key="stir_direction",
            value=stir_direction,
            domain=("clockwise", "counterclockwise"),
            category=CATEGORY_ACTION,
            detail_scale=0.68,
            question="In which direction is the mixture being stirred?",
            multi_frame=True,
            query_concepts=("hands", "action", "cook"),
        ),
        SceneFact(
            object_name="cook",
            key="action",
            value=action,
            domain=("chopping vegetables", "stirring a pot", "pouring water", "plating food"),
            category=CATEGORY_ACTION,
            detail_scale=0.2,
            question="What is the cook doing in this clip?",
            multi_frame=True,
            query_concepts=("cook", "action", "hands"),
        ),
        SceneFact(
            object_name="cook",
            key="present",
            value="yes",
            domain=("yes", "no"),
            category=CATEGORY_OBJECT,
            detail_scale=0.05,
            question="Is a person visible in the kitchen?",
            query_concepts=("person", "cook"),
        ),
    ]
    return Scene(
        name=f"kitchen_{seed}",
        description="A cooking scene with labelled jars, a timer, and ingredients.",
        objects=objects,
        facts=facts,
        height=height,
        width=width,
        seed=seed + 73,
    )


def make_lecture_scene(seed: int = 0, height: int = 360, width: int = 640) -> Scene:
    """A lecture scene dominated by slide text — the text-rich heavy case."""
    rng = np.random.default_rng(seed + 97)
    slide_title = str(rng.choice(["NETWORKS", "PROTOCOLS", "LATENCY", "CODECS"]))
    equation = str(rng.choice(["y=ax+b", "E=mc^2", "a^2+b^2", "F=ma"]))
    bullet_count = int(rng.integers(3, 7))

    objects = [
        SceneObject(
            name="slide_title",
            concepts=("slide", "title", "text", "lecture"),
            bbox=(0.18, 0.08, 0.34, 0.09),
            detail_scale=0.85,
            base_intensity=235.0,
            texture_contrast=60.0,
            texture_seed=41,
        ),
        SceneObject(
            name="slide_equation",
            concepts=("equation", "math", "text", "formula"),
            bbox=(0.22, 0.32, 0.26, 0.11),
            detail_scale=0.93,
            base_intensity=240.0,
            texture_contrast=65.0,
            texture_seed=42,
        ),
        SceneObject(
            name="slide_bullets",
            concepts=("bullets", "list", "text", "slide"),
            bbox=(0.22, 0.52, 0.30, 0.22),
            detail_scale=0.8,
            base_intensity=238.0,
            texture_contrast=55.0,
            texture_seed=43,
        ),
        SceneObject(
            name="lecturer",
            concepts=("lecturer", "person", "speaker", "action"),
            bbox=(0.75, 0.35, 0.20, 0.55),
            detail_scale=0.2,
            base_intensity=130.0,
            texture_seed=44,
        ),
    ]
    facts = [
        SceneFact(
            object_name="slide_title",
            key="title",
            value=slide_title,
            domain=("NETWORKS", "PROTOCOLS", "LATENCY", "CODECS"),
            category=CATEGORY_TEXT_RICH,
            detail_scale=0.82,
            question="What is the title of the slide being presented?",
            query_concepts=("slide", "title", "text"),
        ),
        SceneFact(
            object_name="slide_equation",
            key="equation",
            value=equation,
            domain=("y=ax+b", "E=mc^2", "a^2+b^2", "F=ma"),
            category=CATEGORY_TEXT_RICH,
            detail_scale=0.93,
            question="Which equation appears on the slide?",
            multi_frame=True,
            query_concepts=("equation", "math", "formula"),
        ),
        SceneFact(
            object_name="slide_bullets",
            key="bullet_count",
            value=str(bullet_count),
            domain=tuple(str(v) for v in range(3, 7)),
            category=CATEGORY_COUNTING,
            detail_scale=0.7,
            question="How many bullet points are listed on the slide?",
            multi_frame=True,
            query_concepts=("bullets", "list", "slide"),
        ),
        SceneFact(
            object_name="lecturer",
            key="action",
            value="pointing at the slide",
            domain=("pointing at the slide", "writing on a board", "sitting", "leaving the room"),
            category=CATEGORY_ACTION,
            detail_scale=0.2,
            question="What is the lecturer doing during the clip?",
            multi_frame=True,
            query_concepts=("lecturer", "action", "person"),
        ),
        SceneFact(
            object_name="lecturer",
            key="position",
            value="right",
            domain=("left", "right"),
            category=CATEGORY_SPATIAL,
            detail_scale=0.1,
            question="Is the lecturer standing on the left or the right of the slide?",
            query_concepts=("lecturer", "position"),
        ),
    ]
    return Scene(
        name=f"lecture_{seed}",
        description="A lecture with a text-heavy slide and a lecturer.",
        objects=objects,
        facts=facts,
        height=height,
        width=width,
        seed=seed + 97,
    )


SCENE_BUILDERS = {
    "sports": make_sports_scene,
    "park": make_park_scene,
    "street": make_street_scene,
    "kitchen": make_kitchen_scene,
    "lecture": make_lecture_scene,
}


def build_scene_corpus(
    count: int,
    seed: int = 0,
    height: int = 360,
    width: int = 640,
    kinds: Optional[Sequence[str]] = None,
) -> list[Scene]:
    """Build a corpus of synthetic scenes cycling through the scene kinds.

    The kind mix is weighted towards text-rich scenes (lecture, street,
    kitchen) so that the generated QA distribution lands near the paper's
    Figure 8 (text-rich understanding dominates at ~55 %).
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if kinds is None:
        # Weighted cycle: text-heavy kinds appear more often.
        kinds = ("lecture", "street", "kitchen", "sports", "lecture", "street", "park", "kitchen")
    unknown = set(kinds) - set(SCENE_BUILDERS)
    if unknown:
        raise ValueError(f"unknown scene kinds: {sorted(unknown)}")
    scenes = []
    for index in range(count):
        kind = kinds[index % len(kinds)]
        scenes.append(SCENE_BUILDERS[kind](seed=seed + index, height=height, width=width))
    return scenes
