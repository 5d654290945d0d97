"""A dialogue captures each frame once and every turn reuses it unchanged."""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.core import AIVideoChatSession, ChatSessionConfig
from repro.net import GilbertElliottLoss, PathConfig
from repro.video import Scene, make_sports_scene

TURNS = 5


@pytest.fixture(scope="module")
def scene():
    scene = make_sports_scene(3, height=176, width=320)
    assert len(scene.facts) >= TURNS
    return scene


def _session(scene: Scene) -> AIVideoChatSession:
    return AIVideoChatSession(
        scene,
        session_config=ChatSessionConfig(target_bitrate_bps=300_000.0, use_jitter_buffer=True),
        uplink_config=PathConfig(loss_model=GilbertElliottLoss(0.05, 0.3, 0.5), seed=11),
    )


def assert_same(first, second, path="result"):
    """Structural equality: dataclasses field by field, arrays bit for bit, NaN equal to NaN."""
    assert type(first) is type(second), path
    if dataclasses.is_dataclass(first):
        for item in dataclasses.fields(first):
            assert_same(getattr(first, item.name), getattr(second, item.name), f"{path}.{item.name}")
    elif isinstance(first, np.ndarray):
        assert first.dtype == second.dtype and np.array_equal(first, second, equal_nan=True), path
    elif isinstance(first, (list, tuple)):
        assert len(first) == len(second), path
        for index, (a, b) in enumerate(zip(first, second)):
            assert_same(a, b, f"{path}[{index}]")
    elif isinstance(first, dict):
        assert first.keys() == second.keys(), path
        for key in first:
            assert_same(first[key], second[key], f"{path}[{key!r}]")
    elif isinstance(first, float) and np.isnan(first):
        assert np.isnan(second), path
    else:
        assert first == second, path


def test_each_frame_is_rendered_once_per_dialogue(scene, monkeypatch):
    rendered: Counter = Counter()
    render = Scene.render

    def counting_render(self, frame_index, **kwargs):
        rendered[frame_index] += 1
        return render(self, frame_index, **kwargs)

    monkeypatch.setattr(Scene, "render", counting_render)
    session = _session(scene)
    session.run_dialogue(scene.facts[:TURNS])
    assert len(rendered) == 3  # window_s 1.5 at the 2 fps MLLM rate
    assert set(rendered.values()) == {1}


def test_turns_equal_fresh_sessions(scene):
    session = _session(scene)
    dialogue = session.run_dialogue(scene.facts[:TURNS])
    for fact, result in zip(scene.facts[:TURNS], dialogue):
        assert_same(result, _session(scene).run_turn(fact))


def test_captured_pixels_are_read_only(scene):
    session = _session(scene)
    session.run_turn(scene.facts[0])
    frame = session.source.frame_at(scene.frame_count - 1)
    with pytest.raises(ValueError):
        frame.pixels[0, 0] = 0.0
    with pytest.raises(ValueError):
        frame.pixels += 1.0
