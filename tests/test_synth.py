"""Synthetic folksonomy generator: config validation and timestamps."""

import pytest

from folkrec.errors import ConfigError
from folkrec.synth import SynthConfig, generate


@pytest.mark.parametrize(
    "overrides",
    [
        {"topics": 1},
        {"items": 19},
        {"tags": 19},
        {"users": 0},
        {"posts_per_user": (0, 3)},
        {"posts_per_user": (5, 4)},
        {"tags_per_post": (0, 2)},
        {"tags_per_post": (3, 2)},
        {"noise": -0.1},
        {"noise": 1.5},
        {"switch_fraction": 0.0},
        {"switch_fraction": 1.0},
        {"step_seconds": 0},
        {"start": -1},
    ],
)
def test_bad_config_is_config_error(overrides):
    with pytest.raises(ConfigError):
        SynthConfig(**overrides)


def test_start_zero_generates_non_negative_timestamps():
    f = generate(SynthConfig(users=20, items=40, tags=20, topics=4, start=0), seed=1)
    times = [ts for post in f.posts for _, ts in post.tag_times]
    assert min(times) >= 0
